"""The processes the benchmark runner (``run.py``) starts, one per role.

Each role runs in a fresh interpreter whose environment has every
``REPRO_*`` variable cleared, so the program's defaults are measured::

    python3 perfbench/child.py prepare --out INFO.json
    python3 perfbench/child.py table tab5 --out RESULT.json [--setup-only] [--trace]
    python3 perfbench/child.py train --registry MODEL.pkl --out RESULT.json [--trace]
    python3 perfbench/child.py daemon --trace-out TABLE.json -- REGISTRY --store DIR

``prepare`` byte-compiles the sources and builds the native kernel, which
users pay once per machine, and reports the toolchain.  ``table`` builds an
experiment context at the benchmark scale (``BENCH_SCALE``) and its probes,
which is the set-up, then regenerates the table.  ``train`` is serve's
set-up: train and save a model the way ``repro-bench``'s serve section
does.  ``daemon`` is the traced launcher
for ``repro-serve run``: it installs the same span wrappers, serves, and
writes its span table when the daemon drains.  Results go to ``--out`` as
JSON; ``ready`` is a ``time.perf_counter()`` reading, which is
``CLOCK_MONOTONIC`` and so comparable with the runner's own clock.  CPU
times are ``time.process_time()`` readings: every thread of the process,
from its start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

TABLES = {"tab5": "table5_detection", "tab7": "table7_memory"}

#: The benchmark scale: the repository's ``SMOKE`` scale with fewer
#: instructions and designs, so that one table takes seconds rather than a
#: minute.  It keeps every engine, the five smoke bug types and both
#: studies, so each layer still runs.  See README.md.
BENCH_SCALE = dict(
    name="bench",
    benchmarks=("403.gcc",),
    instructions_per_benchmark=9_000,
    interval_size=1_000,
    train_arch_limit=4,
    stage2_arch_limit=2,
    test_arch_limit=2,
    memory_benchmarks=("403.gcc",),
    memory_instructions=4_000,
    memory_step_instructions=500,
)


def bench_scale():
    import dataclasses

    from repro.experiments.common import SMOKE

    return dataclasses.replace(SMOKE, **BENCH_SCALE)


def _recorder(enabled: bool):
    if not enabled:
        return None
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    return recorder


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=float)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_prepare(args) -> int:
    import compileall
    import platform

    import numpy

    from repro.coresim.native import compiler_info, native_available

    compileall.compile_dir(os.path.join(os.path.dirname(HERE), "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    _write(args.out, {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": (compiler_info() or {}).get("version", "none"),
        "native_available": native_available(),
    })
    return 0


def cmd_table(args) -> int:
    import importlib

    from repro.experiments.common import ExperimentContext

    recorder = _recorder(args.trace)
    module = importlib.import_module(f"repro.experiments.{TABLES[args.experiment]}")
    job_ms: list[float] = []
    job_cpu_ms: list[float] = []
    last = {"done": -2, "total": -1, "at": 0.0, "cpu": 0.0}

    def progress(done: int, total: int) -> None:
        # The engine reports once when a batch starts and once per finished
        # job; the gap between two reports of one batch is one job's latency.
        now, cpu = time.perf_counter(), time.process_time()
        if total == last["total"] and done == last["done"] + 1:
            job_ms.append((now - last["at"]) * 1000.0)
            job_cpu_ms.append((cpu - last["cpu"]) * 1000.0)
        last.update(done=done, total=total, at=now, cpu=cpu)

    context = ExperimentContext(bench_scale(), progress=progress)
    if args.experiment == "tab5":
        context.probes
    else:
        context.memory_probes
    ready = time.perf_counter()
    payload: dict = {"ready": ready, "setup_cpu_s": time.process_time()}
    if not args.setup_only:
        if recorder is not None:
            recorder.set_phase("run")
        started, cpu = time.perf_counter(), time.process_time()
        result = module.run(context=context)
        payload["wall_s"] = time.perf_counter() - started
        payload["cpu_s"] = time.process_time() - cpu
        payload["job_cpu_ms"] = job_cpu_ms
        payload["rows"] = result.rows
        payload["job_ms"] = job_ms
        payload["executed"] = context.engine.stats.executed
    context.close()
    payload["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        payload["trace"] = recorder.table()
    _write(args.out, payload)
    return 0


def cmd_train(args) -> int:
    from repro.experiments.common import ExperimentContext
    from repro.serve import save_model, train_model

    recorder = _recorder(args.trace)
    with ExperimentContext(bench_scale()) as context:
        model = train_model(context.detection_setup(), name="bench")
    save_model(model, args.registry)
    payload: dict = {"probes": len(model.probes), "cpu_s": time.process_time()}
    if recorder is not None:
        payload["trace"] = recorder.table()
    _write(args.out, payload)
    return 0


def cmd_daemon(args) -> int:
    import tracing
    from repro.serve.server import DetectionServer, main
    from repro.serve.session import ServingSession

    recorder = tracing.Recorder()
    tracing.install(recorder, framing=True)
    recorder.wrap(ServingSession, "verdict_for", "serve.verdict")
    health = DetectionServer.health
    segment = [0]

    def health_marking_phase(self):
        # Every ``stats`` request the runner sends closes one segment, so
        # the runner can line the daemon's spans up with its own phases.
        segment[0] += 1
        recorder.set_phase(f"segment{segment[0]}")
        return health(self)

    DetectionServer.health = health_marking_phase
    recorder.set_phase("segment0")
    try:
        return main(["run", *args.serve_args])
    finally:
        _write(args.trace_out, recorder.table())


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    roles = parser.add_subparsers(dest="role", required=True)

    prepare = roles.add_parser("prepare")
    prepare.add_argument("--out", required=True)
    prepare.set_defaults(func=cmd_prepare)

    table = roles.add_parser("table")
    table.add_argument("experiment", choices=sorted(TABLES))
    table.add_argument("--out", required=True)
    table.add_argument("--setup-only", action="store_true")
    table.add_argument("--trace", action="store_true")
    table.set_defaults(func=cmd_table)

    train = roles.add_parser("train")
    train.add_argument("--registry", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--trace", action="store_true")
    train.set_defaults(func=cmd_train)

    daemon = roles.add_parser("daemon")
    daemon.add_argument("--trace-out", required=True)
    daemon.add_argument("serve_args", nargs=argparse.REMAINDER)
    daemon.set_defaults(func=cmd_daemon)

    args = parser.parse_args(argv)
    if getattr(args, "serve_args", None) and args.serve_args[0] == "--":
        args.serve_args = args.serve_args[1:]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
