"""End-to-end benchmark: smoke Table V, smoke Table VII and a serve loop.

Run from the repository root::

    python3 perfbench/run.py --workload tab5_core --seed 7 --seconds 10 --trace 0

Workloads (see README.md for why each was chosen):

* ``tab5_core``: ``table5_detection.run``, repeated for ``--seconds``;
* ``tab7_memory``: ``table7_memory.run``, repeated for ``--seconds``;
* ``serve_verdicts``: a one-client closed loop against a ``repro-serve``
  daemon, in a cold, a warm (``--seconds`` long) and a replay phase.

Every program process starts fresh with every ``REPRO_*`` variable
cleared.  The experiments and the served model use the benchmark scale
(``child.BENCH_SCALE``, a reduced ``SMOKE``).  ``--seed`` (default 7)
sets ``PYTHONHASHSEED`` of every program process and, for serve, the
order of the requests in each phase.
Outputs must not depend on it, so one reference per workload checks every
run.  (Passing the seed on as ``ExperimentScale.seed`` changes the probes
and synthetic programs, which moved the timings by 20-50% between seeds;
see README.md.)

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics.  With ``--trace 1`` the program runs with span
wrappers (``tracing.py``) and the result holds the per-layer metrics.  Outputs are checked against
``reference.json`` and against invariants of each workload.  Scratch
files go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.  Serve's set-up trains a
#: model, so it is repeated fewer times to fit the time budget.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
#: A child gets this long before it counts as hung.
CHILD_TIMEOUT = 150
#: The wall-clock tail latency is this percentile; it needs ten samples
#: beyond it.
TAIL_PCT = 90
MIN_SAMPLES = 10 * 100 // (100 - TAIL_PCT)
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
SERVE_PRESETS = ("Skylake", "Broadwell", "Cedarview", "K8")
VERDICT_FIELDS = ("config_name", "bug_name", "detected", "score", "errors")
TABLE_EXPERIMENTS = {"tab5_core": "tab5", "tab7_memory": "tab7"}
TABLE_ROWS = {"tab5_core": 6, "tab7_memory": 2}
WORKLOADS = (*TABLE_EXPERIMENTS, "serve_verdicts")

#: The gated metrics are CPU times of the program processes.  On a shared
#: host, wall time also counts the time other tenants hold the cores; wall
#: figures are printed as ``[info]`` lines.  See README.md.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_cpu_ms": "ms",
}

ML_ENGINES = tuple(short for _module, _cls, short in tracing.ML_ENGINES)
PER_LAYER = {
    "workloads.probe_build_s": "s",
    "simpoint.select_s": "s",
    "coresim.sims": "count",
    "coresim.scalar_sims": "count",
    "coresim.native_sims": "count",
    "coresim.busy_s": "s",
    "coresim.instr_per_s": "instr/s",
    "memsim.sims": "count",
    "memsim.busy_s": "s",
    "memsim.instr_per_s": "instr/s",
    **{
        f"ml.{stage}.{engine}.{field}": unit
        for stage in ("fit", "predict")
        for engine in ML_ENGINES
        for field, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "detect.select_counters.busy_s": "s",
    "detect.stage1.self_s": "s",
    "detect.stage2.fit.busy_s": "s",
    "detect.stage2.score.busy_s": "s",
    "runtime.engine.calls": "count",
    "runtime.engine.self_s": "s",
    "runtime.engine.executed": "count",
    "runtime.job.key.busy_s": "s",
    "runtime.store.get.calls": "count",
    "runtime.store.get.busy_s": "s",
    "runtime.store.put.calls": "count",
    "runtime.store.put.busy_s": "s",
    "runtime.store.hit_ratio": "ratio",
    "runtime.framing.frames": "count",
    "runtime.framing.bytes": "B",
    "runtime.framing.read.busy_s": "s",
    "runtime.framing.write.busy_s": "s",
    "serve.verdict.busy_s": "s",
    "serve.cold.wire_p50_ms": "ms",
    "serve.warm.wire_p50_ms": "ms",
    "serve.replay.wire_p50_ms": "ms",
    "serve.memory_hits": "count",
    "serve.store_hits": "count",
    "serve.executed": "count",
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
}

#: The layer expected to take the most self time, as measured when the
#: benchmark was written; a change of leader is reported, not failed.
EXPECTED_LEADER = {
    "tab5_core": "ml.fit.gbt",
    "tab7_memory": "memsim",
    "serve_verdicts": "ml.predict.gbt",
}


class BenchError(RuntimeError):
    """A program process failed, so no result can be reported."""


# -- processes -----------------------------------------------------------------


def child_env(seed: int) -> dict:
    """A program process's environment: no ``REPRO_*``, the seed as hash seed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = SRC
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "cache")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def run_child(args: list, out: str, seed: int) -> "tuple[dict, float]":
    """Run one ``child.py`` role to completion; returns (result, spawn time)."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD, *args, "--out", out],
        env=child_env(seed), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), spawned


class Daemon:
    """One ``repro-serve run`` process (traced through the launcher if asked)."""

    def __init__(self, registry: str, store: str, trace_out: "str | None", log: str,
                 seed: int) -> None:
        serve_args = [registry, "--store", store, "--port", "0"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve.server", "run", *serve_args]
        else:
            command = [sys.executable, CHILD, "daemon", "--trace-out", trace_out, "--",
                       *serve_args]
        self.trace_out = trace_out
        self.log = log
        with open(log, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(command, env=child_env(seed), cwd=ROOT,
                                         stdout=subprocess.PIPE, stderr=stderr, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}\n{self.log_tail()}")
        self.ready = time.perf_counter()
        self.host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        self.port = int(port)

    def cpu_s(self) -> float:
        """User plus system CPU time of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def shutdown(self, client) -> None:
        client.shutdown()
        client.close()
        self.proc.communicate(timeout=CHILD_TIMEOUT)
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with {self.proc.returncode}\n{self.log_tail()}")

    def stop(self) -> None:
        """Kill the daemon if it is still running and reap it."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()

    def log_tail(self) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-4000:]

    def trace(self) -> dict:
        with open(self.trace_out, encoding="utf-8") as handle:
            return json.load(handle)


# -- statistics ----------------------------------------------------------------


def tail(values: list, pcts=(99, 98, 95, TAIL_PCT)) -> "tuple[float, int]":
    """The highest of *pcts* with ten samples beyond it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in pcts:
        if len(values) * (100 - pct) / 100 >= 10:
            return cuts[pct - 1], pct
    raise BenchError(f"only {len(values)} latency samples")


def same(a, b) -> bool:
    """Exact equality through JSON, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def load_reference(workload: str) -> "dict | None":
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(workload)


# -- span tables ---------------------------------------------------------------


ROW_KEYS = ("calls", "busy_s", "self_s")


def merge(row_sets) -> dict:
    """Sum ``{layer: {calls, busy_s, self_s}}`` dicts."""
    merged: dict = {}
    for rows in row_sets:
        for layer, row in rows.items():
            into = merged.setdefault(layer, dict.fromkeys(ROW_KEYS, 0))
            for key in ROW_KEYS:
                into[key] += row[key]
    return merged


def phase_rows(table: dict, phases=None) -> list:
    """The layer rows of *table*'s phases (all phases if *phases* is None)."""
    return [rows for phase, rows in table["phases"].items()
            if phases is None or phase in phases]


def layer_metrics(tables: list, accounted_s: float, attributed: dict) -> dict:
    """The per-layer metrics from every process's span table.

    *attributed* is the merged table of the measured phases only; its self
    times and ``unattributed_s`` add up to *accounted_s*.  Layers the
    workload never enters read 0; the caller adds the serve phase metrics
    and ``trace.wall_s``.
    """
    layers = merge(rows for table in tables for rows in phase_rows(table))
    counts: dict = {}
    for table in tables:
        for name, value in table["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def row(layer: str) -> dict:
        return layers.get(layer, dict.fromkeys(ROW_KEYS, 0))

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "workloads.probe_build_s": row("workloads.probe_build")["busy_s"],
        "simpoint.select_s": row("simpoint.select")["busy_s"],
        "coresim.sims": counts.get("coresim.sims", 0),
        "coresim.scalar_sims": counts.get("coresim.scalar_sims", 0),
        "coresim.native_sims": counts.get("coresim.native_sims", 0),
        "coresim.busy_s": row("coresim")["busy_s"],
        "coresim.instr_per_s": rate(counts.get("coresim.instructions", 0),
                                    row("coresim")["busy_s"]),
        "memsim.sims": counts.get("memsim.sims", 0),
        "memsim.busy_s": row("memsim")["busy_s"],
        "memsim.instr_per_s": rate(counts.get("memsim.instructions", 0),
                                   row("memsim")["busy_s"]),
        "detect.select_counters.busy_s": row("detect.select_counters")["busy_s"],
        "detect.stage1.self_s": row("detect.stage1")["self_s"],
        "detect.stage2.fit.busy_s": row("detect.stage2.fit")["busy_s"],
        "detect.stage2.score.busy_s": row("detect.stage2.score")["busy_s"],
        "runtime.engine.calls": row("runtime.engine")["calls"],
        "runtime.engine.self_s": row("runtime.engine")["self_s"],
        "runtime.engine.executed": counts.get("runtime.engine.executed", 0),
        "runtime.job.key.busy_s": row("runtime.job.key")["busy_s"],
        "runtime.store.get.calls": row("runtime.store.get")["calls"],
        "runtime.store.get.busy_s": row("runtime.store.get")["busy_s"],
        "runtime.store.put.calls": row("runtime.store.put")["calls"],
        "runtime.store.put.busy_s": row("runtime.store.put")["busy_s"],
        "runtime.store.hit_ratio": rate(counts.get("runtime.store.hits", 0),
                                        counts.get("runtime.store.gets", 0)),
        "runtime.framing.frames": counts.get("runtime.framing.frames", 0),
        "runtime.framing.bytes": counts.get("runtime.framing.bytes", 0),
        "runtime.framing.read.busy_s": row("runtime.framing.read")["busy_s"],
        "runtime.framing.write.busy_s": row("runtime.framing.write")["busy_s"],
        "serve.verdict.busy_s": row("serve.verdict")["busy_s"],
        "trace.self_s": row("trace")["self_s"],
        "unattributed_s": accounted_s - sum(r["self_s"] for r in attributed.values()),
    })
    for stage in ("fit", "predict"):
        for engine in ML_ENGINES:
            found = row(f"ml.{stage}.{engine}")
            metrics[f"ml.{stage}.{engine}.calls"] = found["calls"]
            metrics[f"ml.{stage}.{engine}.busy_s"] = found["busy_s"]
    return metrics


def leader(table: dict) -> str:
    return max(table, key=lambda layer: table[layer]["self_s"]) if table else "none"


def print_table(title: str, table: dict, accounted_s: float) -> None:
    print(f"[layers] {title}: self time of {accounted_s:.3f}s accounted")
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {layer:<28} calls={row['calls']:<7} busy={row['busy_s']:9.4f}s "
              f"self={row['self_s']:9.4f}s")
    rest = accounted_s - sum(row["self_s"] for row in table.values())
    print(f"  {'(unattributed)':<28} {'':<13} {'':>15} self={rest:9.4f}s")


# -- tab5_core / tab7_memory ---------------------------------------------------


def table_runs(experiment: str, seed: int, seconds: float, scratch: str,
               trace: bool) -> "tuple[list, list]":
    """Tables in fresh children until *seconds* of table time have passed
    (one if traced), then set-up-only children up to ``SETUP_REPEATS``
    set-ups.  Returns (table results, set-up CPU and wall times)."""
    runs: list = []
    measured = 0.0
    args = ["table", experiment] + (["--trace"] if trace else [])
    while not runs or (not trace and measured < seconds):
        result, spawned = run_child(args, os.path.join(scratch, "table.json"), seed)
        result["setup_wall_s"] = result["ready"] - spawned
        runs.append(result)
        measured += result["wall_s"]
    setups = [{"cpu": result["setup_cpu_s"], "wall": result["setup_wall_s"]}
              for result in runs]
    while not trace and len(setups) < SETUP_REPEATS:
        out = os.path.join(scratch, "setup.json")
        result, spawned = run_child(["table", experiment, "--setup-only"], out, seed)
        setups.append({"cpu": result["setup_cpu_s"], "wall": result["ready"] - spawned})
    return runs, setups


def check_table(workload: str, result: dict, checks: dict) -> "tuple[int, int]":
    """(attempted, failed) rows of one table; fills *checks* with findings."""
    rows = result["rows"]
    attempted = max(TABLE_ROWS[workload], len(rows))
    failed = attempted - len(rows)
    for row in rows:
        rates = [row[key] for key in ("FPR", "TPR", "Precision")]
        if not all(isinstance(v, (int, float)) and (math.isnan(v) or 0.0 <= v <= 1.0)
                   for v in rates):
            failed += 1
            checks.setdefault("invalid_rows", []).append(row)
    if result["executed"] <= 0:
        failed = attempted
        checks["no_simulations"] = True
    reference = load_reference(workload)
    if reference is None:
        checks["reference"] = "unchecked (no stored reference)"
    else:
        mismatched = [i for i, row in enumerate(rows)
                      if i >= len(reference["rows"]) or not same(row, reference["rows"][i])]
        failed += len(mismatched)
        if mismatched or "reference" not in checks:
            checks["reference"] = f"mismatch in rows {mismatched}" if mismatched else "match"
        if "trace" in result:
            checks["counter_digest"] = digest_check(
                result["trace"]["counter_digest"], reference.get("counter_digest"))
    return attempted, min(failed, attempted)


def digest_check(actual: str, expected: "str | None") -> str:
    if expected is None:
        return f"unchecked ({actual})"
    return f"match ({actual})" if actual == expected else f"MISMATCH ({actual} != {expected})"


def run_table_workload(workload: str, seed: int, seconds: float, trace: bool,
                       scratch: str) -> dict:
    runs, setups = table_runs(TABLE_EXPERIMENTS[workload], seed, seconds, scratch,
                              trace)
    checks: dict = {}
    attempted = failed = 0
    for result in runs:
        tried, wrong = check_table(workload, result, checks)
        attempted += tried
        failed += wrong
    report = {"attempted": attempted, "failed": failed, "checks": checks,
              "rows": runs[-1]["rows"]}
    if not trace:
        job_ms = [ms for result in runs for ms in result["job_ms"]]
        job_cpu_ms = [ms for result in runs for ms in result["job_cpu_ms"]]
        report["metrics"] = {
            "setup_s": statistics.median(setup["cpu"] for setup in setups),
            "cpu_s": statistics.median(result["cpu_s"] for result in runs),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in runs),
            "op_cpu_ms": statistics.median(job_cpu_ms),
        }
        report["info"] = {
            "tables": len(runs),
            "operation": f"one simulation job ({len(job_ms)} over the run's tables)",
            "wall_s": statistics.median(result["wall_s"] for result in runs),
            "cpu_samples_s": [result["cpu_s"] for result in runs],
            "wall_samples_s": [result["wall_s"] for result in runs],
            "setup_cpu_samples_s": [setup["cpu"] for setup in setups],
            "setup_wall_samples_s": [setup["wall"] for setup in setups],
            "job_p50_ms": statistics.median(job_ms),
            f"job_p{TAIL_PCT}_ms": tail(job_ms, (TAIL_PCT,))[0],
            "simulations_executed": [result["executed"] for result in runs],
        }
        return report

    result = runs[0]
    table = result["trace"]
    run_layers = merge(phase_rows(table, {"run"}))
    print_table(f"{workload} setup", merge(phase_rows(table, {"setup"})),
                setups[0]["wall"])
    print_table(f"{workload} run", run_layers, result["wall_s"])
    report["metrics"] = layer_metrics([table], result["wall_s"], run_layers)
    report["metrics"]["trace.wall_s"] = result["wall_s"]
    report["counter_digest"] = table["counter_digest"]
    report["leader"] = leader(run_layers)
    return report


# -- serve_verdicts ------------------------------------------------------------


def serve_items() -> list:
    """The 60 request items: presets x (bug-free + first variant of each type)."""
    from repro.bugs.registry import core_bug_suite
    from repro.uarch.presets import core_microarch

    suite = core_bug_suite()
    bugs = [None] + [variants[0] for _, variants in sorted(suite.items())]
    return [(core_microarch(preset), bug) for preset in SERVE_PRESETS for bug in bugs]


class Phase:
    """Client-side record of one serve phase: one entry per request sent."""

    def __init__(self) -> None:
        self.latency_ms: list = []
        self.wire_ms: list = []
        #: the daemon's own time per verdict (its ``elapsed_ms``)
        self.daemon_ms: list = []
        #: ``(item index, verdict fields or None if the request failed, batch summary)``
        self.requests: list = []
        self.seconds = 0.0
        #: CPU time of the client and the daemon over the phase
        self.cpu_s = 0.0

    def request(self, client, index: int, item) -> None:
        from repro.serve.client import ProtocolError

        started = time.perf_counter()
        try:
            rows = list(client.probe_batch([item]))
        except (ProtocolError, OSError) as exc:
            self.requests.append((index, None, {"error": str(exc)}))
            return
        elapsed = (time.perf_counter() - started) * 1000.0
        if len(rows) != 1:
            self.requests.append((index, None, client.last_batch))
            return
        self.latency_ms.append(elapsed)
        self.wire_ms.append(elapsed - rows[0]["elapsed_ms"])
        self.daemon_ms.append(rows[0]["elapsed_ms"])
        verdict = {field: rows[0][field] for field in VERDICT_FIELDS}
        self.requests.append((index, verdict, client.last_batch))


def serve_phase(client, daemon: Daemon, items: list, name: str, rng: random.Random,
                seconds: float, recorder) -> Phase:
    """Send every item once in a seeded order; the warm phase repeats in
    freshly shuffled rounds until *seconds* have passed."""
    phase = Phase()
    if recorder is not None:
        recorder.set_phase(name)
    order = list(range(len(items)))
    cpu = time.process_time() + daemon.cpu_s()
    started = time.perf_counter()
    while True:
        rng.shuffle(order)
        for index in order:
            phase.request(client, index, items[index])
        phase.seconds = time.perf_counter() - started
        if name != "warm" or (
            phase.seconds >= seconds and len(phase.requests) >= MIN_SAMPLES
        ):
            break
    phase.cpu_s = time.process_time() + daemon.cpu_s() - cpu
    if recorder is not None:
        recorder.set_phase("idle")
    return phase


def serve_once(seed: int, seconds: float, scratch: str, trace: bool, setups: int,
               recorder) -> dict:
    from repro.serve.client import ServeClient

    registry = os.path.join(scratch, "model.pkl")
    store = os.path.join(scratch, "store")
    items = serve_items()
    rng = random.Random(seed)
    setup_times = []
    daemons: list = []

    def start(name: str) -> Daemon:
        trace_out = os.path.join(scratch, f"daemon-{name}.json") if trace else None
        daemons.append(Daemon(registry, store, trace_out,
                              os.path.join(scratch, f"daemon-{name}.log"), seed))
        return daemons[-1]

    phases = {}
    stats = []
    peak = []
    try:
        for index in range(setups):
            started = time.perf_counter()
            args = ["train", "--registry", registry] + (["--trace"] if trace else [])
            trained, _ = run_child(args, os.path.join(scratch, "train.json"), seed)
            daemon = start(f"setup{index}")
            setup_times.append({"wall": daemon.ready - started,
                                "cpu": trained["cpu_s"] + daemon.cpu_s()})
            if index < setups - 1:
                with ServeClient(daemon.host, daemon.port) as client:
                    daemon.shutdown(client)
        # The runner sends ``stats`` after the handshake and after each
        # phase; the traced daemon starts a new span segment at each one.
        with ServeClient(daemon.host, daemon.port) as client:
            stats.append(client.stats())
            phases["cold"] = serve_phase(client, daemon, items, "cold", rng,
                                         seconds, recorder)
            stats.append(client.stats())
            phases["warm"] = serve_phase(client, daemon, items, "warm", rng,
                                         seconds, recorder)
            stats.append(client.stats())
            peak.append(daemon.peak_rss_mb())
            daemon.shutdown(client)
        daemon = start("replay")
        with ServeClient(daemon.host, daemon.port) as client:
            stats.append(client.stats())
            phases["replay"] = serve_phase(client, daemon, items, "replay", rng,
                                           seconds, recorder)
            stats.append(client.stats())
            peak.append(daemon.peak_rss_mb())
            daemon.shutdown(client)
    finally:
        for daemon in daemons:
            daemon.stop()
    result = {
        "setup_times": setup_times,
        "probes": trained["probes"],
        "phases": phases,
        "stats": [s["stats"] for s in stats],
        "peak_rss_mb": max(peak),
    }
    if trace:
        result["tables"] = {"train": trained["trace"], "cold_warm": daemons[-2].trace(),
                            "replay": daemons[-1].trace()}
    return result


def check_serve(result: dict, checks: dict) -> "tuple[int, int, list]":
    """(attempted, failed, cold verdicts by item); fills *checks* with findings."""
    phases = result["phases"]
    probes = result["probes"]
    cold = {index: verdict for index, verdict, _ in phases["cold"].requests}
    reference = load_reference("serve_verdicts")
    if reference is None:
        checks["reference"] = "unchecked (no stored reference)"
        wrong_items = set()
    else:
        expected = reference["verdicts"]
        wrong_items = {index for index, verdict in cold.items()
                       if verdict is not None and not same(verdict, expected[index])}
        checks["reference"] = (f"mismatch in items {sorted(wrong_items)}" if wrong_items
                               else "match")
    # Cold items simulate every probe, warm items hit the overlay, replay
    # items read the store; warm and replay repeat the cold verdict.
    expect = {"cold": (probes, 0), "warm": (0, 0), "replay": (0, probes)}
    attempted = failed = 0
    for name, phase in phases.items():
        want_executed, want_hits = expect[name]
        for index, verdict, batch in phase.requests:
            attempted += 1
            wrong = (verdict is None
                     or index in wrong_items
                     or batch.get("executed") != want_executed
                     or batch.get("store_hits") != want_hits
                     or not same(verdict, cold.get(index)))
            if wrong:
                failed += 1
                if verdict is not None:
                    checks.setdefault(f"{name}_mismatch", set()).add(index)
    return attempted, failed, [cold.get(index) for index in sorted(cold)]


def run_serve_workload(seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    recorder = None
    if trace:
        recorder = tracing.Recorder()
        recorder.set_phase("idle")
        tracing.install_framing(recorder)
    result = serve_once(seed, seconds, scratch, trace,
                        1 if trace else SERVE_SETUP_REPEATS, recorder)
    checks: dict = {}
    attempted, failed, verdicts = check_serve(result, checks)
    phases = result["phases"]
    cold, warm, replay = phases["cold"], phases["warm"], phases["replay"]
    report = {"attempted": attempted, "failed": failed, "checks": checks,
              "verdicts": verdicts}
    if not trace:
        warm_tail, pct = tail(warm.latency_ms)
        setups = result["setup_times"]
        report["metrics"] = {
            "setup_s": statistics.median(setup["cpu"] for setup in setups),
            "cpu_s": cold.cpu_s + replay.cpu_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "op_cpu_ms": warm.cpu_s / len(warm.requests) * 1000.0,
        }
        report["info"] = {
            "operation": f"one warm verdict request ({len(warm.requests)} sent)",
            "wall_s": cold.seconds + replay.seconds,
            "setup_cpu_samples_s": [setup["cpu"] for setup in setups],
            "setup_wall_samples_s": [setup["wall"] for setup in setups],
            "cold_s": cold.seconds,
            "cold_p50_ms": statistics.median(cold.latency_ms),
            "warm_p50_ms": statistics.median(warm.latency_ms),
            "warm_daemon_p50_ms": statistics.median(warm.daemon_ms),
            f"warm_p{TAIL_PCT}_ms": tail(warm.latency_ms, (TAIL_PCT,))[0],
            f"warm_p{pct}_ms": warm_tail,
            "warm_verdicts_per_s": len(warm.latency_ms) / warm.seconds,
            "replay_s": replay.seconds,
            "replay_p50_ms": statistics.median(replay.latency_ms),
        }
        return report

    client_table = recorder.table()
    tables = result["tables"]
    segments = {"cold": (tables["cold_warm"], "segment1"),
                "warm": (tables["cold_warm"], "segment2"),
                "replay": (tables["replay"], "segment1")}
    attributed: dict = {}
    accounted = 0.0
    for name, phase in phases.items():
        daemon_table, segment = segments[name]
        layers = merge(phase_rows(client_table, {name}) + phase_rows(daemon_table, {segment}))
        print_table(f"serve_verdicts {name} phase (client + daemon)", layers, phase.seconds)
        attributed = merge([attributed, layers])
        accounted += phase.seconds
        if name == "warm":
            report["leader"] = leader(layers)
    print_table("serve_verdicts setup (train child + daemon start)",
                merge(phase_rows(tables["train"])), result["setup_times"][0]["wall"])
    all_tables = [*tables.values(), client_table]
    metrics = layer_metrics(all_tables, accounted, attributed)
    for name, phase in phases.items():
        metrics[f"serve.{name}.wire_p50_ms"] = statistics.median(phase.wire_ms)
    # Session counters: the first daemon's growth over cold + warm, plus the
    # replay daemon's growth.
    before_cold, _, after_warm, before_replay, after_replay = result["stats"]
    for counter in ("memory_hits", "store_hits", "executed"):
        metrics[f"serve.{counter}"] = (after_warm[counter] - before_cold[counter]
                                       + after_replay[counter] - before_replay[counter])
    metrics["trace.wall_s"] = cold.seconds + replay.seconds
    report["metrics"] = metrics
    # Request order is seeded, so the daemon's simulations come in a
    # seed-dependent order: combine per-result digests in sorted order.
    report["counter_digest"] = tracing.combine_digests(
        sorted(d for table in all_tables for d in table["series_digests"]))
    reference = load_reference("serve_verdicts")
    if reference is not None:
        checks["counter_digest"] = digest_check(report["counter_digest"],
                                                reference.get("counter_digest"))
    return report


# -- runner --------------------------------------------------------------------


def prepare(scratch: str) -> dict:
    """Untimed: byte-compile, build the native kernel, record the set-up."""
    info, _ = run_child(["prepare"], os.path.join(scratch, "prepare.json"), DEFAULT_SEED)
    info["nproc"] = len(os.sched_getaffinity(0))
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        info["commit"] = "unknown (git not found)"
    return info


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="table time per run; length of the serve warm phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    for sub in ("cache", "tmp", "results"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(WORK, "tmp"))
    try:
        info = prepare(scratch)
        print("[setup] " + " ".join(f"{k}={v}" for k, v in sorted(info.items())))
        trace = bool(args.trace)
        if args.workload == "serve_verdicts":
            report = run_serve_workload(args.seed, args.seconds, trace, scratch)
        else:
            report = run_table_workload(args.workload, args.seed, args.seconds, trace,
                                        scratch)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report["setup"] = info
    units = PER_LAYER if trace else END_TO_END
    details = os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    for name, value in report.get("info", {}).items():
        print(f"[info] {name} = {value}")
    for name, value in report["checks"].items():
        print(f"[check] {name}: {value}")
    if trace:
        expected = EXPECTED_LEADER[args.workload]
        print(f"[sanity] largest self-time layer: {report['leader']} "
              f"(largest when the benchmark was written: {expected})")
    error_ratio = report["failed"] / report["attempted"]
    print(f"[metric] error_ratio = {error_ratio:.6g} ({report['failed']} of "
          f"{report['attempted']} operations failed)")
    for name, unit in units.items():
        print(f"[metric] {name} = {report['metrics'][name]:.6g} {unit}")
    print(f"[details] {os.path.relpath(details, ROOT)}")
    correct = (report["failed"] == 0
               and not report["checks"].get("counter_digest", "").startswith("MISMATCH"))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
