"""Per-layer spans for the benchmark, installed from outside ``src/``.

:func:`install` replaces the public entry point of each layer with a thin
wrapper that records a span: calls, busy time and self time (busy time
minus the part covered by nested spans on the same thread).  Spans
aggregate into one table per *phase*; a benchmark process switches phases
with :meth:`Recorder.set_phase`.  Nothing in the program is edited, so the
untraced run measures the program exactly as users run it.

The core and memory simulator wrappers also digest every counter series
they return, in call order, so a simulator change that alters any
simulated statistic shows as a different digest.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
import time

import numpy as np

#: Bookkeeping done by the wrappers themselves (kernel tags, digests).  It is
#: its own layer so that it is neither charged to the caller's self time nor
#: left unattributed.
TRACE_LAYER = "trace"

ML_ENGINES = (
    ("repro.ml.gbt", "GradientBoostedTrees", "gbt"),
    ("repro.ml.mlp", "MLPRegressor", "mlp"),
    ("repro.ml.linear", "LassoRegressor", "lasso"),
)


class Recorder:
    """Span tables per phase plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.tables: dict[str, dict[str, list]] = {}
        self.counts: dict[str, float] = {}
        self.series_digests: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, layer: str, busy_ns: int, self_ns: int) -> None:
        with self._lock:
            row = self.tables.setdefault(self.phase, {}).setdefault(layer, [0, 0, 0])
            row[0] += 1
            row[1] += busy_ns
            row[2] += self_ns

    def traced(self, function, layer: str, after=None):
        """*function* wrapped in a span of *layer*.

        *after(args, kwargs, result)* runs outside the span; its cost is
        charged to :data:`TRACE_LAYER`.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                busy = time.perf_counter_ns() - start
                stack.pop()
                recorder._add(layer, busy, busy - frame[0])
            if after is not None:
                hook_start = time.perf_counter_ns()
                after(args, kwargs, result)
                hook = time.perf_counter_ns() - hook_start
                recorder._add(TRACE_LAYER, hook, hook)
                busy += hook
            if stack:
                stack[-1][0] += busy
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", layer)
        return wrapper

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with :meth:`traced` of it."""
        setattr(owner, attr, self.traced(getattr(owner, attr), layer, after))

    def digest_series(self, kind: str, result) -> None:
        """Digest one simulator result's statistics, in call order."""
        series = result.series
        digest = hashlib.blake2b(digest_size=16)
        update = digest.update
        update(f"{kind}|{result.config_name}|{result.bug_name}|".encode())
        update(f"{result.instructions}|{result.cycles!r}|{series.step_cycles}|".encode())
        for name in sorted(series.counters):
            update(name.encode())
            update(np.ascontiguousarray(series.counters[name]).tobytes())
        update(np.ascontiguousarray(series.ipc).tobytes())
        with self._lock:
            self.series_digests.append(digest.hexdigest())

    def table(self) -> dict:
        """JSON-ready snapshot: per-phase layer rows, counters and digest."""
        with self._lock:
            return {
                "phases": {
                    phase: {
                        layer: {"calls": calls, "busy_s": busy / 1e9, "self_s": own / 1e9}
                        for layer, (calls, busy, own) in rows.items()
                    }
                    for phase, rows in self.tables.items()
                },
                "counts": dict(self.counts),
                "series_digests": list(self.series_digests),
                "counter_digest": combine_digests(self.series_digests),
            }


def combine_digests(digests: list) -> str:
    """One digest over per-result digests, in the given order."""
    combined = hashlib.blake2b(digest_size=16)
    for digest in digests:
        combined.update(digest.encode())
    return combined.hexdigest()


def _arg(args, kwargs, name: str, position: int):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def install(recorder: Recorder, framing: bool = False) -> None:
    """Wrap every measured layer's entry point (simulation side and ML).

    *framing* also wraps the frame codec where the serve daemon and client
    bind it.
    """
    import repro.detect.baseline as baseline
    import repro.detect.detector as detector
    import repro.detect.probe as probe
    import repro.runtime.execution as execution
    from repro.coresim.simulator import choose_kernel, resolve_kernel
    from repro.coresim.native import native_available, supports_native
    from repro.detect.stage1 import ProbeModel
    from repro.detect.stage2 import RuleBasedClassifier
    from repro.runtime.engine import JobEngine
    from repro.runtime.job import SimulationJob
    from repro.runtime.store import ResultStore

    recorder.wrap(probe.SyntheticProbeSource, "build", "workloads.probe_build")
    recorder.wrap(probe, "select_simpoints", "simpoint.select")

    def ran_on(bug, kernel, lanes: int) -> str:
        # The simulator's own dispatch: explicit kernel, else REPRO_KERNEL,
        # with "auto" resolved by choose_kernel and native falling back to
        # scalar for hook-overriding bug models.
        resolved = resolve_kernel(kernel)
        if resolved == "auto":
            resolved = choose_kernel(bug, lanes=lanes)
        if resolved == "native" and not (supports_native(bug) and native_available()):
            resolved = "scalar"
        return resolved

    def after_core(args, kwargs, result) -> None:
        # simulate_trace returns one result, simulate_trace_batch a list;
        # both take (config, trace(s), bug, step_cycles, warmup, kernel).
        results = result if isinstance(result, list) else [result]
        kernel = ran_on(_arg(args, kwargs, "bug", 2), _arg(args, kwargs, "kernel", 5),
                        len(results))
        recorder.count("coresim.sims", len(results))
        recorder.count(f"coresim.{kernel}_sims", len(results))
        recorder.count("coresim.instructions", sum(r.instructions for r in results))
        for one in results:
            recorder.digest_series("core", one)

    def after_memory(args, kwargs, result) -> None:
        recorder.count("memsim.sims")
        recorder.count("memsim.instructions", result.instructions)
        recorder.digest_series("memory", result)

    recorder.wrap(execution, "simulate_trace", "coresim", after_core)
    recorder.wrap(execution, "simulate_trace_batch", "coresim", after_core)
    recorder.wrap(execution, "simulate_memory_trace", "memsim", after_memory)

    for module_name, class_name, short in ML_ENGINES:
        cls = getattr(importlib.import_module(module_name), class_name)
        recorder.wrap(cls, "fit", f"ml.fit.{short}")
        recorder.wrap(cls, "predict", f"ml.predict.{short}")

    recorder.wrap(detector, "select_counters", "detect.select_counters")
    recorder.wrap(baseline, "select_counters", "detect.select_counters")
    recorder.wrap(ProbeModel, "fit", "detect.stage1")
    recorder.wrap(ProbeModel, "predict_series", "detect.stage1")
    recorder.wrap(RuleBasedClassifier, "fit", "detect.stage2.fit")
    recorder.wrap(RuleBasedClassifier, "score", "detect.stage2.score")

    engine_run = JobEngine.run

    def run_counted(self, jobs, traces):
        before = self.stats.executed
        try:
            return engine_run(self, jobs, traces)
        finally:
            recorder.count("runtime.engine.executed", self.stats.executed - before)

    JobEngine.run = run_counted
    recorder.wrap(JobEngine, "run", "runtime.engine")
    recorder.wrap(SimulationJob, "key", "runtime.job.key")

    def after_get(args, kwargs, result) -> None:
        recorder.count("runtime.store.gets")
        if result is not None:
            recorder.count("runtime.store.hits")

    recorder.wrap(ResultStore, "get", "runtime.store.get", after_get)
    recorder.wrap(ResultStore, "put", "runtime.store.put")

    if framing:
        install_framing(recorder)


class _CountingWriter:
    """Write-through proxy counting the bytes of one frame."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0

    def write(self, data) -> int:
        self.bytes += len(data)
        return self.stream.write(data)

    def flush(self) -> None:
        self.stream.flush()


def install_framing(recorder: Recorder) -> None:
    """Wrap ``read_frame``/``write_frame`` where serve's client and daemon bind them.

    A read's wait for the peer's first byte is not the codec's work (it is
    the peer's, or idle time), so each read first blocks in ``peek`` outside
    the span; the span then covers reading the rest and unpickling.
    """
    import repro.serve.client as client
    import repro.serve.server as server

    for module in (client, server):
        read_frame = module.read_frame
        write_frame = module.write_frame
        timed_read = recorder.traced(read_frame, "runtime.framing.read")
        timed_write = recorder.traced(write_frame, "runtime.framing.write")

        def read_waiting(stream, *args, _timed=timed_read, **kwargs):
            try:
                stream.peek(1)
            except (OSError, ValueError):
                pass  # the real read reports the broken stream
            return _timed(stream, *args, **kwargs)

        def write_counted(stream, kind, payload, _timed=timed_write):
            counting = _CountingWriter(stream)
            _timed(counting, kind, payload)
            recorder.count("runtime.framing.frames")
            recorder.count("runtime.framing.bytes", counting.bytes)

        module.read_frame = read_waiting
        module.write_frame = write_counted

