"""Regenerate the pinned golden artifacts.

Four files are produced:

``golden_series.json``
    Pinned counter-series digests of the frozen seed pipeline.

``counter_manifest.json``
    The authoritative **counter-name universe** per kernel: the union, over
    every microarchitecture preset, of the counter names each kernel
    actually sampled on the golden trace.  ``repro-lint``'s counter-contract
    checker compares this observed universe against the statically extracted
    emission sites, closing the loop between what the code *says* it counts
    and what a run *actually* produced.

One digest per microarchitecture preset, computed from the **frozen seed
pipeline** (``repro.coresim._reference``) on the deterministic golden trace
below, bug-free.  ``tests/test_differential.py`` then checks the live
kernels (scalar and native) against these digests in seconds, so
oracle drift is caught without ever executing the slow reference pipeline
in CI.  Before writing, this script verifies every live kernel against the
freshly computed reference digests, so a drifted kernel cannot be pinned.

Run this ONLY for a deliberate, reviewed change to simulation semantics::

    PYTHONPATH=src python tests/data/make_golden.py

and commit the refreshed JSON together with the change that motivated it.

``golden_detection.json``
    Digests of the **detection outputs**: the Table V and Table VII metric
    rows at a tiny in-test scale (:data:`DETECTION_SCALE`), the per-probe
    stage-1 predictions, and GBT predictions on two seeded fixtures shaped
    like the single-stage baseline's and stage 1's training sets.
    ``tests/test_experiments.py`` recomputes them, so any change to what
    the detector learns or reports is caught.  Regenerate it separately::

        PYTHONPATH=src python tests/data/make_golden.py detection

    ONLY for a deliberate change to detection semantics, justified in
    ``CHANGES.md``.  A pure speed-up of the ML layer must leave it unchanged.

``golden_memsim.json``
    Digests of the memory-hierarchy simulator's results: every memory
    preset x {bug-free, every variant of the six memory bugs} on the golden
    403.gcc trace and ``kvstore.k6.gz``.  ``tests/test_differential.py``
    checks both memsim lanes (Python and native) against it.  Regenerate
    separately, ONLY for a deliberate change to memory-simulation
    semantics::

        PYTHONPATH=src python tests/data/make_golden.py memsim
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

#: Sampling step used for every golden simulation.
STEP_CYCLES = 256

#: Golden trace shape: long enough to exercise multiple sample steps on
#: every preset, short enough to regenerate in under a minute.
TRACE_LENGTH = 1800


def golden_trace():
    """The deterministic golden trace (shared by script and tests)."""
    from repro.workloads import TraceGenerator, build_program, decode_trace, workload

    program = build_program(workload("403.gcc"), seed=11)
    return decode_trace(TraceGenerator(program, seed=12).generate(TRACE_LENGTH))


def series_digest(result) -> str:
    """Content digest of a SimulationResult's sampled counter series."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"cycles={result.cycles};instr={result.instructions};".encode())
    series = result.series
    hasher.update(f"step={series.step_cycles};".encode())
    for name in sorted(series.counters):
        hasher.update(name.encode())
        hasher.update(series.counters[name].astype("<f8").tobytes())
    hasher.update(b"|ipc|")
    hasher.update(series.ipc.astype("<f8").tobytes())
    return hasher.hexdigest()


#: The in-test detection scale: ``SMOKE`` reduced to one benchmark of ~9k
#: instructions and 4/2/2 designs, so both tables regenerate in seconds.
DETECTION_SCALE = dict(
    name="golden",
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


def detection_scale():
    """The :class:`ExperimentScale` the detection golden is computed at."""
    from repro.experiments.common import SMOKE

    return dataclasses.replace(SMOKE, **DETECTION_SCALE)


def rows_digest(rows) -> str:
    """Digest of experiment metric rows; floats enter bit-exactly."""
    hasher = hashlib.blake2b(digest_size=16)
    for row in rows:
        for key, value in row.items():
            text = float(value).hex() if isinstance(value, float) else str(value)
            hasher.update(f"{key}={text};".encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def _update_floats(hasher, values) -> None:
    hasher.update(np.asarray(values, dtype="<f8").tobytes())


def stage1_digest(context) -> str:
    """Digest of every probe model's stage-1 predictions on every design."""
    from repro.detect.detector import TwoStageDetector

    detector = TwoStageDetector(context.detection_setup())
    detector.prepare()
    setup = detector.setup
    hasher = hashlib.blake2b(digest_size=16)
    for probe in setup.probes:
        model = detector.models[probe.name]
        for design in setup.train_designs + setup.val_designs + setup.test_designs:
            series = setup.cache.get(probe, design).series
            _simulated, inferred = model.predict_series(
                series, design.feature_vector()
            )
            hasher.update(f"{probe.name}|{design.name}|".encode())
            _update_floats(hasher, inferred)
    return hasher.hexdigest()


def gbt_fixture_digests() -> dict:
    """GBT predictions on seeded fixtures shaped like the real training sets.

    ``baseline``: 10 x 24 with {0, 1} targets, GBT-250 at depth 3 (the
    single-stage baseline's classifier).  ``stage1``: 6 x 22 with a 4-row
    validation set, GBT-150 (a stage-1 model with early stopping).  Half of
    each matrix is drawn from a few integers so that split ties occur.
    """
    from repro.ml import GradientBoostedTrees, build_model

    def matrix(rng, rows, cols):
        X = rng.normal(size=(rows, cols))
        X[:, ::2] = rng.integers(0, 3, size=(rows, (cols + 1) // 2))
        return X

    digests = {}
    rng = np.random.default_rng(20210227)
    X, X_test = matrix(rng, 10, 24), matrix(rng, 16, 24)
    y = (rng.random(10) > 0.5).astype(float)
    model = GradientBoostedTrees(n_estimators=250, max_depth=3, seed=11)
    fit = model.fit(X, y)
    hasher = hashlib.blake2b(digest_size=16)
    _update_floats(hasher, fit.history)
    _update_floats(hasher, model.predict(X))
    _update_floats(hasher, model.predict(X_test))
    digests["baseline_gbt250_10x24"] = hasher.hexdigest()

    X, X_val, X_test = matrix(rng, 6, 22), matrix(rng, 4, 22), matrix(rng, 16, 22)
    y, y_val = rng.normal(1.5, 0.3, size=6), rng.normal(1.5, 0.3, size=4)
    model = build_model("GBT-150", seed=7)
    fit = model.fit(X, y, X_val, y_val)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"trees={model.n_trees_fitted};".encode())
    _update_floats(hasher, fit.history)
    for rows in (X, X_val, X_test):
        _update_floats(hasher, model.predict(rows))
    digests["stage1_gbt150_6x22_val"] = hasher.hexdigest()
    return digests


def detection_digests() -> dict:
    """Every digest pinned in ``golden_detection.json``."""
    from repro.experiments import table5_detection, table7_memory
    from repro.experiments.common import ExperimentContext

    with ExperimentContext(detection_scale(), jobs=1) as context:
        digests = {
            "tab5_rows": rows_digest(table5_detection.run(context=context).rows),
            "tab7_rows": rows_digest(table7_memory.run(context=context).rows),
            "stage1_predictions": stage1_digest(context),
        }
    digests.update(gbt_fixture_digests())
    return digests


def main_detection() -> int:
    digests = detection_digests()
    for name, digest in digests.items():
        print(f"{name:24s} {digest}")
    payload = {
        "comment": (
            "Digests of detection outputs: Table V/VII rows at the in-test "
            "scale, per-probe stage-1 predictions and GBT fixture "
            "predictions. Regenerate ONLY via 'make_golden.py detection' "
            "for a deliberate change, justified in CHANGES.md."
        ),
        "scale": DETECTION_SCALE,
        "digests": digests,
    }
    out = Path(__file__).parent / "golden_detection.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


#: Sampling step (instructions) of every memsim golden simulation: both
#: golden traces span several steps, including a trailing partial one.
MEMSIM_STEP = 250


def memsim_traces() -> dict:
    """The memsim golden traces by name: the core golden trace and a k6 one."""
    from repro.workloads import decode_trace
    from repro.workloads.ingest import read_k6

    return {
        "403.gcc": golden_trace(),
        "kvstore.k6": decode_trace(read_k6(Path(__file__).parent / "kvstore.k6.gz")),
    }


def memsim_bugs() -> list:
    """``None`` (bug-free) plus every variant of the six memory bug types."""
    from repro.bugs.memory_bugs import all_memory_bugs

    return [None, *all_memory_bugs()]


def memsim_case_name(trace_name: str, config, bug) -> str:
    return f"{trace_name}|{config.name}|{bug.name if bug is not None else 'bug-free'}"


def memsim_digest(result) -> str:
    """Content digest of a MemSimResult: totals bit-exactly, then the series."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(
        f"cycles={float(result.cycles).hex()};instr={result.instructions};"
        f"amat={float(result.amat).hex()};".encode()
    )
    series = result.series
    hasher.update(f"step={series.step_cycles};".encode())
    for name in sorted(series.counters):
        hasher.update(name.encode())
        hasher.update(series.counters[name].astype("<f8").tobytes())
    hasher.update(b"|ipc|")
    hasher.update(series.ipc.astype("<f8").tobytes())
    return hasher.hexdigest()


def memsim_digests(simulate) -> dict:
    """``{case name: digest}`` over the full memsim golden matrix.

    *simulate* is ``(config, trace, bug, step_instructions) -> MemSimResult``
    (one memsim lane).
    """
    from repro.uarch.memory_presets import all_memory_microarches

    digests = {}
    for trace_name, trace in memsim_traces().items():
        for config in all_memory_microarches():
            for bug in memsim_bugs():
                result = simulate(config, trace, bug, MEMSIM_STEP)
                digests[memsim_case_name(trace_name, config, bug)] = memsim_digest(
                    result
                )
    return digests


def main_memsim() -> int:
    from repro.coresim import native_available
    from repro.memsim import MemoryHierarchySim, MemoryBugModel
    from repro.memsim.native import simulate_memory_native

    # The Python walk is the reference lane; the native walk must reproduce
    # it before anything is pinned.
    digests = memsim_digests(
        lambda config, trace, bug, step: MemoryHierarchySim(
            config, bug=bug, step_instructions=step
        ).run(list(trace))
    )
    if native_available():
        native = memsim_digests(
            lambda config, trace, bug, step: simulate_memory_native(
                config, trace, bug if bug is not None else MemoryBugModel(), step
            )
        )
        drifted = sorted(name for name in digests if native[name] != digests[name])
        if drifted:
            raise SystemExit(
                f"native memsim walk diverges from the Python walk on "
                f"{len(drifted)} cases (e.g. {drifted[0]}); fix it before pinning"
            )
    else:
        print("WARNING: no C compiler found; native memsim walk NOT verified")
    payload = {
        "comment": (
            "Digests of memory-hierarchy simulator results (every memory "
            "preset x bug-free + every memory bug variant, two golden "
            "traces). Regenerate ONLY via 'make_golden.py memsim' for a "
            "deliberate change to memory-simulation semantics."
        ),
        "step_instructions": MEMSIM_STEP,
        "digests": digests,
    }
    out = Path(__file__).parent / "golden_memsim.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out} ({len(digests)} cases)")
    return 0


def main() -> int:
    from repro.coresim import native_available, simulate_trace
    from repro.coresim._reference import reference_simulate_trace
    from repro.uarch import all_core_microarches

    kernels = ["scalar"]
    if native_available():
        kernels.append("native")
    else:
        print("WARNING: no C compiler found; native kernel NOT verified")
    trace = golden_trace()
    digests = {}
    observed: "dict[str, set]" = {name: set() for name in ["reference", *kernels]}
    for config in all_core_microarches():
        result = reference_simulate_trace(
            config, list(trace), step_cycles=STEP_CYCLES
        )
        digests[config.name] = series_digest(result)
        observed["reference"].update(result.series.counters)
        # refuse to pin digests a live kernel cannot reproduce
        for kernel in kernels:
            live_result = simulate_trace(
                config, trace, step_cycles=STEP_CYCLES, kernel=kernel
            )
            observed[kernel].update(live_result.series.counters)
            live = series_digest(live_result)
            if live != digests[config.name]:
                raise SystemExit(
                    f"{config.name}: {kernel} kernel diverges from the "
                    f"reference (got {live}); fix the kernel before pinning"
                )
        print(f"{config.name:14s} {digests[config.name]}")
    payload = {
        "comment": (
            "Golden counter-series digests of the frozen seed pipeline "
            "(bug-free, default trace). Regenerate ONLY via make_golden.py "
            "for a deliberate semantic change."
        ),
        "step_cycles": STEP_CYCLES,
        "trace_length": TRACE_LENGTH,
        "kernels_verified": kernels,
        "digests": dict(sorted(digests.items())),
    }
    out = Path(__file__).parent / "golden_series.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")

    manifest = {
        "comment": (
            "Observed counter-name universe per kernel (union over every "
            "preset, bug-free golden trace). Consumed by repro-lint's "
            "counter-contract checker. Regenerate via make_golden.py."
        ),
        "step_cycles": STEP_CYCLES,
        "trace_length": TRACE_LENGTH,
        "kernels": {name: sorted(names) for name, names in observed.items()},
    }
    manifest_out = Path(__file__).parent / "counter_manifest.json"
    with open(manifest_out, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {manifest_out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["detection"]:
        sys.exit(main_detection())
    if sys.argv[1:] == ["memsim"]:
        sys.exit(main_memsim())
    sys.exit(main())
