"""Differential-testing oracle for the simulation kernels.

Three implementations of the core model must agree bit-for-bit on every
sampled counter: the frozen seed pipeline (``coresim/_reference``), the
optimized scalar pipeline and the compiled C native kernel
(``coresim/native``).  This suite grows the hand-picked equivalence
matrix of ``test_perf_equivalence.py`` into a *generator*: seeded random
(synthetic trace, preset mutation, bug x severity) triples hammer the
corners no hand-written case covers.

The fuzz seed comes from ``REPRO_FUZZ_SEED`` (CI rotates it per run and
logs it); the failing seed and case id are embedded in every assertion
message, so any CI failure replays locally with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/test_differential.py

Also here: the golden per-preset digests (oracle drift is caught in seconds
without executing the reference pipeline — regenerate via
``tests/data/make_golden.py``) and the cross-kernel engine/store contract
(result-store content must not depend on the kernel that produced it).

The memory-hierarchy simulator has two lanes under the same oracle: the
Python walk (``MemoryHierarchySim``, the reference) and the native walk
(``repro.memsim.native``).  Both are checked against the memsim golden
digests (``tests/data/golden_memsim.json``) and against each other by a
seeded fuzz over the memsynth archetypes and mix1–mix7.
"""

import dataclasses
import importlib.util
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro.bugs.core_bugs import (
    BPTableReduction,
    DependencyDelay,
    IQPressureDelay,
    L2LatencyBug,
    LongBranchDelay,
    MispredictPenalty,
    RegisterReduction,
    SerializeOpcode,
    StoresToLineDelay,
)
from repro.bugs.memory_bugs import (
    EvictMRU,
    LoadMissDelay,
    NoAgeUpdateOnAccess,
    SPPDroppedPrefetches,
    SPPLeastConfidence,
    SPPSignatureReset,
)
from repro.bugs.registry import core_bug_suite
from repro.coresim import (
    KERNELS,
    choose_kernel,
    native_available,
    resolve_kernel,
    simulate_trace,
    simulate_trace_batch,
    supports_native,
)
from repro.coresim._reference import reference_simulate_trace
from repro.coresim.native import NativeKernelUnavailable
from repro.memsim import MemoryHierarchySim, simulate_memory_trace
from repro.memsim.hooks import MemoryBugModel, declared_spec
from repro.memsim.native import simulate_memory_native
from repro.runtime import JobEngine, ResultStore, SimulationJob, TraceRegistry
from repro.runtime.execution import batch_group_key, plan_batches
from repro.uarch import all_core_microarches, core_microarch
from repro.uarch.config import CacheConfig, kb
from repro.uarch.memory_presets import all_memory_microarches
from repro.workloads import (
    MicroOp,
    Opcode,
    TraceGenerator,
    build_program,
    decode_trace,
    workload,
)
from repro.workloads.ingest import ingest_trace
from repro.workloads.memsynth import MEMSYNTH_WORKLOADS, memsynth_trace
from repro.workloads.mixes import DEFAULT_MIXES, build_mix

DATA_DIR = Path(__file__).parent / "data"

#: Default fuzz seed (deterministic local runs); CI rotates via the env var.
DEFAULT_FUZZ_SEED = 20260730

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "") or DEFAULT_FUZZ_SEED)

#: Scenarios x traces-per-scenario = fuzz cases run in tier-1.
FUZZ_SCENARIOS = 13
FUZZ_TRACES_PER_SCENARIO = 4


def _assert_identical(a, b, context):
    """Counter-bit-identity between two SimulationResults."""
    assert a.cycles == b.cycles, f"{context}: cycles {a.cycles} != {b.cycles}"
    assert a.instructions == b.instructions, context
    sa, sb = a.series, b.series
    assert sa.step_cycles == sb.step_cycles, context
    assert set(sa.counters) == set(sb.counters), (
        context,
        set(sa.counters) ^ set(sb.counters),
    )
    assert np.array_equal(sa.ipc, sb.ipc), context
    for name in sa.counters:
        assert np.array_equal(sa.counters[name], sb.counters[name]), (context, name)


# ---------------------------------------------------------------------------
# Seeded fuzz generation
# ---------------------------------------------------------------------------


_FUZZ_OPCODES = [
    Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MUL, Opcode.DIV,
    Opcode.FADD, Opcode.FMUL, Opcode.FDIV, Opcode.VADD, Opcode.POPCNT,
    Opcode.LOAD, Opcode.STORE, Opcode.BRANCH, Opcode.CALL, Opcode.RET,
    Opcode.NOP, Opcode.MOV,
]


def _random_uops(rng: random.Random, length: int) -> list[MicroOp]:
    """Adversarial random micro-ops: duplicate sources, clashing store/load
    addresses, indirect branches, odd pcs — the corners synthetic programs
    rarely produce."""
    uops = []
    pc = rng.randrange(0, 1 << 20) * 4
    hot_addresses = [rng.randrange(0, 1 << 24) * 8 for _ in range(8)]
    for _ in range(length):
        opcode = rng.choice(_FUZZ_OPCODES)
        n_srcs = rng.randrange(0, 3)
        srcs = tuple(rng.randrange(0, 32) for _ in range(n_srcs))
        if srcs and rng.random() < 0.15:
            srcs = (srcs[0], srcs[0])  # duplicate operand
        dest = rng.randrange(0, 32) if rng.random() < 0.6 else None
        address = None
        taken = None
        target = None
        indirect = False
        if opcode in (Opcode.LOAD, Opcode.STORE):
            address = (
                rng.choice(hot_addresses)
                if rng.random() < 0.5
                else rng.randrange(0, 1 << 28)
            )
            dest = rng.randrange(0, 32) if opcode is Opcode.LOAD else None
        elif opcode in (Opcode.BRANCH, Opcode.CALL, Opcode.RET):
            dest = None
            taken = rng.random() < 0.55
            target = pc + rng.randrange(-4096, 4096) * 4
            indirect = rng.random() < 0.2
        uops.append(
            MicroOp(
                opcode=opcode,
                srcs=srcs,
                dest=dest,
                pc=pc,
                address=address,
                taken=taken,
                target=target,
                indirect=indirect,
            )
        )
        pc += 4
    return uops


def _mutate_preset(rng: random.Random, config):
    """A structurally-valid random variation of a real preset."""
    fields = {}
    if rng.random() < 0.7:
        fields["width"] = rng.choice([1, 2, 3, 4, 6, 8])
    if rng.random() < 0.7:
        fields["rob_size"] = rng.choice([16, 24, 48, 96, 160, 224])
        fields["iq_size"] = 0  # re-derive from the new ROB
        fields["lsq_size"] = 0
        fields["num_phys_regs"] = 0
    if rng.random() < 0.4:
        fields["fetch_buffer"] = rng.choice([4, 8, 16, 32])
    if rng.random() < 0.4:
        fields["div_latency"] = rng.choice([8, 20, 40, 69])
    if not fields:
        fields["width"] = max(1, config.width - 1)
    return dataclasses.replace(config, name=f"{config.name}-fuzz", **fields)


def _random_bug(rng: random.Random):
    """None, a structural (native-eligible) bug, or a hook bug x severity."""
    roll = rng.random()
    if roll < 0.25:
        return None
    if roll < 0.5:
        return rng.choice(
            [
                RegisterReduction(rng.choice([4, 16, 32, 64])),
                BPTableReduction(rng.choice([1024, 3072, 3968])),
            ]
        )
    return rng.choice(
        [
            SerializeOpcode(rng.choice([Opcode.XOR, Opcode.LOAD, Opcode.ADD])),
            DependencyDelay(Opcode.ADD, Opcode.LOAD, rng.choice([3, 9, 27])),
            IQPressureDelay(rng.choice([4, 8]), rng.choice([2, 10])),
            MispredictPenalty(rng.choice([5, 15, 45])),
            StoresToLineDelay(rng.choice([2, 6]), rng.choice([4, 12])),
            L2LatencyBug(rng.choice([5, 25])),
            LongBranchDelay(rng.choice([64, 1024]), rng.choice([4, 16])),
        ]
    )


def _fuzz_cases():
    """The seeded (config, bug, step, traces) scenarios for this run."""
    rng = random.Random(FUZZ_SEED)
    presets = all_core_microarches()
    programs = [
        build_program(workload("403.gcc"), seed=rng.randrange(1 << 16)),
        build_program(workload("458.sjeng"), seed=rng.randrange(1 << 16)),
    ]
    scenarios = []
    for case in range(FUZZ_SCENARIOS):
        config = _mutate_preset(rng, rng.choice(presets))
        bug = _random_bug(rng)
        step = rng.choice([64, 256, 512])
        warmup = rng.random() < 0.8
        traces = []
        for _ in range(FUZZ_TRACES_PER_SCENARIO):
            if rng.random() < 0.5:
                traces.append(
                    decode_trace(
                        TraceGenerator(
                            rng.choice(programs), seed=rng.randrange(1 << 16)
                        ).generate(rng.randrange(150, 900))
                    )
                )
            else:
                traces.append(
                    decode_trace(_random_uops(rng, rng.randrange(120, 700)))
                )
        scenarios.append((case, config, bug, step, warmup, traces))
    return scenarios


class TestDifferentialFuzz:
    """reference == scalar == native over seeded random triples."""

    def test_seed_is_reported(self, capsys):
        print(f"[differential] REPRO_FUZZ_SEED={FUZZ_SEED}")
        assert FUZZ_SEED >= 0

    @pytest.mark.parametrize("case,config,bug,step,warmup,traces", _fuzz_cases(),
                             ids=lambda v: str(v) if isinstance(v, int) else "")
    def test_fuzz_case(self, case, config, bug, step, warmup, traces):
        context = (
            f"seed={FUZZ_SEED} case={case} config={config.name} "
            f"bug={getattr(bug, 'name', None)} step={step} warmup={warmup} "
            f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})"
        )
        # kernel="native" always runs: ineligible bugs (and compiler-less
        # hosts) fall back to scalar, so the comparison stays meaningful —
        # on eligible cases it exercises the compiled C loop end to end.
        native_results = simulate_trace_batch(
            config, traces, bug=bug, step_cycles=step, warmup=warmup,
            kernel="native",
        )
        for lane, trace in enumerate(traces):
            scalar = simulate_trace(
                config, trace, bug=bug, step_cycles=step, warmup=warmup,
                kernel="scalar",
            )
            reference = reference_simulate_trace(
                config, list(trace), bug=bug, step_cycles=step, warmup=warmup
            )
            _assert_identical(reference, scalar, f"{context} lane={lane} ref-vs-scalar")
            _assert_identical(
                scalar, native_results[lane], f"{context} lane={lane} scalar-vs-native"
            )

    def test_case_count_meets_floor(self):
        # The tier-1 contract: at least 50 differential cases per run.
        assert FUZZ_SCENARIOS * FUZZ_TRACES_PER_SCENARIO >= 50


# ---------------------------------------------------------------------------
# Kernel selection and scalar fallback
# ---------------------------------------------------------------------------


class TestVectorKernel:
    """Kernel selection and fallback.  The numpy vector kernel this class was
    named for is retired; the name is kept so the test ids stay stable."""

    def test_kernel_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel(None) == "scalar"
        assert resolve_kernel("native") == "native"
        assert resolve_kernel("auto") == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert resolve_kernel(None) == "native"
        assert resolve_kernel("scalar") == "scalar"
        with pytest.raises(ValueError):
            resolve_kernel("simd")
        # the retired vector kernel is rejected, naming what is available
        with pytest.raises(ValueError, match="available"):
            resolve_kernel("vector")
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        with pytest.raises(ValueError, match="available"):
            resolve_kernel(None)
        assert KERNELS == ("scalar", "native", "auto")

    def test_supports_vector_classification(self):
        """The hook-free classification the vector kernel used lives on as
        the native kernel's eligibility predicate."""
        assert supports_native(None)
        assert supports_native(RegisterReduction(8))
        assert supports_native(BPTableReduction(512))
        assert not supports_native(SerializeOpcode(Opcode.XOR))
        assert not supports_native(L2LatencyBug(10))
        assert not supports_native(MispredictPenalty(9))

    def test_auto_policy_never_picks_vector(self):
        """auto resolves to native (eligible + built) or scalar."""
        for bug in (None, RegisterReduction(8), SerializeOpcode(Opcode.XOR)):
            for lanes in (1, 8, 192):
                picked = choose_kernel(bug, lanes=lanes)
                assert picked in ("native", "scalar")
                if not (supports_native(bug) and native_available()):
                    assert picked == "scalar"

    def test_hook_bug_falls_back_to_scalar(self, monkeypatch):
        """REPRO_KERNEL=native with an ineligible bug must still be exact."""
        monkeypatch.setenv("REPRO_KERNEL", "native")
        program = build_program(workload("403.gcc"), seed=3)
        trace = decode_trace(TraceGenerator(program, seed=4).generate(600))
        config = core_microarch("Skylake")
        bug = SerializeOpcode(Opcode.XOR)
        env_result = simulate_trace(config, trace, bug=bug, step_cycles=256)
        scalar = simulate_trace(
            config, trace, bug=bug, step_cycles=256, kernel="scalar"
        )
        _assert_identical(scalar, env_result, "hook-bug fallback")

    def test_ragged_batch_with_straggler_fallback(self):
        """Many short traces plus one long straggler in one native batch."""
        program = build_program(workload("403.gcc"), seed=7)
        traces = [
            decode_trace(TraceGenerator(program, seed=100 + i).generate(150))
            for i in range(36)
        ]
        traces.append(
            decode_trace(TraceGenerator(program, seed=999).generate(2500))
        )
        config = core_microarch("Cedarview")
        batch = simulate_trace_batch(config, traces, step_cycles=256, kernel="native")
        for trace, got in zip(traces, batch):
            want = simulate_trace(config, trace, step_cycles=256, kernel="scalar")
            _assert_identical(want, got, "ragged+fallback")


# ---------------------------------------------------------------------------
# Golden digests: oracle drift caught without executing the reference
# ---------------------------------------------------------------------------


def _load_make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", DATA_DIR / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA_DIR / "golden_series.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def make_golden(self):
        return _load_make_golden()

    def test_golden_covers_every_preset(self, golden):
        assert set(golden["digests"]) == {c.name for c in all_core_microarches()}
        assert len(golden["digests"]) == 20

    def test_scalar_kernel_matches_golden(self, golden, make_golden):
        trace = make_golden.golden_trace()
        for config in all_core_microarches():
            result = simulate_trace(
                config, trace, step_cycles=make_golden.STEP_CYCLES, kernel="scalar"
            )
            digest = make_golden.series_digest(result)
            assert digest == golden["digests"][config.name], (
                f"{config.name}: scalar kernel drifted from the pinned oracle "
                "(regenerate via tests/data/make_golden.py ONLY for a "
                "deliberate semantic change)"
            )

    def test_native_kernel_matches_golden(self, golden, make_golden):
        if not native_available():
            pytest.skip("no C compiler on this host (scalar fallback covered "
                        "by test_native_kernel.py)")
        trace = make_golden.golden_trace()
        for config in all_core_microarches():
            result = simulate_trace(
                config, trace, step_cycles=make_golden.STEP_CYCLES, kernel="native"
            )
            digest = make_golden.series_digest(result)
            assert digest == golden["digests"][config.name], (
                f"{config.name}: native kernel drifted from the pinned oracle"
            )


# ---------------------------------------------------------------------------
# Cross-kernel engine/store contract
# ---------------------------------------------------------------------------


def _engine_jobs(registry: TraceRegistry, trace_ids, step=256):
    from repro.bugs.core_bugs import SerializeOpcode as Ser

    return [
        SimulationJob(study="core", config=core_microarch(name), bug=bug,
                      trace_id=tid, step=step)
        for name in ("Skylake", "K8")
        for bug in (None, RegisterReduction(16), Ser(Opcode.XOR))
        for tid in trace_ids
    ]


class TestCrossKernelEngine:
    @pytest.fixture()
    def synthetic_registry(self, gcc_program):
        registry = TraceRegistry()
        ids = [
            registry.register(
                decode_trace(TraceGenerator(gcc_program, seed=70 + i).generate(500))
            )
            for i in range(4)
        ]
        return registry, ids

    def test_native_engine_results_match_scalar(self, synthetic_registry, monkeypatch):
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        scalar = JobEngine(jobs=1).run(jobs, registry.traces)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        native = JobEngine(jobs=1).run(jobs, registry.traces)
        for a, b in zip(scalar, native):
            assert a.cycles == b.cycles
            assert set(a.counters) == set(b.counters)
            for name in a.counters:
                assert np.array_equal(a.counters[name], b.counters[name]), name

    def test_scalar_store_replays_under_native(
        self, synthetic_registry, tmp_path, monkeypatch
    ):
        """Store keys stay kernel-independent for the native kernel too: a
        scalar-filled store serves a REPRO_KERNEL=native run with executed=0,
        and the native-filled store replays under scalar the same way."""
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        store = ResultStore(tmp_path / "store")
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        filler = JobEngine(jobs=1, store=store)
        filler.run(jobs, registry.traces)
        assert filler.stats.executed == len(jobs)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        replayer = JobEngine(jobs=1, store=store)
        replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0
        assert replayer.stats.store_hits == len(jobs)

    def test_native_store_replays_under_scalar(
        self, synthetic_registry, tmp_path, monkeypatch
    ):
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv("REPRO_KERNEL", "native")
        JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        replayer = JobEngine(jobs=1, store=store)
        replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0

    def test_cross_kernel_on_ingested_golden_traces(self, tmp_path, monkeypatch):
        """Same contract over the checked-in on-disk trace samples."""
        registry = TraceRegistry()
        ids = []
        for sample in ("403.gcc.champsim.gz", "458.sjeng.champsim.xz"):
            ingested = ingest_trace(DATA_DIR / sample)
            ids.append(registry.register(decode_trace(ingested.decoded.uops[:600])))
        jobs = [
            SimulationJob(study="core", config=core_microarch(name), bug=bug,
                          trace_id=tid, step=256)
            for name in ("Skylake", "Cedarview")
            for bug in (None, BPTableReduction(1024))
            for tid in ids
        ]
        store = ResultStore(tmp_path / "store")
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        scalar = JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        replayer = JobEngine(jobs=1, store=store)
        replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0  # digests are kernel-independent
        # and a fresh native run over the same jobs is bit-identical
        fresh = JobEngine(jobs=1).run(jobs, registry.traces)
        for a, b in zip(scalar, fresh):
            assert a.cycles == b.cycles
            for name in a.counters:
                assert np.array_equal(a.counters[name], b.counters[name]), name

    def test_grouped_planning_keeps_sweeps_contiguous(
        self, synthetic_registry, monkeypatch
    ):

        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        engine = JobEngine(jobs=2)
        plan = engine._plan_chunks(list(enumerate(jobs)), registry.traces)
        # every job appears exactly once
        seen = sorted(i for chunk in plan for i, _ in chunk)
        assert seen == list(range(len(jobs)))
        # within each chunk, batchable groups are contiguous runs
        for chunk in plan:
            keys = [batch_group_key(job) for _, job in chunk]
            compact = [k for k, prev in zip(keys, [object()] + keys) if k != prev]
            groupable = [k for k in compact if k is not None]
            assert len(groupable) == len(set(groupable)), "group split apart"

    def test_grouped_chunks_run_in_input_order(self, synthetic_registry, monkeypatch):
        """Grouped planning keeps its chunk membership but runs each chunk in
        input order, so the jobs before a failing one have run when it fails."""
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        interleaved = jobs[::2] + jobs[1::2]  # every sweep straddles the middle
        monkeypatch.setenv("REPRO_KERNEL", "native")
        engine = JobEngine(jobs=1, chunk_size=8)
        plan = engine._plan_chunks(list(enumerate(interleaved)), registry.traces)
        positions = [[i for i, _ in chunk] for chunk in plan]
        assert positions == [
            [0, 1, 2, 3, 12, 13, 14, 15],
            [6, 7, 8, 9, 18, 19, 20, 21],
            [4, 5, 10, 11, 16, 17, 22, 23],
        ]
        # and the batcher still merges each sweep into one unit
        for chunk in plan:
            units = plan_batches(chunk, "native")
            keys = [batch_group_key(unit[0][1]) for unit in units]
            grouped = [key for key in keys if key is not None]
            assert len(grouped) == len(set(grouped))
            assert all(len(unit) == 4 for unit in units if batch_group_key(unit[0][1]))

    def test_engine_kernel_argument_validated(self):
        with pytest.raises(ValueError):
            JobEngine(jobs=1, kernel="warp")

    def test_explicit_kernel_rejected_on_parallel_backend(self, monkeypatch):
        """Workers resolve the kernel from their environment, so an explicit
        kernel= that the environment contradicts must fail fast instead of
        planning batches the workers would execute job by job."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            JobEngine(jobs=2, kernel="native")
        # consistent environment + argument is fine
        monkeypatch.setenv("REPRO_KERNEL", "native")
        JobEngine(jobs=2, kernel="native").close()
        # inline backends honour the argument alone
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        JobEngine(jobs=1, kernel="native").close()


# ---------------------------------------------------------------------------
# Memory-hierarchy simulator: Python walk vs native walk
# ---------------------------------------------------------------------------

#: Fuzz cases per trace source (4 memsynth archetypes + 7 mixes).
MEMSIM_FUZZ_CASES_PER_SOURCE = 2


def _python_lane(config, trace, bug, step):
    return MemoryHierarchySim(config, bug=bug, step_instructions=step).run(
        list(trace)
    )


def _native_lane(config, trace, bug, step):
    return simulate_memory_native(
        config, trace, bug if bug is not None else MemoryBugModel(), step
    )


def _require_native_memsim():
    if not native_available():
        pytest.skip("no C compiler on this host (Python fallback covered by "
                    "test_native_kernel.py)")


def _assert_memsim_identical(a, b, context, ordered=True):
    """Bit-identity of two MemSimResults (counter order included when
    *ordered*; a store round trip need not keep it)."""
    assert (a.config_name, a.bug_name) == (b.config_name, b.bug_name), context
    assert a.instructions == b.instructions, context
    assert float(a.cycles).hex() == float(b.cycles).hex(), (context, a.cycles, b.cycles)
    assert float(a.amat).hex() == float(b.amat).hex(), (context, a.amat, b.amat)
    assert a.series.step_cycles == b.series.step_cycles, context
    names_a, names_b = list(a.series.counters), list(b.series.counters)
    if not ordered:
        names_a, names_b = sorted(names_a), sorted(names_b)
    assert names_a == names_b, context
    assert a.series.ipc.tobytes() == b.series.ipc.tobytes(), context
    for name, values in a.series.counters.items():
        other = b.series.counters[name]
        assert values.dtype == other.dtype == np.float64, (context, name)
        assert values.tobytes() == other.tobytes(), (context, name)


def _random_memory_config(rng: random.Random):
    """A real memory preset, often with small caches and a random prefetcher
    so that evictions, prefetch fills and the bug paths all fire."""
    config = rng.choice(all_memory_microarches())
    fields = {}
    if rng.random() < 0.6:
        fields["l1d"] = CacheConfig(kb(rng.choice([2, 4, 8])), rng.choice([1, 2, 4]),
                                    rng.choice([2, 4]))
        fields["l2"] = CacheConfig(kb(rng.choice([16, 32])), rng.choice([4, 8]),
                                   rng.choice([8, 12]))
        fields["llc"] = CacheConfig(kb(rng.choice([64, 128])), rng.choice([8, 16]),
                                    rng.choice([20, 30]))
    if rng.random() < 0.5:
        fields["prefetcher"] = rng.choice(["none", "next_line", "spp"])
        fields["prefetch_degree"] = rng.choice([1, 2, 4])
    if rng.random() < 0.3:
        fields["issue_width"] = rng.choice([1, 2, 3, 6])
    return dataclasses.replace(config, name=f"{config.name}-fuzz", **fields)


def _random_memory_bug(rng: random.Random):
    level = rng.choice(["l1d", "l2", "llc"])
    return rng.choice(
        [
            None,
            NoAgeUpdateOnAccess(level),
            EvictMRU(level),
            LoadMissDelay(level, threshold=rng.choice([0, 3, 64]),
                          delay=rng.choice([1, 20, 40])),
            SPPSignatureReset(),
            SPPLeastConfidence(),
            SPPDroppedPrefetches(rng.choice([1, 2, 3, 4])),
        ]
    )


def _memsim_fuzz_cases():
    rng = random.Random(FUZZ_SEED)
    sources = [
        (name, decode_trace(memsynth_trace(name, rng.randrange(800, 2400),
                                           seed=rng.randrange(1 << 16))))
        for name in MEMSYNTH_WORKLOADS
    ] + [
        (spec.name, build_mix(spec, instructions=rng.randrange(800, 2400),
                              seed=rng.randrange(1 << 16)).decoded)
        for spec in DEFAULT_MIXES
    ]
    cases = []
    for source, trace in sources:
        for _ in range(MEMSIM_FUZZ_CASES_PER_SOURCE):
            cases.append(
                (len(cases), source, trace, _random_memory_config(rng),
                 _random_memory_bug(rng), rng.choice([1, 7, 100, 250, 500]))
            )
    return cases


class TestMemsimGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA_DIR / "golden_memsim.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def make_golden(self):
        return _load_make_golden()

    def test_golden_covers_every_preset_and_bug(self, golden, make_golden):
        expected = {
            make_golden.memsim_case_name(trace_name, config, bug)
            for trace_name in ("403.gcc", "kvstore.k6")
            for config in all_memory_microarches()
            for bug in make_golden.memsim_bugs()
        }
        assert set(golden["digests"]) == expected
        assert len(expected) == 2 * 12 * 11
        assert golden["step_instructions"] == make_golden.MEMSIM_STEP

    @pytest.mark.parametrize("lane", ["python", "native"])
    def test_lane_matches_golden(self, golden, make_golden, lane):
        if lane == "native":
            _require_native_memsim()
        simulate = _python_lane if lane == "python" else _native_lane
        digests = make_golden.memsim_digests(simulate)
        drifted = sorted(k for k, v in golden["digests"].items() if digests[k] != v)
        assert not drifted, (
            f"{lane} memsim lane drifted from the pinned oracle on "
            f"{len(drifted)} cases, e.g. {drifted[:3]} (regenerate via "
            "'make_golden.py memsim' ONLY for a deliberate semantic change)"
        )


class TestMemsimDifferentialFuzz:
    """Python walk == native walk over seeded memsynth and mix traces."""

    @pytest.mark.parametrize("case,source,trace,config,bug,step", _memsim_fuzz_cases(),
                             ids=lambda v: str(v) if isinstance(v, int) else "")
    def test_fuzz_case(self, case, source, trace, config, bug, step):
        _require_native_memsim()
        context = (
            f"seed={FUZZ_SEED} case={case} source={source} config={config.name} "
            f"bug={getattr(bug, 'name', None)} step={step} "
            f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})"
        )
        expected = _python_lane(config, trace, bug, step)
        _assert_memsim_identical(expected, _native_lane(config, trace, bug, step),
                                 context)
        # the dispatching entry point takes the native lane for spec'd bugs
        _assert_memsim_identical(
            expected,
            simulate_memory_trace(config, trace, bug=bug, step_instructions=step),
            context + " via simulate_memory_trace",
        )


class _HookOnlyBug(MemoryBugModel):
    """Overrides a hook and declares no spec: must stay on the Python walk."""

    name = "hook-only"

    def evict_most_recently_used(self, level: str) -> bool:
        return level == "l2"


class _ReOverridden(EvictMRU):
    """Re-overrides a hook of a spec'd bug: the inherited spec is stale."""

    def evict_most_recently_used(self, level: str) -> bool:
        return level != self.level


class TestMemsimDispatch:
    def test_shipped_models_declare_specs(self):
        from repro.bugs.memory_bugs import all_memory_bugs

        assert declared_spec(MemoryBugModel()) is not None
        for bug in all_memory_bugs():
            assert declared_spec(bug) is not None, bug.name

    def test_spec_must_cover_every_hook_override(self):
        assert declared_spec(_HookOnlyBug()) is None
        assert declared_spec(_ReOverridden("l1d")) is None

    @pytest.mark.parametrize("bug", [_HookOnlyBug(), _ReOverridden("l1d")],
                             ids=["hook-only", "re-overridden"])
    def test_models_without_a_spec_run_the_python_walk(self, bug):
        config = all_memory_microarches()[0]
        trace = decode_trace(memsynth_trace("kv-store", 1500, seed=1))
        with pytest.raises(NativeKernelUnavailable, match="without a native spec"):
            simulate_memory_native(config, trace, bug, 200)
        result = simulate_memory_trace(config, trace, bug=bug, step_instructions=200)
        _assert_memsim_identical(_python_lane(config, trace, bug, 200), result,
                                 bug.name)

    def test_spec_models_run_the_native_walk(self, monkeypatch):
        _require_native_memsim()
        import repro.memsim.simulator as simulator

        def refuse(*_args, **_kwargs):
            raise AssertionError("a spec'd model fell back to the Python walk")

        monkeypatch.setattr(simulator, "MemoryHierarchySim", refuse)
        config = all_memory_microarches()[0]
        trace = decode_trace(memsynth_trace("web-server", 1500, seed=2))
        for bug in (None, EvictMRU("l2"), SPPDroppedPrefetches(3)):
            simulate_memory_trace(config, trace, bug=bug, step_instructions=200)

    def test_memory_store_replays_across_lanes(self, tmp_path, monkeypatch):
        """Store keys do not depend on the memsim lane: a store filled by the
        native walk replays with executed=0 on the Python walk, and back."""
        _require_native_memsim()
        import repro.memsim.native as memsim_native
        from repro.bugs.memory_bugs import all_memory_bugs

        registry = TraceRegistry()
        trace_id = registry.register(decode_trace(memsynth_trace("kv-store", 1200, seed=4)))
        jobs = [
            SimulationJob(study="memory", config=config, bug=bug,
                          trace_id=trace_id, step=300)
            for config in all_memory_microarches()[:2]
            for bug in [None, *all_memory_bugs()[:3]]
        ]
        with JobEngine(jobs=1, store=ResultStore(tmp_path / "native")) as engine:
            native_results = engine.run(jobs, registry.traces)
            assert engine.stats.executed == len(jobs)

        def unavailable(*_args, **_kwargs):
            raise NativeKernelUnavailable("forced Python walk")

        monkeypatch.setattr(memsim_native, "simulate_memory_native", unavailable)
        with JobEngine(jobs=1, store=ResultStore(tmp_path / "native")) as engine:
            replayed = engine.run(jobs, registry.traces)
            assert engine.stats.executed == 0
        with JobEngine(jobs=1, store=ResultStore(tmp_path / "python")) as engine:
            python_results = engine.run(jobs, registry.traces)
            assert engine.stats.executed == len(jobs)
        for job, a, b, c in zip(jobs, native_results, replayed, python_results):
            for other in (b, c):
                _assert_memsim_identical(a.to_memory(), other.to_memory(),
                                         job.describe(), ordered=False)
