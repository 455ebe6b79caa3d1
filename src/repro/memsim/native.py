"""ctypes marshalling for the native memory-hierarchy walk (``_memsim.c``).

:func:`simulate_memory_native` runs one trace through the C port of
:class:`~repro.memsim.simulator.MemoryHierarchySim`, compiled into the same
library as the core kernel (:mod:`repro.coresim.native.build`).  The trace
goes in as two flat columns (address, access kind), the per-step sample rows
come back as one column-major float64 block, and the result is an
:class:`~repro.memsim.simulator.MemSimResult` bit-identical to the Python
walk: same counter names in the same order, same float64 values, cycles and
AMAT (pinned by ``tests/data/golden_memsim.json`` and the differential
fuzz).

A bug model runs here only when it declares a
:class:`~repro.memsim.hooks.NativeMemorySpec` for every hook it overrides
(:func:`~repro.memsim.hooks.declared_spec`).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..coresim.native.build import load_library
from ..coresim.native.kernel import NativeKernelUnavailable
from ..uarch.config import MemoryHierarchyConfig
from ..workloads.decoded import DecodedTrace, decode_trace
from ..workloads.isa import Opcode
from .hooks import LEVELS, MemoryBugModel, declared_spec

_NUM_LEVELS = 3

#: Per-level statistics, in ``ReplacementCache.stats()`` order.
_LEVEL_STATS = (
    "accesses",
    "misses",
    "load_misses",
    "evictions",
    "prefetch_fills",
    "useful_prefetches",
)

#: Output column layout shared with ``_memsim.c`` (the ``MC_*`` enum); the
#: IPC column follows these.
_COLUMN_NAMES = tuple(
    f"mem.{level}.{stat}" for level in LEVELS for stat in _LEVEL_STATS
) + (
    "mem.prefetches_issued",
    "mem.amat",
    "mem.accesses",
    "mem.instructions",
    "mem.stall_cycles",
)
_IPC_COLUMN = len(_COLUMN_NAMES)
NUM_MEM_COLUMNS = _IPC_COLUMN + 1

#: Counters in the sorted order the Python walk builds its series in.
_SORTED_COLUMNS = tuple(sorted(enumerate(_COLUMN_NAMES), key=lambda item: item[1]))

_PREFETCHERS = {"none": 0, "next_line": 1, "spp": 2}

#: Addresses beyond this magnitude could overflow the C walk's int64
#: prefetch arithmetic; such traces run on the Python lane.
_ADDRESS_LIMIT = 1 << 62


class _MemParams(ctypes.Structure):
    """Mirror of ``MemParams`` in ``_memsim.c`` (field order must match)."""

    _fields_ = [
        ("total", ctypes.c_int64),
        ("warmup", ctypes.c_int64),
        ("step", ctypes.c_int64),
        ("issue_width", ctypes.c_int64),
        ("dram_latency", ctypes.c_int64),
        ("prefetcher", ctypes.c_int64),
        ("prefetch_degree", ctypes.c_int64),
        ("prefetch_line_size", ctypes.c_int64),
        ("num_sets", ctypes.c_int64 * _NUM_LEVELS),
        ("assoc", ctypes.c_int64 * _NUM_LEVELS),
        ("line_shift", ctypes.c_int64 * _NUM_LEVELS),
        ("latency", ctypes.c_int64 * _NUM_LEVELS),
        ("no_age_update", ctypes.c_int64 * _NUM_LEVELS),
        ("evict_mru", ctypes.c_int64 * _NUM_LEVELS),
        ("delay_level", ctypes.c_int64),
        ("delay_threshold", ctypes.c_int64),
        ("delay_cycles", ctypes.c_int64),
        ("spp_reset", ctypes.c_int64),
        ("spp_least_confident", ctypes.c_int64),
        ("spp_drop_every", ctypes.c_int64),
        ("mlp_factor", ctypes.c_double),
    ]


_configured_libs: "set[int]" = set()


def _configure(lib: ctypes.CDLL) -> None:
    if id(lib) in _configured_libs:
        return
    lib.repro_memsim.restype = ctypes.c_int
    lib.repro_memsim.argtypes = [
        ctypes.POINTER(_MemParams),
        ctypes.POINTER(ctypes.c_int64),   # address
        ctypes.POINTER(ctypes.c_uint8),   # access kind
        ctypes.POINTER(ctypes.c_double),  # out_rows
        ctypes.c_int64,
        ctypes.POINTER(ctypes.c_double),  # out_scalars
    ]
    _configured_libs.add(id(lib))


#: Bounded digest-keyed memo of marshalled traces: digest -> (address
#: column, access column), as the core kernel memoises its trace columns.
_TRACE_MEMO: "dict[str, tuple[np.ndarray, np.ndarray]]" = {}
_TRACE_MEMO_MAX = 256


def _trace_columns(decoded: DecodedTrace) -> "tuple[np.ndarray, np.ndarray]":
    """``(address, access)``: access is 0 (none), 1 (non-load) or 2 (load)."""
    key = decoded.digest
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        return hit
    columns = decoded.columns
    has_address = columns["has_address"].astype(bool)
    address = np.where(has_address, columns["address"].astype(np.int64), 0)
    if address.size and int(np.abs(address).max()) >= _ADDRESS_LIMIT:
        raise NativeKernelUnavailable("trace addresses exceed the native walk's range")
    is_load = columns["opcode"] == int(Opcode.LOAD)
    access = np.where(has_address, np.where(is_load, 2, 1), 0).astype(np.uint8)
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = (np.ascontiguousarray(address), access)
    return _TRACE_MEMO[key]


def _fill_params(
    config: MemoryHierarchyConfig,
    spec,
    total: int,
    warmup: int,
    step: int,
    mlp_factor: float,
) -> _MemParams:
    params = _MemParams()
    params.total = total
    params.warmup = warmup
    params.step = step
    params.issue_width = config.issue_width
    params.dram_latency = config.dram_latency
    params.prefetcher = _PREFETCHERS[config.prefetcher]
    params.prefetch_degree = max(1, config.prefetch_degree)
    params.prefetch_line_size = config.l1d.line_size
    for index, level in enumerate((config.l1d, config.l2, config.llc)):
        params.num_sets[index] = level.num_sets
        params.assoc[index] = level.associativity
        params.line_shift[index] = level.line_size.bit_length() - 1
        params.latency[index] = level.latency
        params.no_age_update[index] = LEVELS[index] in spec.no_age_update
        params.evict_mru[index] = LEVELS[index] in spec.evict_mru
    # Only L1D and L2 misses consult the miss-delay hook.
    params.delay_level = -1
    if spec.miss_delay is not None:
        level, threshold, delay = spec.miss_delay
        if level in LEVELS[:2]:
            params.delay_level = LEVELS.index(level)
            params.delay_threshold = threshold
            params.delay_cycles = delay
    params.spp_reset = spec.spp_reset
    params.spp_least_confident = spec.spp_least_confident
    params.spp_drop_every = max(0, spec.spp_drop_every)
    params.mlp_factor = mlp_factor
    return params


def simulate_memory_native(
    config: MemoryHierarchyConfig,
    trace,
    bug: MemoryBugModel,
    step_instructions: int,
):
    """Simulate *trace* on *config* through the compiled memory walk.

    Bit-identical to ``MemoryHierarchySim(config, bug, step).run(trace)``.
    Raises :class:`~repro.coresim.native.NativeKernelUnavailable` when the
    library is missing, *bug* declares no spec, or the step or the trace is
    out of the walk's range; :func:`~repro.memsim.simulate_memory_trace`
    then runs the Python walk.
    """
    from .simulator import MLP_FACTOR, WARMUP_FRACTION, MemSimResult  # module cycle

    spec = declared_spec(bug)
    if spec is None:
        raise NativeKernelUnavailable(
            f"memory bug model {bug.name!r} overrides hooks without a native spec"
        )
    if step_instructions <= 0:
        raise NativeKernelUnavailable("the native walk needs a positive step")
    lib = load_library()
    if lib is None:
        raise NativeKernelUnavailable("native kernel library unavailable")
    _configure(lib)
    decoded = decode_trace(trace)
    total = len(decoded)
    if total == 0:
        raise ValueError("cannot simulate an empty trace")
    address, access = _trace_columns(decoded)
    bug.on_simulation_start(config)

    warmup = int(total * WARMUP_FRACTION)
    max_rows = (total - warmup) // step_instructions + 2
    params = _fill_params(config, spec, total, warmup, step_instructions, MLP_FACTOR)
    out_rows = np.zeros((NUM_MEM_COLUMNS, max_rows), dtype=np.float64)
    out_scalars = np.zeros(3, dtype=np.float64)
    rc = lib.repro_memsim(
        ctypes.byref(params),
        address.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        access.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        out_rows.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        ctypes.c_int64(max_rows),
        out_scalars.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    if rc == 2:
        raise MemoryError("native memory walk ran out of memory")
    if rc != 0:
        raise RuntimeError(f"native memory walk failed (rc={rc})")

    rows = int(out_scalars[0])
    counters = {name: out_rows[index, :rows].copy() for index, name in _SORTED_COLUMNS}
    series = CounterTimeSeries(
        step_cycles=step_instructions,
        counters=counters,
        ipc=out_rows[_IPC_COLUMN, :rows].copy(),
    )
    return MemSimResult(
        config_name=config.name,
        bug_name=bug.name,
        instructions=total - warmup,
        cycles=float(out_scalars[1]),
        series=series,
        amat=float(out_scalars[2]),
    )
