"""Bug-injection hook interface for the memory-hierarchy simulator.

Mirrors :mod:`repro.coresim.hooks` for the ChampSim-like cache-hierarchy model
used in the memory-system study (Section IV-D).  The six memory bug classes of
the paper are expressed through these hooks.

The native memory walk (``coresim/native/_memsim.c``) cannot call Python
hooks, so a model that wants it declares what its hooks do as a
:class:`NativeMemorySpec` (see :func:`declared_spec`).  A model that
overrides a hook without declaring a spec for it runs on the Python lane.
"""

from __future__ import annotations

from typing import NamedTuple

#: Cache levels of the hierarchy, as the hooks name them.
LEVELS = ("l1d", "l2", "llc")


class NativeMemorySpec(NamedTuple):
    """Declarative form of the memory hooks, read by the native walk.

    ``no_age_update`` / ``evict_mru`` name the levels whose hits skip the
    LRU age update / whose evictions take the MRU block.  ``miss_delay`` is
    ``(level, threshold, delay)``: a load that misses *level* after more
    than *threshold* load misses there (counted since warm-up) waits
    *delay* extra cycles.  The ``spp_*`` fields mirror the three SPP hooks;
    ``spp_drop_every`` 0 never drops a prefetch.
    """

    no_age_update: tuple[str, ...] = ()
    evict_mru: tuple[str, ...] = ()
    miss_delay: "tuple[str, int, int] | None" = None
    spp_reset: bool = False
    spp_least_confident: bool = False
    spp_drop_every: int = 0


class MemoryBugModel:
    """No-op memory bug model (bug-free hierarchy behaviour)."""

    name: str = "bug-free"

    def on_simulation_start(self, config) -> None:
        """Called once before simulation; may reset internal state."""

    # -- replacement policy -------------------------------------------------

    def update_replacement_on_access(self, level: str) -> bool:
        """False to skip the LRU age update on an access hit (bug 1)."""
        return True

    def evict_most_recently_used(self, level: str) -> bool:
        """True to evict the MRU block instead of the LRU block (bug 2)."""
        return False

    # -- miss handling -------------------------------------------------------

    def load_miss_extra_delay(self, level: str, miss_count: int) -> int:
        """Extra cycles added to a load miss at *level* (bug 3).

        *miss_count* is the cumulative number of load misses observed at that
        level, so "after N misses, delay reads by T cycles" is expressible.
        """
        return 0

    # -- SPP prefetcher ------------------------------------------------------

    def spp_corrupt_signature(self, signature: int) -> int:
        """Possibly corrupt the SPP signature (bug 4 resets it to zero)."""
        return signature

    def spp_pick_least_confident(self) -> bool:
        """True to make lookahead follow the least-confident path (bug 5)."""
        return False

    def spp_drop_prefetch(self, prefetch_index: int) -> bool:
        """True to mark this prefetch as executed without issuing it (bug 6)."""
        return False

    # -- native lane ---------------------------------------------------------

    def native_spec(self) -> NativeMemorySpec:
        """What this model's hooks do, for the native walk (bug-free here).

        A subclass that overrides a hook must override this too, or it runs
        on the Python lane (:func:`declared_spec`).
        """
        return NativeMemorySpec()


#: The hooks a spec must describe: every public method but the spec itself
#: and ``on_simulation_start``, which both lanes call before simulating.
SPEC_HOOKS = tuple(
    name
    for name, value in vars(MemoryBugModel).items()
    if callable(value)
    and not name.startswith("_")
    and name not in ("native_spec", "on_simulation_start")
)


def declared_spec(bug: MemoryBugModel) -> "NativeMemorySpec | None":
    """The native spec of *bug*, or None when a hook override lacks one.

    A spec counts only if the class that declares it is the class, or a
    subclass of the class, that defines each hook in :data:`SPEC_HOOKS`.
    """
    cls = type(bug)
    owner = _defining_class(cls, "native_spec")
    if all(issubclass(owner, _defining_class(cls, hook)) for hook in SPEC_HOOKS):
        return bug.native_spec()
    return None


def _defining_class(cls: type, name: str) -> type:
    return next(klass for klass in cls.__mro__ if name in vars(klass))


#: Shared bug-free instance.
MEM_BUG_FREE = MemoryBugModel()
