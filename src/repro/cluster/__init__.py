"""``repro.cluster``: elastic scheduler-managed sweep execution.

The execution half of the elastic sweep service (the serving half is
:mod:`repro.serve`).  A :class:`ClusterBackend` — spec ``cluster:N`` —
drives a pool of ``repro-worker`` processes through the shared frame
protocol.  It is the only driver of those workers: ``subprocess:N`` is
sugar for ``cluster:N``, and ``ssh://`` specs run the same scheduler with
each slot's worker on its ssh host.  It adds what a long sweep on shared
machines actually needs:

* a poll-loop **scheduler** (:mod:`repro.cluster.scheduler`) that spawns
  workers lazily up to a ``parallelmax``, tracks a per-worker job context,
  and grows/shrinks the pool elastically (:meth:`ClusterBackend.resize`);
* **health probes** — workers emit heartbeat frames from a side thread
  (protocol v2), silence past a deadline marks the worker dead, dead
  workers are respawned with exponential backoff and their in-flight
  chunk is **requeued**, so a ``SIGKILL``-ed or hung worker never loses
  work (results persisted per chunk by the engine are never re-executed);
* pluggable **sweep policies** (:mod:`repro.cluster.policies`): ``fifo``,
  ``ljf``, deadline-driven ``edd`` and ``suspend`` for priority-contended
  pools;
* a **roster** builder (:mod:`repro.cluster.roster`) naming every store
  key a scale's sweeps can produce — the keep-set for ``repro-store gc``.

See ``docs/RUNTIME.md`` ("The cluster backend") for the spec grammar and
the liveness protocol, and ``repro-cluster --help`` for the CLI.
"""

from .backend import ClusterBackend, parse_cluster_spec
from .policies import POLICIES, ChunkTicket, SweepPolicy, parse_policy
from .scheduler import ClusterScheduler

__all__ = [
    "POLICIES",
    "ChunkTicket",
    "ClusterBackend",
    "ClusterScheduler",
    "SweepPolicy",
    "parse_cluster_spec",
    "parse_policy",
]
