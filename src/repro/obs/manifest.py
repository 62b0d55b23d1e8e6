"""Run manifests: the provenance record attached to every result.

A :class:`RunManifest` answers "where did this number come from?": the
declarative fingerprint of the run (when its components are registered
spec types), the seed, topology and routing, the package and Python
versions, wall-clock timings, and how the result reached the caller
(computed fresh, served from the on-disk cache, stored into it).

Manifests split into two field groups:

* **identity fields** (:meth:`RunManifest.identity`) are a pure function
  of the run's declarative content -- equal across processes, hosts and
  reruns of the same spec (asserted by the determinism tests);
* **environment fields** (timings, cache outcome, metrics snapshot)
  describe the particular execution.

The cache persists manifests *alongside* result records -- never inside
the result payload -- so a manifest can evolve without touching result
(de)serialization or cache keys.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["RunManifest"]

IDENTITY_FIELDS = (
    "kind",
    "fingerprint",
    "spec_fingerprint",
    "topology",
    "routing",
    "load",
    "seed",
    "package_version",
)


def _package_version() -> str:
    from repro import __version__

    return __version__


@dataclass
class RunManifest:
    """Provenance of one ``SimResult`` / ``ModelResult``.

    ``fingerprint`` is the content-address the cache would use (``None``
    for uncacheable ad-hoc components); ``spec_fingerprint`` is the raw
    ``RunSpec``/``ModelSpec`` fingerprint when one exists.  ``cache``
    records the outcome: ``"computed"`` (no cache consulted),
    ``"stored"`` (computed and written), ``"hit"`` (served from disk),
    or ``"uncacheable"``.
    """

    kind: str = "sim"
    fingerprint: Optional[str] = None
    spec_fingerprint: Optional[str] = None
    topology: str = ""
    routing: str = ""
    load: Optional[float] = None
    seed: int = 0
    package_version: str = field(default_factory=_package_version)
    python: str = field(default_factory=platform.python_version)
    wall_seconds: Optional[float] = None
    engine_cycles: Optional[int] = None
    # the cycle engine that ran: "array" or "wheel", picked by the host
    # (repro.sim.engine.build_network).  Environment, never identity:
    # both engines are bit-identical.  None on records cached before
    # the field existed
    engine: Optional[str] = None
    # who made the route decisions: "native" (the array engine's kernel)
    # or "python" (repro.sim.routing.RoutingAlgorithm).  Environment,
    # never identity: both are bit-identical.  None on records from
    # before the field existed
    routing_backend: Optional[str] = None
    cache: str = "computed"
    metrics: Optional[Dict[str, Any]] = None
    # batched-execution runtime metadata (repro.sim.batch): how many
    # runs shared one executor unit and this run's slot in it.
    # Environment fields, never identity -- a batched run is
    # bit-identical to its single-run result
    batch_size: Optional[int] = None
    batch_slot: Optional[int] = None

    def identity(self) -> Dict[str, Any]:
        """The deterministic field subset: equal for equal specs.

        Excludes everything environmental (Python version, timings,
        cache outcome, metric values) -- the cross-process determinism
        test asserts this dict matches exactly for one spec.
        """
        data = self.to_dict()
        return {name: data[name] for name in IDENTITY_FIELDS}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (what the cache persists)."""
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "spec_fingerprint": self.spec_fingerprint,
            "topology": self.topology,
            "routing": self.routing,
            "load": self.load,
            "seed": self.seed,
            "package_version": self.package_version,
            "python": self.python,
            "wall_seconds": self.wall_seconds,
            "engine_cycles": self.engine_cycles,
            "engine": self.engine,
            "routing_backend": self.routing_backend,
            "cache": self.cache,
            "metrics": self.metrics,
            "batch_size": self.batch_size,
            "batch_slot": self.batch_slot,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = {
            "kind",
            "fingerprint",
            "spec_fingerprint",
            "topology",
            "routing",
            "load",
            "seed",
            "package_version",
            "python",
            "wall_seconds",
            "engine_cycles",
            "engine",
            "routing_backend",
            "cache",
            "metrics",
            "batch_size",
            "batch_slot",
        }
        return cls(**{k: v for k, v in data.items() if k in known})
