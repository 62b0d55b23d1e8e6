"""Frozen, canonically-serializable run specifications.

A :class:`RunSpec` is the declarative identity of one ``simulate()``
point: topology, traffic pattern, offered load, routing variant, VLB
policy, :class:`~repro.sim.params.SimParams`, and seed.  It can be

* built from live objects (:meth:`RunSpec.from_objects`),
* parsed from the CLI mini-languages (:meth:`PatternSpec.parse`, ...),
* round-tripped through plain JSON dicts (``to_dict``/``from_dict``), and
* content-addressed (:meth:`RunSpec.fingerprint`, a SHA-256 over the
  canonical JSON form) -- the key of the on-disk result cache and the
  payload shipped to sweep worker processes.

Pattern/policy arguments are stored as canonical JSON *strings*
(``args_json``) so every spec is hashable and usable as a dict key; the
``args`` property decodes them on demand.  ``SweepSpec`` adds a load
ladder, ``SuiteSpec`` names a list of sweeps (the experiments layer
declares each figure as one).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.sim.params import SimParams
from repro.spec.builtins import resolve_routing
from repro.spec.registry import (
    POLICY_REGISTRY,
    SpecError,
    TOPOLOGY_REGISTRY,
    TRAFFIC_REGISTRY,
)
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "ModelSpec",
    "PatternSpec",
    "PolicySpec",
    "RunSpec",
    "SPEC_VERSION",
    "SuiteSpec",
    "SweepSpec",
    "TopologySpec",
    "canonical_json",
]

# Part of every fingerprint.  Bump when the *meaning* of a spec changes
# (field semantics, canonicalization rules), so stale fingerprints can
# never collide with new ones.
SPEC_VERSION = 1


def canonical_json(data: Any) -> str:
    """The canonical JSON form: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Pattern / policy specs (registry-backed)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PatternSpec:
    """Declarative identity of a traffic pattern: kind + canonical args."""

    kind: str
    args_json: str = "{}"  # repro: identity-key[args]

    @classmethod
    def make(cls, kind: str, **args: Any) -> "PatternSpec":
        TRAFFIC_REGISTRY.get(kind)  # unknown kind -> SpecError
        return cls(kind, canonical_json(args))

    @classmethod
    def parse(cls, spec: str) -> "PatternSpec":
        """From a mini-language string (``shift:2,0``) or ``@file.json``.

        ``@file.json`` (e.g. a pattern saved by ``adversary --out``) is
        read immediately and its *content* embedded in the spec, so the
        spec stays self-contained (and cacheable) even if the file
        changes.  The file carries ``kind`` plus either an ``args`` dict
        or the argument fields inline; extra top-level keys (report,
        manifest) are ignored when ``args`` is present.
        """
        if spec.startswith("@"):
            try:
                with open(spec[1:]) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise SpecError(
                    f"cannot read pattern file {spec[1:]!r}: {exc}"
                ) from exc
            if not isinstance(data, dict) or "kind" not in data:
                raise SpecError(
                    f"pattern file {spec[1:]!r} has no 'kind' field"
                )
            args = data.get("args")
            if not isinstance(args, dict):
                args = {k: v for k, v in data.items() if k != "kind"}
            return cls.from_dict({"kind": data["kind"], "args": args})
        kind, args = TRAFFIC_REGISTRY.parse(spec)
        return cls(kind, canonical_json(args))

    @classmethod
    def of(cls, pattern: Any) -> "PatternSpec":
        """From a live pattern object (exact registered types only)."""
        kind, args = TRAFFIC_REGISTRY.spec_of(pattern)
        return cls(kind, canonical_json(args))

    @property
    def args(self) -> Dict[str, Any]:
        return json.loads(self.args_json)

    def build(self, topo: Dragonfly) -> Any:
        """The live pattern bound to ``topo``."""
        return TRAFFIC_REGISTRY.build(self.kind, self.args, topo)

    def with_seed(self, seed: int) -> "PatternSpec":
        """The same spec re-seeded (unchanged for seedless kinds)."""
        args = self.args
        if "seed" not in args:
            return self
        args["seed"] = int(seed)
        return PatternSpec(self.kind, canonical_json(args))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "args": self.args}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PatternSpec":
        return cls.make(data["kind"], **data.get("args", {}))

    def fingerprint(self) -> str:
        return _digest({"version": SPEC_VERSION, **self.to_dict()})


@dataclass(frozen=True)
class PolicySpec:
    """Declarative identity of a VLB path policy."""

    kind: str
    args_json: str = "{}"  # repro: identity-key[args]

    @classmethod
    def make(cls, kind: str, **args: Any) -> "PolicySpec":
        POLICY_REGISTRY.get(kind)
        return cls(kind, canonical_json(args))

    @classmethod
    def parse(cls, spec: str) -> "PolicySpec":
        """From a mini-language string or ``@file.json``.

        ``@file.json`` (a policy saved by ``tvlb --save``) is read
        immediately and its *content* embedded in the spec, so the spec
        stays self-contained (and cacheable) even if the file changes.
        """
        if spec.startswith("@"):
            try:
                with open(spec[1:]) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise SpecError(
                    f"cannot read policy file {spec[1:]!r}: {exc}"
                ) from exc
            if not isinstance(data, dict) or "kind" not in data:
                raise SpecError(
                    f"policy file {spec[1:]!r} has no 'kind' field"
                )
            return cls.from_dict({"kind": data["kind"], "args": {
                k: v for k, v in data.items() if k != "kind"
            }})
        kind, args = POLICY_REGISTRY.parse(spec)
        return cls(kind, canonical_json(args))

    @classmethod
    def of(cls, policy: Any) -> "PolicySpec":
        kind, args = POLICY_REGISTRY.spec_of(policy)
        return cls(kind, canonical_json(args))

    @property
    def args(self) -> Dict[str, Any]:
        return json.loads(self.args_json)

    def build(self) -> Any:
        return POLICY_REGISTRY.build(self.kind, self.args)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "args": self.args}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PolicySpec":
        return cls.make(data["kind"], **data.get("args", {}))

    def fingerprint(self) -> str:
        return _digest({"version": SPEC_VERSION, **self.to_dict()})


# ---------------------------------------------------------------------------
# Topology spec
# ---------------------------------------------------------------------------
# The dragonfly family predates the TOPOLOGY registry; its specs keep the
# original kindless field/dict layout so every existing fingerprint and
# cache key stays byte-identical.  Newer kinds carry their canonical args
# in ``args_json`` and serialize with an explicit ``kind`` key.
_DFLY_FAMILY_KINDS = ("dfly", "cascade")


@dataclass(frozen=True)
class TopologySpec:
    """Declarative identity of a registered topology.

    The ``dfly`` family (plain + Cascade) is stored in the historical
    ``p/a/h/g/arrangement[/rows/cols]`` fields; other registered kinds
    keep those fields as their structural dragonfly-equivalent parameters
    and carry the registry's canonical args in ``args_json``.
    """

    p: int
    a: int
    h: int
    g: int
    arrangement: str = "absolute"
    rows: int = 0
    cols: int = 0
    kind: str = "dfly"
    args_json: str = ""  # repro: identity-key[args]

    @property
    def effective_kind(self) -> str:
        """The registry kind, resolving the historical rows/cols
        convention (nonzero rows/cols on a ``dfly`` spec = Cascade)."""
        if self.kind == "dfly" and (self.rows or self.cols):
            return "cascade"
        return self.kind

    @property
    def args(self) -> Dict[str, Any]:
        """The registry's canonical argument dict for this spec."""
        if self.args_json:
            return json.loads(self.args_json)
        data: Dict[str, Any] = {
            "p": self.p, "a": self.a, "h": self.h, "g": self.g,
            "arrangement": self.arrangement,
        }
        if self.effective_kind == "cascade":
            data["rows"] = self.rows
            data["cols"] = self.cols
        return data

    @classmethod
    def parse(
        cls, spec: str, arrangement: str = "absolute"
    ) -> "TopologySpec":
        """From the CLI forms ``P,A,H,G`` (bare dragonfly, e.g.
        ``4,8,4,9``) or ``KIND:ARGS`` (e.g. ``full-mesh:16,4``)."""
        head = spec.split(":", 1)[0].strip().lower()
        if head not in TOPOLOGY_REGISTRY:
            try:
                p, a, h, g = (int(x) for x in spec.split(","))
            except ValueError:
                raise SpecError(
                    f"bad topology spec {spec!r}: expected P,A,H,G "
                    f"(e.g. 4,8,4,9) or KIND:ARGS "
                    f"({TOPOLOGY_REGISTRY.help_text()})"
                ) from None
            return cls(p, a, h, g, arrangement)
        kind, args = TOPOLOGY_REGISTRY.parse(spec)
        if "arrangement" in args:
            args["arrangement"] = arrangement
        return cls.of(TOPOLOGY_REGISTRY.build(kind, args))

    @classmethod
    def of(cls, topo: Dragonfly) -> "TopologySpec":
        """From a live topology (exactly registered types only)."""
        kind, args = TOPOLOGY_REGISTRY.spec_of(topo)
        if kind in _DFLY_FAMILY_KINDS:
            return cls(
                args["p"], args["a"], args["h"], args["g"],
                args.get("arrangement", "absolute"),
                rows=args.get("rows", 0), cols=args.get("cols", 0),
            )
        return cls(
            topo.p, topo.a, topo.h, topo.g, topo.arrangement,
            kind=kind, args_json=canonical_json(args),
        )

    def build(self) -> Dragonfly:
        return TOPOLOGY_REGISTRY.build(self.effective_kind, self.args)

    def to_dict(self) -> Dict[str, Any]:
        if self.effective_kind in _DFLY_FAMILY_KINDS:
            # historical kindless layout (fingerprint/cache compatible)
            data: Dict[str, Any] = {
                "p": self.p, "a": self.a, "h": self.h, "g": self.g,
                "arrangement": self.arrangement,
            }
            if self.rows or self.cols:
                data["rows"] = self.rows
                data["cols"] = self.cols
            return data
        return {"kind": self.kind, "args": self.args}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologySpec":
        if "kind" in data:
            kind = data["kind"]
            args = data.get("args", {})
            return cls.of(TOPOLOGY_REGISTRY.build(kind, args))
        return cls(
            data["p"], data["a"], data["h"], data["g"],
            data.get("arrangement", "absolute"),
            rows=data.get("rows", 0), cols=data.get("cols", 0),
        )

    def fingerprint(self) -> str:
        return _digest({"version": SPEC_VERSION, **self.to_dict()})


# ---------------------------------------------------------------------------
# Run / sweep / suite specs
# ---------------------------------------------------------------------------
def _params_from_dict(data: Dict[str, Any]) -> SimParams:
    # "obs" is identity-neutral (never serialized into a spec dict, see
    # SimParams.identity_dict), so it is not accepted back either
    known = {f.name for f in dataclasses.fields(SimParams)} - {"obs"}
    extra = set(data) - known
    if extra:
        raise SpecError(
            f"unknown SimParams fields {sorted(extra)}"
        )
    return SimParams(**data)


@dataclass(frozen=True)
class RunSpec:
    """One ``simulate()`` point, fully declaratively."""

    topology: TopologySpec
    pattern: PatternSpec
    load: float
    routing: str = "ugal-l"
    policy: Optional[PolicySpec] = None
    params: SimParams = field(default_factory=SimParams)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "routing", self.routing.lower())
        object.__setattr__(self, "load", float(self.load))
        object.__setattr__(self, "seed", int(self.seed))
        # shared CLI/API validation: unknown variants and bad T- prefixes
        # fail here with the registry's error message
        resolve_routing(self.routing, has_policy=self.policy is not None)

    @classmethod
    def from_objects(
        cls,
        topo: Dragonfly,
        pattern: Any,
        load: float,
        *,
        routing: str = "ugal-l",
        policy: Any = None,
        params: Optional[SimParams] = None,
        seed: int = 0,
    ) -> "RunSpec":
        """From the live objects of a legacy ``simulate(...)`` call.

        Raises :class:`SpecError` when any component is not an exactly
        registered type (ad-hoc pattern/policy subclasses have no
        trustworthy declarative identity).
        """
        return cls(
            topology=TopologySpec.of(topo),
            pattern=PatternSpec.of(pattern),
            load=load,
            routing=routing,
            policy=PolicySpec.of(policy) if policy is not None else None,
            params=params if params is not None else SimParams(),
            seed=seed,
        )

    def replace(self, **changes: Any) -> "RunSpec":
        return dataclasses.replace(self, **changes)

    def run(self) -> Any:
        """Execute this point: equivalent to ``simulate(self)``."""
        from repro.sim.engine import simulate

        return simulate(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "topology": self.topology.to_dict(),
            "pattern": self.pattern.to_dict(),
            "load": self.load,
            "routing": self.routing,
            "policy": self.policy.to_dict() if self.policy else None,
            "params": self.params.identity_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        policy = data.get("policy")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            pattern=PatternSpec.from_dict(data["pattern"]),
            load=data["load"],
            routing=data.get("routing", "ugal-l"),
            policy=PolicySpec.from_dict(policy) if policy else None,
            params=_params_from_dict(data.get("params", {})),
            seed=data.get("seed", 0),
        )

    def fingerprint(self) -> str:
        """Stable content address (the result-cache key material)."""
        return _digest(self.to_dict())


@dataclass(frozen=True)
class ModelSpec:
    """One LP throughput-model solve, fully declaratively.

    The model analogue of :class:`RunSpec`: topology + pattern (whose
    demand matrix is the LP's right-hand structure) + policy (translated
    to leg-split class weights) + solver options.  ``engine`` is part of
    the identity on purpose -- fast-path and legacy results agree only to
    numerical tolerance, so they must never share a cache entry.
    """

    topology: TopologySpec
    pattern: PatternSpec
    policy: PolicySpec
    mode: str = "uniform"
    monotonic: bool = True
    max_descriptors: Optional[int] = None
    seed: int = 0
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "free"):
            raise SpecError(f"unknown model mode {self.mode!r}")
        if self.engine not in ("fast", "legacy"):
            raise SpecError(f"unknown model engine {self.engine!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_objects(
        cls,
        topo: Dragonfly,
        pattern: Any,
        policy: Any,
        *,
        mode: str = "uniform",
        monotonic: bool = True,
        max_descriptors: Optional[int] = None,
        seed: int = 0,
        engine: str = "fast",
    ) -> "ModelSpec":
        """From live objects; :class:`SpecError` on unregistered types."""
        return cls(
            topology=TopologySpec.of(topo),
            pattern=PatternSpec.of(pattern),
            policy=PolicySpec.of(policy),
            mode=mode,
            monotonic=monotonic,
            max_descriptors=max_descriptors,
            seed=seed,
            engine=engine,
        )

    def solve(self) -> Any:
        """Execute this solve from scratch (the worker entry point).

        Builds every component fresh; callers that amortize structural
        state across solves should go through
        :class:`repro.perf.executor.SweepExecutor` instead, whose worker
        memoizes per-topology solver state.
        """
        from repro.model.fastpath import FastModel
        from repro.model.lp_model import model_throughput

        topo = self.topology.build()
        demand = self.pattern.build(topo).demand_matrix()
        policy = self.policy.build()
        if self.engine == "fast":
            return FastModel(
                topo, max_descriptors=self.max_descriptors, seed=self.seed
            ).solve(
                demand,
                policy=policy,
                mode=self.mode,
                monotonic=self.monotonic,
            )
        from repro.model.pathstats import PathStatsCache

        return model_throughput(
            topo,
            demand,
            policy=policy,
            cache=PathStatsCache(
                topo, max_descriptors=self.max_descriptors, seed=self.seed
            ),
            mode=self.mode,
            monotonic=self.monotonic,
        )

    def replace(self, **changes: Any) -> "ModelSpec":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "topology": self.topology.to_dict(),
            "pattern": self.pattern.to_dict(),
            "policy": self.policy.to_dict(),
            "mode": self.mode,
            "monotonic": self.monotonic,
            "max_descriptors": self.max_descriptors,
            "seed": self.seed,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModelSpec":
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            pattern=PatternSpec.from_dict(data["pattern"]),
            policy=PolicySpec.from_dict(data["policy"]),
            mode=data.get("mode", "uniform"),
            monotonic=data.get("monotonic", True),
            max_descriptors=data.get("max_descriptors"),
            seed=data.get("seed", 0),
            engine=data.get("engine", "fast"),
        )

    def fingerprint(self) -> str:
        """Stable content address (the model-cache key material)."""
        return _digest(self.to_dict())


@dataclass(frozen=True)
class SweepSpec:
    """A load ladder over one (topology, pattern, routing, ...) point."""

    topology: TopologySpec
    pattern: PatternSpec
    loads: Tuple[float, ...]
    routing: str = "ugal-l"
    policy: Optional[PolicySpec] = None
    params: SimParams = field(default_factory=SimParams)
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "routing", self.routing.lower())
        object.__setattr__(
            self, "loads", tuple(float(x) for x in self.loads)
        )
        resolve_routing(self.routing, has_policy=self.policy is not None)

    def run_specs(self) -> Tuple[RunSpec, ...]:
        """One :class:`RunSpec` per load of the ladder."""
        return tuple(
            RunSpec(
                topology=self.topology,
                pattern=self.pattern,
                load=load,
                routing=self.routing,
                policy=self.policy,
                params=self.params,
                seed=self.seed,
            )
            for load in self.loads
        )

    def replace(self, **changes: Any) -> "SweepSpec":
        return dataclasses.replace(self, **changes)

    def sweep(self, **kwargs: Any) -> Any:
        """Execute the ladder: ``latency_vs_load(self, **kwargs)``."""
        from repro.sim.sweep import latency_vs_load

        return latency_vs_load(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "topology": self.topology.to_dict(),
            "pattern": self.pattern.to_dict(),
            "loads": list(self.loads),
            "routing": self.routing,
            "policy": self.policy.to_dict() if self.policy else None,
            "params": self.params.identity_dict(),
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        policy = data.get("policy")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            pattern=PatternSpec.from_dict(data["pattern"]),
            loads=tuple(data["loads"]),
            routing=data.get("routing", "ugal-l"),
            policy=PolicySpec.from_dict(policy) if policy else None,
            params=_params_from_dict(data.get("params", {})),
            seed=data.get("seed", 0),
            label=data.get("label", ""),
        )

    def fingerprint(self) -> str:
        return _digest(self.to_dict())


@dataclass(frozen=True)
class SuiteSpec:
    """A named collection of sweeps (e.g. one paper figure)."""

    name: str
    sweeps: Tuple[SweepSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sweeps", tuple(self.sweeps))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "sweeps": [s.to_dict() for s in self.sweeps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SuiteSpec":
        return cls(
            name=data["name"],
            sweeps=tuple(
                SweepSpec.from_dict(s) for s in data.get("sweeps", [])
            ),
        )

    def fingerprint(self) -> str:
        return _digest(self.to_dict())
