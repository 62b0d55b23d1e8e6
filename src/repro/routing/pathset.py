"""Path policies: which VLB paths a routing scheme is allowed to use.

The conventional UGAL uses :class:`AllVlbPolicy`.  T-UGAL (the paper's
contribution) uses a restricted policy computed per topology by
``repro.core.compute_tvlb`` -- typically a :class:`HopClassPolicy`
("all paths of <= L hops plus q% of the (L+1)-hop paths", Table 1 of the
paper), a :class:`StrategicFiveHopPolicy` (the deterministic "all 2-hop MIN
legs followed by 3-hop MIN legs" choice of Section 3.3.3), possibly wrapped
in an :class:`ExcludingPolicy` after load-balance adjustment.

Percentage subsets are *deterministic*: a path is included iff a stable
64-bit mix of (seed, src, dst, descriptor) falls below the quota.  The same
subset is therefore seen by the LP model, the balance analysis, and the
simulator without ever materializing the set, and membership is O(1).

Candidate sampling is O(1) rejection sampling over the uniform descriptor
distribution with a bounded number of attempts, falling back to reservoir
sampling over full enumeration for extremely sparse policies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.routing.paths import Channel, Path
from repro.routing.vlb import (
    VlbDescriptor,
    enumerate_vlb_descriptors,
    vlb_hops,
    vlb_leg_hops,
    vlb_path,
)
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "PathPolicy",
    "AllVlbPolicy",
    "HopClassPolicy",
    "OrderedVlbPolicy",
    "StrategicFiveHopPolicy",
    "ExcludingPolicy",
    "ExplicitPathSet",
    "reset_sample_memo",
]

_SAMPLE_ATTEMPTS = 128
# Sparse-policy fallback memo: when rejection sampling fails for a pair,
# one enumeration reservoir-samples this many descriptors and they are
# reused for every later draw of that (policy, pair).  Policies are frozen
# (hashable), so equal policies share entries.
_SPARSE_RESERVOIR = 256
_SPARSE_MEMO_MAX = 20_000  # pairs; beyond this, reservoirs are not stored
_sparse_memo: dict = {}


def reset_sample_memo() -> None:
    """Clear the sparse-policy reservoir memo.

    The memo's contents depend on the rng that first populated each
    entry, so a simulation that inherits another run's reservoirs can
    draw differently than one starting fresh.  ``simulate()`` clears it
    at entry so every run is a pure function of its own arguments --
    which also makes serial and process-pool sweeps bit-identical.
    """
    _sparse_memo.clear()


def _mix(seed: int, src: int, dst: int, desc: VlbDescriptor) -> int:
    """Stable splitmix64-style hash of a path identity into [0, 2**64)."""
    # plain Python ints: numpy scalars would overflow at 64-bit products
    src, dst = int(src), int(dst)
    x = (
        (seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
        + src * 0xBF58476D1CE4E5B9
        + dst * 0x94D049BB133111EB
        + desc.mid * 0xD6E8FEB86659FD93
        + desc.slot1 * 0xA5A5A5A5A5A5A5A5
        + desc.slot2 * 0x0123456789ABCDEF
    ) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


class PathPolicy(abc.ABC):
    """The set of candidate VLB paths available per switch pair."""

    @abc.abstractmethod
    def contains(
        self, topo: Dragonfly, src: int, dst: int, desc: VlbDescriptor
    ) -> bool:
        """Is this VLB path in the candidate set for (src, dst)?"""

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable label (used in benches and reports)."""

    # ------------------------------------------------------------------
    def iter_descriptors(
        self, topo: Dragonfly, src: int, dst: int
    ) -> Iterator[VlbDescriptor]:
        """All descriptors in the set for a pair (enumeration order)."""
        for desc in enumerate_vlb_descriptors(topo, src, dst):
            if self.contains(topo, src, dst, desc):
                yield desc

    def sample(
        self,
        topo: Dragonfly,
        src: int,
        dst: int,
        rng: np.random.Generator,
    ) -> Optional[VlbDescriptor]:
        """Draw one candidate VLB path uniformly from the set.

        Returns ``None`` when the pair has no VLB path at all (fewer than
        three groups) or the policy excludes every path for the pair.
        """
        gs, gd = topo.group_of(src), topo.group_of(dst)
        eligible = [
            gm for gm in range(topo.g) if gm != gs and gm != gd
        ]
        if not eligible:
            return None
        for _ in range(_SAMPLE_ATTEMPTS):
            gm = eligible[int(rng.integers(len(eligible)))]
            m1 = len(topo.links_between_groups(gs, gm))
            m2 = len(topo.links_between_groups(gm, gd))
            if m1 == 0 or m2 == 0:
                continue
            desc = VlbDescriptor(
                mid=topo.switch_id(gm, int(rng.integers(topo.a))),
                slot1=int(rng.integers(m1)),
                slot2=int(rng.integers(m2)),
            )
            if self.contains(topo, src, dst, desc):
                return desc
        return self.sample_sparse(topo, src, dst, rng)

    def sample_sparse(
        self,
        topo: Dragonfly,
        src: int,
        dst: int,
        rng: np.random.Generator,
    ) -> Optional[VlbDescriptor]:
        """The tail of :meth:`sample` once its rejection attempts failed.

        Sparse policy: build a memoized reservoir for this pair, reused
        by every later draw.  A long bounded rejection burst is tried
        first (cheap); full enumeration only for truly tiny/empty sets.
        The native route decisions call this directly after running the
        same attempts in C, so both paths share one memo and draw order.
        """
        key = (self, src, dst)
        reservoir = _sparse_memo.get(key)
        if reservoir is None:
            gs, gd = topo.group_of(src), topo.group_of(dst)
            eligible = [
                gm for gm in range(topo.g) if gm != gs and gm != gd
            ]
            reservoir = []
            burst = 64 * _SPARSE_RESERVOIR
            for _ in range(burst):
                gm = eligible[int(rng.integers(len(eligible)))]
                m1 = len(topo.links_between_groups(gs, gm))
                m2 = len(topo.links_between_groups(gm, gd))
                if m1 == 0 or m2 == 0:
                    continue
                desc = VlbDescriptor(
                    mid=topo.switch_id(gm, int(rng.integers(topo.a))),
                    slot1=int(rng.integers(m1)),
                    slot2=int(rng.integers(m2)),
                )
                if self.contains(topo, src, dst, desc):
                    reservoir.append(desc)
                    if len(reservoir) >= _SPARSE_RESERVOIR:
                        break
            if not reservoir:
                # genuinely tiny or empty set: enumerate exactly once
                seen = 0
                for desc in self.iter_descriptors(topo, src, dst):
                    seen += 1
                    if len(reservoir) < _SPARSE_RESERVOIR:
                        reservoir.append(desc)
                    else:
                        j = int(rng.integers(seen))
                        if j < _SPARSE_RESERVOIR:
                            reservoir[j] = desc
            if len(_sparse_memo) < _SPARSE_MEMO_MAX:
                _sparse_memo[key] = reservoir
        if not reservoir:
            return None
        return reservoir[int(rng.integers(len(reservoir)))]

    def sample_path(
        self,
        topo: Dragonfly,
        src: int,
        dst: int,
        rng: np.random.Generator,
    ) -> Optional[Path]:
        """Like :meth:`sample` but returns a materialized :class:`Path`."""
        desc = self.sample(topo, src, dst, rng)
        if desc is None:
            return None
        return vlb_path(topo, src, dst, desc)

    def average_hops(self, topo: Dragonfly, src: int, dst: int) -> float:
        """Mean hop count over the set for a pair (by enumeration)."""
        total = 0
        count = 0
        for desc in self.iter_descriptors(topo, src, dst):
            total += vlb_hops(topo, src, dst, desc)
            count += 1
        if count == 0:
            raise ValueError(f"policy has no VLB path for pair ({src},{dst})")
        return total / count


@dataclass(frozen=True)
class AllVlbPolicy(PathPolicy):
    """Every VLB path -- the conventional UGAL candidate set."""

    def contains(self, topo, src, dst, desc) -> bool:
        return True

    def describe(self) -> str:
        return "all VLB"


@dataclass(frozen=True)
class HopClassPolicy(PathPolicy):
    """All VLB paths of <= ``full_hops`` hops plus a deterministic
    ``extra_fraction`` of the ``full_hops + 1`` class (a Table-1 datapoint).

    ``full_hops=6`` (or 5 with fraction 1.0 etc.) degenerates to all VLB.
    ``full_hops=0`` with ``extra_fraction=0.0`` admits no VLB path at all:
    the MIN-only policy (the ``repro.adversary`` scoring objective).
    """

    full_hops: int
    extra_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # fully connected groups top out at 6 hops; Cascade-style 2D
        # all-to-all groups at 10.  0 is the degenerate MIN-only policy;
        # 1 stays invalid (no VLB path has fewer than 2 hops)
        if self.full_hops != 0 and not 2 <= self.full_hops <= 12:
            raise ValueError("full_hops must be 0 (MIN only) or in 2..12")
        if not 0.0 <= self.extra_fraction <= 1.0:
            raise ValueError("extra_fraction must be in [0, 1]")

    def contains(self, topo, src, dst, desc) -> bool:
        hops = vlb_hops(topo, src, dst, desc)
        if hops <= self.full_hops:
            return True
        if hops == self.full_hops + 1 and self.extra_fraction > 0.0:
            quota = int(round(self.extra_fraction * 10_000))
            return _mix(self.seed, src, dst, desc) % 10_000 < quota
        return False

    def describe(self) -> str:
        if self.full_hops == 0 and self.extra_fraction == 0.0:
            return "MIN only"
        if self.full_hops >= 6 or (
            self.full_hops == 5 and self.extra_fraction >= 1.0
        ):
            return "all VLB"
        if self.extra_fraction == 0.0:
            return f"{self.full_hops}-hop"
        return (
            f"{int(round(self.extra_fraction * 100))}% "
            f"{self.full_hops + 1}-hop"
        )


@dataclass(frozen=True)
class OrderedVlbPolicy(PathPolicy):
    """VLB restricted to intermediate switches larger than both endpoints,
    plus an optional deterministic ``fraction`` of those intermediates.

    The restriction ``mid > max(src, dst)`` is the HOTI'25-style
    deadlock-freedom argument for direct topologies without local hops
    (e.g. :class:`~repro.topology.fullmesh.FullMesh`): every channel
    dependency then points from a channel *entering* ``mid`` to one
    *leaving* ``mid`` with ``mid`` above both far endpoints, so no two
    dependencies can chain and the single-VC channel dependency graph is
    acyclic.  On topologies with intra-group hops the argument does not
    apply -- there the usual VC ladders do the protecting.

    Pairs involving the largest switch have no admissible intermediate;
    the routing layer degrades those pairs to MIN-only (exactly the
    paper's behaviour for pairs whose restricted set is empty).
    """

    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def contains(self, topo, src, dst, desc) -> bool:
        if desc.mid <= src or desc.mid <= dst:
            return False
        if self.fraction >= 1.0:
            return True
        quota = int(round(self.fraction * 10_000))
        return _mix(self.seed, src, dst, desc) % 10_000 < quota

    def describe(self) -> str:
        if self.fraction >= 1.0:
            return "ordered VLB"
        return f"{int(round(self.fraction * 100))}% ordered VLB"


@dataclass(frozen=True)
class StrategicFiveHopPolicy(PathPolicy):
    """All VLB paths of <= 4 hops plus the 5-hop paths whose MIN legs have
    the given lengths -- the deterministic "strategic" choices of Section
    3.3.3 (half of the 5-hop class each).

    ``order='2+3'``: 2-hop first leg followed by 3-hop second leg;
    ``order='3+2'``: the opposite split.
    """

    order: str = "2+3"

    def __post_init__(self) -> None:
        if self.order not in ("2+3", "3+2"):
            raise ValueError("order must be '2+3' or '3+2'")

    def contains(self, topo, src, dst, desc) -> bool:
        a, b = vlb_leg_hops(topo, src, dst, desc)
        if a + b <= 4:
            return True
        if a + b == 5:
            return (a, b) == ((2, 3) if self.order == "2+3" else (3, 2))
        return False

    def describe(self) -> str:
        return f"strategic 5-hop ({self.order})"


@dataclass(frozen=True)
class ExcludingPolicy(PathPolicy):
    """A base policy minus paths using any excluded channel or descriptor.

    This is what the load-balance adjustment of Algorithm 1 Step 2 produces:
    paths responsible for hot links are *removed* (the paper's "simple
    mechanism of just removing paths").

    ``excluded_channels`` removes paths globally; ``excluded_descriptors``
    removes specific (src, dst, descriptor) triples (local adjustment).
    """

    base: PathPolicy
    excluded_channels: FrozenSet[Channel] = frozenset()
    excluded_descriptors: FrozenSet[Tuple[int, int, VlbDescriptor]] = frozenset()

    def contains(self, topo, src, dst, desc) -> bool:
        if not self.base.contains(topo, src, dst, desc):
            return False
        if (src, dst, desc) in self.excluded_descriptors:
            return False
        if self.excluded_channels:
            path = vlb_path(topo, src, dst, desc)
            if any(ch in self.excluded_channels for ch in path.channels()):
                return False
        return True

    def describe(self) -> str:
        return (
            f"{self.base.describe()} minus {len(self.excluded_channels)} "
            f"channels / {len(self.excluded_descriptors)} paths"
        )


@dataclass
class ExplicitPathSet(PathPolicy):
    """A fully materialized per-pair path set (small topologies / tests).

    Built either from another policy (``from_policy``) or directly from a
    mapping of pair -> descriptor list.
    """

    paths: Dict[Tuple[int, int], List[VlbDescriptor]] = field(
        default_factory=dict
    )
    label: str = "explicit"

    @classmethod
    def from_policy(
        cls,
        topo: Dragonfly,
        policy: PathPolicy,
        pairs: Optional[List[Tuple[int, int]]] = None,
    ) -> "ExplicitPathSet":
        if pairs is None:
            pairs = [
                (s, d)
                for s in range(topo.num_switches)
                for d in range(topo.num_switches)
                if s != d
            ]
        table = {
            pair: list(policy.iter_descriptors(topo, *pair)) for pair in pairs
        }
        return cls(paths=table, label=f"explicit({policy.describe()})")

    def contains(self, topo, src, dst, desc) -> bool:
        return desc in self.paths.get((src, dst), ())

    def iter_descriptors(self, topo, src, dst):
        return iter(self.paths.get((src, dst), ()))

    def sample(self, topo, src, dst, rng):
        options = self.paths.get((src, dst))
        if not options:
            return None
        return options[int(rng.integers(len(options)))]

    def describe(self) -> str:
        return self.label
