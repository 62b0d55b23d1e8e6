"""Routing decision state: candidate generation, caches, queue estimates.

The T- variants (T-UGAL-L, T-UGAL-G, T-PAR) are the same decision
procedures with a restricted VLB :class:`~repro.routing.pathset.PathPolicy`
-- exactly the paper's framing: "T-UGAL only changes the set of candidate
paths for UGAL".

:class:`RoutingAlgorithm` owns everything a decision *uses* -- per-pair
MIN/VLB candidate caches, the rng, queue-state cost estimates, decision
counters -- while each variant's decision *procedure* (how MIN, VLB,
UGAL-L, UGAL-G, and PAR choose and revise) lives in a
:class:`~repro.sim.strategies.RoutingStrategy` looked up in
``repro.spec``'s ``ROUTING_REGISTRY``.  Adding a variant is a
registration, not an edit to this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.routing.minimal import min_paths
from repro.routing.paths import Path
from repro.routing.pathset import AllVlbPolicy, PathPolicy
from repro.sim.network import Network, SimChannel
from repro.sim.packet import Packet
from repro.sim.vc import assign_vcs

__all__ = [
    "CandidateEntry",
    "RoutingAlgorithm",
    "ROUTING_VARIANTS",
    "make_routing",
]

ROUTING_VARIANTS = ("min", "vlb", "ugal-l", "ugal-g", "par")

# a prepared route candidate: the path, its live channels, its VC ladder
CandidateEntry = Tuple[Path, List[SimChannel], List[int]]


class _NoVlbPath:
    """Typed cache sentinel: a pair with no VLB path under the policy."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no VLB path>"


_NO_VLB_PATH = _NoVlbPath()


class RoutingAlgorithm:
    """Per-packet route selection bound to a network and a VLB policy."""

    def __init__(
        self,
        network: Network,
        variant: str,
        policy: Optional[PathPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # lazy import: the spec layer sits above sim and imports this
        # module, so the reverse edge must not exist at import time
        from repro.spec.builtins import strategy_for

        self.strategy = strategy_for(variant)
        self.network = network
        self.topo = network.topo
        self.variant = variant
        self.policy = policy if policy is not None else AllVlbPolicy()
        # fixed fallback seed: an OS-entropy default here would make any
        # caller that forgets to pass the SimParams-derived rng silently
        # nonreproducible
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.threshold = network.params.ugal_threshold
        self.vc_scheme = network.params.vc_scheme
        self.num_vcs = network.num_vcs
        # decision counters (reported by the engine)
        self.min_chosen = 0
        self.vlb_chosen = 0
        self.par_revised = 0
        # per-pair MIN path cache (tiny objects, hot path)
        self._min_cache: Dict[Tuple[int, int], List[CandidateEntry]] = {}
        # per-pair VLB candidate cache; once `_vlb_cache_cap` distinct
        # candidates were drawn for a pair, further draws reuse them
        # uniformly; _NO_VLB_PATH marks pairs the policy cannot serve
        self._vlb_cache: Dict[
            Tuple[int, int], Union[List[CandidateEntry], _NoVlbPath]
        ] = {}
        self._vlb_cache_cap = network.params.vlb_cache_per_pair

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _prepare(self, path: Path) -> CandidateEntry:
        return (
            path,
            self.network.path_channels(path),
            assign_vcs(path, self.vc_scheme, num_vcs=self.num_vcs),
        )

    def _min_candidates(
        self, src_sw: int, dst_sw: int
    ) -> List[CandidateEntry]:
        entries = self._min_cache.get((src_sw, dst_sw))
        if entries is None:
            entries = [
                self._prepare(p) for p in min_paths(self.topo, src_sw, dst_sw)
            ]
            self._min_cache[(src_sw, dst_sw)] = entries
        return entries

    def _random_min(self, src_sw: int, dst_sw: int) -> CandidateEntry:
        entries = self._min_candidates(src_sw, dst_sw)
        if len(entries) == 1:
            return entries[0]
        return entries[int(self.rng.integers(len(entries)))]

    def _random_vlb(
        self, src_sw: int, dst_sw: int
    ) -> Optional[CandidateEntry]:
        """One random VLB candidate as a (path, channels, vcs) triple.

        Uses the per-pair candidate cache: the first ``_vlb_cache_cap``
        draws are genuine uniform samples from the policy (and are
        memoized); later draws reuse them uniformly.
        """
        key = (src_sw, dst_sw)
        cache = self._vlb_cache.get(key)
        if isinstance(cache, _NoVlbPath):
            return None  # pair has no VLB path under this policy
        if cache is None:
            cache = []
            self._vlb_cache[key] = cache
        if self._vlb_cache_cap <= 0 or len(cache) < self._vlb_cache_cap:
            path = self.policy.sample_path(
                self.topo, src_sw, dst_sw, self.rng
            )
            if path is None:
                if not cache:
                    self._vlb_cache[key] = _NO_VLB_PATH
                    return None
                return cache[int(self.rng.integers(len(cache)))]
            entry = self._prepare(path)
            if self._vlb_cache_cap > 0:
                cache.append(entry)
            return entry
        return cache[int(self.rng.integers(len(cache)))]

    # ------------------------------------------------------------------
    # Queue estimates
    # ------------------------------------------------------------------
    def _cost_local(self, channels: List[SimChannel], hops: int) -> int:
        """UGAL-L/PAR estimate: first-hop local queue x path length."""
        if not channels:
            return 0
        return channels[0].load_metric() * hops

    def _cost_global(self, channels: List[SimChannel]) -> int:
        """UGAL-G estimate: total queue along the whole path."""
        return sum(ch.load_metric() for ch in channels)

    # ------------------------------------------------------------------
    # Decisions (delegated to the registered strategy)
    # ------------------------------------------------------------------
    def route_packet(self, packet: Packet) -> None:
        """Fill in route/vcs for a packet at its source switch."""
        src_sw = self.topo.switch_of_node(packet.src_node)
        dst_sw = self.topo.switch_of_node(packet.dst_node)
        if src_sw == dst_sw:
            self._apply(packet, ((Path((src_sw,), ())), [], []), False)
            return
        self.strategy.decide(self, packet, src_sw, dst_sw)

    def route_packets(self, packets: Sequence[Packet]) -> None:
        """Route a batch of freshly created packets, in order.

        Batch-friendly hook for the engines: one call per injection
        cycle instead of one per packet.  The RNG draw order is pinned
        -- packets are routed strictly in sequence order, so the draws
        (and the VLB candidate-cache mutations they cause) happen in
        exactly the order the per-packet loop would produce.  Decisions
        only read channel ``load_metric`` state, never source-queue
        occupancy, so routing a whole batch before injecting any of it
        is bit-identical to interleaving route/inject per packet.
        """
        for packet in packets:
            self.route_packet(packet)

    def revise_at(self, packet: Packet, router_idx: int) -> None:
        """Mid-route revision hook (PAR's second-hop re-decision).

        Called by the network when a revisable packet reaches the second
        switch of its source group; non-revising strategies ignore it.
        """
        packet.revisable = False
        self.strategy.revise(self, packet, router_idx)

    # ------------------------------------------------------------------
    def _apply(
        self, packet: Packet, entry: CandidateEntry, used_vlb: bool
    ) -> None:
        path, channels, vcs = entry
        packet.route = channels
        packet.vcs = vcs
        packet.path_hops = path.num_hops
        packet.used_vlb = used_vlb
        if used_vlb:
            self.vlb_chosen += 1
        else:
            self.min_chosen += 1


def make_routing(
    network: Network,
    variant: str,
    policy: Optional[PathPolicy] = None,
    rng: Optional[np.random.Generator] = None,
) -> RoutingAlgorithm:
    """Factory accepting both plain and ``t-`` prefixed variant names.

    T- prefixes are validated against the registry: only variants that
    accept a custom policy have a T- form, and a T- form without a policy
    is an error (the same error the CLI and ``RunSpec`` raise).
    """
    from repro.spec.builtins import resolve_routing

    base, _custom = resolve_routing(variant, has_policy=policy is not None)
    return RoutingAlgorithm(network, base, policy=policy, rng=rng)
