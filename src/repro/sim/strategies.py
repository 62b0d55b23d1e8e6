"""Routing decision strategies: the variant-specific half of UGAL routing.

:class:`~repro.sim.routing.RoutingAlgorithm` owns the state a decision
needs -- candidate caches, queue estimates, decision counters -- while the
*decision procedure* of each variant (MIN, VLB, UGAL-L, UGAL-G, PAR) lives
here as a registered strategy object.  Adding a routing variant means
registering a new strategy in ``ROUTING_REGISTRY`` (see
:mod:`repro.spec.builtins`), not editing branch chains in the algorithm.

Every strategy draws its random candidates in exactly the order the
original monolithic implementation did, so same-seed simulations are
bit-identical to the pre-split code (pinned by the frozen verdicts in
``tests/fixtures/golden_simresults.json``).  These classes are also the
reference semantics of the array engine's native route decisions
(``repro/sim/array/kernel.c``, bound by :mod:`repro.sim.array.routing`):
the kernel transliterates each strategy draw for draw, so any change to
a decision procedure here must be made there too, and the golden
fixture checks both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.paths import LOCAL_SLOT, Path
from repro.sim.vc import assign_vcs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet
    from repro.sim.routing import CandidateEntry, RoutingAlgorithm

__all__ = [
    "MinimalStrategy",
    "ParStrategy",
    "RoutingStrategy",
    "UgalGlobalStrategy",
    "UgalLocalStrategy",
    "ValiantStrategy",
]


class RoutingStrategy:
    """Per-variant route selection; stateless, shared across algorithms."""

    name: str = ""

    def decide(
        self,
        algo: "RoutingAlgorithm",
        packet: "Packet",
        src_sw: int,
        dst_sw: int,
    ) -> None:
        """Choose a route for ``packet`` at its source switch."""
        raise NotImplementedError

    def revise(
        self, algo: "RoutingAlgorithm", packet: "Packet", router_idx: int
    ) -> None:
        """Mid-route revision hook (PAR only); default is a no-op."""
        return None


class MinimalStrategy(RoutingStrategy):
    """Always a random MIN path."""

    name = "min"

    def decide(
        self,
        algo: "RoutingAlgorithm",
        packet: "Packet",
        src_sw: int,
        dst_sw: int,
    ) -> None:
        algo._apply(packet, algo._random_min(src_sw, dst_sw), used_vlb=False)


class ValiantStrategy(RoutingStrategy):
    """Always a random VLB path (falling back to MIN when the policy
    offers none for the pair)."""

    name = "vlb"

    def decide(
        self,
        algo: "RoutingAlgorithm",
        packet: "Packet",
        src_sw: int,
        dst_sw: int,
    ) -> None:
        # the MIN candidate is drawn first (same rng order as UGAL) and
        # used only as the no-VLB fallback
        min_entry = algo._random_min(src_sw, dst_sw)
        vlb_entry = algo._random_vlb(src_sw, dst_sw)
        if vlb_entry is None:
            algo._apply(packet, min_entry, used_vlb=False)
        else:
            algo._apply(packet, vlb_entry, used_vlb=True)


class UgalStrategy(RoutingStrategy):
    """The common UGAL recipe: draw MIN and VLB candidates, estimate each
    path's delay from queue state, pick the smaller (MIN wins ties plus
    the threshold ``T``).  Subclasses choose the delay estimate."""

    def cost(self, algo: "RoutingAlgorithm", entry: "CandidateEntry") -> int:
        """Estimated delay of a candidate path."""
        raise NotImplementedError

    def on_min_chosen(
        self, algo: "RoutingAlgorithm", packet: "Packet", min_path: Path
    ) -> None:
        """Hook invoked when the MIN candidate wins (PAR arms revision)."""
        return None

    def decide(
        self,
        algo: "RoutingAlgorithm",
        packet: "Packet",
        src_sw: int,
        dst_sw: int,
    ) -> None:
        min_entry = algo._random_min(src_sw, dst_sw)
        vlb_entry = algo._random_vlb(src_sw, dst_sw)
        if vlb_entry is None:
            algo._apply(packet, min_entry, used_vlb=False)
            return

        # optionally draw extra candidates and keep the cheapest of each
        # kind (the original UGAL allows "a small number" of candidates)
        params = algo.network.params
        cost_min = self.cost(algo, min_entry)
        for _ in range(params.min_candidates - 1):
            other = algo._random_min(src_sw, dst_sw)
            other_cost = self.cost(algo, other)
            if other_cost < cost_min:
                min_entry, cost_min = other, other_cost
        cost_vlb = self.cost(algo, vlb_entry)
        for _ in range(params.vlb_candidates - 1):
            maybe = algo._random_vlb(src_sw, dst_sw)
            if maybe is None:
                continue
            maybe_cost = self.cost(algo, maybe)
            if maybe_cost < cost_vlb:
                vlb_entry, cost_vlb = maybe, maybe_cost

        if cost_min <= cost_vlb + algo.threshold:
            algo._apply(packet, min_entry, used_vlb=False)
            self.on_min_chosen(algo, packet, min_entry[0])
        else:
            algo._apply(packet, vlb_entry, used_vlb=True)


class UgalLocalStrategy(UgalStrategy):
    """UGAL-L: delay = (local queue of the first channel) x (path length)."""

    name = "ugal-l"

    def cost(self, algo: "RoutingAlgorithm", entry: "CandidateEntry") -> int:
        return algo._cost_local(entry[1], entry[0].num_hops)


class UgalGlobalStrategy(UgalStrategy):
    """UGAL-G: delay = total queue along the whole path (idealized)."""

    name = "ugal-g"

    def cost(self, algo: "RoutingAlgorithm", entry: "CandidateEntry") -> int:
        return algo._cost_global(entry[1])


class ParStrategy(UgalLocalStrategy):
    """PAR: UGAL-L at the source, with one possible revision at the second
    switch of the source group (one extra VC level absorbs the hop)."""

    name = "par"

    def on_min_chosen(
        self, algo: "RoutingAlgorithm", packet: "Packet", min_path: Path
    ) -> None:
        if min_path.num_hops >= 2 and min_path.slots[0] == LOCAL_SLOT:
            packet.revisable = True

    def revise(
        self, algo: "RoutingAlgorithm", packet: "Packet", router_idx: int
    ) -> None:
        """Re-decide MIN-vs-VLB from ``router_idx``.

        The remaining MIN route competes with a fresh VLB path from here;
        if VLB wins, the remaining route is rewritten using the next VC
        level.
        """
        dst_sw = algo.topo.switch_of_node(packet.dst_node)
        if router_idx == dst_sw:
            return
        vlb_entry = algo._random_vlb(router_idx, dst_sw)
        if vlb_entry is None:
            return
        vlb_path, vlb_ch, _ = vlb_entry
        remaining = packet.route[packet.hop :]
        remaining_hops = len(remaining)
        cost_min = (
            remaining[0].load_metric() * remaining_hops if remaining else 0
        )
        cost_vlb = algo._cost_local(vlb_ch, vlb_path.num_hops)
        if cost_vlb + algo.threshold < cost_min:
            vcs = assign_vcs(
                vlb_path,
                algo.vc_scheme,
                hop_offset=packet.hop,
                revised=True,
                num_vcs=algo.num_vcs,
            )
            packet.route = packet.route[: packet.hop] + vlb_ch
            packet.vcs = packet.vcs[: packet.hop] + vcs
            packet.path_hops = packet.hop + vlb_path.num_hops
            packet.used_vlb = True
            algo.par_revised += 1
