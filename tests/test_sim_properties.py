"""Property-based tests of simulator invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.array import ArrayNetwork
from repro.sim.engine import build_network
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.topology import Dragonfly

TOPO = Dragonfly(2, 4, 2, 5)  # small: 20 switches, 40 nodes
PARAMS = SimParams(window_cycles=50, buffer_size=3)


def _credits(network, channel):
    """Per-VC credits of a channel, read from wherever the engine keeps
    them (the SoA arrays for ArrayNetwork, the channel for the wheel)."""
    if isinstance(network, ArrayNetwork):
        return network._S.cred[channel.index].tolist()
    return channel.credits


def _run_random_batch(pairs, routing, seed):
    """Inject arbitrary packets, drain, and check every invariant."""
    network = build_network(TOPO, PARAMS, routing)
    ejected = []
    network.on_eject = lambda pkt, cyc: ejected.append(pkt)
    algo = make_routing(network, routing, rng=np.random.default_rng(seed))
    network.on_arrival = algo.revise_at
    for src, dst in pairs:
        pkt = Packet(src, dst, 0)
        algo.route_packet(pkt)
        network.inject(pkt)
    for _ in range(4000):
        if network.quiescent():
            break
        network.step()
        # invariant: credits within bounds every cycle
        for ch in network.channels.values():
            assert all(
                0 <= c <= PARAMS.buffer_size for c in _credits(network, ch)
            )
    else:
        raise AssertionError("did not drain")
    # flush buffered hook work before reading ejections (Network contract)
    network.finalize()
    return network, ejected


@st.composite
def packet_batches(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    pairs = []
    for _ in range(n):
        src = draw(st.integers(0, TOPO.num_nodes - 1))
        dst = draw(st.integers(0, TOPO.num_nodes - 1))
        if src != dst:
            pairs.append((src, dst))
    return pairs


class TestConservationProperties:
    @settings(max_examples=12, deadline=None)
    @given(pairs=packet_batches(), seed=st.integers(0, 100))
    def test_every_packet_delivered_ugal(self, pairs, seed):
        network, ejected = _run_random_batch(pairs, "ugal-l", seed)
        assert len(ejected) == len(pairs)
        # destination correctness
        for pkt in ejected:
            assert (pkt.src_node, pkt.dst_node) in pairs
        # all credits restored
        for ch in network.channels.values():
            assert all(
                c == PARAMS.buffer_size for c in _credits(network, ch)
            )

    @settings(max_examples=8, deadline=None)
    @given(pairs=packet_batches(), seed=st.integers(0, 100))
    def test_every_packet_delivered_par(self, pairs, seed):
        _network, ejected = _run_random_batch(pairs, "par", seed)
        assert len(ejected) == len(pairs)

    @settings(max_examples=8, deadline=None)
    @given(pairs=packet_batches(), seed=st.integers(0, 100))
    def test_every_packet_delivered_vlb(self, pairs, seed):
        _network, ejected = _run_random_batch(pairs, "vlb", seed)
        assert len(ejected) == len(pairs)
        for pkt in ejected:
            # VLB never exceeds 6 switch hops on a fully connected group
            assert pkt.path_hops <= 6


class TestRouteProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        src=st.integers(0, TOPO.num_nodes - 1),
        dst=st.integers(0, TOPO.num_nodes - 1),
        seed=st.integers(0, 50),
    )
    def test_routes_start_and_end_correctly(self, src, dst, seed):
        if src == dst:
            return
        network = build_network(TOPO, PARAMS, "ugal-g")
        algo = make_routing(
            network, "ugal-g", rng=np.random.default_rng(seed)
        )
        pkt = Packet(src, dst, 0)
        algo.route_packet(pkt)
        src_sw = TOPO.switch_of_node(src)
        dst_sw = TOPO.switch_of_node(dst)
        if pkt.route:
            assert pkt.route[0].src_router == src_sw
            assert pkt.route[-1].dst_router == dst_sw
            # consecutive channels chain through routers
            for a, b in zip(pkt.route, pkt.route[1:]):
                assert a.dst_router == b.src_router
        else:
            assert src_sw == dst_sw
        # VC sequence is valid for the configured scheme
        assert len(pkt.vcs) == len(pkt.route)
        assert all(0 <= vc < network.num_vcs for vc in pkt.vcs)
