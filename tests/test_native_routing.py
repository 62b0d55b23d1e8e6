"""Native route decisions: the rng replica, the fallback rule, provenance.

The array engine makes UGAL-family route decisions in its C kernel
(``repro.sim.array.routing``).  Their bit-identity with the Python
``RoutingAlgorithm`` is pinned by the golden fixture
(``tests/test_sim_determinism.py``); these tests pin the pieces around
it: the kernel's replica of numpy's bounded-integer draw, the loud
fallback to Python routing when that replica fails its self-check or a
policy does not compile, ``RunManifest.routing_backend``, and the flat
tables' policy compilation against ``PathPolicy.contains``.
"""

import numpy as np
import pytest

import repro.sim.array.native as native
import repro.sim.array.network as array_network
from repro.obs import ObsConfig, capture
from repro.obs.manifest import IDENTITY_FIELDS, RunManifest
from repro.perf.bench import wheel_engine
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
    _mix,
)
from repro.routing.tables import (
    RULE_ACCEPT,
    RULE_QUOTA,
    compile_policy,
    topology_tables,
)
from repro.routing.vlb import enumerate_vlb_descriptors, vlb_leg_hops
from repro.sim import SimParams, simulate
from repro.sim.array import ArrayNetwork, native_available
from repro.sim.network import Network
from repro.sim.routing import make_routing
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic.patterns import Shift, UniformRandom

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable"
)

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)


def _run(routing="ugal-l", policy=None, load=0.3):
    return simulate(
        TOPO,
        Shift(TOPO, 1, 0),
        load,
        routing=routing,
        policy=policy,
        params=PARAMS,
        seed=5,
    )


# ---------------------------------------------------------------------------
# The rng replica
# ---------------------------------------------------------------------------
@needs_kernel
def test_draw_helper_matches_rng_integers():
    """repro_draw reproduces rng.integers draw for draw, interleaved."""
    lib = native.load_kernel()
    ours = np.random.default_rng(7)
    ref = np.random.default_rng(7)
    bitgen = ours.bit_generator.ctypes.bit_generator
    bounds = [1, 2, 3, 7, 10, 255, 2**31 + 1, 2**32, 2**32 + 1, 2**62 + 3]
    picks = np.random.default_rng(0).integers(len(bounds), size=5000)
    for i, j in enumerate(picks.tolist()):
        k = bounds[j]
        assert lib.repro_draw(bitgen, k) == ref.integers(k)
        if i % 7 == 0:
            assert ours.random() == ref.random()
    assert ours.integers(1000) == ref.integers(1000)


@needs_kernel
def test_replica_selfcheck_passes_here():
    assert native._rng_replica_selfcheck(native.load_kernel())
    assert native.native_routing_available()


@needs_kernel
def test_failed_selfcheck_routes_in_python(monkeypatch):
    """A replica mismatch keeps the array engine but routes in Python,
    says so in the manifest, and changes no result."""
    reference = _run("par")
    assert reference.manifest.routing_backend == "native"
    # the default gate (under "require" the mismatch raises, see below)
    monkeypatch.delenv("REPRO_ARRAYNET_NATIVE", raising=False)
    monkeypatch.setattr(native, "_rng_replica_selfcheck", lambda lib: False)
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_NATIVE_ROUTING", False)
    monkeypatch.setattr(array_network, "_LOGGED_FALLBACKS", set())
    result = _run("par")
    assert result.manifest.engine == "array"
    assert result.manifest.routing_backend == "python"
    assert result == reference


@needs_kernel
def test_failed_selfcheck_is_loud_under_require(monkeypatch):
    monkeypatch.setattr(native, "_rng_replica_selfcheck", lambda lib: False)
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_NATIVE_ROUTING", False)
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "require")
    with pytest.raises(native.NativeKernelUnavailable, match="replica"):
        native.load_kernel()


# ---------------------------------------------------------------------------
# Which runs route natively
# ---------------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("routing", ["min", "vlb", "ugal-l", "ugal-g", "par"])
def test_supported_runs_route_natively(routing):
    result = _run(routing)
    assert result.manifest.routing_backend == "native"
    with wheel_engine():
        wheel = _run(routing)
    assert wheel.manifest.routing_backend == "python"
    assert result == wheel


@needs_kernel
def test_uncompilable_policy_routes_in_python(monkeypatch, caplog):
    """ExcludingPolicy selects below leg-split classes: the Python
    reference routes it, with one logged warning."""
    monkeypatch.setattr(array_network, "_LOGGED_FALLBACKS", set())
    src, dst = 0, TOPO.num_switches - 1
    desc = next(iter(enumerate_vlb_descriptors(TOPO, src, dst)))
    policy = ExcludingPolicy(
        AllVlbPolicy(), excluded_descriptors=frozenset({(src, dst, desc)})
    )
    with caplog.at_level("WARNING"):
        result = _run("t-ugal-l", policy=policy)
        _run("t-ugal-l", policy=policy)
    assert result.manifest.engine == "array"
    assert result.manifest.routing_backend == "python"
    warnings = [r for r in caplog.records if "ExcludingPolicy" in r.message]
    assert len(warnings) == 1
    with wheel_engine():
        assert _run("t-ugal-l", policy=policy) == result


@needs_kernel
@pytest.mark.parametrize("cap", [1, 3])
def test_vlb_cache_blocks_grow_bit_identically(cap):
    """A pair's candidate block starts with one entry and moves to a
    larger one as it fills, up to the cap (3 is not a doubling step);
    two VLB candidates per decision can move it between the samples."""
    params = SimParams(
        window_cycles=60, vlb_cache_per_pair=cap, vlb_candidates=2
    )

    def run():
        return simulate(
            TOPO, UniformRandom(TOPO), 0.4, routing="ugal-g",
            params=params, seed=3,
        )

    result = run()
    assert result.manifest.routing_backend == "native"
    with wheel_engine():
        assert run() == result


@needs_kernel
def test_vlb_cache_storage_follows_drawn_candidates():
    """One routed packet per switch pair stores one candidate per pair
    (a 2-int header and one 4-int entry), not a whole capped block."""
    params = SimParams(window_cycles=60)
    net = ArrayNetwork(
        TOPO, params, params.vcs_required("ugal-l", TOPO.max_local_hops)
    )
    algo = make_routing(net, "ugal-l", rng=np.random.default_rng(0))
    assert net.bind_routing(algo) == "native"
    p = TOPO.p
    srcs = np.arange(0, TOPO.num_nodes, p)  # first node of each switch
    pairs = 0
    for shift in range(1, TOPO.num_switches):
        dsts = (srcs + shift * p) % TOPO.num_nodes
        assert net.inject_cycle(srcs, dsts, shift, 10_000) == 0
        pairs += len(srcs)
    assert int(net._router.rcnt[native.RC_VLBLEN]) == pairs * (2 + 4)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def test_routing_backend_is_environment_not_identity():
    assert "routing_backend" not in IDENTITY_FIELDS
    native_run = RunManifest(topology="t", routing="par", routing_backend="native")
    python_run = RunManifest(topology="t", routing="par", routing_backend="python")
    assert native_run.identity() == python_run.identity()
    assert RunManifest.from_dict(native_run.to_dict()) == native_run


def test_old_manifest_records_load():
    record = RunManifest(topology="t", engine="array").to_dict()
    del record["routing_backend"]
    loaded = RunManifest.from_dict(record)
    assert loaded.routing_backend is None
    assert loaded.engine == "array"


@needs_kernel
def test_trace_summary_names_the_backends():
    traced = PARAMS.with_obs(ObsConfig(sample_every=50))
    with capture() as tracer:
        simulate(TOPO, UniformRandom(TOPO), 0.2, params=traced, seed=1)
        with wheel_engine():
            simulate(TOPO, UniformRandom(TOPO), 0.2, params=traced, seed=2)
    summary = tracer.summary()
    assert summary["backends"] == {"array/native": 1, "wheel/python": 1}


# ---------------------------------------------------------------------------
# Flat tables
# ---------------------------------------------------------------------------
def _channels(topo):
    """The engine's channel numbering (the wheel builds it identically)."""
    return Network(topo, PARAMS, 4).channels


def test_tables_shared_by_equal_topologies():
    first = topology_tables(Dragonfly(4, 8, 4, 9), _channels(Dragonfly(4, 8, 4, 9)))
    again = topology_tables(Dragonfly(4, 8, 4, 9), _channels(Dragonfly(4, 8, 4, 9)))
    assert first is again
    assert topology_tables(TOPO, _channels(TOPO)) is not first


def _rule_accepts(rule, max_leg, topo, src, dst, desc):
    """The compiled rule, evaluated the way kernel.c's accept() does."""
    if rule.ordered and (desc.mid <= src or desc.mid <= dst):
        return False
    l1, l2 = vlb_leg_hops(topo, src, dst, desc)
    kind = rule.classes[l1 * (max_leg + 1) + l2]
    if kind == RULE_QUOTA:
        return _mix(rule.seed, src, dst, desc) % 10_000 < rule.quota
    return kind == RULE_ACCEPT


@pytest.mark.parametrize(
    "topo, policy",
    [
        (TOPO, AllVlbPolicy()),
        (TOPO, HopClassPolicy(4, 0.5, seed=3)),
        (TOPO, HopClassPolicy(2)),
        (TOPO, HopClassPolicy(5, 1.0)),
        (TOPO, StrategicFiveHopPolicy("3+2")),
        (CascadeDragonfly(2, 4, 2, 5, rows=2, cols=2), HopClassPolicy(6, 0.25)),
        (FullMesh(6), OrderedVlbPolicy()),
        (FullMesh(6), OrderedVlbPolicy(fraction=0.5, seed=-4)),
    ],
)
def test_compiled_policy_matches_contains(topo, policy):
    max_leg = 2 * topo.max_local_hops + 1
    rule = compile_policy(policy, max_leg)
    for src in range(topo.num_switches):
        for dst in range(topo.num_switches):
            if src == dst:
                continue
            for desc in enumerate_vlb_descriptors(topo, src, dst):
                assert _rule_accepts(
                    rule, max_leg, topo, src, dst, desc
                ) == policy.contains(topo, src, dst, desc)


def test_opaque_policies_do_not_compile():
    class Custom(HopClassPolicy):
        pass

    assert compile_policy(Custom(4), 3) is None
    assert compile_policy(ExcludingPolicy(AllVlbPolicy()), 3) is None
