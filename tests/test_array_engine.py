"""Array-engine parity: the struct-of-arrays engine is bit-identical.

The array engine (``ArrayNetwork``, which ``build_network`` picks
whenever the native kernel loads) re-implements the per-cycle
deliver/crossbar/transmit phases over numpy struct-of-arrays state with
a native C kernel.  Its entire value rests on one contract: every
``SimResult`` field equals the timing-wheel engine's bit for bit,
across routing variants, seeds, and loads (and both engines match the
frozen verdicts in ``tests/fixtures/golden_simresults.json``, checked
by ``tests/test_sim_determinism.py``).  The wheel arm is reached
through the ``REPRO_ARRAYNET_NATIVE=0`` gate.  These tests pin that
contract, the host's engine choice (wheel when no kernel loads), and
the cache/identity neutrality of that choice: runs from different
engines must share result-cache entries, because the engine changes
performance, never results.
"""

import pytest

import repro.perf.executor as executor_module
from repro.perf.bench import wheel_engine
from repro.perf.cache import SimCache
from repro.perf.executor import SimTask, SweepExecutor
from repro.sim import SimParams, build_network, simulate
from repro.sim.array import (
    ArrayNetwork,
    NativeKernelUnavailable,
    native_available,
)
from repro.sim.network import Network
from repro.sim.stats import StatsCollector
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
ROUTINGS = ["min", "vlb", "ugal-l", "ugal-g", "par"]


def _run(routing, *, load=0.2, seed=3, window=80):
    """One run on the host's engine (array, since the kernel loads)."""
    return simulate(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=SimParams(window_cycles=window),
        seed=seed,
    )


def _run_wheel(routing, **kwargs):
    with wheel_engine():
        return _run(routing, **kwargs)


# ---------------------------------------------------------------------------
# Bit-parity across the seed grid and every routing variant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("seed", [0, 3])
def test_array_matches_wheel(routing, seed):
    """Full SimResult equality: every measured field, not a tolerance."""
    assert _run(routing, seed=seed) == _run_wheel(routing, seed=seed)


@pytest.mark.parametrize("routing", ["min", "ugal-l", "par"])
def test_array_matches_wheel_at_high_load(routing):
    """Saturation exercises budgets, credit stalls, and deep queues."""
    assert _run(routing, load=0.9) == _run_wheel(routing, load=0.9)


def test_packet_pool_grows_past_one_doubling(monkeypatch):
    """More nodes than twice the initial packet pool: one cycle's
    injections must still find a packet record each."""
    import repro.sim.array.network as array_network

    monkeypatch.setattr(array_network, "_INITIAL_PACKET_CAP", 8)
    assert 2 * 8 < TOPO.num_nodes
    assert _run("min", load=1.0) == _run_wheel("min", load=1.0)


def test_par_revisions_exercised():
    """The PAR arm revises packets, so hop-1 revision -- the only
    order-sensitive RNG in a cycle -- is actually covered above."""
    res = _run("par", load=0.6)
    assert res.par_revised > 0
    assert res == _run_wheel("par", load=0.6)


def test_array_engine_class_is_used():
    net = build_network(TOPO, SimParams(), "ugal-l")
    assert isinstance(net, ArrayNetwork)
    assert net.backend == "native"


# ---------------------------------------------------------------------------
# The host picks the engine: wheel when no kernel loads
# ---------------------------------------------------------------------------
def test_host_picks_engine(monkeypatch):
    """build_network returns ArrayNetwork when a kernel loads and the
    wheel Network under the gate; the engine is no SimParams field."""
    assert type(build_network(TOPO, SimParams(), "min")) is ArrayNetwork
    with pytest.raises(TypeError):
        SimParams(engine="array")
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    assert type(build_network(TOPO, SimParams(), "min")) is Network


def test_array_network_requires_kernel(monkeypatch):
    """No silent degradation: without a kernel ArrayNetwork refuses."""
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    with pytest.raises(NativeKernelUnavailable):
        ArrayNetwork(TOPO, SimParams(), 4)


def test_fallback_without_native_kernel(monkeypatch):
    """With the native gate off, simulate() runs the wheel engine --
    same results, no kernel required."""
    arr = _run("ugal-l")
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    wheel = _run("ugal-l")
    assert wheel.manifest.engine == "wheel"
    assert wheel == arr


def test_native_kernel_builds_here():
    """CI images ship a C compiler; if this fails the perf numbers in
    BENCH_sim.json silently degrade to the fallback."""
    assert native_available()


# ---------------------------------------------------------------------------
# The engine is identity-neutral: cross-engine cache sharing
# ---------------------------------------------------------------------------
def test_engine_excluded_from_fingerprint():
    """The manifest names the engine that ran; identity ignores it."""
    runs = [_run("ugal-l"), _run_wheel("ugal-l")]
    manifests = [r.manifest for r in runs]
    assert [m.engine for m in manifests] == ["array", "wheel"]
    assert len({m.fingerprint for m in manifests}) == 1
    assert len({str(m.identity()) for m in manifests}) == 1


def test_cross_engine_cache_sharing(tmp_path, monkeypatch):
    """An array-engine run warms the cache for a wheel-engine run."""

    def task():
        return SimTask(
            TOPO,
            UniformRandom(TOPO),
            0.2,
            routing="ugal-l",
            policy=None,
            params=SimParams(window_cycles=80),
            seed=3,
        )

    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        first = executor.run([task()])
        assert executor.cache_hits == 0
    assert first[0].manifest.engine == "array"

    def bomb(t):
        raise AssertionError("cache miss: engines do not share entries")

    monkeypatch.setattr(executor_module, "run_task", bomb)
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        second = executor.run([task()])
        assert executor.cache_hits == 1
    assert second == first


def test_obs_neutral_on_array_engine():
    """Observability hooks never perturb array-engine results."""
    from repro.obs import ObsConfig

    params = SimParams(window_cycles=80)
    instrumented = simulate(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing="ugal-l",
        params=params.with_obs(ObsConfig(metrics=True)),
        seed=3,
    )
    assert instrumented.manifest.engine == "array"
    assert instrumented == _run("ugal-l")


# ---------------------------------------------------------------------------
# Batched stats path is exact, not approximately equal
# ---------------------------------------------------------------------------
def test_batched_stats_match_scalar_appends():
    import numpy as np

    scalar = StatsCollector(num_nodes=4, warmup_cycles=10)
    batched = StatsCollector(num_nodes=4, warmup_cycles=10)
    rng = np.random.default_rng(7)
    cursor = 0
    for _ in range(5):
        n = int(rng.integers(1, 50))
        lats = rng.integers(1, 500, n)
        hops = rng.integers(1, 6, n)
        vlb = rng.integers(0, 2, n)
        cycles = cursor + np.sort(rng.integers(0, 20, n))
        cursor = int(cycles[-1])
        for i in range(n):
            pkt = type(
                "P",
                (),
                {
                    "inject_cycle": int(cycles[i] - lats[i]),
                    "path_hops": int(hops[i]),
                    "used_vlb": bool(vlb[i]),
                },
            )()
            scalar.record_ejection(pkt, int(cycles[i]))
        batched.record_ejection_batch(lats, hops, vlb, cycles)
    a = scalar.result(0.2, 100, 1000.0)
    b = batched.result(0.2, 100, 1000.0)
    assert a == b


# ---------------------------------------------------------------------------
# The new module passes the repo's own static determinism gate
# ---------------------------------------------------------------------------
def test_array_module_clean_under_analyze():
    import os

    from repro.analyze import AnalyzeConfig, analyze_tree

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report = analyze_tree(
        AnalyzeConfig(root=repo, paths=("src/repro/sim/array",))
    )
    det = [f for f in report.findings if f.rule.startswith("DET1")]
    assert det == [], report.to_text()
