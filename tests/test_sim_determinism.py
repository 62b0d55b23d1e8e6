"""Run-to-run determinism and engine identity against frozen verdicts.

The seed engine kept its transmit work list in a ``set`` of channel
objects, so iteration order -- and with it, any future behaviour that
depends on event order -- varied with object memory addresses from run
to run.  The engine now uses ordered structures (wheels and
insertion-ordered dicts) throughout; these tests pin that down:

* the same (topology, pattern, routing, seed) produces bit-identical
  ``SimResult`` records on repeated in-process runs, and
* both cycle engines reproduce ``tests/fixtures/golden_simresults.json``
  bit for bit.  The first five cases hold the verdicts of the
  seed-faithful legacy cycle engine (per-cycle ``sorted`` round-robin,
  dict port budgets, dict-of-lists event buckets), recorded at commit
  ``5b61d90dcaad13c6e28f391f20035f76cf10c061``, where the wheel and array
  engines were checked to produce the same values.  The cases with an
  ``id`` widen the routing coverage (UGAL-G, VLB, T- policies with hash
  quotas, leg splits, sparse reservoirs and ordered intermediates,
  multi-candidate UGAL, the uncached VLB path, per-hop VCs, Cascade
  groups, scheduled traces); they were recorded on the wheel engine at
  commit ``198cc8b6aace2ae326b53c397d1ae937f24039dd``, where the array
  engine still routed through the Python ``RoutingAlgorithm`` and was
  checked to agree.  They are the oracle for the native route decisions.
  The fixture is frozen: never regenerate it from the current engines.
  A mismatch means an engine changed observable behaviour.
"""

import contextlib
import json
from pathlib import Path

import pytest

import repro.routing.pathset as pathset
from repro.perf.bench import wheel_engine
from repro.perf.cache import result_from_dict
from repro.sim import SimParams, simulate
from repro.sim.array import native_available
from repro.spec import PatternSpec, PolicySpec, TopologySpec
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom
from repro.traffic.trace import TraceTraffic, synthetic_trace

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=80)


def _run(routing, load=0.2, seed=3, params=PARAMS):
    return simulate(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=params,
        seed=seed,
    )


@pytest.mark.parametrize("routing", ["min", "vlb", "ugal-l", "par"])
def test_same_seed_same_result(routing):
    """Two fresh runs with one seed agree on every SimResult field.

    Object identities (hence hashes and set orders) differ between the
    two runs, so this regresses the old address-ordered work lists.
    """
    assert _run(routing) == _run(routing)


def test_different_seeds_differ():
    # sanity: the equality above is not vacuous
    assert _run("ugal-l", seed=3) != _run("ugal-l", seed=4)


GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_simresults.json").read_text()
)


def _golden_id(case):
    return case.get("id") or f"{case['routing']}@{case['load']:g}"


def _golden_pattern(case, topo):
    if case["pattern"] != "trace":
        return PatternSpec.parse(case["pattern"]).build(topo)
    # scheduled traffic: the union of seeded synthetic traces, so one
    # node can own several events in one cycle
    spec = case["trace"]
    base = PatternSpec.parse(spec["base"]).build(topo)
    cycles = SimParams(window_cycles=case["window_cycles"]).total_cycles
    events = []
    for seed in spec["seeds"]:
        events += synthetic_trace(
            topo, base, spec["load"], cycles, seed=seed
        ).events
    return TraceTraffic(topo, events)


def _golden_run(case):
    topo = TopologySpec.parse(case["topology"]).build()
    policy = case.get("policy")
    return simulate(
        topo,
        _golden_pattern(case, topo),
        case["load"],
        routing=case["routing"],
        policy=PolicySpec.parse(policy).build() if policy else None,
        params=SimParams(
            window_cycles=case["window_cycles"], **case.get("params", {})
        ),
        seed=case["seed"],
    )


@pytest.mark.parametrize("engine", ["host", "wheel"])
@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_golden_simresult(case, engine):
    """Full SimResult equality with the frozen verdict."""
    with wheel_engine() if engine == "wheel" else contextlib.nullcontext():
        result = _golden_run(case)
        sparse_pairs = len(pathset._sparse_memo)
    host = "array" if native_available() else "wheel"
    assert result.manifest.engine == (host if engine == "host" else "wheel")
    # with the kernel loaded every golden case routes in C; a silent fall
    # back to Python would make the host case compare Python with Python
    assert result.manifest.routing_backend == (
        "native" if host == "array" and engine == "host" else "python"
    )
    assert result == result_from_dict(case["result"])
    if case["routing"] in ("par", "t-par"):
        # hop-1 revision is the only order-sensitive RNG in a cycle
        assert result.par_revised > 0
    if (case.get("policy") or "").startswith("hopclass:2"):
        # the 2-hop class is sparse enough to reach the reservoir path
        assert sparse_pairs > 0
