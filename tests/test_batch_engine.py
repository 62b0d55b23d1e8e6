"""Batched multi-run engine: bit-parity, planning, and cache identity.

``repro.sim.batch.simulate_batch`` advances B independent MIN-routed
array-engine runs through shared kernel invocations; ``repro.perf.
planner.BatchPlanner`` decides which executor payloads ride together.
The whole feature rests on one contract: **batching is a pure scheduling
decision**.  Every run in a batch must equal its single-run result bit
for bit (full ``SimResult`` equality, not a tolerance), keep its own
RunSpec fingerprint and cache entry, and differ only in the
identity-neutral ``RunManifest.batch_size``/``batch_slot`` environment
fields.  These tests pin that contract across seeds, batch shapes
(including ragged completion), the planner's grouping policy, and the
executor's fallback when the native kernel is unavailable.
"""

import pytest

from repro.obs import ObsConfig
from repro.perf.bench import wheel_engine
from repro.perf.cache import SimCache
from repro.perf.executor import SimTask, SweepExecutor
from repro.perf.planner import DEFAULT_MAX_BATCH, BatchPlanner
from repro.sim import SimParams
from repro.sim.batch import BatchUnsupported, simulate_batch
from repro.spec import RunSpec
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)


def _spec(routing, *, seed=0, load=0.2, window=80):
    return RunSpec.from_objects(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=SimParams(window_cycles=window),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Bit-parity: batched == single-run, full SimResult equality
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing", ["min"])
def test_batched_matches_single(routing):
    """Three seeds ride one batch; every result equals its single-run
    form (SimResult equality covers every measured field)."""
    specs = [_spec(routing, seed=seed) for seed in (0, 1, 2)]
    batched = simulate_batch(specs)
    singles = [spec.run() for spec in specs]
    assert batched == singles
    assert all(r.manifest.engine == "array" for r in batched)


@pytest.mark.parametrize("routing", ["min"])
def test_batched_matches_single_at_high_load(routing):
    """Saturation exercises source-queue caps and deep backpressure --
    the regime where injection filtering could desync RNG streams."""
    specs = [_spec(routing, seed=seed, load=0.9) for seed in (0, 1)]
    assert simulate_batch(specs) == [spec.run() for spec in specs]


def test_batch_size_invariance():
    """How runs are grouped into batches never shows in the results:
    one batch of four == two batches of two == four singles."""
    specs = [_spec("min", seed=seed) for seed in range(4)]
    whole = simulate_batch(specs)
    halves = simulate_batch(specs[:2]) + simulate_batch(specs[2:])
    singles = [spec.run() for spec in specs]
    assert whole == halves == singles


def test_ragged_completion():
    """Members with different windows and loads finish at different
    cycles; survivors must advance identically after each compaction."""
    specs = [
        _spec("min", seed=0, window=60, load=0.1),
        _spec("min", seed=1, window=140, load=0.3),
        _spec("min", seed=2, window=90, load=0.2),
    ]
    batched = simulate_batch(specs)
    assert batched == [spec.run() for spec in specs]
    for slot, result in enumerate(batched):
        assert result.manifest.batch_size == 3
        assert result.manifest.batch_slot == slot


def test_single_run_manifest_has_no_batch_fields():
    result = _spec("min").run()
    assert result.manifest.batch_size is None
    assert result.manifest.batch_slot is None


def test_incompatible_specs_rejected():
    """Compatibility contract: topology and routing must match, and
    only MIN batches (the planner never sends anything else)."""
    with pytest.raises(BatchUnsupported):
        simulate_batch([_spec("min"), _spec("ugal-l")])
    for routing in ("vlb", "ugal-l", "ugal-g", "par"):
        with pytest.raises(BatchUnsupported):
            simulate_batch([_spec(routing, seed=0), _spec(routing, seed=1)])


def test_unsupported_without_native_kernel(monkeypatch):
    """No native kernel -> the batch path refuses rather than silently
    running a scalar lockstep (callers fall back to per-run)."""
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    with pytest.raises(BatchUnsupported):
        simulate_batch([_spec("min", seed=0), _spec("min", seed=1)])


# ---------------------------------------------------------------------------
# Identity: batching never reaches fingerprints or cache keys
# ---------------------------------------------------------------------------
def test_fingerprint_ignores_batch_knob():
    """A batched run's manifest carries the same spec fingerprint and
    cache key as the single run; only batch_size/batch_slot differ."""
    specs = [_spec("min", seed=seed) for seed in (0, 1)]
    batched = simulate_batch(specs)
    singles = [spec.run() for spec in specs]
    for spec, b, s in zip(specs, batched, singles):
        assert b.manifest.spec_fingerprint == spec.fingerprint()
        assert b.manifest.identity() == s.manifest.identity()


def test_cache_sharing_batched_and_single(tmp_path):
    """A batched run warms the cache for a single-run wheel sweep and
    vice versa: both sides key each run by its own RunSpec fingerprint,
    whatever engine computed it."""

    def tasks(seeds):
        return [
            SimTask(
                TOPO,
                UniformRandom(TOPO),
                0.2,
                routing="min",
                params=SimParams(window_cycles=80),
                seed=seed,
            )
            for seed in seeds
        ]

    cache = SimCache(str(tmp_path))
    with SweepExecutor(jobs=1, cache=cache) as batched_exec:
        stored = batched_exec.run(tasks(range(3)))
        assert batched_exec.cache_hits == 0
    assert all(r.manifest.batch_size == 3 for r in stored)

    with wheel_engine(), SweepExecutor(jobs=1, cache=cache) as single_exec:
        hits = single_exec.run(tasks(range(3)))
        assert single_exec.cache_hits == 3
    assert hits == stored

    # and the reverse direction: single-run entries feed a batched sweep
    # under the wheel engine the batched unit raises BatchUnsupported
    # and the executor falls back to single runs
    with wheel_engine(), SweepExecutor(jobs=1, cache=cache) as single_exec:
        fresh = single_exec.run(tasks(range(3, 5)))
    assert all(r.manifest.engine == "wheel" for r in fresh)
    assert all(r.manifest.batch_size is None for r in fresh)
    with SweepExecutor(jobs=1, cache=cache) as batched_exec:
        again = batched_exec.run(tasks(range(3, 5)))
        assert batched_exec.cache_hits == 2
    assert again == fresh


# ---------------------------------------------------------------------------
# BatchPlanner policy
# ---------------------------------------------------------------------------
def test_planner_eligibility():
    assert BatchPlanner.eligible(_spec("min"))
    # adaptive variants keep the single-run path (measured neutral to
    # negative under batching -- see the planner docstring)
    assert not BatchPlanner.eligible(_spec("ugal-l"))
    # live-object tasks cannot cross simulate_batch's validation
    assert not BatchPlanner.eligible(object())
    # instrumented runs take the single-run path
    traced = _spec("min").replace(
        params=SimParams(window_cycles=80).with_obs(ObsConfig(metrics=True))
    )
    assert not BatchPlanner.eligible(traced)


def test_planner_groups_compatible_specs_only():
    other_topo = Dragonfly(2, 4, 2, 3)
    other = RunSpec.from_objects(
        other_topo,
        UniformRandom(other_topo),
        0.2,
        routing="min",
        params=SimParams(window_cycles=80),
        seed=0,
    )
    payloads = [
        _spec("min", seed=0),
        _spec("ugal-l", seed=0),
        _spec("min", seed=1),
        other,
    ]
    units = BatchPlanner().plan(payloads)
    assert [u.indices for u in units] == [[0, 2], [1], [3]]
    assert [u.batched for u in units] == [True, False, False]


def test_planner_chunks_and_honours_hints():
    # DEFAULT_MAX_BATCH caps every group (planning only, no simulation)
    n = DEFAULT_MAX_BATCH + 3
    payloads = [_spec("min", seed=seed) for seed in range(n)]
    units = BatchPlanner().plan(payloads)
    assert [u.indices for u in units] == [
        list(range(DEFAULT_MAX_BATCH)), list(range(DEFAULT_MAX_BATCH, n)),
    ]
    assert all(u.batched for u in units)

    # a lone leftover run is a single-run unit, not a batch of one
    units = BatchPlanner().plan(payloads[:DEFAULT_MAX_BATCH + 1])
    assert [len(u.indices) for u in units] == [DEFAULT_MAX_BATCH, 1]
    assert [u.batched for u in units] == [True, False]

    # a process pool spreads one big group across the workers
    payloads = [_spec("min", seed=seed) for seed in range(8)]
    units = BatchPlanner(jobs=4).plan(payloads)
    assert [len(u.indices) for u in units] == [2, 2, 2, 2]


def test_planner_covers_every_index_once():
    # MIN runs past one chunk interleaved with ineligible PAR runs
    n = 2 * DEFAULT_MAX_BATCH + 5
    payloads = [
        _spec("min", seed=seed) if seed % 2 == 0 else _spec("par", seed=seed)
        for seed in range(n)
    ]
    units = BatchPlanner().plan(payloads)
    covered = sorted(i for u in units for i in u.indices)
    assert covered == list(range(n))
    assert max(len(u.indices) for u in units) == DEFAULT_MAX_BATCH


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------
def _min_tasks(seeds, window=80):
    return [
        SimTask(
            TOPO,
            UniformRandom(TOPO),
            0.2,
            routing="min",
            params=SimParams(window_cycles=window),
            seed=seed,
        )
        for seed in seeds
    ]


def test_executor_serial_path_batches():
    """jobs=1 sweeps get the batched path too (the planner runs before
    the pool decision), and results match per-task execution."""
    from repro.perf.executor import run_task

    tasks = _min_tasks(range(4))
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(tasks)
    assert all(r.manifest.batch_size == 4 for r in results)
    assert results == [run_task(t) for t in tasks]


def test_executor_trace_marks_batched_units():
    from repro.obs import Tracer

    tracer = Tracer()
    tasks = _min_tasks(range(3)) + [
        SimTask(
            TOPO,
            UniformRandom(TOPO),
            0.2,
            routing="ugal-l",
            params=SimParams(window_cycles=80),
            seed=0,
        )
    ]
    with SweepExecutor(jobs=1, tracer=tracer) as executor:
        executor.run(tasks)
    finished = [e for e in tracer.events if e["type"] == "task_finished"]
    assert [e["batched"] for e in sorted(finished, key=lambda e: e["index"])] \
        == [True, True, True, False]


def test_executor_has_no_batch_knob():
    """Batching is the planner's decision alone: no constructor knob."""
    with pytest.raises(TypeError):
        SweepExecutor(batch=1)


def test_executor_falls_back_without_native(monkeypatch):
    """BatchUnsupported inside the worker degrades to per-run execution
    with identical results -- planning is always safe."""
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    tasks = _min_tasks(range(3), window=60)
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(tasks)
    assert all(r.manifest.batch_size is None for r in results)
    monkeypatch.delenv("REPRO_ARRAYNET_NATIVE")
    assert results == [spec.run() for spec in
                       (t.payload() for t in tasks)]


def test_replicate_matches_seed_loop():
    """replicate() now routes through the executor's batched path; its
    aggregates must still come from bit-identical per-seed results."""
    from repro.sim.engine import simulate
    from repro.sim.replication import replicate

    params = SimParams(window_cycles=60)
    stats = replicate(
        TOPO,
        lambda seed: UniformRandom(TOPO),
        0.2,
        routing="min",
        params=params,
        seeds=range(3),
    )
    singles = [
        simulate(TOPO, UniformRandom(TOPO), 0.2, routing="min",
                 params=params, seed=seed)
        for seed in range(3)
    ]
    expected = sum(r.avg_latency for r in singles) / 3
    assert stats["latency"].mean == pytest.approx(expected, abs=0, rel=0)
