"""Parallel sweep execution: bit-identical to serial, in task order."""

import pytest

from repro.perf.executor import SimTask, SweepExecutor, default_jobs, run_task
from repro.sim import SimParams
from repro.sim.replication import replicate
from repro.sim.sweep import latency_vs_load
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)
LOADS = [0.1, 0.2, 0.3]


def _tasks(loads=LOADS, routing="min", seed=1):
    return [
        SimTask(
            TOPO,
            UniformRandom(TOPO),
            load,
            routing=routing,
            params=PARAMS,
            seed=seed,
        )
        for load in loads
    ]


def test_parallel_matches_serial_exactly():
    tasks = _tasks()
    serial = [run_task(t) for t in tasks]
    with SweepExecutor(jobs=2) as executor:
        parallel = executor.run(tasks)
    assert parallel == serial


def test_results_align_with_task_order():
    """Results are positional even when completion order scrambles."""
    tasks = _tasks(loads=[0.3, 0.1, 0.2])
    expected = [run_task(t) for t in tasks]
    with SweepExecutor(jobs=2) as executor:
        got = executor.run(tasks)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"result {i} does not match its task"


def test_jobs_one_runs_serially_in_process():
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(_tasks())
        assert executor.computed_serial == len(LOADS)
        assert executor.computed_parallel == 0
        assert executor._pool is None
        assert not executor.parallel
    assert results == [run_task(t) for t in _tasks()]


def test_single_task_batch_avoids_pool():
    with SweepExecutor(jobs=4) as executor:
        result = executor.run_one(_tasks(loads=[0.2])[0])
        assert executor.computed_serial == 1
        assert executor._pool is None
    assert result == run_task(_tasks(loads=[0.2])[0])


def test_latency_vs_load_executor_identical():
    pattern = UniformRandom(TOPO)
    kwargs = dict(
        routing="min", params=PARAMS, seed=1, stop_after_saturation=False
    )
    serial = latency_vs_load(TOPO, pattern, LOADS, **kwargs)
    with SweepExecutor(jobs=2) as executor:
        pooled = latency_vs_load(
            TOPO, pattern, LOADS, executor=executor, **kwargs
        )
    assert pooled.rows() == serial.rows()


def test_replicate_executor_identical():
    kwargs = dict(
        routing="ugal-l", params=PARAMS, seeds=range(3)
    )
    serial = replicate(
        TOPO, lambda s: UniformRandom(TOPO), 0.2, **kwargs
    )
    with SweepExecutor(jobs=2) as executor:
        pooled = replicate(
            TOPO,
            lambda s: UniformRandom(TOPO),
            0.2,
            executor=executor,
            **kwargs,
        )
    assert pooled["latency"].values == serial["latency"].values
    assert pooled["accepted"].values == serial["accepted"].values


def test_default_jobs_env(monkeypatch):
    import os

    cap = os.cpu_count() or 1
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    # $REPRO_JOBS is honoured up to the host's core count: oversubscribing
    # a sweep slows it down (BENCH_sim.json parallel_speedup < 1 on a
    # 1-CPU host), so the default never exceeds os.cpu_count().
    assert default_jobs() == min(6, cap)
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", str(cap + 5))
    assert default_jobs() == cap


@pytest.mark.parametrize("value", ["not-a-number", "four", "2.5"])
def test_default_jobs_env_malformed(monkeypatch, value):
    """A malformed $REPRO_JOBS fails loudly instead of running serially."""
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(ValueError, match="REPRO_JOBS") as exc:
        default_jobs()
    assert repr(value) in str(exc.value)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        SweepExecutor()


def test_describe_smoke():
    with SweepExecutor(jobs=1) as executor:
        executor.run(_tasks(loads=[0.1]))
        text = executor.describe()
    assert "serial" in text and "no cache" in text
