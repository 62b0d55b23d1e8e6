"""Performance benchmark harness -- the source of ``BENCH_sim.json``.

The benchmark families:

* **Array-engine microbenchmark** -- cycles/second of the per-cycle
  engine (deliver / crossbar / transmit) under MIN routing, where
  routing-side work is negligible and the measurement isolates the
  network hot path: the timing-wheel engine against the struct-of-arrays
  engine (``repro.sim.array.ArrayNetwork``, the host default whenever
  the native C kernel loads).  Without the kernel the record names the
  ``fallback`` backend and skips the arm: the host then runs the wheel
  engine itself, so a "speedup" would be meaningless.
* **Batch microbenchmark** -- whole-run throughput of the batched
  multi-run driver against sequential single runs.
* **Observability overhead** -- ``simulate()`` with every obs switch
  off against no obs config at all.
* **Sweep wall-clock** -- an N-point latency-vs-load ladder executed
  serially, through a process pool (``--jobs``), and through a warm
  on-disk cache, asserting that all three return identical results.
* **Model microbenchmark** -- a Step-1 LP sweep (Table-1 datapoints x
  the adversarial pattern suite) solved by the legacy per-solve
  assembly and by the factored fast path
  (:class:`~repro.model.fastpath.FastModel`), cold and warm, asserting
  per-datapoint throughputs agree to 1e-9.
* **Adversary microbenchmark** -- a budget-8 ``repro.adversary`` search
  run cold and warm through one on-disk cache: candidates/second, the
  warm-cache hit rate, and the ``within_type1`` usefulness gate (the
  discovered pattern must score at or below the best TYPE_1 shift).

``python -m repro bench`` (or ``python -m repro.perf.bench``) writes the
JSON trajectory record; see ``docs/performance.md`` for how to read it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import ObsConfig
from repro.perf.cache import SimCache
from repro.perf.executor import SweepExecutor
from repro.sim.network import Network
from repro.sim.params import SimParams
from repro.sim.sweep import latency_vs_load
from repro.topology import default_dragonfly
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import UniformRandom

_NATIVE_GATE = "REPRO_ARRAYNET_NATIVE"

__all__ = [
    "bench_adversary",
    "bench_array",
    "bench_batch",
    "bench_model",
    "bench_obs",
    "bench_sweep",
    "main",
    "run_benchmarks",
    "wheel_engine",
]


@contextmanager
def wheel_engine():
    """Run ``simulate()`` on the timing-wheel engine inside this context.

    Sets the existing ``REPRO_ARRAYNET_NATIVE=0`` gate, which
    ``build_network`` reads (through ``load_kernel()``) on every call.
    """
    previous = os.environ.get(_NATIVE_GATE)
    os.environ[_NATIVE_GATE] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[_NATIVE_GATE]
        else:
            os.environ[_NATIVE_GATE] = previous


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def _time_steps(topo, pattern, load, routing, params, seed, cls=None) -> Tuple:
    """Run one ``simulate()`` and time only the engine's ``step`` calls.

    The accumulator wraps ``cls.step`` (default :class:`Network`; pass
    ``ArrayNetwork`` explicitly because it *overrides* ``step`` and
    patching the base class would silently time nothing) and sums a
    ``perf_counter`` interval around each cycle.  The caller picks the
    engine that runs: the host default (``ArrayNetwork`` when the native
    kernel loads), or the wheel engine inside :func:`wheel_engine`.
    Injection, routing decisions, and warmup/drain bookkeeping in
    ``simulate()`` are identical code in both engines and are excluded,
    so the ratio measures the deliver/crossbar/transmit phases the
    engine work touched.
    """
    from repro.sim.engine import simulate

    if cls is None:
        cls = Network
    acc = [0.0, 0]
    original = cls.step

    def step(self):
        start = time.perf_counter()
        original(self)
        acc[0] += time.perf_counter() - start
        acc[1] += 1

    cls.step = step
    try:
        result = simulate(
            topo, pattern, load, routing=routing, params=params, seed=seed
        )
    finally:
        cls.step = original
    return acc[0], acc[1], result


def bench_array(
    topo: Optional[Dragonfly] = None,
    *,
    window_cycles: int = 600,
    load: float = 1.0,
    routing: str = "min",
    seed: int = 1,
    repeats: int = 5,
) -> Dict:
    """Array-engine cycles/second vs the timing-wheel engine.

    MIN routing keeps the routing layer trivial (cached single-path
    decisions) and the saturating default load keeps buffers deep, so
    the per-cycle deliver/crossbar/transmit phases dominate ``step()``
    time.  Timing is step-only (see :func:`_time_steps`); the engines
    run in interleaved wheel/array pairs so slow drift in background
    load hits both equally, and the record reports best-of-``repeats``
    per engine -- the minimum is the standard noise-robust estimator,
    since scheduler interference only ever adds time.  The wheel arm
    runs inside :func:`wheel_engine`; the array arm is the host default.

    ``identical_results`` uses full :class:`SimResult` equality (every
    measured field; the manifest is excluded by construction), which is
    the engine-parity contract the array engine must uphold.  ``backend``
    records whether the native C kernel loaded: without it the host runs
    the wheel engine and there is no array arm, so the record reports
    the skip instead of a meaningless ~1.0x.
    """
    from repro.sim.array import ArrayNetwork
    from repro.sim.array.native import native_available

    topo = topo if topo is not None else default_dragonfly()
    pattern = UniformRandom(topo)
    params = SimParams(window_cycles=window_cycles)
    record: Dict = {
        "topology": str(topo),
        "routing": routing,
        "load": load,
        "window_cycles": window_cycles,
        "baseline_engine": "wheel",
        "optimized_engine": "array",
        "backend": "native" if native_available() else "fallback",
    }
    if record["backend"] != "native":
        record["skipped"] = "native kernel unavailable"
        record["identical_results"] = True
        return record

    best_wheel, best_arr = float("inf"), float("inf")
    cycles_wheel = cycles_arr = 0
    result_wheel = result_arr = None
    for _ in range(repeats):
        with wheel_engine():
            elapsed, cycles_wheel, result_wheel = _time_steps(
                topo, pattern, load, routing, params, seed
            )
        best_wheel = min(best_wheel, elapsed)
        elapsed, cycles_arr, result_arr = _time_steps(
            topo, pattern, load, routing, params, seed, cls=ArrayNetwork,
        )
        best_arr = min(best_arr, elapsed)

    return {
        **record,
        "engine_cycles": cycles_arr,
        "baseline_cycles_per_sec": cycles_wheel / best_wheel,
        "optimized_cycles_per_sec": cycles_arr / best_arr,
        "speedup": (cycles_arr / best_arr) / (cycles_wheel / best_wheel),
        "identical_results": result_arr == result_wheel,
    }


def bench_batch(
    topo: Optional[Dragonfly] = None,
    *,
    window_cycles: int = 600,
    load: float = 1.0,
    routing: str = "min",
    batch_sizes: Sequence[int] = (1, 4, 8, 16),
) -> Dict:
    """Batched multi-run throughput vs sequential single-run array runs.

    Unlike the step-only microbenchmarks, this arm times **whole runs**:
    at saturating load the kernel is only a few percent of a full
    ``simulate()`` (per-packet routing and injection dominate), so the
    batched driver's win comes from amortizing that per-cycle Python
    work across runs -- shared MIN candidate tables, vectorized
    injection, one ``repro_step_batch`` call per cycle.  End-to-end
    aggregate cycles/second is therefore the honest metric, and it is
    the quantity sweeps actually experience.

    Each batch size ``B`` runs seeds ``0..B-1`` once through
    :func:`repro.sim.batch.simulate_batch` and once sequentially through
    ``simulate()`` on the array engine; ``identical_results`` demands
    full :class:`SimResult` equality for every run -- the bit-parity
    contract that makes batching identity-neutral.  The shared candidate
    table is prewarmed outside the timed regions (it is process-memoized
    and amortized across every batch on one topology).
    """
    from repro.sim.array.native import native_available
    from repro.sim.batch import simulate_batch
    from repro.sim.engine import simulate
    from repro.spec import RunSpec

    topo = topo if topo is not None else default_dragonfly()
    pattern = UniformRandom(topo)
    params = SimParams(window_cycles=window_cycles)
    record: Dict = {
        "topology": str(topo),
        "routing": routing,
        "load": load,
        "window_cycles": window_cycles,
        "backend": "native" if native_available() else "fallback",
        "batch_sizes": list(batch_sizes),
        "arms": [],
        "identical_results": True,
    }
    if record["backend"] != "native":
        # the batched driver refuses the scalar fallback (no shared
        # kernel call to amortize); report the skip instead of a fake 1x
        record["skipped"] = "native kernel unavailable"
        return record

    def spec_for(seed: int) -> RunSpec:
        return RunSpec.from_objects(
            topo, pattern, load, routing=routing, policy=None,
            params=params, seed=seed,
        )

    # prewarm: builds the process-memoized MIN candidate table and the
    # kernel .so so arm timings compare steady-state costs
    simulate_batch(
        [RunSpec.from_objects(
            topo, pattern, load, routing=routing, policy=None,
            params=SimParams(window_cycles=1), seed=0,
        )]
    )
    for size in batch_sizes:
        specs = [spec_for(seed) for seed in range(size)]
        total_cycles = sum(s.params.total_cycles for s in specs)
        start = time.perf_counter()
        batched = simulate_batch(specs)
        batched_s = time.perf_counter() - start
        start = time.perf_counter()
        singles = [simulate(spec) for spec in specs]
        single_s = time.perf_counter() - start
        identical = all(b == s for b, s in zip(batched, singles))
        record["identical_results"] = (
            record["identical_results"] and identical
        )
        record["arms"].append({
            "batch": size,
            "engine_cycles": total_cycles,
            "batched_seconds": batched_s,
            "single_seconds": single_s,
            "batched_cycles_per_sec": total_cycles / batched_s,
            "single_cycles_per_sec": total_cycles / single_s,
            "speedup": single_s / batched_s,
            "identical_results": identical,
        })
    return record


def bench_obs(
    topo: Optional[Dragonfly] = None,
    *,
    window_cycles: int = 600,
    load: float = 1.0,
    routing: str = "min",
    seed: int = 1,
    repeats: int = 5,
) -> Dict:
    """Disabled-observability overhead of ``simulate()``.

    Times whole runs (not just ``step()``) because the obs hooks live in
    the injection loop and the per-cycle sampler check, outside the
    network.  Compares ``obs=None`` (fully uninstrumented) against
    ``ObsConfig()`` with every switch off -- the no-op registry path that
    every instrumented call still traverses.  ``noop_overhead`` is the
    wall-clock ratio (best-of-``repeats``, interleaved so background
    drift hits both arms equally); the CI bench smoke asserts it stays
    under the 1.02 budget.  Both arms must produce equal results
    (``SimResult`` equality ignores the manifest by construction).
    """
    from repro.sim.engine import simulate

    topo = topo if topo is not None else default_dragonfly()
    pattern = UniformRandom(topo)
    base_params = SimParams(window_cycles=window_cycles)
    noop_params = base_params.with_obs(ObsConfig())

    best_off = best_noop = float("inf")
    result_off = result_noop = None
    for _ in range(repeats):
        start = time.perf_counter()
        result_off = simulate(
            topo, pattern, load, routing=routing,
            params=base_params, seed=seed,
        )
        best_off = min(best_off, time.perf_counter() - start)
        start = time.perf_counter()
        result_noop = simulate(
            topo, pattern, load, routing=routing,
            params=noop_params, seed=seed,
        )
        best_noop = min(best_noop, time.perf_counter() - start)

    return {
        "topology": str(topo),
        "routing": routing,
        "load": load,
        "window_cycles": window_cycles,
        "disabled_seconds": best_off,
        "noop_seconds": best_noop,
        "noop_overhead": best_noop / best_off if best_off else None,
        "identical_results": result_off == result_noop,
    }


def bench_sweep(
    topo: Optional[Dragonfly] = None,
    *,
    loads: Optional[Sequence[float]] = None,
    window_cycles: int = 300,
    routing: str = "ugal-l",
    seed: int = 0,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict:
    """Wall-clock of an N-point load ladder: serial vs pool vs warm cache.

    All executions must return identical result lists; the record
    includes the host's CPU count since pool speedup is bounded by it.
    When ``jobs`` exceeds the CPU count the pooled run is *skipped*
    rather than reported: an oversubscribed CPU-bound pool measures
    scheduler thrash, and publishing that as "parallel speedup" (the old
    jobs=8 default produced 0.72x on a 1-CPU host) misleads anyone
    reading the trajectory record.  The skip is annotated in
    ``parallel_skipped`` and the speedup fields are ``None``.
    """
    topo = topo if topo is not None else default_dragonfly()
    params = SimParams(window_cycles=window_cycles)
    pattern = UniformRandom(topo)
    if jobs is None:
        # oversubscribing a CPU-bound pool slows the sweep down (the old
        # jobs=8 default measured parallel_speedup 0.72 on a 1-CPU host)
        jobs = os.cpu_count() or 1
    if loads is None:
        loads = [0.05 + 0.05 * i for i in range(8)]
    kwargs = dict(
        routing=routing,
        params=params,
        seed=seed,
        stop_after_saturation=False,
    )

    start = time.perf_counter()
    serial = latency_vs_load(topo, pattern, loads, **kwargs)
    serial_s = time.perf_counter() - start

    cpus = os.cpu_count() or 1
    parallel_s = None
    parallel_skipped = None
    pooled = None
    if jobs > cpus:
        parallel_skipped = (
            f"jobs ({jobs}) > cpus ({cpus}): an oversubscribed pool "
            "measures scheduler contention, not parallel speedup"
        )
    else:
        with SweepExecutor(jobs=jobs) as executor:
            start = time.perf_counter()
            pooled = latency_vs_load(
                topo, pattern, loads, executor=executor, **kwargs
            )
            parallel_s = time.perf_counter() - start

    cached_s = None
    if cache_dir is not None:
        cache = SimCache(cache_dir)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            # first pass fills the cache, second pass times the hits
            latency_vs_load(topo, pattern, loads, executor=executor, **kwargs)
            start = time.perf_counter()
            cached = latency_vs_load(
                topo, pattern, loads, executor=executor, **kwargs
            )
            cached_s = time.perf_counter() - start
        assert cached.rows() == serial.rows(), "cache changed sweep results"

    identical = pooled is None or pooled.rows() == serial.rows()
    return {
        "topology": str(topo),
        "routing": routing,
        # report-layer rounding only: float grids built by repeated
        # addition accumulate drift (0.15000000000000002), which is
        # noise in a human-facing record; fingerprints and cache keys
        # keep the exact floats the runs actually used
        "loads": [float(f"{x:.10g}") for x in loads],
        "window_cycles": window_cycles,
        "jobs": jobs,
        "cpus": cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s else None,
        "parallel_skipped": parallel_skipped,
        "cached_seconds": cached_s,
        "cached_speedup": (serial_s / cached_s) if cached_s else None,
        "identical_results": identical,
    }


def bench_model(
    topo: Optional[Dragonfly] = None,
    *,
    num_datapoints: int = 6,
    num_patterns: int = 10,
    mode: str = "free",
    seed: int = 0,
    cache_dir: Optional[str] = None,
) -> Dict:
    """Step-1 LP sweep wall-clock: legacy assembly vs the fast path.

    The workload is ``num_datapoints`` Table-1 policies x
    ``num_patterns`` adversarial patterns (a TYPE_1 subsample plus
    TYPE_2 permutations), solved in ``mode`` -- ``"free"`` is what
    Algorithm 1's Step 1 uses and is the more expensive assembly.

    Three timed executions:

    * ``legacy`` -- the original per-solve constraint assembly
      (``engine="legacy"``), one full enumeration + COO build per
      ``(policy, pattern)``.
    * ``fast cold`` -- the factored pipeline from an empty process
      (structural factorization built once, then patched per solve).
    * ``fast warm`` -- same workload again with the per-process solver
      memo already populated, isolating the per-solve patch cost.

    With ``cache_dir`` a fourth execution times the sweep served
    entirely from the on-disk ``ModelResult`` cache.  All executions
    must agree per ``(datapoint, pattern)`` throughput to 1e-9
    (``identical_results``); the record carries the observed worst
    delta.
    """
    import numpy as np

    from repro.core.datapoints import table1_datapoints
    from repro.model.sweep import step1_sweep
    from repro.perf import executor as executor_module
    from repro.traffic.adversarial import type_1_set, type_2_set

    topo = topo if topo is not None else default_dragonfly()

    grid = table1_datapoints(step=0.25, seed=seed)[:num_datapoints]
    num_t2 = min(3, num_patterns)
    t1 = type_1_set(topo)
    rng = np.random.default_rng(seed)
    idx = rng.choice(
        len(t1), size=min(num_patterns - num_t2, len(t1)), replace=False
    )
    patterns = [t1[i] for i in sorted(idx)] + type_2_set(
        topo, count=num_t2, seed=seed
    )

    start = time.perf_counter()
    legacy = step1_sweep(
        topo, patterns, grid, mode=mode, engine="legacy", seed=seed
    )
    legacy_s = time.perf_counter() - start

    executor_module._SOLVER_MEMO.clear()  # a truly cold fast-path run
    start = time.perf_counter()
    fast = step1_sweep(
        topo, patterns, grid, mode=mode, engine="fast", seed=seed
    )
    fast_cold_s = time.perf_counter() - start

    start = time.perf_counter()  # memo now holds the factorization
    warm = step1_sweep(
        topo, patterns, grid, mode=mode, engine="fast", seed=seed
    )
    fast_warm_s = time.perf_counter() - start

    cached_s = None
    if cache_dir is not None:
        cache = SimCache(cache_dir)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            # first pass fills the cache, second pass times the hits
            step1_sweep(
                topo, patterns, grid, mode=mode, engine="fast",
                executor=executor, seed=seed,
            )
            start = time.perf_counter()
            cached = step1_sweep(
                topo, patterns, grid, mode=mode, engine="fast",
                executor=executor, seed=seed,
            )
            cached_s = time.perf_counter() - start
        for pt, ref in zip(cached, legacy):
            assert np.allclose(
                pt.per_pattern, ref.per_pattern, rtol=0, atol=1e-9
            ), "cache changed sweep results"

    max_delta = max(
        abs(a - b)
        for f, l in zip(fast, legacy)
        for a, b in zip(f.per_pattern, l.per_pattern)
    )
    warm_delta = max(
        abs(a - b)
        for w, l in zip(warm, legacy)
        for a, b in zip(w.per_pattern, l.per_pattern)
    )
    return {
        "topology": str(topo),
        "mode": mode,
        "num_datapoints": len(grid),
        "num_patterns": len(patterns),
        "solves": len(grid) * len(patterns),
        "legacy_seconds": legacy_s,
        "fast_cold_seconds": fast_cold_s,
        "fast_warm_seconds": fast_warm_s,
        "speedup": legacy_s / fast_cold_s if fast_cold_s else None,
        "warm_speedup": legacy_s / fast_warm_s if fast_warm_s else None,
        "cached_seconds": cached_s,
        "cached_speedup": (legacy_s / cached_s) if cached_s else None,
        "max_abs_delta": max(max_delta, warm_delta),
        "identical_results": bool(
            max_delta <= 1e-9 and warm_delta <= 1e-9
        ),
    }


def bench_adversary(
    topo: Optional[Dragonfly] = None,
    *,
    strategy: str = "hillclimb",
    budget: int = 8,
    num_type1: int = 6,
    num_type2: int = 4,
    seed: int = 0,
    cache_dir: Optional[str] = None,
) -> Dict:
    """Adversary-search throughput: candidates/second, cold vs warm cache.

    Runs the identical budget-``budget`` :func:`repro.adversary.run_search`
    twice through one on-disk :class:`SimCache` (a temp dir unless
    ``cache_dir`` is given): the cold pass computes every MIN-only LP
    solve, the warm pass must serve them from cache.  The record gates
    two contracts the CI bench smoke asserts:

    * ``identical_results`` -- the warm search finds the same pattern
      with the same score and ranking (the cache is identity-neutral to
      the search);
    * ``within_type1`` -- the discovered pattern's modeled throughput is
      at or below the best scored TYPE_1 shift (the subsystem's basic
      usefulness contract: searching never does worse than the paper's
      hand-built adversaries).
    """
    import tempfile

    from repro.adversary import run_search

    topo = topo if topo is not None else default_dragonfly()
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-adv-")
        cache_dir = tmp.name
    try:
        reports = []
        timings = []
        for _ in range(2):
            cache = SimCache(cache_dir)
            with SweepExecutor(jobs=1, cache=cache) as executor:
                start = time.perf_counter()
                report = run_search(
                    topo,
                    strategy=strategy,
                    budget=budget,
                    seed=seed,
                    executor=executor,
                    num_type1=num_type1,
                    num_type2=num_type2,
                )
                timings.append(time.perf_counter() - start)
            reports.append(report)
    finally:
        if tmp is not None:
            tmp.cleanup()
    cold, warm = reports
    cold_s, warm_s = timings

    # everything scored, suite pre-pass included: what the wall clock saw
    total = cold.candidates_scored + len(cold.suite)
    best_t1 = min(
        row["score"] for row in cold.suite if row["family"] == "type1"
    )
    identical = (
        cold.pattern_fingerprint == warm.pattern_fingerprint
        and cold.best_score == warm.best_score
        and cold.ranked == warm.ranked
    )
    return {
        "topology": str(topo),
        "strategy": strategy,
        "budget": budget,
        "suite_size": len(cold.suite),
        "candidates_total": total,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "cold_candidates_per_sec": total / cold_s,
        "warm_candidates_per_sec": total / warm_s,
        "warm_speedup": cold_s / warm_s,
        # duplicate maps dedup inside a batch, so hits can undershoot
        # total; a healthy warm pass still sits near 1.0
        "warm_hit_rate": warm.cache_hits / total,
        "best_score": cold.best_score,
        "best_type1_score": best_t1,
        "within_type1": bool(cold.best_score <= best_t1 + 1e-9),
        "identical_results": identical,
    }


def run_benchmarks(
    *,
    topology: str = "4,8,4,9",
    window_cycles: int = 300,
    engine_window: int = 600,
    jobs: Optional[int] = None,
    sweep_points: int = 8,
    model_datapoints: int = 6,
    model_patterns: int = 10,
    cache_dir: Optional[str] = None,
    quick: bool = False,
) -> Dict:
    """Run every benchmark family and return the trajectory record."""
    p, a, h, g = (int(x) for x in topology.split(","))
    topo = Dragonfly(p, a, h, g)
    if quick:
        window_cycles = min(window_cycles, 150)
        engine_window = min(engine_window, 150)
        sweep_points = min(sweep_points, 4)
        model_datapoints = min(model_datapoints, 3)
        model_patterns = min(model_patterns, 4)
    loads = [0.05 + 0.05 * i for i in range(sweep_points)]
    record = {
        "bench": "repro.perf",
        "version": 5,
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "array_microbench": bench_array(
            topo,
            window_cycles=engine_window,
            repeats=1 if quick else 5,
        ),
        "batch_microbench": bench_batch(
            topo,
            window_cycles=engine_window,
            # quick mode keeps the 1x anchor and the batch-8 CI gate
            batch_sizes=(1, 8) if quick else (1, 4, 8, 16),
        ),
        "obs_microbench": bench_obs(
            topo,
            window_cycles=engine_window,
            repeats=3 if quick else 5,
        ),
        "sweep": bench_sweep(
            topo,
            loads=loads,
            window_cycles=window_cycles,
            jobs=jobs,
            cache_dir=cache_dir,
        ),
        "model_microbench": bench_model(
            topo,
            num_datapoints=model_datapoints,
            num_patterns=model_patterns,
            cache_dir=cache_dir,
        ),
        "adversary_microbench": bench_adversary(
            topo,
            budget=8,
            num_type1=3 if quick else 6,
            num_type2=2 if quick else 4,
        ),
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="engine + sweep performance benchmarks (BENCH_sim.json)",
    )
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="output JSON path (default BENCH_sim.json)")
    parser.add_argument("--topology", "-t", default="4,8,4,9")
    parser.add_argument("--window", type=int, default=300,
                        help="sweep measurement window cycles (default 300)")
    parser.add_argument("--engine-window", type=int, default=600,
                        help="engine microbench window cycles (default 600)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep bench "
                             "(default: the host's CPU count)")
    parser.add_argument("--points", type=int, default=8,
                        help="loads in the sweep ladder (default 8)")
    parser.add_argument("--cache-dir", default=None,
                        help="also time a warm-cache sweep using this dir")
    parser.add_argument("--quick", action="store_true",
                        help="reduced windows/points for CI smoke runs")
    args = parser.parse_args(argv)

    record = run_benchmarks(
        topology=args.topology,
        window_cycles=args.window,
        engine_window=args.engine_window,
        jobs=args.jobs,
        sweep_points=args.points,
        cache_dir=args.cache_dir,
        quick=args.quick,
    )
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    swp = record["sweep"]
    arr = record["array_microbench"]
    if arr.get("skipped"):
        print(f"array: skipped ({arr['skipped']})")
    else:
        print(f"array ({arr['backend']}): "
              f"{arr['baseline_cycles_per_sec']:.0f} -> "
              f"{arr['optimized_cycles_per_sec']:.0f} cycles/s "
              f"({arr['speedup']:.2f}x, "
              f"identical={arr['identical_results']})")
    bat = record["batch_microbench"]
    if bat.get("skipped"):
        print(f"batch: skipped ({bat['skipped']})")
    else:
        ladder = ", ".join(
            f"B={arm['batch']}: {arm['speedup']:.2f}x"
            for arm in bat["arms"]
        )
        print(f"batch ({bat['backend']}, end-to-end): {ladder} "
              f"(identical={bat['identical_results']})")
    obs = record["obs_microbench"]
    print(f"obs disabled-overhead: {obs['noop_overhead']:.3f}x "
          f"(identical={obs['identical_results']})")
    if swp["parallel_seconds"] is None:
        print(f"sweep ({len(swp['loads'])} points, jobs={swp['jobs']}, "
              f"cpus={swp['cpus']}): serial {swp['serial_seconds']:.2f}s, "
              f"parallel skipped ({swp['parallel_skipped']})")
    else:
        print(f"sweep ({len(swp['loads'])} points, jobs={swp['jobs']}, "
              f"cpus={swp['cpus']}): serial {swp['serial_seconds']:.2f}s, "
              f"parallel {swp['parallel_seconds']:.2f}s "
              f"({swp['parallel_speedup']:.2f}x, "
              f"identical={swp['identical_results']})")
    if swp["cached_seconds"] is not None:
        print(f"  warm cache: {swp['cached_seconds']:.3f}s "
              f"({swp['cached_speedup']:.0f}x)")
    mdl = record["model_microbench"]
    print(f"model ({mdl['num_datapoints']} datapoints x "
          f"{mdl['num_patterns']} patterns, mode={mdl['mode']}): "
          f"legacy {mdl['legacy_seconds']:.2f}s, "
          f"fast {mdl['fast_cold_seconds']:.2f}s cold / "
          f"{mdl['fast_warm_seconds']:.2f}s warm "
          f"({mdl['speedup']:.1f}x / {mdl['warm_speedup']:.1f}x, "
          f"identical={mdl['identical_results']})")
    if mdl["cached_seconds"] is not None:
        print(f"  warm cache: {mdl['cached_seconds']:.3f}s "
              f"({mdl['cached_speedup']:.0f}x)")
    adv = record["adversary_microbench"]
    print(f"adversary ({adv['strategy']}, budget={adv['budget']}): "
          f"{adv['cold_candidates_per_sec']:.1f} cand/s cold, "
          f"{adv['warm_candidates_per_sec']:.1f} warm "
          f"(hit rate {adv['warm_hit_rate']:.2f}, "
          f"within_type1={adv['within_type1']}, "
          f"identical={adv['identical_results']})")
    print(f"[saved {args.out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
