"""Process-pool execution of independent ``simulate()`` points.

Every experiment in the paper -- a latency-vs-load ladder, a saturation
bisection frontier, a multi-seed replication, Algorithm 1 Step 2's
5-pattern evaluation -- reduces to a batch of *independent* simulation
points.  :class:`SweepExecutor` fans such a batch out across worker
processes and returns results in task order, optionally short-circuiting
each point through the on-disk :class:`~repro.perf.cache.SimCache`.

Guarantees:

* **Determinism.**  A task is fully described by picklable inputs and
  ``simulate()`` is a pure function of them, so the parallel path returns
  bit-identical results to the serial path and result order never depends
  on completion order.  Tasks whose components are registered spec types
  ship their compact :class:`~repro.spec.RunSpec` to workers (the worker
  rebuilds topology and pattern from the declarative form); only tasks
  the spec layer cannot describe ship live objects.
* **Graceful degradation.**  ``jobs=1``, a single-task batch, or a host
  where process pools cannot be created (sandboxes without fork/semaphore
  support) all run serially in-process -- same results, no crash.

The worker entry points are module-level (:func:`run_task`,
:func:`_run_payload`), so both the ``fork`` and ``spawn`` multiprocessing
start methods work.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.model.lp_model import ModelResult
from repro.obs import ProgressReporter, Tracer, active_capture
from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.perf.cache import SimCache, fingerprint, model_fingerprint
from repro.routing.pathset import PathPolicy
from repro.sim.engine import simulate
from repro.sim.params import SimParams
from repro.sim.stats import SimResult
from repro.spec import ModelSpec, RunSpec, SpecError
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

_log = get_logger("perf.executor")

__all__ = [
    "ModelTask",
    "SimTask",
    "SweepExecutor",
    "default_jobs",
    "run_model_task",
    "run_task",
]


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set (clamped to the CPU count), else 1.

    Oversubscribing a small host is strictly counterproductive for these
    CPU-bound workers (BENCH_sim.json once recorded a 0.72x "speedup"
    from jobs=8 on a 1-CPU host), so the environment default can never
    exceed ``os.cpu_count()``.  An explicit ``jobs=`` argument may still
    force a larger pool, with a warning.  A value that is not an integer
    raises ``ValueError`` rather than silently running serially.
    """
    cap = os.cpu_count() or 1
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
        return min(cap, max(1, jobs))
    return 1


@dataclass
class SimTask:
    """One independent ``simulate()`` invocation (picklable).

    On construction the task derives its declarative :class:`RunSpec`
    (``None`` when a component is not a registered spec type); the spec,
    when present, is what crosses the process boundary and what keys the
    result cache.
    """

    topo: Dragonfly
    pattern: TrafficPattern
    load: float
    routing: str = "ugal-l"
    policy: Optional[PathPolicy] = None
    params: Optional[SimParams] = None
    seed: int = 0
    spec: Optional[RunSpec] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.spec is None:
            try:
                self.spec = RunSpec.from_objects(
                    self.topo,
                    self.pattern,
                    self.load,
                    routing=self.routing,
                    policy=self.policy,
                    params=self.params,
                    seed=self.seed,
                )
            except SpecError:
                self.spec = None  # ad-hoc components: ship live objects

    def key(self) -> Optional[str]:
        """Content-address of this task (``None`` = uncacheable)."""
        return fingerprint(
            self.topo,
            self.pattern,
            self.load,
            routing=self.routing,
            policy=self.policy,
            params=self.params,
            seed=self.seed,
        )

    def payload(self) -> Union[RunSpec, "SimTask"]:
        """What to ship to a worker: the spec when one exists."""
        return self.spec if self.spec is not None else self


def run_task(task: SimTask) -> SimResult:
    """Execute one task (also the serial path)."""
    return simulate(
        task.topo,
        task.pattern,
        task.load,
        routing=task.routing,
        policy=task.policy,
        params=task.params,
        seed=task.seed,
    )


def _run_payload(payload: Union[RunSpec, SimTask]) -> SimResult:
    """Worker entry point: a declarative spec or a live-object task."""
    if isinstance(payload, RunSpec):
        return payload.run()
    return run_task(payload)


def _run_payload_timed(
    payload: Union[RunSpec, SimTask],
) -> Tuple[SimResult, int, float, float]:
    """Worker entry point with lifecycle telemetry.

    Returns ``(result, worker_pid, started_epoch, duration_seconds)`` so
    the parent can emit ``task_started``/``task_finished`` trace events
    laid out per worker process without any cross-process tracer.
    """
    started = time.time()
    result = _run_payload(payload)
    return result, os.getpid(), started, time.time() - started


def _run_unit_timed(
    payloads: Sequence[Union[RunSpec, SimTask]],
) -> List[Tuple[SimResult, int, float, float]]:
    """Worker entry point for one planner unit (one or many payloads).

    Multi-payload units run through :func:`repro.sim.batch.
    simulate_batch` -- one batched engine advancing every run, each
    result bit-identical to its single-run form.  A batch the host
    cannot execute (no native kernel, incompatible members the planner
    could not see) degrades to per-payload execution *inside the
    worker*, so the parent never needs a second round trip.  Per-run
    completion times come from the batch's ``on_result`` callback
    (ragged batches finish runs at different cycles).
    """
    payloads = list(payloads)
    started = time.time()
    pid = os.getpid()
    if len(payloads) > 1:
        from repro.sim.batch import BatchUnsupported, simulate_batch

        finished_at: Dict[int, float] = {}
        try:
            results = simulate_batch(
                payloads,
                on_result=lambda slot, _r: finished_at.__setitem__(
                    slot, time.time()
                ),
            )
        except BatchUnsupported:
            _log.debug(
                "batched unit of %d runs unsupported here; falling back "
                "to per-run execution",
                len(payloads),
            )
        else:
            return [
                (result, pid, started, finished_at.get(slot, time.time()) - started)
                for slot, result in enumerate(results)
            ]
    return [_run_payload_timed(payload) for payload in payloads]


@dataclass
class ModelTask:
    """One independent LP-model solve (picklable).

    The model analogue of :class:`SimTask`: on construction the task
    derives its :class:`ModelSpec` (``None`` when a component is not a
    registered spec type); the spec is the cross-process payload and the
    model-cache key material.
    """

    topo: Dragonfly
    pattern: TrafficPattern
    policy: PathPolicy
    mode: str = "uniform"
    monotonic: bool = True
    max_descriptors: Optional[int] = None
    seed: int = 0
    engine: str = "fast"
    spec: Optional[ModelSpec] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "legacy"):
            raise ValueError(f"unknown model engine {self.engine!r}")
        if self.spec is None:
            try:
                self.spec = ModelSpec.from_objects(
                    self.topo,
                    self.pattern,
                    self.policy,
                    mode=self.mode,
                    monotonic=self.monotonic,
                    max_descriptors=self.max_descriptors,
                    seed=self.seed,
                    engine=self.engine,
                )
            except SpecError:
                self.spec = None  # ad-hoc components: ship live objects

    def key(self) -> Optional[str]:
        """Content-address of this solve (``None`` = uncacheable)."""
        if self.spec is None:
            return None
        return model_fingerprint(self.spec)

    def payload(self) -> Union[ModelSpec, "ModelTask"]:
        """What to ship to a worker: the spec when one exists."""
        return self.spec if self.spec is not None else self


# Per-process solver memo: a worker (or the serial path) reuses one
# FastModel / PathStatsCache per (topology, enumeration options), so the
# expensive structural factorization is paid once per process per
# topology, not once per task.  Bounded to a handful of topologies.
_SOLVER_MEMO: Dict[Tuple, object] = {}
_SOLVER_MEMO_MAX = 4


def _solver_for(
    topo: Dragonfly,
    engine: str,
    max_descriptors: Optional[int],
    seed: int,
) -> object:
    from repro.model.fastpath import FastModel
    from repro.model.pathstats import PathStatsCache
    from repro.perf.cache import topology_fingerprint

    key = (
        tuple(sorted(topology_fingerprint(topo).items())),
        engine,
        max_descriptors,
        seed,
    )
    solver = _SOLVER_MEMO.get(key)
    if solver is None:
        if len(_SOLVER_MEMO) >= _SOLVER_MEMO_MAX:
            _SOLVER_MEMO.pop(next(iter(_SOLVER_MEMO)))
        if engine == "fast":
            solver = FastModel(
                topo, max_descriptors=max_descriptors, seed=seed
            )
        else:
            solver = PathStatsCache(
                topo, max_descriptors=max_descriptors, seed=seed
            )
        _SOLVER_MEMO[key] = solver
    return solver


def run_model_task(task: ModelTask) -> ModelResult:
    """Execute one model solve (also the serial path), memoizing the
    per-topology structural state across calls in this process."""
    from repro.model.fastpath import FastModel
    from repro.model.lp_model import model_throughput
    from repro.model.pathstats import PathStatsCache

    solver = _solver_for(
        task.topo, task.engine, task.max_descriptors, task.seed
    )
    demand = task.pattern.demand_matrix()
    wall_start = time.perf_counter()
    if task.engine == "fast":
        assert isinstance(solver, FastModel)
        result = solver.solve(
            demand,
            policy=task.policy,
            mode=task.mode,
            monotonic=task.monotonic,
        )
    else:
        assert isinstance(solver, PathStatsCache)
        result = model_throughput(
            task.topo,
            demand,
            policy=task.policy,
            cache=solver,
            mode=task.mode,
            monotonic=task.monotonic,
        )
    result.manifest = RunManifest(
        kind="model",
        fingerprint=task.key(),
        spec_fingerprint=(
            task.spec.fingerprint() if task.spec is not None else None
        ),
        topology=str(task.topo),
        routing=task.engine,  # the model's engine plays the variant role
        load=None,
        seed=int(task.seed),
        wall_seconds=time.perf_counter() - wall_start,
    )
    return result


def _run_model_payload(payload: Union[ModelSpec, ModelTask]) -> ModelResult:
    """Worker entry point for model solves."""
    if isinstance(payload, ModelSpec):
        topo = payload.topology.build()
        return run_model_task(
            ModelTask(
                topo=topo,
                pattern=payload.pattern.build(topo),
                policy=payload.policy.build(),
                mode=payload.mode,
                monotonic=payload.monotonic,
                max_descriptors=payload.max_descriptors,
                seed=payload.seed,
                engine=payload.engine,
                spec=payload,
            )
        )
    return run_model_task(payload)


def _run_model_payload_timed(
    payload: Union[ModelSpec, ModelTask],
) -> Tuple[ModelResult, int, float, float]:
    """Model analogue of :func:`_run_payload_timed`."""
    started = time.time()
    result = _run_model_payload(payload)
    return result, os.getpid(), started, time.time() - started


def _run_model_unit_timed(
    payloads: Sequence[Union[ModelSpec, ModelTask]],
) -> List[Tuple[ModelResult, int, float, float]]:
    """Model unit worker: solves are never batched, just mapped."""
    return [_run_model_payload_timed(payload) for payload in payloads]


class SweepExecutor:
    """Runs batches of :class:`SimTask` with optional pool and cache.

    ``jobs`` is the worker-process count (default: ``$REPRO_JOBS`` or 1);
    ``cache`` an optional :class:`SimCache` consulted before simulating
    and filled afterwards.  The executor is reusable across batches (the
    pool persists until :meth:`close`) and usable as a context manager.

    Cache-miss sim payloads are grouped into multi-run
    ``simulate_batch`` units by the :class:`~repro.perf.planner.
    BatchPlanner`.  That is purely a scheduling decision -- batched
    results are bit-identical to single-run results and
    cache/trace/progress stay per-task -- so the serial ``jobs=1`` path
    batches too.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[SimCache] = None,
        tracer: Optional[Tracer] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        if jobs is None:
            self.jobs = default_jobs()
        else:
            self.jobs = max(1, int(jobs))
            cap = os.cpu_count() or 1
            if self.jobs > cap:
                _log.warning(
                    "SweepExecutor(jobs=%d) oversubscribes this host "
                    "(%d CPU%s); CPU-bound workers will contend and can "
                    "run slower than serial",
                    self.jobs,
                    cap,
                    "s" if cap != 1 else "",
                )
        self.cache = cache
        # explicit tracer wins; otherwise each batch picks up the
        # innermost capture() tracer active at call time (if any)
        self.tracer = tracer
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        # batch statistics (cumulative)
        self.cache_hits = 0
        self.computed_parallel = 0
        self.computed_serial = 0

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.jobs > 1 and not self._pool_broken

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool_broken:
            return None
        if self._pool is None:
            try:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX hosts
                    ctx = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=ctx
                )
            except (OSError, ValueError):  # pragma: no cover - no mp support
                self._pool_broken = True
                return None
        return self._pool

    # ------------------------------------------------------------------
    @staticmethod
    def _task_label(task: object) -> str:
        """Compact display label of a task (trace/progress cosmetics)."""
        load = getattr(task, "load", None)
        if load is not None:
            return f"{getattr(task, 'routing', '?')}@{load:g}"
        return (
            f"{getattr(task, 'engine', 'model')}:"
            f"{getattr(task, 'mode', '?')}"
        )

    def _execute(
        self,
        tasks: Sequence,
        worker: Callable,
        cache_get: Optional[Callable],
        cache_put: Optional[Callable],
        kind: str = "sim",
        plan: bool = False,
    ) -> List:
        """Shared batch machinery: cache consult -> pool/serial -> fill.

        ``worker`` is a *timed unit* entry point taking a list of
        payloads and returning one ``(result, pid, started, duration)``
        per payload; results stream back in unit order (both
        ``pool.map`` and the serial ``map`` are order-preserving and
        lazy), so progress heartbeats and trace events fire as each
        unit lands, not at batch end.  With ``plan=True`` the pending
        cache misses are grouped into multi-run units by the
        :class:`~repro.perf.planner.BatchPlanner`; otherwise every
        payload is its own unit and the stream degenerates to the
        historical one-task-at-a-time behavior.
        """
        tasks = list(tasks)
        tracer = self.tracer if self.tracer is not None else active_capture()
        progress = self.progress
        results: List = [None] * len(tasks)
        pending: List[tuple] = []  # (index, cache key, task)
        batch_hits = 0
        wall_start = time.time()
        if progress is not None:
            progress.start(len(tasks))
        if tracer is not None:
            tracer.record("batch_start", kind=kind, tasks=len(tasks))
        for i, task in enumerate(tasks):
            key = task.key() if cache_get is not None else None
            if key is not None:
                hit = cache_get(key)
                if hit is not None:
                    results[i] = hit
                    self.cache_hits += 1
                    batch_hits += 1
                    if tracer is not None:
                        tracer.record(
                            "cache_hit",
                            kind=kind,
                            index=i,
                            label=self._task_label(task),
                        )
                    if progress is not None:
                        progress.advance(cache_hit=True)
                    continue
            pending.append((i, key, task))

        if pending:
            payloads = [t.payload() for _i, _k, t in pending]
            if plan and len(pending) > 1:
                from repro.perf.planner import BatchPlanner

                planner = BatchPlanner(jobs=self.jobs)
                units = [u.indices for u in planner.plan(payloads)]
            else:
                units = [[j] for j in range(len(payloads))]
            unit_payloads = [[payloads[j] for j in unit] for unit in units]
            pool = (
                self._ensure_pool()
                if self.jobs > 1 and len(units) > 1
                else None
            )
            if pool is not None:
                stream = pool.map(worker, unit_payloads)
                mode = "parallel"
                self.computed_parallel += len(pending)
            else:
                stream = map(worker, unit_payloads)
                mode = "serial"
                self.computed_serial += len(pending)
            for unit, computed_unit in zip(units, stream):
                batched = len(unit) > 1
                for j, computed in zip(unit, computed_unit):
                    i, key, task = pending[j]
                    result, worker_pid, started, duration = computed
                    results[i] = result
                    if tracer is not None:
                        label = self._task_label(task)
                        tracer.extend(
                            [
                                {
                                    "type": "task_submitted",
                                    "t": wall_start,
                                    "kind": kind,
                                    "index": i,
                                    "label": label,
                                },
                                {
                                    "type": "task_started",
                                    "t": started,
                                    "kind": kind,
                                    "index": i,
                                    "label": label,
                                    "worker": worker_pid,
                                },
                            ]
                        )
                        tracer.record(
                            "task_finished",
                            kind=kind,
                            index=i,
                            label=label,
                            worker=worker_pid,
                            started=started,
                            duration=duration,
                            mode=mode,
                            batched=batched,
                        )
                    if progress is not None:
                        progress.advance()
                    manifest = getattr(result, "manifest", None)
                    if cache_put is not None and key is not None:
                        if manifest is not None:
                            manifest.cache = "stored"
                        cache_put(key, result)
                    elif cache_get is not None and manifest is not None:
                        # a cache was consulted but this point has no key
                        manifest.cache = "uncacheable"
        if tracer is not None:
            tracer.record(
                "batch_end",
                kind=kind,
                cache_hits=batch_hits,
                computed=len(pending),
                wall_seconds=time.time() - wall_start,
            )
        if progress is not None:
            progress.finish()
        return results

    def run(self, tasks: Sequence[SimTask]) -> List[SimResult]:
        """Execute a sim batch; results align index-for-index with
        ``tasks``."""
        cache = self.cache
        return self._execute(
            tasks,
            _run_unit_timed,
            cache.get if cache is not None else None,
            cache.put if cache is not None else None,
            kind="sim",
            plan=True,
        )

    def run_models(self, tasks: Sequence[ModelTask]) -> List[ModelResult]:
        """Execute a batch of LP-model solves, with the same cache
        consult / pool fan-out / deterministic ordering as :meth:`run`
        (model results live in the same :class:`SimCache` under their
        own record kind)."""
        cache = self.cache
        return self._execute(
            tasks,
            _run_model_unit_timed,
            cache.get_model if cache is not None else None,
            cache.put_model if cache is not None else None,
            kind="model",
        )

    def run_one(self, task: SimTask) -> SimResult:
        """Convenience wrapper: a single point through cache + stats."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        mode = f"jobs={self.jobs}" if self.parallel else "serial"
        cache = "no cache" if self.cache is None else self.cache.describe()
        return (
            f"SweepExecutor({mode}, {cache}, hits={self.cache_hits}, "
            f"parallel={self.computed_parallel}, "
            f"serial={self.computed_serial})"
        )
