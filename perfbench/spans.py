"""Layer timing from outside the program: span recorder plus wrappers.

Nothing here edits ``src/``.  Public callables at each layer boundary are
replaced by thin wrappers (the same monkeypatch idiom as
``repro.perf.bench.legacy_engine()``), each of which records one span --
name, start, end, parent -- in memory.  Per-packet calls such as
``network.inject`` are deliberately left alone: packet counts come from
the arguments of the per-cycle batch calls instead.

Two installation levels:

* :func:`install_probe` (every repeat, traced or not) records only
  provenance: which network class ran, its kernel backend, and whether
  ``simulate_batch`` ran or raised ``BatchUnsupported``.  Its wrappers fire
  a handful of times per simulated run, so they cost nothing measurable.
* :func:`install_spans` (traced repeats only) adds the span wrappers.
"""

from __future__ import annotations

import collections
import functools
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Probe:
    """Provenance facts read from outside the program."""

    def __init__(self) -> None:
        self.networks: collections.Counter = collections.Counter()
        self.batch_ran = 0
        self.batch_unsupported = 0

    def saw_network(self, net: object) -> None:
        backend = getattr(net, "backend", None)
        name = type(net).__name__
        self.networks[f"{name}/{backend}" if backend else name] += 1

    def to_dict(self) -> Dict:
        return {
            "networks": dict(sorted(self.networks.items())),
            "batch_ran": self.batch_ran,
            "batch_unsupported": self.batch_unsupported,
        }


class Spans:
    """In-memory span log: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.starts.append(clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self._stack.pop()

    def timed(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``count(args, result)`` adds counters."""
        span_open, span_close, counts = self.open, self.close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = span_open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_close(idx)
            if count is not None:
                counts.update(count(args, result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds.

        Set-up spans (outside the body's root span) are included;
        ``self`` is a span's duration minus that of its direct children.
        Single-threaded spans nest strictly, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[idx]
        out: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += dur[idx]
            row["self"] += dur[idx] - child[idx]
        return out


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _patch(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install_probe(probe: Probe) -> None:
    """Provenance wrappers (cheap; installed in every repeat)."""
    import repro.sim.batch as batch
    import repro.sim.engine as engine

    def network_factory(build: Callable) -> Callable:
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            net = build(*args, **kwargs)
            probe.saw_network(net)
            return net

        return wrapper

    def batch_entry(run_batch: Callable) -> Callable:
        @functools.wraps(run_batch)
        def wrapper(*args, **kwargs):
            try:
                results = run_batch(*args, **kwargs)
            except batch.BatchUnsupported:
                probe.batch_unsupported += 1
                raise
            probe.batch_ran += 1
            return results

        return wrapper

    _patch(engine, "build_network", network_factory)
    _patch(batch, "ArrayNetwork", network_factory)
    _patch(batch, "simulate_batch", batch_entry)


def _len_arg(key: str) -> Callable[..., Dict[str, float]]:
    return lambda args, _result: {key: len(args[0])}


def install_spans(spans: Spans) -> None:
    """Span wrappers around every layer boundary the benchmark reports.

    Call after :func:`install_probe`, so the probe's wrappers sit inside
    the spans (their cost is then charged to the layer they observe).
    """
    import repro.experiments.figures as figures
    import repro.model.fastpath as fastpath
    import repro.model.sweep as model_sweep
    import repro.perf.executor as executor
    import repro.perf.planner as planner
    import repro.sim as sim
    import repro.sim.batch as batch
    import repro.sim.engine as engine
    import repro.sim.sweep as sweep
    import repro.topology.dragonfly as dragonfly
    from repro.perf.cache import SimCache
    from repro.traffic.patterns import TrafficPattern

    timed = spans.timed

    # --- repro.topology: every Dragonfly construction (set-up + body) ---
    _patch(dragonfly.Dragonfly, "__init__",
           lambda f: timed("topology.build", f))

    # --- repro.sim: the engine driver, its network and routing objects ---
    def with_network_spans(build: Callable) -> Callable:
        build = timed("sim.build_network", build)

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            net = build(*args, **kwargs)
            net.step = timed("sim.step", net.step)
            # the batched driver calls the (process-wide) native kernel
            # directly, once per cycle, instead of net.step
            kernel = getattr(net, "_kernel", None)
            if kernel is not None and not hasattr(
                kernel.repro_step_batch, "__wrapped__"
            ):
                kernel.repro_step_batch = timed(
                    "batch.kernel", kernel.repro_step_batch
                )
            return net

        return wrapper

    def with_routing_spans(make: Callable) -> Callable:
        make = timed("routing.setup", make)

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            algo = make(*args, **kwargs)
            algo.route_packets = timed(
                "routing.decide", algo.route_packets,
                _len_arg("routing.packets_routed"),
            )
            algo.revise_at = timed("routing.revise", algo.revise_at)
            return algo

        return wrapper

    _patch(engine, "build_network", with_network_spans)
    _patch(batch, "ArrayNetwork", with_network_spans)
    _patch(engine, "make_routing", with_routing_spans)
    _patch(batch, "make_routing", with_routing_spans)
    simulate = timed("sim.simulate", engine.simulate)
    for module in (engine, sweep, executor, sim):
        module.simulate = simulate
    latency_vs_load = timed("sim.sweep", sweep.latency_vs_load)
    for module in (sweep, sim, figures):
        module.latency_vs_load = latency_vs_load
    figures.run_suite = timed("experiments.suite", figures.run_suite)

    # --- repro.traffic: destination sampling (one call per cycle) ---
    todo = list(TrafficPattern.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "sample_destinations" in cls.__dict__:
            _patch(cls, "sample_destinations",
                   lambda f: timed("traffic.sample", f))

    # --- repro.sim.batch: the batched driver ---
    _patch(batch, "simulate_batch", lambda f: timed(
        "batch.simulate", f, _len_arg("batch.runs")))

    # --- repro.perf: executor, planner, result cache ---
    _patch(executor.SweepExecutor, "run", lambda f: timed("perf.executor", f))
    _patch(executor.SweepExecutor, "run_models",
           lambda f: timed("perf.executor", f))

    def plan_count(_args, units) -> Dict[str, float]:
        return {
            "perf.planned_units": len(units),
            "perf.batched_units": sum(1 for u in units if u.batched),
        }

    _patch(planner.BatchPlanner, "plan",
           lambda f: timed("perf.planner", f, plan_count))

    def hit_count(_args, result) -> Dict[str, float]:
        return {"perf.cache_hits" if result is not None
                else "perf.cache_misses": 1}

    for attr in ("get", "get_model"):
        _patch(SimCache, attr,
               lambda f: timed("perf.cache_get", f, hit_count))
    for attr in ("put", "put_model"):
        _patch(SimCache, attr, lambda f: timed("perf.cache_put", f))
    executor._solver_for = timed("model.solver_init", executor._solver_for)

    # --- repro.model: Step-1 sweep, FastModel solves, HiGHS, blocks ---
    model_sweep.step1_sweep = timed("model.sweep", model_sweep.step1_sweep)
    _patch(fastpath.FastModel, "solve", lambda f: timed("model.solve", f))
    fastpath.linprog = timed("model.highs", fastpath.linprog)
    _patch(fastpath.BlockCache, "_build",
           lambda f: timed("model.block_build", f))

    def counted(f: Callable) -> Callable:
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            spans.counts["model.block_requests"] += 1
            return f(*args, **kwargs)

        return wrapper

    _patch(fastpath.BlockCache, "get", counted)


# ----------------------------------------------------------------------
# Layer metrics
# ----------------------------------------------------------------------
def layer_metrics(spans: Spans, root: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat (see README.md)."""
    rows = spans.totals()
    counts = spans.counts

    def total(name: str) -> float:
        return rows.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return rows.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return rows.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = spans.ends[root] - spans.starts[root]
    # every span of the body nests under one of the root's direct children
    covered = sum(
        spans.ends[i] - spans.starts[i]
        for i, parent in enumerate(spans.parents) if parent == root
    )
    packets = counts["routing.packets_routed"]
    requests = counts["model.block_requests"]
    return {
        "topology.build_s": total("topology.build"),
        "topology.builds": calls("topology.build"),
        "sim.build_network_s": total("sim.build_network"),
        "sim.step_s": total("sim.step"),
        "sim.step_calls": calls("sim.step"),
        "sim.driver_self_s": own("sim.simulate"),
        "sim.sweep_self_s": own("sim.sweep") + own("experiments.suite"),
        "routing.setup_s": total("routing.setup"),
        "routing.decide_s": total("routing.decide"),
        "routing.packets_routed": packets,
        "routing.decide_us_per_packet": ratio(
            total("routing.decide") * 1e6, packets),
        "routing.revise_s": total("routing.revise"),
        "routing.revise_calls": calls("routing.revise"),
        "traffic.sample_s": total("traffic.sample"),
        "batch.simulate_s": total("batch.simulate"),
        "batch.driver_self_s": own("batch.simulate"),
        "batch.kernel_s": total("batch.kernel"),
        "batch.calls": calls("batch.simulate"),
        "batch.runs_per_call": ratio(
            counts["batch.runs"], calls("batch.simulate")),
        "perf.executor_self_s": own("perf.executor"),
        "perf.planner_batched_frac": ratio(
            counts["perf.batched_units"], counts["perf.planned_units"]),
        "perf.cache_get_s": total("perf.cache_get"),
        "perf.cache_put_s": total("perf.cache_put"),
        "perf.cache_misses": counts["perf.cache_misses"],
        "perf.cache_hits": counts["perf.cache_hits"],
        "model.sweep_self_s": own("model.sweep"),
        "model.solver_init_s": total("model.solver_init"),
        "model.solve_s": total("model.solve"),
        "model.solves": calls("model.solve"),
        "model.highs_s": total("model.highs"),
        "model.block_build_s": total("model.block_build"),
        "model.blocks_built": calls("model.block_build"),
        "model.block_hit_ratio": ratio(
            requests - calls("model.block_build"), requests),
        "model.assemble_s": own("model.solve"),
        "trace.layer_gap_frac": ratio(wall - covered, wall),
    }
