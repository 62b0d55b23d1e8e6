"""Batched multi-run driver: advance B independent MIN runs in lockstep.

``simulate_batch([spec, ...])`` produces, for every MIN-routed
:class:`RunSpec` in the batch, a result **bit-identical** to
``simulate(spec)`` -- batching is a scheduling change, never an
algorithm change.
One ``repro_step_batch`` kernel call advances every run one cycle
(run-major: each run's struct-of-arrays state stays contiguous, so
per-run cache behavior matches the single-run kernel), and the per-cycle
Python driver work around it is paid once per batch:

* **Shared candidate tables.**  MIN-path candidate sets are rng-free and
  identical for every run on one (topology, VC scheme) -- the batch
  enumerates them once (process-memoized) and each run bulk-interns the
  whole table into its route arena in one vectorized copy.
* **Vectorized injection.**  For MIN routing the per-packet Python loop
  (candidate lookup, ``Packet`` objects, per-packet ``inject()``)
  collapses to array lookups plus one ``inject_batch`` scatter per run
  per cycle; only the order-pinned rng draws (one ``integers(k)`` per
  multi-candidate packet, in packet order -- exactly the draws
  ``RoutingAlgorithm._random_min`` makes) stay scalar.

Only MIN batches: the adaptive variants spend their time in per-packet
routing decisions that batching cannot amortize, so
:class:`~repro.perf.planner.BatchPlanner` never sends them here and
``simulate_batch`` refuses them with :class:`BatchUnsupported`.

Runs may differ in seed, load, pattern, and measurement params; runs
with fewer total cycles finish early and are compacted out of the batch
(ragged completion) while the rest keep advancing.  Each run gets its
own :class:`RunManifest`, is cached individually under its own RunSpec
fingerprint by the executor, and is announced through ``on_result`` /
tracer events as it completes.
"""

from __future__ import annotations

import ctypes
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import Tracer
from repro.routing.minimal import min_paths
from repro.sim.array import ArrayNetwork
from repro.sim.array.native import CState, load_kernel
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.sim.stats import SimResult, StatsCollector
from repro.sim.vc import assign_vcs
from repro.traffic.patterns import NO_TRAFFIC

__all__ = ["BatchUnsupported", "simulate_batch"]

_MAX_SOURCE_QUEUE = 10_000  # simulate()'s default source-queue cap


class BatchUnsupported(RuntimeError):
    """This batch cannot take the batched path (caller should fall back
    to per-run ``simulate()``; results are identical either way)."""


# ----------------------------------------------------------------------
# Shared MIN candidate tables (rng-free, so safe to share across runs
# and across calls; keyed by topology identity + VC parameters)
# ----------------------------------------------------------------------
class _MinTable:
    """Flattened per-pair MIN candidates over one (topology, VC scheme).

    ``k[pair]`` candidates starting at slot ``first[pair]``; per slot a
    hop count, a head VC, and an offset into one concatenated
    (channel, vc) route image that each network interns wholesale.
    """

    __slots__ = ("k", "first", "hops", "vcs0", "rel", "chan", "vc", "nsw")

    def __init__(self, topo, network: ArrayNetwork, vc_scheme: str,
                 num_vcs: int) -> None:
        nsw = topo.num_switches
        self.nsw = nsw
        k = np.zeros(nsw * nsw, np.int32)
        first = np.zeros(nsw * nsw, np.int64)
        hops: List[int] = []
        vcs0: List[int] = []
        rel: List[int] = []
        chan: List[int] = []
        vc: List[int] = []
        for s in range(nsw):
            for d in range(nsw):
                if s == d:
                    continue
                pair = s * nsw + d
                paths = min_paths(topo, s, d)
                first[pair] = len(hops)
                k[pair] = len(paths)
                for path in paths:
                    vcs = assign_vcs(path, vc_scheme, num_vcs=num_vcs)
                    rel.append(len(chan))
                    hops.append(path.num_hops)
                    vcs0.append(vcs[0])
                    chan.extend(
                        c.index for c in network.path_channels(path)
                    )
                    vc.extend(vcs)
        self.k = k
        self.first = first
        self.hops = np.array(hops, np.int32)
        self.vcs0 = np.array(vcs0, np.int32)
        self.rel = np.array(rel, np.int64)
        self.chan = np.array(chan, np.int32)
        self.vc = np.array(vc, np.int32)


_MIN_TABLE_MEMO: Dict[Tuple, _MinTable] = {}
_MIN_TABLE_MEMO_MAX = 4


def _min_table(topo, network: ArrayNetwork, vc_scheme: str,
               num_vcs: int) -> _MinTable:
    import json

    from repro.perf.cache import topology_fingerprint

    key = (
        json.dumps(topology_fingerprint(topo), sort_keys=True),
        vc_scheme,
        num_vcs,
    )
    table = _MIN_TABLE_MEMO.get(key)
    if table is None:
        if len(_MIN_TABLE_MEMO) >= _MIN_TABLE_MEMO_MAX:
            _MIN_TABLE_MEMO.pop(next(iter(_MIN_TABLE_MEMO)))
        table = _MinTable(topo, network, vc_scheme, num_vcs)
        _MIN_TABLE_MEMO[key] = table
    return table


# ----------------------------------------------------------------------
class _Run:
    """One batch member: network + routing + stats + private rng state,
    plus the shared MIN table interned into its network's route arena."""

    __slots__ = (
        "spec", "pattern", "load", "routing", "policy", "params", "seed",
        "net", "rng", "algo", "stats", "warmup", "total", "table", "offs",
        "slot",
    )

    def __init__(self, spec, topo) -> None:
        self.spec = spec
        self.pattern = spec.pattern.build(topo)
        self.load = spec.load
        self.routing = spec.routing
        self.policy = (
            spec.policy.build() if spec.policy is not None else None
        )
        self.params: SimParams = spec.params
        self.seed = spec.seed
        base = self.routing.lower()
        num_vcs = self.params.vcs_required(base, topo.max_local_hops)
        if self.params.verify:
            from repro.verify import verify_config

            report = verify_config(
                topo,
                self.policy,
                scheme=self.params.vc_scheme,
                routing=base,
                num_vcs=num_vcs,
                seed=self.seed,
            )
            if not report.passed:
                raise RuntimeError(
                    "static verification failed for this simulation "
                    f"configuration:\n{report.to_text()}"
                )
        self.net = ArrayNetwork(topo, self.params, num_vcs)
        self.rng = np.random.default_rng(self.seed)
        self.algo = make_routing(
            self.net, self.routing, policy=self.policy, rng=self.rng
        )
        self.stats = StatsCollector(
            topo.num_nodes, self.params.warmup_cycles
        )
        self.net.on_eject = self.stats.record_ejection
        self.net.on_eject_batch = self.stats.record_ejection_batch
        self.net.on_arrival = self.algo.revise_at
        self.warmup = self.params.warmup_cycles
        self.total = self.params.total_cycles
        self.table = _min_table(
            topo, self.net, self.params.vc_scheme, num_vcs
        )
        # per-slot arena offsets of the table's routes in this network
        self.offs = (
            self.net.intern_route(self.table.chan, self.table.vc)
            + self.table.rel
        )
        self.slot = 0


def _check_compatible(specs) -> None:
    from repro.spec import RunSpec

    first = specs[0]
    if not isinstance(first, RunSpec):
        raise BatchUnsupported("batched runs require declarative RunSpecs")
    if first.routing.lower() != "min":
        raise BatchUnsupported(
            "only MIN-routed runs take the batched path"
        )
    topo_d = first.topology.to_dict()
    routing = first.routing
    pol_d = first.policy.to_dict() if first.policy is not None else None
    for spec in specs[1:]:
        if not isinstance(spec, RunSpec):
            raise BatchUnsupported(
                "batched runs require declarative RunSpecs"
            )
        if (
            spec.topology.to_dict() != topo_d
            or spec.routing != routing
            or (spec.policy.to_dict() if spec.policy else None) != pol_d
        ):
            raise BatchUnsupported(
                "batch members must share topology + routing structure "
                "(seed/load/pattern/params may differ)"
            )
    for spec in specs:
        if spec.params.obs is not None:
            raise BatchUnsupported(
                "observability-instrumented runs take the single-run path"
            )


def simulate_batch(
    specs: Sequence,
    *,
    tracer: Optional[Tracer] = None,
    on_result: Optional[Callable[[int, SimResult], None]] = None,
) -> List[SimResult]:
    """Run every MIN ``RunSpec`` in ``specs`` lockstep on the array engine.

    Returns results in spec order, each bit-identical to
    ``simulate(spec)``.  Raises :class:`BatchUnsupported` when the batch
    cannot take this path (non-spec payloads, non-MIN routing, mixed
    topology/routing, observability-instrumented runs, or no native
    kernel); callers fall back to per-run ``simulate()`` and lose only
    the speedup.
    ``on_result(index, result)`` fires as each run completes (ragged
    batches complete out of spec order).
    """
    specs = list(specs)
    if not specs:
        return []
    _check_compatible(specs)
    kernel = load_kernel()
    if kernel is None:
        raise BatchUnsupported(
            "native array kernel unavailable on this host"
        )
    topo = specs[0].topology.build()
    # repro: allow[DET104]: wall_seconds is runtime metadata on the
    # manifest, never part of result identity or cache keys
    wall_start = time.perf_counter()
    runs = [_Run(spec, topo) for spec in specs]
    for i, run in enumerate(runs):
        run.slot = i
    # looked up after the networks exist, so a wrapper installed on the
    # kernel while they were built (profilers, benchmarks) is honoured
    batch_step = kernel.repro_step_batch

    nsw = topo.num_switches
    num_nodes = topo.num_nodes
    nodes = np.arange(num_nodes)
    sw_of = np.fromiter(
        (topo.switch_of_node(n) for n in range(num_nodes)),
        np.int64,
        num_nodes,
    )

    if tracer is not None:
        tracer.record(
            "batch_start",
            kind="sim-batch",
            runs=len(runs),
            routing=specs[0].routing,
            topology=str(topo),
        )

    active = list(runs)
    ptrs = (ctypes.POINTER(CState) * len(active))(
        *[ctypes.pointer(r.net._cstate) for r in active]
    )
    skips = (ctypes.c_int64 * len(active))()
    max_total = max(r.total for r in runs)
    results: List[Optional[SimResult]] = [None] * len(runs)

    for cycle in range(max_total):
        for i, run in enumerate(active):
            if cycle == run.warmup:
                run.net.reset_channel_counters()
            _inject_min(run, cycle, nodes, sw_of, nsw)
            skips[i] = run.net.pre_step()
        rc = int(batch_step(ptrs, len(active), cycle, skips))
        if rc:
            run = active[rc % 1000]
            raise RuntimeError(
                f"array kernel invariant violation (code {rc // 1000}) "
                f"at cycle {cycle} in batched run seed={run.seed} "
                f"load={run.load:g}"
            )
        finished = False
        for run in active:
            run.net.post_step()
            if cycle + 1 == run.total:
                results[run.slot] = _finish(
                    run, topo, wall_start, len(runs), tracer
                )
                if on_result is not None:
                    on_result(run.slot, results[run.slot])
                finished = True
        if finished:
            active = [r for r in active if cycle + 1 != r.total]
            if active:
                ptrs = (ctypes.POINTER(CState) * len(active))(
                    *[ctypes.pointer(r.net._cstate) for r in active]
                )
                skips = (ctypes.c_int64 * len(active))()
    if tracer is not None:
        tracer.record(
            "batch_end",
            kind="sim-batch",
            runs=len(runs),
            # repro: allow[DET104]: trace timing is runtime metadata
            wall_seconds=time.perf_counter() - wall_start,
        )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------
def _inject_min(run: _Run, cycle: int, nodes, sw_of, nsw: int) -> None:
    """Vectorized MIN injection: bit-identical to the engine's loop.

    The rng consumption exactly matches ``simulate()`` + ``route_packets``:
    one ``random(num_nodes)`` Bernoulli draw, one ``sample_destinations``
    call with the unfiltered sources, then one ``integers(k)`` per
    multi-candidate packet in packet order (single-candidate and
    same-switch packets draw nothing, matching ``_random_min``).
    """
    load = run.load
    if load <= 0.0:
        return
    rng = run.rng
    draws = rng.random(nodes.size) < load
    srcs = nodes[draws]
    if not srcs.size:
        return
    dests = np.asarray(run.pattern.sample_destinations(srcs, rng))
    S = run.net._S
    keep = (dests != NO_TRAFFIC) & (S.src_len[srcs] < _MAX_SOURCE_QUEUE)
    srcs = srcs[keep]
    m = srcs.size
    if not m:
        return
    dests = dests[keep]
    ssw = sw_of[srcs]
    dsw = sw_of[dests]
    pairs = ssw * nsw + dsw
    table = run.table
    ks = np.where(ssw == dsw, 0, table.k[pairs])
    slots = table.first[pairs]
    multi = np.nonzero(ks > 1)[0]
    if multi.size:
        ints = rng.integers
        for i in multi.tolist():
            slots[i] += int(ints(int(ks[i])))
    picked = ks > 0
    hops = np.where(picked, table.hops[slots], 0).astype(np.int32)
    vcs0 = np.where(picked, table.vcs0[slots], 0).astype(np.int32)
    offs = np.where(picked, run.offs[slots], 0)
    run.algo.min_chosen += m
    run.net.inject_batch(srcs, hops, vcs0, dests, offs, cycle)


def _finish(
    run: _Run, topo, wall_start: float, batch_size: int,
    tracer: Optional[Tracer],
) -> SimResult:
    """Finalize one completed run: drain, stats, manifest, trace."""
    from repro.sim.engine import _run_manifest

    run.net.finalize()
    measure_cycles = run.params.measure_windows * run.params.window_cycles
    result = run.stats.result(
        offered_load=run.load,
        measure_cycles=measure_cycles,
        sat_latency=run.params.sat_latency,
        routing=run.algo,
        sat_accept_factor=run.params.sat_accept_factor,
        live_fraction=run.pattern.live_fraction(),
    )
    result.channel_utilization = run.net.channel_utilization(measure_cycles)
    manifest = _run_manifest(
        topo, run.pattern, run.load, run.routing, run.policy, run.params,
        run.seed, run.spec,
    )
    # repro: allow[DET104]: wall_seconds is runtime metadata
    manifest.wall_seconds = time.perf_counter() - wall_start
    manifest.engine_cycles = run.total
    manifest.engine = run.net.engine_name
    manifest.batch_size = batch_size
    manifest.batch_slot = run.slot
    result.manifest = manifest
    if tracer is not None:
        tracer.record(
            "run_end",
            kind="sim-batch",
            slot=run.slot,
            seed=run.seed,
            load=float(run.load),
            cycles=run.total,
        )
    return result
