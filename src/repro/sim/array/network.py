"""ArrayNetwork: struct-of-arrays batched cycle engine.

The engine behind the :class:`repro.sim.network.Network` interface that
``repro.sim.engine.build_network`` picks whenever the native kernel
loads (the timing-wheel ``Network`` runs otherwise).  All flit/credit/VC
state lives in numpy struct-of-arrays -- per-channel credit tables,
output-queue rings, router input-buffer rings, sorted active-slot
tables, and fixed-capacity timing wheels -- and the per-cycle phases are
advanced for the whole network per call:

* the hot path is the native kernel (``kernel.c``, built on demand by
  :mod:`repro.sim.array.native`), a bit-exact transliteration of the
  wheel engine's deliver -> crossbar -> transmit phases over the shared
  arrays, with batched timing-wheel pops, cache-packed per-packet
  records, and allocation-free inner loops;
* order-insensitive bulk work stays vectorized numpy on the Python side:
  ejection statistics are buffered in-kernel across many cycles and
  drained as array batches (``StatsCollector.record_ejection_batch``),
  and every observability read (utilization, flit totals, VC occupancy,
  backlog) is a vectorized reduction over the same arrays;
* route decisions are native too whenever the run allows it
  (:mod:`repro.sim.array.routing` states the rule): :meth:`inject_cycle`
  routes and queues a whole injection cycle in one kernel call, and the
  kernel's deliver phase runs PAR's second-switch revisions inline, in
  delivery-bucket order -- exactly the wheel engine's ``on_arrival``
  order, so the random stream is consumed identically.  Otherwise the
  Python :class:`~repro.sim.routing.RoutingAlgorithm` routes, and the
  revisions run in Python just *before* the kernel, in the same order.

The kernel is required: constructing an ``ArrayNetwork`` without one
(no C compiler, or gate ``REPRO_ARRAYNET_NATIVE=0``) raises
:class:`~repro.sim.array.native.NativeKernelUnavailable`.  The choice of
the wheel engine on such hosts is made once, in ``build_network``.

Because ejections are buffered lazily, callers that drive ``step()``
directly must call :meth:`finalize` before reading final statistics
(``simulate`` does this); per-ejection hook order and cycle stamps are
preserved exactly, only the hook call *time* is deferred.

Results are bit-identical to the wheel engine across seed x routing x
load (pinned by ``tests/test_array_engine.py`` and by the frozen
``tests/fixtures/golden_simresults.json`` verdicts), which is why the
engine choice never reaches identity: both engines share cache entries
and spec fingerprints.
"""

from __future__ import annotations

import ctypes
import mmap
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.log import get_logger
from repro.sim.network import Network, SimChannel
from repro.sim.packet import Packet
from repro.sim.array.native import (
    CNT_ARENA,
    CNT_EJ,
    CNT_FREE,
    CNT_PC,
    CNT_PD,
    CNT_PT,
    COUNTERS_LEN,
    PK_STRIDE,
    CState,
    NativeKernelUnavailable,
    POINTER_FIELD_NAMES,
    SCALAR_FIELDS,
    load_kernel,
)
from repro.sim.array.routing import NativeRouting

__all__ = ["ArrayChannel", "ArrayNetwork"]

_log = get_logger("sim.array.network")
# fallback reasons already logged in this process (one warning each)
_LOGGED_FALLBACKS: set = set()

_PTR_OF_DTYPE = {
    np.dtype(np.int32): ctypes.POINTER(ctypes.c_int32),
    np.dtype(np.int64): ctypes.POINTER(ctypes.c_int64),
}

_INITIAL_PACKET_CAP = 1024
_INITIAL_ARENA_CAP = 4096
_INITIAL_SRC_CAP = 32
_EJ_BATCH_CYCLES = 16  # ejection-buffer capacity in worst-case cycles

_HUGE = 2 * 1024 * 1024  # transparent-hugepage granule
_HUGE_MIN = 128 * 1024  # route allocations this large through hugepages


def _alloc(shape, dtype) -> np.ndarray:
    """Zeroed array; hugepage-backed when large.

    The kernel's per-packet and per-buffer touches are scattered over
    arrays that reach many megabytes at saturation, so with 4K pages the
    TLB misses dominate -- and hardware drops prefetches that miss the
    TLB, defeating the kernel's software-prefetch passes.  Backing the
    big arrays with 2MB transparent hugepages (anonymous mmap, 2MB-aligned
    slice, MADV_HUGEPAGE) keeps them a handful of TLB entries.  Purely an
    allocation detail: contents and layout are identical to np.zeros.
    """
    dt = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
    if nbytes < _HUGE_MIN or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.zeros(shape, dt)
    mm = mmap.mmap(-1, nbytes + _HUGE)
    addr = ctypes.addressof(ctypes.c_char.from_buffer(mm))
    off = (-addr) % _HUGE
    try:
        mm.madvise(mmap.MADV_HUGEPAGE, off, nbytes)
    except OSError:  # pragma: no cover - advisory only
        pass
    arr = np.frombuffer(mm, dtype=dt, count=nbytes // dt.itemsize, offset=off)
    return arr.reshape(shape)


class ArrayChannel(SimChannel):
    """A SimChannel whose live state resides in the SoA arrays.

    Construction is identical to :class:`SimChannel` (ArrayNetwork reuses
    the whole inherited topology build); afterwards the network assigns
    every channel its array ``index`` and a reference to the shared
    arrays (not to the network, so networks stay free of reference
    cycles) so :meth:`load_metric` -- the UGAL congestion estimate read
    per routing decision -- answers from the arrays the kernel updates.
    """

    __slots__ = ("index", "_soa")

    def load_metric(self) -> int:
        i = self.index
        soa = self._soa
        return (
            int(soa.out_len[i])
            + self.credit_capacity
            - int(soa.cred_total[i])
        )


class _SoA:
    """Bag of the numpy arrays shared between Python and the kernel.

    Attribute names for the contiguous base arrays match ``struct State``
    in kernel.c field for field.  Convenience *views* into the packed
    bases keep the wheel engine's vocabulary on the Python side
    (``out_head``/``out_len``/``cred``/``cred_total`` and the int64
    ``busy_until``/``flits`` tail into ``outrow``, the
    ``p_*`` columns into ``pkt``, ...); only base arrays are handed to C.
    A few arrays are Python-only and never cross: ``p_src``,
    ``p_inject_cycle``, ``p_used_vlb``, ``is_global``.
    """


class ArrayNetwork(Network):
    """Struct-of-arrays engine behind the Network interface."""

    channel_cls = ArrayChannel
    engine_name = "array"
    # the step implementation, recorded by the benchmarks
    backend = "native"

    def __init__(self, topo, params, num_vcs: int) -> None:
        kernel = load_kernel()
        if kernel is None:
            raise NativeKernelUnavailable(
                "ArrayNetwork needs the native kernel; build_network "
                "runs the wheel Network on hosts without one"
            )
        super().__init__(topo, params, num_vcs)
        self._kernel = kernel
        # repro: allow[DET102]: self.channels is insertion-ordered by the
        # deterministic topology construction; index order is part of the
        # SoA layout contract
        ordered = list(self.channels.values())
        self._num_switch_channels = len(ordered)
        ordered += self.inject_channels
        ordered += self.eject_channels
        for i, channel in enumerate(ordered):
            channel.index = i
        self._build_soa(ordered)

    # ------------------------------------------------------------------
    # SoA construction
    # ------------------------------------------------------------------
    def _build_soa(self, ordered: List[SimChannel]) -> None:
        topo = self.topo
        params = self.params
        nV = self.num_vcs
        nR = topo.num_switches
        radix = topo.radix
        nSr = radix * nV
        nNodes = topo.num_nodes
        nSw = self._num_switch_channels
        nC = len(ordered)
        ws = self._wheel_size
        psize = params.packet_size

        S = _SoA()
        self._S: _SoA = S
        for channel in ordered:
            channel._soa = S
        # --- static per-channel tables (array order = insertion order) ---
        S.ch_latency = np.array([c.latency for c in ordered], np.int32)
        S.ch_delay = np.array([c.delivery_delay for c in ordered], np.int32)
        S.ch_dst_router = np.array(
            [-1 if c.dst_router is None else c.dst_router for c in ordered],
            np.int32,
        )
        S.ch_gslot = np.array(
            [
                0
                if c.dst_router is None
                else c.dst_router * nSr + c.dst_slot_base
                for c in ordered
            ],
            np.int32,
        )
        S.ch_kind = np.array(
            [
                1 if c.is_injection else (2 if c.is_ejection else 0)
                for c in ordered
            ],
            np.int32,
        )
        S.is_global = np.array(
            [bool(c.is_global_link) for c in ordered], bool
        )
        # --- dynamic channel state.  The grant-time output side of a
        # channel (ring head/len + per-VC credits + credit total, then
        # an 8-byte-aligned int64 tail: output budget stamp/count,
        # busy_until, flits_sent) packs into one line-padded row, so the
        # crossbar's hottest random accesses per grant collapse into a
        # single cache line.  Output ports map 1:1 onto non-injection
        # channels (asserted below), so the per-port output budget
        # legally lives per channel.  Python keeps named strided views
        # into the rows (kernel.c OR_* columns) ---
        cred_stride = nV + 1
        or_bud = (2 + cred_stride + 1) & ~1  # even: int64-aligned tail
        outrow_stride = -(-(or_bud + 8) // 16) * 16
        S.outrow = _alloc((nC, outrow_stride), np.int32)
        S.out_head = S.outrow[:, 0]
        S.out_len = S.outrow[:, 1]
        S.cred = S.outrow[:, 2 : 2 + nV]
        S.cred_total = S.outrow[:, 2 + nV]
        S.cred[:] = params.buffer_size
        S.cred_total[:] = params.buffer_size * nV
        outrow64 = S.outrow.view(np.int64)  # [nC][outrow_stride // 2]
        outrow64[:, or_bud // 2] = -1  # budget stamp: no cycle yet
        S.busy_until = outrow64[:, or_bud // 2 + 2]
        S.flits = outrow64[:, or_bud // 2 + 3]
        pidx = [
            0 if c.src_router is None else c.src_router * radix + c.src_port
            for c in ordered
            if not c.is_injection
        ]
        assert len(set(pidx)) == len(pidx), "output port shared by channels"
        out_cap = params.output_queue_size
        S.out_buf = _alloc((nC, out_cap, 2), np.int32)
        self._src_cap = _INITIAL_SRC_CAP
        # each ring slot is a packed queued-packet entry (kernel.c SE_*):
        # records materialize in the pool only at network entry
        S.src_buf = _alloc((nNodes, self._src_cap, 8), np.int32)
        S.src_meta = np.zeros((nNodes, 2), np.int32)
        S.src_head = S.src_meta[:, 0]
        S.src_len = S.src_meta[:, 1]
        # --- router state ---
        in_cap = max(1, params.buffer_size // psize)
        S.in_buf = _alloc((nR * nSr, in_cap), np.int32)
        # stride 8: head, len, cached head pid / out channel / next VC
        # (columns 2-4, kernel-owned; see kernel.c IM_* doc)
        S.in_meta = _alloc((nR * nSr, 8), np.int32)
        S.in_head = S.in_meta[:, 0]
        S.in_len = S.in_meta[:, 1]
        S.act_slots = np.zeros((nR, nSr), np.int32)
        S.act_len = np.zeros(nR, np.int32)
        S.act_list = np.zeros(nR, np.int32)
        S.act_pos = np.zeros(nR, np.int32)
        S.rr = np.zeros(nR, np.int32)
        S.in_bud = np.zeros((nR * radix, 2), np.int64)
        S.in_bud[:, 0] = -1  # stamp: no cycle yet
        S.rsnap = np.zeros(nR, np.int32)
        S.osnap = np.zeros(nSr, np.int32)
        # deferred second-head refill scratch (kernel crossbar pass)
        S.rf_q = np.zeros(nR * nSr, np.int32)
        S.rf_pos = np.zeros(nR * nSr, np.int32)
        S.rf_off = np.zeros(nR * nSr, np.int32)
        # --- timing wheels (capacity bounds proven in kernel.c header) ---
        dw_cap = nC
        cw_cap = nC * params.speedup
        tw_cap = nC
        S.dw_chan = _alloc((ws, dw_cap), np.int32)
        S.dw_pid = _alloc((ws, dw_cap), np.int32)
        S.dw_meta = _alloc((ws, dw_cap), np.int32)
        S.dw_n = np.zeros(ws, np.int32)
        S.rev_n = np.zeros(ws, np.int32)
        S.cw_chan = _alloc((ws, cw_cap), np.int32)
        S.cw_vc = _alloc((ws, cw_cap), np.int32)
        S.cw_n = np.zeros(ws, np.int32)
        S.tw_chan = _alloc((ws, tw_cap), np.int32)
        S.tw_n = np.zeros(ws, np.int32)
        # lazily drained ejection buffer: worst case nNodes per cycle;
        # Python flushes whenever fewer than nNodes slots remain
        ej_cap = nNodes * _EJ_BATCH_CYCLES
        self._ej_flush = ej_cap - nNodes
        S.ej_pid = np.zeros(ej_cap, np.int32)
        S.ej_cycle = np.zeros(ej_cap, np.int32)
        S.ej_lat = np.zeros(ej_cap, np.int32)
        S.ej_hops = np.zeros(ej_cap, np.int32)
        S.ej_vlb = np.zeros(ej_cap, np.int32)
        S.ej_spid = np.zeros(ej_cap, np.int32)
        # --- packed per-packet record pool (one cache line per packet).
        # Sized by in-network + ejection-buffer occupancy, NOT by the
        # source backlog: the kernel pops pool ids from the free stack at
        # injection-transmit and the ejection drain pushes them back ---
        cap = _INITIAL_PACKET_CAP
        self._packet_cap = cap
        S.pkt = _alloc((cap, PK_STRIDE), np.int32)
        S.pmeta = _alloc((cap, 4), np.int32)
        S.free_stack = _alloc(cap, np.int32)
        # descending init so pids pop in ascending order
        S.free_stack[:] = np.arange(cap - 1, -1, -1, dtype=np.int32)
        self._refresh_pkt_views()
        # --- route arena ---
        self._arena_cap = _INITIAL_ARENA_CAP
        S.arena_chan = np.zeros(self._arena_cap, np.int32)
        S.arena_vc = np.zeros(self._arena_cap, np.int32)
        # memoized by id(route); _route_refs pins the lists so ids are
        # never recycled while the memo lives
        self._route_memo: Dict[int, int] = {}
        self._route_refs: List[object] = []
        S.counters = np.zeros(COUNTERS_LEN, np.int64)
        S.counters[CNT_FREE] = cap

        self._next_spid = 1  # staging ids for revisable Packet objects
        self._live: Dict[int, Packet] = {}  # spid -> revisable Packet
        self._router: Optional[NativeRouting] = None

        self._scalars = {
            "nR": nR,
            "radix": radix,
            "nV": nV,
            "nSr": nSr,
            "nC": nC,
            "inj_base": nSw,
            "ej_base": nSw + nNodes,
            "nNodes": nNodes,
            "ws": ws,
            "dw_cap": dw_cap,
            "cw_cap": cw_cap,
            "tw_cap": tw_cap,
            "out_cap": out_cap,
            "in_cap": in_cap,
            "src_cap": self._src_cap,
            "speedup": params.speedup,
            "psize": psize,
            "cred_stride": cred_stride,
            "ej_cap": ej_cap,
            "outrow_stride": outrow_stride,
        }
        self._inj_base = nSw
        self._ej_base = nSw + nNodes
        self._cstate = CState()
        self._sync_struct()
        self._step_native = self._kernel.repro_step_cycle
        self._cstate_ref = ctypes.byref(self._cstate)

    def _refresh_pkt_views(self) -> None:
        """Re-derive the column views after (re)allocating the pool."""
        S = self._S
        pkt = S.pkt
        S.p_hop = pkt[:, 0]
        S.p_path_hops = pkt[:, 1]
        S.p_current_vc = pkt[:, 2]
        S.p_vc0 = pkt[:, 3]
        S.p_dst = pkt[:, 4]
        S.p_revisable = pkt[:, 5]
        S.p_arrived = pkt[:, 6]
        S.p_route_off = pkt[:, 7]
        pm = S.pmeta
        S.pm_src = pm[:, 0]
        S.pm_icyc = pm[:, 1]
        S.pm_vlb = pm[:, 2]
        S.pm_spid = pm[:, 3]

    def _sync_struct(self) -> None:
        """Point the C struct at the current arrays (re-run after growth)."""
        st = self._cstate
        S = self._S
        for name in POINTER_FIELD_NAMES:
            arr = getattr(S, name)
            setattr(st, name, arr.ctypes.data_as(_PTR_OF_DTYPE[arr.dtype]))
        self._scalars["src_cap"] = self._src_cap
        self._scalars["arena_cap"] = self._arena_cap
        for name in SCALAR_FIELDS:
            setattr(st, name, self._scalars[name])

    # ------------------------------------------------------------------
    # Growth (Python-side only; the kernel never allocates)
    # ------------------------------------------------------------------
    def _grow_pool(self) -> None:
        """Double the packet-record pool, stacking the new ids as free."""
        S = self._S
        old_cap = self._packet_cap
        new_cap = old_cap * 2
        for name, width in (("pkt", PK_STRIDE), ("pmeta", 4)):
            old = getattr(S, name)
            grown = _alloc((new_cap, width), np.int32)
            grown[:old_cap] = old
            setattr(S, name, grown)
        nfree = int(S.counters[CNT_FREE])
        stack = _alloc(new_cap, np.int32)
        stack[:nfree] = S.free_stack[:nfree]
        # new ids above the old stack, descending so they pop ascending
        stack[nfree : nfree + old_cap] = np.arange(
            new_cap - 1, old_cap - 1, -1, dtype=np.int32
        )
        S.free_stack = stack
        S.counters[CNT_FREE] = nfree + old_cap
        self._refresh_pkt_views()
        self._packet_cap = new_cap
        self._sync_struct()

    def _grow_arena(self, need: int) -> None:
        S = self._S
        new_cap = self._arena_cap
        while new_cap < need:
            new_cap *= 2
        used = int(S.counters[CNT_ARENA])
        for name in ("arena_chan", "arena_vc"):
            old = getattr(S, name)
            grown = _alloc(new_cap, old.dtype)
            grown[:used] = old[:used]
            setattr(S, name, grown)
        self._arena_cap = new_cap
        self._sync_struct()

    def _grow_src(self) -> None:
        """Double source-queue ring capacity, unwrapping each ring."""
        S = self._S
        old_cap = self._src_cap
        new_cap = old_cap * 2
        grown = _alloc((S.src_buf.shape[0], new_cap, 8), np.int32)
        lens = S.src_len
        heads = S.src_head
        for node in np.nonzero(lens)[0].tolist():
            n = int(lens[node])
            idx = (int(heads[node]) + np.arange(n)) % old_cap
            grown[node, :n] = S.src_buf[node, idx]
        S.src_buf = grown
        S.src_head[:] = 0
        self._src_cap = new_cap
        self._sync_struct()

    # ------------------------------------------------------------------
    # Injection -- mirrors Network.inject over the arrays
    # ------------------------------------------------------------------
    def _register_route(self, route, vcs) -> int:
        """Intern a route (channel/VC lists) into the arena, memoized.

        Candidate-cache entries share list objects 1:1 with their VC
        lists, so id(route) is a sound memo key; revised routes are
        fresh lists and intern individually.
        """
        key = id(route)
        off = self._route_memo.get(key)
        if off is not None:
            return off
        S = self._S
        off = int(S.counters[CNT_ARENA])
        need = off + len(route)
        if need > self._arena_cap:
            self._grow_arena(need)
        arena_chan = S.arena_chan
        arena_vc = S.arena_vc
        for i, channel in enumerate(route):
            arena_chan[off + i] = channel.index
            arena_vc[off + i] = vcs[i]
        S.counters[CNT_ARENA] = need
        self._route_memo[key] = off
        self._route_refs.append(route)
        return off

    def inject(self, packet: Packet) -> None:
        """Queue a routed packet at its node's source queue.

        The queue entry is a packed value record (kernel.c ``SE_*``); no
        pool id is allocated until the kernel moves the packet into the
        network at injection-transmit, so deep source backlogs never
        inflate the hot record pool.  Revisable packets additionally park
        their Python object in ``_live`` under a staging id the kernel
        threads through to ``pmeta``.
        """
        S = self._S
        path_hops = packet.path_hops
        # empty routes (intra-switch pairs) never touch the arena
        off = self._register_route(packet.route, packet.vcs) if path_hops else 0
        spid = 0
        if packet.revisable:
            spid = self._next_spid
            self._next_spid = spid + 1
            self._live[spid] = packet
        node = packet.src_node
        src_len = S.src_len
        n = int(src_len[node])
        if n == 0:
            channel = self._inj_base + node
            when = int(S.busy_until[channel])
            cycle = self.cycle
            if when < cycle:
                when = cycle
            bucket = when % self._wheel_size
            m = int(S.tw_n[bucket])
            S.tw_chan[bucket, m] = channel
            S.tw_n[bucket] = m + 1
            S.counters[CNT_PT] += 1
        elif n >= self._src_cap:
            self._grow_src()
        S.src_buf[node, (int(S.src_head[node]) + n) % self._src_cap] = (
            path_hops,
            packet.vcs[0] if path_hops else 0,
            packet.dst_node,
            1 if packet.revisable else 0,
            off,
            packet.inject_cycle,
            spid,
            1 if packet.used_vlb else 0,
        )
        src_len[node] = n + 1

    def bind_routing(self, algo) -> str:
        """Route natively when the run allows it (see
        :mod:`repro.sim.array.routing`), else through ``algo`` in Python.

        A declined run logs its reason once per process; the returned
        backend name is what ``RunManifest.routing_backend`` records.
        """
        super().bind_routing(algo)
        router, reason = NativeRouting.bind(self, algo)
        if router is None:
            if reason not in _LOGGED_FALLBACKS:
                _LOGGED_FALLBACKS.add(reason)
                _log.warning(
                    "route decisions run in Python on the array engine: %s",
                    reason,
                )
            return "python"
        self._router = router
        self._cstate.route = ctypes.addressof(router.cstruct)
        return "native"

    def unbind_routing(self) -> None:
        super().unbind_routing()
        self._router = None
        self._cstate.route = None

    def inject_cycle(self, srcs, dsts, cycle: int, max_queue: int) -> int:
        """Route and queue one cycle's packets in one kernel call.

        Same contract as :meth:`Network.inject_cycle`; without native
        routing this is the Python route-then-inject path.
        """
        router = self._router
        if router is None:
            return super().inject_cycle(srcs, dsts, cycle, max_queue)
        srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        n = len(srcs)
        if not n:
            return 0
        S = self._S
        # source rings need room for every packet of the cycle (a trace
        # may give one node several)
        lens = S.src_len[srcs]
        if n > 1 and not (srcs[1:] > srcs[:-1]).all():
            _, first, counts = np.unique(
                srcs, return_index=True, return_counts=True
            )
            need = int((lens[first] + counts).max())
        else:
            need = int(lens.max()) + 1
        while need > self._src_cap:
            self._grow_src()
        router.ensure(self, n, 0)
        rc = self._kernel.repro_route_batch(
            self._cstate_ref,
            n,
            srcs.ctypes.data_as(_PTR_OF_DTYPE[srcs.dtype]),
            dsts.ctypes.data_as(_PTR_OF_DTYPE[dsts.dtype]),
            cycle,
            max_queue,
        )
        if rc < 0:
            router.raise_for(rc, cycle)
        return rc

    # ------------------------------------------------------------------
    # Per-cycle step
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one cycle (deliver -> crossbar -> transmit)."""
        S = self._S
        cycle = self.cycle
        idx = cycle % self._wheel_size
        # at most one packet per node can enter the network per cycle
        while S.counters[CNT_FREE] < self.topo.num_nodes:
            self._grow_pool()
        skip_credits = 0
        router = self._router
        if router is not None:
            # the kernel revises this bucket's PAR packets itself
            revisions = int(S.rev_n[idx])
            if revisions:
                router.ensure(self, 0, revisions)
        elif S.rev_n[idx] and self.on_arrival is not None:
            # the wheel applies this cycle's credit returns before the
            # delivery loop, so PAR revisions must see post-credit
            # load_metric state; apply them here, run the revisions in
            # delivery-bucket order (== the wheel's on_arrival call
            # order, pinning the RNG draw sequence), then let the kernel
            # run the rest of the cycle
            self._apply_credit_bucket(idx)
            self._process_revisions(idx)
            skip_credits = 1
        rc = self._step_native(self._cstate_ref, cycle, skip_credits)
        if rc:
            if router is not None:
                router.raise_for(rc, cycle)
            raise RuntimeError(
                f"array kernel invariant violation (code {rc}) at "
                f"cycle {cycle}"
            )
        # ejections accumulate in-kernel and drain in large batches; the
        # buffer must be flushed before the next cycle could overflow it
        if S.counters[CNT_EJ] >= self._ej_flush:
            self._flush_ejections()
        self.cycle += 1

    def finalize(self) -> None:
        """Flush buffered ejections so statistics hooks are complete, and
        publish native decision counters on the routing algorithm."""
        self._flush_ejections()
        if self._router is not None:
            self._router.sync_counters(self._algo)

    def _apply_credit_bucket(self, idx: int) -> None:
        S = self._S
        n = int(S.cw_n[idx])
        if not n:
            return
        psize = self.params.packet_size
        cred = S.cred
        cred_total = S.cred_total
        for c, vc in zip(
            S.cw_chan[idx, :n].tolist(), S.cw_vc[idx, :n].tolist()
        ):
            cred[c, vc] += psize
            cred_total[c] += psize
        S.cw_n[idx] = 0
        S.counters[CNT_PC] -= n

    def _process_revisions(self, idx: int) -> None:
        """Run PAR's on_arrival for this bucket's hop-1 revisable packets.

        Bucket order equals the wheel's delivery-loop order; ejections
        and buffer appends interleaved by the wheel cannot influence a
        revision (they never touch load_metric state), so running all
        revisions up front is bit-identical.
        """
        S = self._S
        n = int(S.dw_n[idx])
        revisable = S.p_revisable
        hops = S.p_hop
        dst_router = S.ch_dst_router
        on_arrival = self.on_arrival
        live = self._live
        pids = S.dw_pid[idx, :n].tolist()
        chans = S.dw_chan[idx, :n].tolist()
        for i in range(n):
            pid = pids[i]
            if revisable[pid] and hops[pid] == 1:
                packet = live.pop(int(S.pm_spid[pid]))
                packet.hop = 1
                packet.current_vc = int(S.p_current_vc[pid])
                on_arrival(packet, int(dst_router[chans[i]]))
                revisable[pid] = 0
                S.p_route_off[pid] = self._register_route(
                    packet.route, packet.vcs
                )
                S.p_path_hops[pid] = packet.path_hops
                S.pm_vlb[pid] = 1 if packet.used_vlb else 0
        S.rev_n[idx] = 0

    def _flush_ejections(self) -> None:
        S = self._S
        count = int(S.counters[CNT_EJ])
        if not count:
            return
        S.counters[CNT_EJ] = 0
        pids = S.ej_pid[:count]
        cycles = S.ej_cycle[:count]
        batch_hook = self.on_eject_batch
        if batch_hook is not None:
            # hook order and per-packet eject cycles match the wheel's
            # per-cycle on_eject sequence exactly; the payloads were
            # gathered by the kernel at eject time (the deliver pass has
            # the records in cache), so the drain passes flat slices --
            # views into reused buffers that must be consumed in-call
            batch_hook(
                S.ej_lat[:count],
                S.ej_hops[:count],
                S.ej_vlb[:count],
                cycles,
            )
            if self._live:
                spids = S.ej_spid[:count]
                for spid in spids[spids > 0].tolist():
                    self._live.pop(spid, None)
            self._recycle(pids, count)
            return
        scalar_hook = self.on_eject
        pid_list = pids.tolist()
        if scalar_hook is not None:
            cycle_list = cycles.tolist()
            for i, pid in enumerate(pid_list):
                packet = self._live.pop(int(S.pm_spid[pid]), None)
                if packet is None:
                    packet = Packet(
                        int(S.pm_src[pid]),
                        int(S.p_dst[pid]),
                        int(S.pm_icyc[pid]),
                    )
                packet.path_hops = int(S.p_path_hops[pid])
                packet.used_vlb = bool(S.pm_vlb[pid])
                packet.hop = int(S.p_hop[pid])
                packet.current_vc = int(S.p_current_vc[pid])
                scalar_hook(packet, cycle_list[i])
        elif self._live:
            spids = S.ej_spid[:count]
            for spid in spids[spids > 0].tolist():
                self._live.pop(spid, None)
        self._recycle(pids, count)

    def _recycle(self, pids: np.ndarray, count: int) -> None:
        """Push drained pool ids back onto the kernel's free stack."""
        S = self._S
        nfree = int(S.counters[CNT_FREE])
        S.free_stack[nfree : nfree + count] = pids
        S.counters[CNT_FREE] = nfree + count

    # ------------------------------------------------------------------
    # Introspection / observability (vectorized over the arrays)
    # ------------------------------------------------------------------
    def source_queue_len(self, node: int) -> int:
        return int(self._S.src_len[node])

    def reset_channel_counters(self) -> None:
        self._S.flits[:] = 0

    def channel_utilization(self, cycles: int) -> Dict[str, float]:
        S = self._S
        nSw = self._num_switch_channels
        flits = S.flits[:nSw]
        glob_mask = S.is_global[:nSw]
        # same element order and the same elementwise int/int true
        # divisions as the wheel's per-channel loop, so the pairwise
        # numpy reductions see identical float64 inputs
        local = flits[~glob_mask] / max(cycles, 1)
        glob = flits[glob_mask] / max(cycles, 1)
        local_arr = local if local.size else np.zeros(1)
        glob_arr = glob if glob.size else np.zeros(1)
        return {
            "local_mean": float(local_arr.mean()),
            "local_max": float(local_arr.max()),
            "global_mean": float(glob_arr.mean()),
            "global_max": float(glob_arr.max()),
        }

    def channel_flit_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        S = self._S
        nSw = self._num_switch_channels
        flits = S.flits[:nSw]
        glob_mask = S.is_global[:nSw]
        return (
            flits[~glob_mask].astype(float),
            flits[glob_mask].astype(float),
        )

    def vc_occupancy(self) -> List[int]:
        return (
            self._S.in_len.reshape(-1, self.num_vcs)
            .sum(axis=0, dtype=np.int64)
            .tolist()
        )

    def injection_backlog(self) -> int:
        return int(self._S.src_len.sum())

    def in_flight(self) -> int:
        S = self._S
        return (
            int(S.counters[CNT_PD])
            + int(S.in_len.sum())
            + int(S.out_len[: self._inj_base].sum())
            + int(S.out_len[self._ej_base :].sum())
        )

    def quiescent(self) -> bool:
        counters = self._S.counters
        return (
            not counters[CNT_PT]
            and not counters[CNT_PD]
            and not counters[CNT_PC]
            and self.in_flight() == 0
        )
