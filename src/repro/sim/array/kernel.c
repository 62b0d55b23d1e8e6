/* Native cycle kernel for repro.sim.array.ArrayNetwork.
 *
 * An exact transliteration of the timing-wheel engine's per-cycle phases
 * (repro/sim/network.py: _deliver -> _crossbar -> _transmit) over the
 * struct-of-arrays state owned by Python/numpy.  The kernel holds NO
 * private state: every array it touches is a numpy buffer allocated and
 * introspected on the Python side, so observability, routing decisions
 * (load_metric) and the Python phases (ejection draining, and injection
 * plus PAR revisions when a run routes in Python) all read and write the
 * same memory.
 *
 * Route decisions (second half of this file) follow repro/sim/routing.py
 * and repro/sim/strategies.py draw for draw: repro_route_batch routes and
 * queues one injection cycle's packets, and the deliver phase runs PAR
 * revisions inline.  Random draws go through the run's numpy bit
 * generator with numpy's own bounded-integer algorithm (draw_bounded), so
 * a run's random stream is the one the Python reference consumes; the
 * loader checks that replica against rng.integers before enabling it.
 *
 * Bit-exactness contract (the reason this is a scalar transliteration and
 * not a blindly vectorized arbiter): every iteration order below mirrors
 * the wheel engine one-to-one --
 *   - routers are visited in activation (insertion) order over a snapshot
 *     of the active-router list, exactly like `list(self._active_routers)`;
 *   - a router's occupied slots are visited in ring-rotated sorted order
 *     (bisect + rotation), the wheel's round-robin;
 *   - wheel buckets are drained in append order;
 *   - credits are applied before deliveries, deliveries before the
 *     crossbar, the crossbar before transmissions.
 * Grant order pins the PAR revision RNG draw order (the deliver phase
 * revises in bucket order, or Python does just before the step when it
 * routes), which is the only order-sensitive randomness in a cycle.
 *
 * Performance notes (the step is memory-bound: thousands of scattered
 * accesses per cycle at saturation):
 *   - per-packet hot fields are one packed 32-byte record (`pkt`, stride
 *     PK_STRIDE), so a packet touch costs one cache line, not seven;
 *   - ring head/len pairs are interleaved (in_meta/src_meta), as are
 *     the crossbar input budget stamp/count pairs (in_bud);
 *   - the entire grant-time output side of a channel -- ring head/len,
 *     per-VC credits plus cached total, output budget stamp/count,
 *     busy_until, flits_sent -- packs into one line-padded `outrow`
 *     row (output ports map 1:1 onto non-injection channels, so the
 *     per-port budget legally lives per channel), collapsing what used
 *     to be four random lines per grant into one;
 *   - every scalar and pointer the inner loops touch is copied into
 *     locals first -- int64 stores (stamps, counters) may legally alias
 *     the struct's int64 scalar fields, so leaving them behind `s->`
 *     forces reloads on every iteration;
 *   - ring and wheel indices use conditional wrap instead of `%`
 *     (offsets are proven < one full turn), which removes thousands of
 *     integer divisions per cycle.
 *
 * Memory-safety invariants (enforced upstream, checked defensively here;
 * a violated invariant aborts the step with a negative error code instead
 * of corrupting memory):
 *   - delivery/transmit buckets hold at most one entry per channel
 *     (fixed per-channel delay < wheel size);
 *   - credit buckets hold at most `speedup` entries per channel (input
 *     port budget) per source cycle, one source cycle per bucket;
 *   - input rings hold at most buffer_size/packet_size packets (credit
 *     flow control);
 *   - the ejection buffer (drained lazily by Python, many cycles per
 *     drain) holds at most nNodes packets per cycle and Python flushes
 *     it before fewer than nNodes slots remain.
 *
 * The kernel is built on demand by repro.sim.array.native with the system
 * C compiler; repro_abi() guards the struct layout against drift between
 * this file and the ctypes mirror.
 */

#include <stdint.h>
#include <string.h>

#define REPRO_ARRAYNET_ABI_VERSION 12

/* counters[] indices (shared with Python) */
#define CNT_ACT 0 /* active routers in act_list */
#define CNT_PD 1  /* pending deliveries (packets on wires) */
#define CNT_PC 2  /* pending credit returns */
#define CNT_PT 3  /* channels scheduled on the transmit wheel */
#define CNT_EJ 4   /* packets in the ejection buffer (Python drains) */
#define CNT_FREE 5 /* free packet-record slots on the stack */
#define CNT_ARENA 6 /* route arena entries in use */

/* channel kinds */
#define KIND_SWITCH 0
#define KIND_INJECT 1
#define KIND_EJECT 2

/* packed source-queue entry columns (stride SE_STRIDE int32): a queued
 * packet is a plain value record until it enters the network -- only at
 * injection-transmit does the kernel pop a pool pid from the free stack
 * and materialize pkt/pmeta rows.  This keeps the record pool sized by
 * *in-network* occupancy (L2-resident) instead of by the source-queue
 * backlog, which grows into the hundreds of thousands at saturation. */
#define SE_PATH 0 /* path_hops */
#define SE_VC0 1  /* injection VC (vcs[0], or 0 for empty routes) */
#define SE_DST 2
#define SE_REV 3  /* revisable flag */
#define SE_ROFF 4 /* route arena offset */
#define SE_ICYC 5 /* inject cycle */
#define SE_SPID 6 /* staging id of the Python Packet (revisable only) */
#define SE_VLB 7  /* used_vlb at inject */
#define SE_STRIDE 8

/* per-packet Python-facing meta (stride PM_STRIDE int32), written once at
 * network entry, read only by the ejection drain / revision mapping */
#define PM_SRC 0
#define PM_ICYC 1
#define PM_VLB 2
#define PM_SPID 3
#define PM_STRIDE 4

/* packed per-packet record columns (stride PK_STRIDE int32) */
#define PK_HOP 0
#define PK_PATH 1 /* path_hops */
#define PK_CVC 2  /* current_vc */
#define PK_VC0 3  /* vcs[0] if path_hops else 0 (injection reserve) */
#define PK_DST 4  /* destination node */
#define PK_REV 5  /* revisable flag */
#define PK_ARR 6  /* channel whose buffer the packet occupies, -1 none */
#define PK_ROFF 7 /* offset into the route arena */
#define PK_STRIDE 8

/* input-queue meta columns (in_meta stride IM_STRIDE int32): besides the
 * ring head/len, each queue caches its head packet's id and crossbar
 * decision (output channel + next VC; HNVC < 0 encodes "ejecting").  The
 * cache collapses the visit-time dependent-load chain
 * meta -> in_buf -> pkt -> arena -> output checks into a single meta
 * line plus independent output-side loads.  It is refilled whenever the
 * head changes (delivery into an empty queue, grant pop); a buffered
 * packet's hop/route/VC never change while it waits (PAR revisions run
 * strictly before delivery), so the cache cannot go stale. */
#define IM_HEAD 0
#define IM_LEN 1
#define IM_HPID 2
#define IM_HOUT 3
#define IM_HNVC 4
/* second-head cache: same fields for the packet at ring position
 * head+1, so a grant-pop promotes second -> head with three register
 * moves instead of a ring -> record -> arena dependent-load chain; the
 * vacated second slot is refilled in a deferred batched pipeline at the
 * end of the crossbar pass (see crossbar()), where the chain's latency
 * overlaps across every refill of the cycle */
#define IM_H2PID 5
#define IM_H2OUT 6
#define IM_H2NVC 7
#define IM_STRIDE 8

struct Route; /* native route-decision state, defined below */

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_W(addr) __builtin_prefetch((addr), 1)
#define PREFETCH_R(addr) __builtin_prefetch((addr), 0)
#else
#define PREFETCH_W(addr)
#define PREFETCH_R(addr)
#endif

typedef struct {
    /* --- static per-channel tables --- */
    const int32_t *ch_latency;
    const int32_t *ch_delay;
    const int32_t *ch_dst_router;
    const int32_t *ch_gslot;    /* dst_router*nSr + dst_slot_base */
    const int32_t *ch_kind;
    /* --- dynamic channel state --- */
    /* [nC][outrow_stride]: ring head, ring len, per-VC credits, credit
     * total, then (8-byte aligned at offset OR_BUD(cs)) four int64s:
     * output budget stamp, output budget count, busy_until, flits_sent
     * -- the full grant-time output-side state of a channel packed into
     * one (padded) cache line instead of four parallel tables */
    int32_t *outrow;
    int32_t *out_buf; /* [nC][out_cap][2]: pid, wire-vc | rev-flag<<16 */
    int32_t *src_buf;  /* [nNodes][src_cap] source-queue pid ring */
    int32_t *src_meta; /* [nNodes][2]: head, len */
    /* --- router state --- */
    int32_t *in_buf;  /* [nR*nSr][in_cap] input-buffer pid ring */
    int32_t *in_meta; /* [nR*nSr][IM_STRIDE]: see IM_* columns */
    int32_t *act_slots; /* [nR][nSr] sorted occupied local slots */
    int32_t *act_len;
    int32_t *act_list; /* [nR] insertion-ordered active routers */
    int32_t *act_pos;  /* [nR] position+1 in act_list, 0 = absent */
    int32_t *rr;       /* [nR] round-robin priority */
    int64_t *in_bud;   /* [nR*radix][2]: cycle stamp, used budget */
    int32_t *rsnap; /* scratch [nR]: active-router snapshot */
    int32_t *osnap; /* scratch [nSr]: rotated slot order */
    /* scratch [nR*nSr]: deferred second-head refills (queue, ring pos /
     * pid, arena offset) batched at the end of the crossbar pass */
    int32_t *rf_q;
    int32_t *rf_pos;
    int32_t *rf_off;
    /* --- timing wheels: [ws][cap] + per-bucket counts --- */
    int32_t *dw_chan; /* deliveries */
    int32_t *dw_pid;
    int32_t *dw_meta; /* wire VC of the flit in dw_pid */
    int32_t *dw_n;
    int32_t *rev_n;   /* revisable hop-1 deliveries per bucket */
    int32_t *cw_chan; /* credit returns */
    int32_t *cw_vc;
    int32_t *cw_n;
    int32_t *tw_chan; /* transmission starts */
    int32_t *tw_n;
    int32_t *ej_pid;   /* [ej_cap] ejection buffer (append-only) */
    int32_t *ej_cycle; /* [ej_cap] matching ejection cycles */
    /* ejection payloads, gathered here (from prefetched lines) so the
     * Python drain consumes flat slices instead of doing scattered
     * fancy-index gathers over the pool */
    int32_t *ej_lat;  /* [ej_cap] cycle - inject_cycle */
    int32_t *ej_hops; /* [ej_cap] path_hops */
    int32_t *ej_vlb;  /* [ej_cap] used_vlb */
    int32_t *ej_spid; /* [ej_cap] staging id (0 = never revisable) */
    /* --- packet records + route arena --- */
    int32_t *pkt;        /* [cap][PK_STRIDE] */
    int32_t *pmeta;      /* [cap][PM_STRIDE] */
    int32_t *free_stack; /* [cap] LIFO of free pids (count CNT_FREE) */
    int32_t *arena_chan; /* [arena_cap] route channel ids */
    int32_t *arena_vc;   /* [arena_cap] matching VC indices */
    int64_t *counters; /* CNT_* above */
    struct Route *route; /* native decisions; NULL = Python routes */
    /* --- scalars --- */
    int64_t nR;
    int64_t radix;
    int64_t nV;
    int64_t nSr; /* radix * nV, slots per router */
    int64_t nC;
    int64_t inj_base;
    int64_t ej_base;
    int64_t nNodes;
    int64_t ws; /* wheel size */
    int64_t dw_cap;
    int64_t cw_cap;
    int64_t tw_cap;
    int64_t out_cap;
    int64_t in_cap;
    int64_t src_cap;
    int64_t speedup;
    int64_t psize;
    int64_t cred_stride; /* nV + 1 */
    int64_t ej_cap;
    int64_t outrow_stride; /* OR_BUD(cred_stride)+8, padded to a line */
    int64_t arena_cap;
} State;

/* outrow columns */
#define OR_HEAD 0
#define OR_LEN 1
#define OR_CRED 2 /* cred_stride entries: per-VC credits, then total */
/* even int32 offset of the row's int64 tail: budget stamp, budget
 * count, busy_until, flits_sent (indices 0..3 through an int64 view of
 * the row tail; the int32 and int64 regions never overlap) */
#define OR_BUD(cs) ((2 + (cs) + 1) & ~1)

/* PAR revision of one delivered packet (route decisions, below) */
static int64_t revise(State *s, struct Route *R, int32_t *rec, int32_t *pm,
                      int32_t router);

/* sorted insert into an active-slot row (caller: slot absent) */
static void aslot_insert(int32_t *a, int32_t *alen, int32_t slot)
{
    int32_t n = *alen;
    int32_t lo = 0, hi = n;
    while (lo < hi) {
        int32_t mid = (lo + hi) >> 1;
        if (a[mid] < slot)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(a + lo + 1, a + lo, (size_t)(n - lo) * sizeof(int32_t));
    a[lo] = slot;
    *alen = n + 1;
}

static void aslot_remove(int32_t *a, int32_t *alen, int32_t slot)
{
    int32_t n = *alen;
    int32_t lo = 0, hi = n;
    while (lo < hi) {
        int32_t mid = (lo + hi) >> 1;
        if (a[mid] < slot)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < n && a[lo] == slot) {
        memmove(a + lo, a + lo + 1, (size_t)(n - lo - 1) * sizeof(int32_t));
        *alen = n - 1;
    }
}

/* remove router r from the insertion-ordered active-router list,
 * preserving the order of the remaining entries (== dict.pop) */
static int64_t router_remove(int32_t *act_list, int32_t *act_pos,
                             int64_t nact, int32_t r)
{
    int32_t pos = act_pos[r] - 1;
    if (pos < 0)
        return nact;
    memmove(act_list + pos, act_list + pos + 1,
            (size_t)(nact - pos - 1) * sizeof(int32_t));
    for (int64_t k = pos; k < nact - 1; k++)
        act_pos[act_list[k]] = (int32_t)(k + 1);
    act_pos[r] = 0;
    return nact - 1;
}

/* phase 1: credit returns, then wire arrivals into input buffers (PAR
 * revisions inline when routing is native).  skip_credits: Python already
 * applied this bucket (Python-routed PAR revision cycles, where revisions
 * must read post-credit load_metric before the kernel runs). */
static int64_t deliver(State *s, int64_t cycle, int32_t idx,
                       int64_t skip_credits)
{
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t psize = (int32_t)s->psize;
    int32_t *const outrow = s->outrow;
    int32_t ncr = s->cw_n[idx];
    if (ncr && !skip_credits) {
        const int32_t *cc = s->cw_chan + (int64_t)idx * s->cw_cap;
        const int32_t *cv = s->cw_vc + (int64_t)idx * s->cw_cap;
        for (int32_t i = 0; i < ncr; i++) {
            int32_t *row = outrow + (int64_t)cc[i] * ors + OR_CRED;
            row[cv[i]] += psize;
            row[cs - 1] += psize;
        }
        s->cw_n[idx] = 0;
        s->counters[CNT_PC] -= ncr;
    }
    const int32_t nd = s->dw_n[idx];
    if (!nd) {
        s->rev_n[idx] = 0;
        return 0;
    }
    const int32_t *dc = s->dw_chan + (int64_t)idx * s->dw_cap;
    const int32_t *dp = s->dw_pid + (int64_t)idx * s->dw_cap;
    const int32_t *const dm = s->dw_meta + (int64_t)idx * s->dw_cap;
    const int32_t nSr = (int32_t)s->nSr;
    const int32_t in_cap = (int32_t)s->in_cap;
    const int64_t ej_cap = s->ej_cap;
    const int32_t *const ch_kind = s->ch_kind;
    const int32_t *const ch_dst_router = s->ch_dst_router;
    const int32_t *const ch_gslot = s->ch_gslot;
    int32_t *const in_buf = s->in_buf;
    int32_t *const in_meta = s->in_meta;
    int32_t *const act_slots = s->act_slots;
    int32_t *const act_lenp = s->act_len;
    int32_t *const act_list = s->act_list;
    int32_t *const act_pos = s->act_pos;
    int32_t *const ej_pid = s->ej_pid;
    int32_t *const ej_cycle = s->ej_cycle;
    int32_t *const ej_lat = s->ej_lat;
    int32_t *const ej_hops = s->ej_hops;
    int32_t *const ej_vlb = s->ej_vlb;
    int32_t *const ej_spid = s->ej_spid;
    int32_t *const pkt = s->pkt;
    int32_t *const pmeta = s->pmeta;
    const int32_t ej_base = (int32_t)s->ej_base;
    const int32_t *const arena_chan = s->arena_chan;
    const int32_t *const arena_vc = s->arena_vc;
    struct Route *const route = s->route;
    int64_t nact = s->counters[CNT_ACT];
    int64_t nej = s->counters[CNT_EJ];
    /* overlap the scattered packet-record and queue-meta misses before
     * the serial pass; the wire VC rides the wheel, so the target slot
     * is known without touching the packet record first */
    for (int32_t i = 0; i < nd; i++) {
        PREFETCH_W(pkt + (int64_t)dp[i] * PK_STRIDE);
        if (ch_kind[dc[i]] == KIND_EJECT)
            PREFETCH_R(pmeta + (int64_t)dp[i] * PM_STRIDE);
        else
            PREFETCH_W(in_meta +
                       (int64_t)(ch_gslot[dc[i]] + dm[i]) * IM_STRIDE);
    }
    for (int32_t i = 0; i < nd; i++) {
        const int32_t c = dc[i];
        const int32_t pid = dp[i];
        if (ch_kind[c] == KIND_EJECT) {
            if (nej >= ej_cap)
                return -1;
            const int32_t *const pm = pmeta + (int64_t)pid * PM_STRIDE;
            ej_pid[nej] = pid;
            ej_cycle[nej] = (int32_t)cycle;
            ej_lat[nej] = (int32_t)cycle - pm[PM_ICYC];
            ej_hops[nej] = pkt[(int64_t)pid * PK_STRIDE + PK_PATH];
            ej_vlb[nej] = pm[PM_VLB];
            ej_spid[nej] = pm[PM_SPID];
            nej++;
            continue;
        }
        int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
        /* PAR's second-switch revision (the wheel's on_arrival), before
         * the head decision below reads the route; when Python routes,
         * it already ran this bucket's revisions before the step */
        if (route && rec[PK_REV] && rec[PK_HOP] == 1) {
            const int64_t rc = revise(s, route, rec,
                                      pmeta + (int64_t)pid * PM_STRIDE,
                                      ch_dst_router[c]);
            if (rc)
                return rc;
        }
        const int32_t r = ch_dst_router[c];
        const int32_t gslot = ch_gslot[c] + dm[i];
        const int32_t lslot = gslot - r * nSr;
        rec[PK_CVC] = dm[i];
        int32_t *const meta = in_meta + (int64_t)gslot * IM_STRIDE;
        const int32_t qlen = meta[IM_LEN];
        if (qlen == 0) {
            aslot_insert(act_slots + (int64_t)r * nSr, act_lenp + r, lslot);
            if (act_pos[r] == 0) {
                act_list[nact] = r;
                act_pos[r] = (int32_t)(nact + 1);
                nact++;
            }
            /* new head: cache its crossbar decision */
            meta[IM_HPID] = pid;
            const int32_t hop = rec[PK_HOP];
            if (hop >= rec[PK_PATH]) {
                meta[IM_HOUT] = ej_base + rec[PK_DST];
                meta[IM_HNVC] = -1;
            } else {
                const int64_t off = (int64_t)rec[PK_ROFF] + hop;
                meta[IM_HOUT] = arena_chan[off];
                meta[IM_HNVC] = arena_vc[off];
            }
        } else if (qlen == 1) {
            /* arriving packet becomes the second head: cache its
             * decision now, while its record line is already hot */
            meta[IM_H2PID] = pid;
            const int32_t hop = rec[PK_HOP];
            if (hop >= rec[PK_PATH]) {
                meta[IM_H2OUT] = ej_base + rec[PK_DST];
                meta[IM_H2NVC] = -1;
            } else {
                const int64_t off = (int64_t)rec[PK_ROFF] + hop;
                meta[IM_H2OUT] = arena_chan[off];
                meta[IM_H2NVC] = arena_vc[off];
            }
        }
        if (qlen >= in_cap)
            return -2;
        int32_t pos = meta[IM_HEAD] + qlen;
        if (pos >= in_cap)
            pos -= in_cap;
        in_buf[(int64_t)gslot * in_cap + pos] = pid;
        meta[IM_LEN] = qlen + 1;
        rec[PK_ARR] = c;
    }
    s->dw_n[idx] = 0;
    s->rev_n[idx] = 0;
    s->counters[CNT_PD] -= nd;
    s->counters[CNT_ACT] = nact;
    s->counters[CNT_EJ] = nej;
    return 0;
}

/* phase 2: switch allocation + traversal (input buffers -> output
 * queues), with VC allocation and upstream credit returns */
static int64_t crossbar(State *s, int64_t cycle, int32_t idx)
{
    int64_t nact = s->counters[CNT_ACT];
    if (!nact)
        return 0;
    const int32_t ws = (int32_t)s->ws;
    const int32_t nV = (int32_t)s->nV;
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t nSr = (int32_t)s->nSr;
    const int32_t radix = (int32_t)s->radix;
    const int32_t in_cap = (int32_t)s->in_cap;
    const int32_t out_cap = (int32_t)s->out_cap;
    const int64_t speedup = s->speedup;
    const int32_t psize = (int32_t)s->psize;
    const int32_t ej_base = (int32_t)s->ej_base;
    const int64_t cw_cap = s->cw_cap;
    const int64_t tw_cap = s->tw_cap;
    const int32_t *const ch_latency = s->ch_latency;
    const int32_t *const arena_chan = s->arena_chan;
    const int32_t *const arena_vc = s->arena_vc;
    int32_t *const outrow = s->outrow;
    int32_t *const out_buf = s->out_buf;
    int32_t *const in_buf = s->in_buf;
    int32_t *const in_meta = s->in_meta;
    int32_t *const act_slots = s->act_slots;
    int32_t *const act_lenp = s->act_len;
    int32_t *const act_list = s->act_list;
    int32_t *const act_pos = s->act_pos;
    int32_t *const rrp = s->rr;
    int64_t *const in_bud = s->in_bud;
    const int32_t orb = OR_BUD(cs);
    int32_t *const osnap = s->osnap;
    int32_t *const cw_chan = s->cw_chan;
    int32_t *const cw_vc = s->cw_vc;
    int32_t *const cw_n = s->cw_n;
    int32_t *const tw_chan = s->tw_chan;
    int32_t *const tw_n = s->tw_n;
    int32_t *const pkt = s->pkt;
    int32_t *const rf_q = s->rf_q;
    int32_t *const rf_pos = s->rf_pos;
    int32_t *const rf_off = s->rf_off;
    int32_t nrf = 0;
    /* snapshot: `for ridx in list(self._active_routers)` */
    int32_t *const rsnap = s->rsnap;
    memcpy(rsnap, act_list, (size_t)nact * sizeof(int32_t));
    const int64_t nact0 = nact;
    int64_t pc = 0, pt = 0;
    for (int64_t ri = 0; ri < nact0; ri++) {
        const int32_t r = rsnap[ri];
        int32_t *const aslots = act_slots + (int64_t)r * nSr;
        const int32_t alen = act_lenp[r];
        if (!alen) {
            nact = router_remove(act_list, act_pos, nact, r);
            continue;
        }
        /* ring rotation of the sorted slot list: slots >= rr first */
        const int32_t rrv = rrp[r];
        int32_t lo = 0, hi = alen;
        while (lo < hi) {
            int32_t mid = (lo + hi) >> 1;
            if (aslots[mid] < rrv)
                lo = mid + 1;
            else
                hi = mid;
        }
        const int32_t n = alen;
        {
            int32_t k = 0;
            for (int32_t j = lo; j < n; j++) {
                const int32_t sl = aslots[j];
                osnap[k++] = sl;
                PREFETCH_W(in_meta + ((int64_t)r * nSr + sl) * IM_STRIDE);
            }
            for (int32_t j = 0; j < lo; j++) {
                const int32_t sl = aslots[j];
                osnap[k++] = sl;
                PREFETCH_W(in_meta + ((int64_t)r * nSr + sl) * IM_STRIDE);
            }
        }
        rrp[r] = (rrv + 1 < nSr) ? rrv + 1 : 0;
        const int64_t pbase = (int64_t)r * radix;
        const int64_t qbase = (int64_t)r * nSr;
        for (int32_t k = 0; k < n; k++) {
            const int32_t slot = osnap[k];
            const int64_t q = qbase + slot;
            int32_t *const qmeta = in_meta + q * IM_STRIDE;
            const int32_t qlen = qmeta[IM_LEN];
            if (!qlen) {
                aslot_remove(aslots, act_lenp + r, slot);
                continue;
            }
            int64_t *const ib = in_bud + (pbase + slot / nV) * 2;
            if (ib[0] != cycle) {
                ib[0] = cycle;
                ib[1] = 0;
            } else if (ib[1] >= speedup)
                continue;
            /* head packet + its decision come straight from the cache */
            const int32_t pid = qmeta[IM_HPID];
            const int32_t out = qmeta[IM_HOUT];
            const int32_t hnvc = qmeta[IM_HNVC];
            /* overlap the grant-time record touch with the output-side
             * budget/queue/credit checks below */
            PREFETCH_W(pkt + (int64_t)pid * PK_STRIDE);
            const int ejecting = hnvc < 0;
            const int32_t nvc = ejecting ? 0 : hnvc;
            int32_t *const orow = outrow + (int64_t)out * ors;
            int64_t *const ob = (int64_t *)(orow + orb);
            if (ob[0] != cycle) {
                ob[0] = cycle;
                ob[1] = 0;
            } else if (ob[1] >= speedup)
                continue;
            const int32_t ol = orow[OR_LEN];
            if (ol >= out_cap)
                continue;
            int32_t *const crow = orow + OR_CRED;
            if (!ejecting && crow[nvc] < psize)
                continue; /* not enough downstream space for the packet */
            /* grant */
            int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
            const int32_t hop = rec[PK_HOP];
            const int32_t newhop = ejecting ? hop : hop + 1;
            /* wire meta rides the ring + delivery wheel: low half the
             * VC the flit occupies downstream, bit 16 the "revisable
             * hop-1 delivery" flag, so transmit never loads records */
            const int32_t wmeta =
                nvc | ((rec[PK_REV] && newhop == 1) ? 0x10000 : 0);
            int32_t h = qmeta[IM_HEAD] + 1;
            if (h == in_cap)
                h = 0;
            qmeta[IM_HEAD] = h;
            qmeta[IM_LEN] = qlen - 1;
            if (qlen == 1)
                aslot_remove(aslots, act_lenp + r, slot);
            else {
                /* promote the cached second head; its replacement (ring
                 * position head+1) is refilled in the deferred batch
                 * below, off this visit's critical path */
                qmeta[IM_HPID] = qmeta[IM_H2PID];
                qmeta[IM_HOUT] = qmeta[IM_H2OUT];
                qmeta[IM_HNVC] = qmeta[IM_H2NVC];
                if (qlen >= 3) {
                    int32_t p2 = h + 1;
                    if (p2 >= in_cap)
                        p2 -= in_cap;
                    rf_q[nrf] = (int32_t)q;
                    rf_pos[nrf] = p2;
                    nrf++;
                }
            }
            ib[1] += 1;
            ob[1] += 1;
            /* free the input buffer space: return credits upstream */
            const int32_t arr = rec[PK_ARR];
            if (arr >= 0) {
                int32_t b = idx + ch_latency[arr];
                if (b >= ws)
                    b -= ws;
                const int32_t m = cw_n[b];
                if (m >= cw_cap)
                    return -3;
                cw_chan[b * cw_cap + m] = arr;
                cw_vc[b * cw_cap + m] = rec[PK_CVC];
                cw_n[b] = m + 1;
                pc++;
            }
            if (!ejecting) {
                crow[nvc] -= psize;
                crow[cs - 1] -= psize;
                rec[PK_CVC] = nvc;
                rec[PK_HOP] = newhop;
            }
            if (ol == 0) {
                /* queue was empty: schedule the transmission start */
                int64_t when = ob[2]; /* busy_until, same row */
                if (when < cycle)
                    when = cycle;
                int32_t b = idx + (int32_t)(when - cycle);
                if (b >= ws)
                    b -= ws;
                const int32_t m = tw_n[b];
                if (m >= tw_cap)
                    return -4;
                tw_chan[b * tw_cap + m] = out;
                tw_n[b] = m + 1;
                pt++;
            }
            int32_t pos = orow[OR_HEAD] + ol;
            if (pos >= out_cap)
                pos -= out_cap;
            int32_t *const oslot =
                out_buf + ((int64_t)out * out_cap + pos) * 2;
            oslot[0] = pid;
            oslot[1] = wmeta;
            orow[OR_LEN] = ol + 1;
        }
        if (!act_lenp[r])
            nact = router_remove(act_list, act_pos, nact, r);
    }
    /* deferred second-head refills: each stage touches every queued
     * refill before any value is consumed, so the ring -> record ->
     * arena dependent chain overlaps across the whole cycle's refills
     * instead of stalling each grant (queues are distinct -- a slot is
     * visited at most once per pass -- so order is irrelevant) */
    for (int32_t i = 0; i < nrf; i++)
        PREFETCH_R(in_buf + (int64_t)rf_q[i] * in_cap + rf_pos[i]);
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t npid = in_buf[(int64_t)rf_q[i] * in_cap + rf_pos[i]];
        rf_pos[i] = npid;
        PREFETCH_R(pkt + (int64_t)npid * PK_STRIDE);
    }
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t npid = rf_pos[i];
        const int32_t *const nrec = pkt + (int64_t)npid * PK_STRIDE;
        int32_t *const qm = in_meta + (int64_t)rf_q[i] * IM_STRIDE;
        qm[IM_H2PID] = npid;
        const int32_t nhop = nrec[PK_HOP];
        if (nhop >= nrec[PK_PATH]) {
            qm[IM_H2OUT] = ej_base + nrec[PK_DST];
            qm[IM_H2NVC] = -1;
            rf_off[i] = -1;
        } else {
            const int64_t noff = (int64_t)nrec[PK_ROFF] + nhop;
            rf_off[i] = (int32_t)noff;
            PREFETCH_R(arena_chan + noff);
            PREFETCH_R(arena_vc + noff);
        }
    }
    for (int32_t i = 0; i < nrf; i++) {
        const int32_t noff = rf_off[i];
        if (noff >= 0) {
            int32_t *const qm = in_meta + (int64_t)rf_q[i] * IM_STRIDE;
            qm[IM_H2OUT] = arena_chan[noff];
            qm[IM_H2NVC] = arena_vc[noff];
        }
    }
    s->counters[CNT_ACT] = nact;
    s->counters[CNT_PC] += pc;
    s->counters[CNT_PT] += pt;
    return 0;
}

/* phase 3: start the transmissions scheduled for this cycle */
static int64_t transmit(State *s, int64_t cycle, int32_t idx)
{
    const int32_t nt = s->tw_n[idx];
    if (!nt)
        return 0;
    const int32_t ws = (int32_t)s->ws;
    const int32_t cs = (int32_t)s->cred_stride;
    const int32_t ors = (int32_t)s->outrow_stride;
    const int32_t psize = (int32_t)s->psize;
    const int32_t out_cap = (int32_t)s->out_cap;
    const int32_t src_cap = (int32_t)s->src_cap;
    const int64_t inj_base = s->inj_base;
    const int64_t dw_cap = s->dw_cap;
    const int64_t tw_cap = s->tw_cap;
    const int32_t *const ch_kind = s->ch_kind;
    const int32_t *const ch_delay = s->ch_delay;
    int32_t *const outrow = s->outrow;
    const int32_t orb = OR_BUD(cs);
    int32_t *const out_buf = s->out_buf;
    int32_t *const src_buf = s->src_buf;
    int32_t *const pmeta = s->pmeta;
    int32_t *const free_stack = s->free_stack;
    int32_t *const dw_meta = s->dw_meta;
    int32_t *const src_meta = s->src_meta;
    int32_t *const dw_chan = s->dw_chan;
    int32_t *const dw_pid = s->dw_pid;
    int32_t *const dw_n = s->dw_n;
    int32_t *const rev_n = s->rev_n;
    int32_t *const tw_chan = s->tw_chan;
    int32_t *const tw_n = s->tw_n;
    int32_t *const pkt = s->pkt;
    /* in-place bucket iteration is safe: retries land in bucket cycle+1
     * and requeues in cycle+psize, both distinct from idx (ws > psize) */
    const int32_t *const tc = tw_chan + (int64_t)idx * tw_cap;
    /* staged prefetch: each pass overlaps one level of the per-channel
     * meta -> ring slot -> packet record dependent-load chain, so the
     * main pass below runs almost entirely out of cache */
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        /* every transmit touches its outrow (ring meta or credits, plus
         * the busy/flits tail); injects additionally pop src_meta */
        PREFETCH_W(outrow + (int64_t)c * ors);
        if (ch_kind[c] == KIND_INJECT)
            PREFETCH_W(src_meta + (int64_t)(c - inj_base) * 2);
    }
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        if (ch_kind[c] == KIND_INJECT) {
            const int64_t node = c - inj_base;
            PREFETCH_R(src_buf +
                       (node * src_cap + src_meta[node * 2]) * SE_STRIDE);
        } else
            PREFETCH_R(out_buf +
                       ((int64_t)c * out_cap +
                        outrow[(int64_t)c * ors + OR_HEAD]) *
                           2);
    }
    int64_t pd = 0;
    int32_t retired = 0;
    for (int32_t i = 0; i < nt; i++) {
        const int32_t c = tc[i];
        int32_t pid, rem, wvc, wrev;
        if (ch_kind[c] == KIND_INJECT) {
            /* injection channel: reserve the terminal buffer credit,
             * then materialize the queued entry as a pool record */
            const int64_t node = c - inj_base;
            int32_t *const meta = src_meta + node * 2;
            const int32_t sl = meta[1];
            if (!sl) { /* defensive: drained while scheduled */
                retired++;
                continue;
            }
            const int32_t *const e =
                src_buf + (node * src_cap + meta[0]) * SE_STRIDE;
            const int32_t vc = e[SE_VC0];
            int32_t *const crow = outrow + (int64_t)c * ors + OR_CRED;
            if (crow[vc] < psize) {
                /* terminal buffer full: retry next cycle */
                int32_t b = idx + 1;
                if (b >= ws)
                    b -= ws;
                const int32_t m = tw_n[b];
                if (m >= tw_cap)
                    return -4;
                tw_chan[b * tw_cap + m] = c;
                tw_n[b] = m + 1;
                continue;
            }
            int64_t nfree = s->counters[CNT_FREE];
            if (!nfree) /* Python grows the pool before each step */
                return -6;
            pid = free_stack[--nfree];
            s->counters[CNT_FREE] = nfree;
            crow[vc] -= psize;
            crow[cs - 1] -= psize;
            int32_t *const rec = pkt + (int64_t)pid * PK_STRIDE;
            rec[PK_HOP] = 0;
            rec[PK_PATH] = e[SE_PATH];
            rec[PK_CVC] = vc;
            rec[PK_VC0] = vc;
            rec[PK_DST] = e[SE_DST];
            rec[PK_REV] = e[SE_REV];
            rec[PK_ARR] = -1;
            rec[PK_ROFF] = e[SE_ROFF];
            int32_t *const pm = pmeta + (int64_t)pid * PM_STRIDE;
            pm[PM_SRC] = (int32_t)node;
            pm[PM_ICYC] = e[SE_ICYC];
            pm[PM_VLB] = e[SE_VLB];
            pm[PM_SPID] = e[SE_SPID];
            wvc = vc;
            wrev = 0;
            int32_t h = meta[0] + 1;
            meta[0] = (h == src_cap) ? 0 : h;
            rem = sl - 1;
            meta[1] = rem;
        } else {
            int32_t *const meta = outrow + (int64_t)c * ors;
            const int32_t ol = meta[1];
            if (!ol) { /* defensive: drained while scheduled */
                retired++;
                continue;
            }
            const int32_t *const oslot =
                out_buf + ((int64_t)c * out_cap + meta[0]) * 2;
            pid = oslot[0];
            const int32_t wmeta = oslot[1];
            wvc = wmeta & 0xffff;
            wrev = wmeta >> 16;
            int32_t h = meta[0] + 1;
            meta[0] = (h == out_cap) ? 0 : h;
            rem = ol - 1;
            meta[1] = rem;
        }
        int64_t *const dyn = (int64_t *)(outrow + (int64_t)c * ors + orb);
        dyn[2] = cycle + psize; /* busy_until */
        dyn[3] += psize;        /* flits_sent */
        int32_t b = idx + ch_delay[c];
        if (b >= ws)
            b -= ws;
        const int32_t m = dw_n[b];
        if (m >= dw_cap)
            return -5;
        dw_chan[b * dw_cap + m] = c;
        dw_pid[b * dw_cap + m] = pid;
        dw_meta[b * dw_cap + m] = wvc;
        dw_n[b] = m + 1;
        /* a revisable packet delivered after its first hop will need a
         * PAR revision when that bucket is drained (Python sizes the
         * route pools, or runs Python-routed revisions, from this
         * count); the grant stamped that fact into the wire word so the
         * switch path here never loads the packet record */
        rev_n[b] += wrev;
        pd++;
        if (rem) {
            int32_t nb = idx + psize;
            if (nb >= ws)
                nb -= ws;
            const int32_t m2 = tw_n[nb];
            if (m2 >= tw_cap)
                return -4;
            tw_chan[nb * tw_cap + m2] = c;
            tw_n[nb] = m2 + 1;
        } else
            retired++;
    }
    tw_n[idx] = 0;
    s->counters[CNT_PD] += pd;
    s->counters[CNT_PT] -= retired;
    return 0;
}

/* ======================================================================
 * Native route decisions
 *
 * A transliteration of RoutingAlgorithm + the registered strategies
 * (repro/sim/routing.py, repro/sim/strategies.py) and of
 * PathPolicy.sample (repro/routing/pathset.py) over the flat tables of
 * repro/routing/tables.py.  Every random draw happens in the reference's
 * order, through the run's own numpy bit generator, with numpy's bounded
 * integer algorithm (draw_bounded), so a natively routed run consumes the
 * identical random stream and makes the identical decisions:
 *   - MIN candidates: one per global link slot of the group pair (one
 *     local route inside a group), all interned on the pair's first use
 *     and drawn uniformly unless there is exactly one;
 *   - VLB candidates: the 128-attempt rejection sampler, then the Python
 *     sparse-reservoir fallback through the `sparse` callback (it owns
 *     the reservoir memo, pathset._sparse_memo);
 *   - the per-pair VLB candidate cache (vlb_cache_per_pair, 0 = off) and
 *     the "pair has no VLB path" marker;
 *   - min/vlb candidate counts, the UGAL threshold, UGAL-L/PAR first-hop
 *     load x hops, UGAL-G path-sum load, PAR's revisable rule and its
 *     revision at the second switch with the revised VC ladder;
 *   - the min/vlb/par counters.
 * A route is interned into the arena the first time it is chosen (MIN
 * routes when their pair is first used), and a cached VLB candidate
 * remembers its offset -- the arena grows like the Python path's
 * id(route) memo.  Natively routed packets never exist as Python
 * objects.
 * The kernel never allocates: Python grows the pools and the arena to
 * the worst case a call can need before calling (ERR_CAP is defensive).
 * ==================================================================== */

/* numpy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} BitGen;

/* sparse-policy fallback: 1 = descriptor in out[0..2] (mid, slot1,
 * slot2), 0 = no VLB path, < 0 = the Python side raised */
typedef int64_t (*SparseFn)(int64_t src, int64_t dst, int32_t *out);

typedef struct Route {
    /* --- topology tables (repro.routing.tables, read-only) --- */
    const int32_t *pair_links;     /* [g*g] */
    const int32_t *link_near;      /* [g*g*links] */
    const int32_t *link_far;       /* [g*g*links] */
    const int32_t *link_channel;   /* [g*g*links] */
    const int32_t *local_len;      /* [nS*a] */
    const int32_t *local_channels; /* [nS*a*mlh] */
    const int32_t *eligible;       /* [g*g*g] */
    const int32_t *eligible_len;   /* [g*g] */
    const int32_t *ladders;        /* [keys*maxh], row[0] < 0: overflow */
    const int32_t *rule_classes;   /* [(maxleg+1)^2] RULE_* */
    /* --- per-run decision state --- */
    int32_t *min_pair; /* [nS*nS] -1, or base of the pair's MIN block */
    int32_t *min_pool; /* per pair: links x (arena offset, meta) */
    int32_t *vlb_pair; /* [nS*nS] -1 empty, -2 no VLB path, else base */
    int32_t *vlb_pool; /* per pair: count, room, room x VE_STRIDE entries */
    int64_t *rcnt;     /* RC_* below */
    int32_t *sparse_out; /* [3] */
    void *bitgen;      /* numpy bitgen_t of the run's Generator */
    SparseFn sparse;
    /* --- scalars --- */
    int64_t a;
    int64_t g;
    int64_t p;
    int64_t nS;
    int64_t links;
    int64_t mlh;  /* longest local route */
    int64_t maxh; /* longest route, 2 * (2 * mlh + 1) */
    int64_t nsh;  /* shapes: (mlh+1)^2 legs, then mlh local-only routes */
    int64_t variant;
    int64_t threshold;
    int64_t min_cands;
    int64_t vlb_cands;
    int64_t vlb_cap;
    int64_t cred_cap; /* buffer_size * nV: load_metric's credit capacity */
    int64_t rule_ordered;
    int64_t rule_quota;
    uint64_t rule_seed;
    int64_t min_pool_cap;
    int64_t vlb_pool_cap;
    int64_t err; /* ERR_VC: the overflowing ladder key */
} Route;

/* rcnt[] indices (shared with Python) */
#define RC_MIN 0
#define RC_VLB 1
#define RC_REV 2
#define RC_MINLEN 3
#define RC_VLBLEN 4

/* variants (shared with Python) */
#define V_MIN 0
#define V_VLB 1
#define V_UGAL_L 2
#define V_UGAL_G 3
#define V_PAR 4

/* cached VLB candidate entry columns (vlb_pool) */
#define VE_OFF 0  /* arena offset, -1 until first chosen */
#define VE_META 1 /* hops | shape1 << 8 | shape2 << 16 */
#define VE_MID 2  /* descriptor: intermediate switch */
#define VE_SLOTS 3 /* descriptor: slot1 << 16 | slot2 */
#define VE_STRIDE 4

#define RULE_QUOTA 2
#define SAMPLE_ATTEMPTS 128 /* pathset._SAMPLE_ATTEMPTS */
#define MAXH 32             /* tables.MAX_PATH_HOPS */
#define ERR_VC -20
#define ERR_SPARSE -21
#define ERR_NO_MIN -22
#define ERR_CAP -23

/* rng.integers(k) for k >= 1, draw for draw (numpy's
 * random_bounded_uint64_fill with use_masked=False: k == 1 consumes no
 * draw, 32-bit ranges use Lemire's method on next_uint32, wider ranges
 * on next_uint64) */
static uint64_t draw_bounded(BitGen *bg, uint64_t k)
{
    const uint64_t rng = k - 1;
    if (rng == 0)
        return 0;
    if (rng <= 0xFFFFFFFFULL) {
        if (rng == 0xFFFFFFFFULL)
            return bg->next_uint32(bg->state);
        const uint32_t excl = (uint32_t)rng + 1;
        uint64_t m = (uint64_t)bg->next_uint32(bg->state) * excl;
        uint32_t left = (uint32_t)m;
        if (left < excl) {
            const uint32_t thr = (UINT32_MAX - (uint32_t)rng) % excl;
            while (left < thr) {
                m = (uint64_t)bg->next_uint32(bg->state) * excl;
                left = (uint32_t)m;
            }
        }
        return m >> 32;
    }
    const uint64_t excl = rng + 1;
    unsigned __int128 m = (unsigned __int128)bg->next_uint64(bg->state) * excl;
    uint64_t left = (uint64_t)m;
    if (left < excl) {
        const uint64_t thr = (UINT64_MAX - rng) % excl;
        while (left < thr) {
            m = (unsigned __int128)bg->next_uint64(bg->state) * excl;
            left = (uint64_t)m;
        }
    }
    return (uint64_t)(m >> 64);
}

static inline int32_t draw(Route *R, int64_t k)
{
    return (int32_t)draw_bounded((BitGen *)R->bitgen, (uint64_t)k);
}

/* pathset._mix: splitmix64 of a path identity */
static uint64_t mix64(uint64_t seed, uint64_t src, uint64_t dst,
                      uint64_t mid, uint64_t k1, uint64_t k2)
{
    uint64_t x = seed * 0x9E3779B97F4A7C15ULL + src * 0xBF58476D1CE4E5B9ULL +
                 dst * 0x94D049BB133111EBULL + mid * 0xD6E8FEB86659FD93ULL +
                 k1 * 0xA5A5A5A5A5A5A5A5ULL + k2 * 0x0123456789ABCDEFULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/* SimChannel.load_metric: queued flits + committed downstream credits */
static inline int64_t load_of(const State *s, const Route *R, int32_t c)
{
    const int32_t *row = s->outrow + (int64_t)c * s->outrow_stride;
    return (int64_t)row[OR_LEN] + R->cred_cap -
           row[OR_CRED + s->cred_stride - 1];
}

/* a candidate route: interned (off >= 0, channels in the arena) or
 * not yet (off < 0, channels in buf); entry `ej` of pair `epair`'s VLB
 * cache (epair < 0: none) learns the offset when the route is interned */
typedef struct {
    int32_t off;
    int32_t hops;
    int32_t s1, s2; /* shapes; s2 == nsh for single-segment routes */
    int32_t ej;
    int64_t epair;
    int32_t buf[MAXH];
} Cand;

/* entry j of pair pi's VLB cache block (looked up afresh each time: a
 * block moves when it grows) */
static inline int32_t *vlb_entry(const Route *R, int64_t pi, int32_t j)
{
    return R->vlb_pool + R->vlb_pair[pi] + 2 + VE_STRIDE * j;
}

#define CAND_CH(s, c) ((c)->off >= 0 ? (s)->arena_chan + (c)->off : (c)->buf)

static inline int64_t lad_key(const Route *R, int32_t s1, int32_t s2,
                              int32_t revised)
{
    return ((int64_t)s1 * (R->nsh + 1) + s2) * 2 + revised;
}

/* min_path_via: local route to the link, the global hop, local route
 * on; returns hops, fills channel ids and the leg's shape */
static int32_t leg(const Route *R, int32_t u, int32_t v, int32_t k,
                   int32_t *ch, int32_t *shape)
{
    const int32_t a = (int32_t)R->a, mlh = (int32_t)R->mlh;
    const int64_t li = ((int64_t)(u / a) * R->g + v / a) * R->links + k;
    const int64_t i1 = (int64_t)u * a + R->link_near[li] % a;
    const int64_t i2 = (int64_t)R->link_far[li] * a + v % a;
    const int32_t n1 = R->local_len[i1], n2 = R->local_len[i2];
    int32_t n = 0;
    for (int32_t j = 0; j < n1; j++)
        ch[n++] = R->local_channels[i1 * mlh + j];
    ch[n++] = R->link_channel[li];
    for (int32_t j = 0; j < n2; j++)
        ch[n++] = R->local_channels[i2 * mlh + j];
    *shape = n1 * (mlh + 1) + n2;
    return n;
}

static inline int32_t leg_hops(const Route *R, int32_t u, int32_t v,
                               int32_t k)
{
    const int32_t a = (int32_t)R->a;
    const int64_t li = ((int64_t)(u / a) * R->g + v / a) * R->links + k;
    return R->local_len[(int64_t)u * a + R->link_near[li] % a] + 1 +
           R->local_len[(int64_t)R->link_far[li] * a + v % a];
}

/* append a route with the given ladder to the arena; offset or error */
static int64_t intern(State *s, Route *R, const int32_t *ch, int32_t hops,
                      int64_t key)
{
    const int32_t *vc = R->ladders + key * R->maxh;
    if (vc[0] < 0) {
        R->err = key;
        return ERR_VC;
    }
    const int64_t off = s->counters[CNT_ARENA];
    if (off + hops > s->arena_cap)
        return ERR_CAP;
    for (int32_t j = 0; j < hops; j++) {
        s->arena_chan[off + j] = ch[j];
        s->arena_vc[off + j] = vc[j];
    }
    s->counters[CNT_ARENA] = off + hops;
    return off;
}

/* RoutingAlgorithm._random_min; 0 or error */
static int64_t random_min(State *s, Route *R, int32_t src, int32_t dst,
                          Cand *c)
{
    const int32_t a = (int32_t)R->a;
    const int32_t gs = src / a, gd = dst / a;
    const int32_t n = gs == gd ? 1 : R->pair_links[gs * R->g + gd];
    const int64_t pi = (int64_t)src * R->nS + dst;
    int64_t base = R->min_pair[pi];
    if (base < 0) {
        /* _min_candidates: prepare every MIN route of the pair */
        if (n == 0)
            return ERR_NO_MIN; /* rng.integers(0) raises */
        base = R->rcnt[RC_MINLEN];
        if (base + 2 * n > R->min_pool_cap)
            return ERR_CAP;
        for (int32_t k = 0; k < n; k++) {
            int32_t ch[MAXH], shape, hops;
            if (gs == gd) {
                const int64_t i = (int64_t)src * a + dst % a;
                hops = R->local_len[i];
                for (int32_t j = 0; j < hops; j++)
                    ch[j] = R->local_channels[i * R->mlh + j];
                shape = (int32_t)((R->mlh + 1) * (R->mlh + 1)) + hops - 1;
            } else
                hops = leg(R, src, dst, k, ch, &shape);
            const int64_t off =
                intern(s, R, ch, hops, lad_key(R, shape, (int32_t)R->nsh, 0));
            if (off < 0)
                return off;
            R->min_pool[base + 2 * k] = (int32_t)off;
            R->min_pool[base + 2 * k + 1] = hops | shape << 8;
        }
        R->min_pair[pi] = (int32_t)base;
        R->rcnt[RC_MINLEN] = base + 2 * n;
    }
    const int32_t k = n == 1 ? 0 : draw(R, n);
    const int32_t meta = R->min_pool[base + 2 * k + 1];
    c->off = R->min_pool[base + 2 * k];
    c->hops = meta & 0xff;
    c->s1 = meta >> 8;
    c->s2 = (int32_t)R->nsh;
    c->epair = -1;
    return 0;
}

/* PathPolicy.contains, compiled (tables.compile_policy) */
static int accept(const Route *R, int32_t src, int32_t dst, int32_t mid,
                  int32_t k1, int32_t k2)
{
    if (R->rule_ordered && (mid <= src || mid <= dst))
        return 0;
    const int32_t l1 = leg_hops(R, src, mid, k1);
    const int32_t l2 = leg_hops(R, mid, dst, k2);
    const int32_t rule = R->rule_classes[l1 * (2 * R->mlh + 2) + l2];
    if (rule == RULE_QUOTA)
        return mix64(R->rule_seed, (uint64_t)src, (uint64_t)dst,
                     (uint64_t)mid, (uint64_t)k1, (uint64_t)k2) %
                   10000 <
               (uint64_t)R->rule_quota;
    return rule;
}

/* PathPolicy.sample: 1 = descriptor found, 0 = none, < 0 error */
static int64_t sample(Route *R, int32_t src, int32_t dst, int32_t *desc)
{
    const int32_t a = (int32_t)R->a, g = (int32_t)R->g;
    const int32_t gs = src / a, gd = dst / a;
    const int64_t gi = (int64_t)gs * g + gd;
    const int32_t ne = R->eligible_len[gi];
    if (!ne)
        return 0;
    const int32_t *el = R->eligible + gi * g;
    for (int32_t t = 0; t < SAMPLE_ATTEMPTS; t++) {
        const int32_t gm = el[draw(R, ne)];
        const int32_t m1 = R->pair_links[gs * g + gm];
        const int32_t m2 = R->pair_links[gm * g + gd];
        if (!m1 || !m2)
            continue;
        const int32_t mid = gm * a + draw(R, a);
        const int32_t k1 = draw(R, m1);
        const int32_t k2 = draw(R, m2);
        if (accept(R, src, dst, mid, k1, k2)) {
            desc[0] = mid;
            desc[1] = k1;
            desc[2] = k2;
            return 1;
        }
    }
    const int64_t rc = R->sparse(src, dst, R->sparse_out);
    if (rc < 0)
        return ERR_SPARSE;
    if (rc == 0)
        return 0;
    desc[0] = R->sparse_out[0];
    desc[1] = R->sparse_out[1];
    desc[2] = R->sparse_out[2];
    return 1;
}

/* vlb_path for a descriptor: two legs glued at mid */
static void vlb_fill(const Route *R, int32_t src, int32_t dst, int32_t mid,
                     int32_t k1, int32_t k2, Cand *c)
{
    int32_t sh1, sh2;
    const int32_t n1 = leg(R, src, mid, k1, c->buf, &sh1);
    const int32_t n2 = leg(R, mid, dst, k2, c->buf + n1, &sh2);
    c->hops = n1 + n2;
    c->s1 = sh1;
    c->s2 = sh2;
}

static void cached_vlb(const Route *R, int32_t src, int32_t dst,
                       int64_t pi, int32_t j, Cand *c)
{
    const int32_t *const e = vlb_entry(R, pi, j);
    c->epair = pi;
    c->ej = j;
    c->off = e[VE_OFF];
    if (c->off < 0) {
        vlb_fill(R, src, dst, e[VE_MID], e[VE_SLOTS] >> 16,
                 e[VE_SLOTS] & 0xffff, c);
        return;
    }
    const int32_t meta = e[VE_META];
    c->hops = meta & 0xff;
    c->s1 = (meta >> 8) & 0xff;
    c->s2 = meta >> 16;
}

/* RoutingAlgorithm._random_vlb: 1 = candidate, 0 = the pair has no VLB
 * path, < 0 error */
static int64_t random_vlb(Route *R, int32_t src, int32_t dst, Cand *c)
{
    const int64_t pi = (int64_t)src * R->nS + dst;
    const int32_t base = R->vlb_pair[pi];
    if (base == -2)
        return 0;
    const int64_t cap = R->vlb_cap;
    const int32_t cnt = base >= 0 ? R->vlb_pool[base] : 0;
    if (cap <= 0 || cnt < cap) {
        int32_t desc[3];
        int64_t rc = sample(R, src, dst, desc);
        if (rc < 0)
            return rc;
        if (rc == 0) {
            if (!cnt) {
                R->vlb_pair[pi] = -2;
                return 0;
            }
            cached_vlb(R, src, dst, pi, draw(R, cnt), c);
            return 1;
        }
        /* vlb_path + _prepare (whose unrevised ladder must fit) */
        vlb_fill(R, src, dst, desc[0], desc[1], desc[2], c);
        const int64_t key = lad_key(R, c->s1, c->s2, 0);
        if (R->ladders[key * R->maxh] < 0) {
            R->err = key;
            return ERR_VC;
        }
        c->off = -1;
        c->epair = -1;
        if (cap > 0) {
            int64_t b = base;
            const int64_t room = b >= 0 ? R->vlb_pool[b + 1] : 0;
            if (cnt == room) {
                /* full (or new): move to a block twice the size, at most
                 * cap, so storage follows the candidates actually drawn;
                 * the old block is left behind (at most half the pool) */
                const int64_t grown = room ? (2 * room < cap ? 2 * room : cap)
                                           : 1;
                b = R->rcnt[RC_VLBLEN];
                if (b + 2 + VE_STRIDE * grown > R->vlb_pool_cap)
                    return ERR_CAP;
                if (cnt)
                    memcpy(R->vlb_pool + b + 2, R->vlb_pool + base + 2,
                           sizeof(int32_t) * VE_STRIDE * cnt);
                R->vlb_pool[b + 1] = (int32_t)grown;
                R->rcnt[RC_VLBLEN] = b + 2 + VE_STRIDE * grown;
                R->vlb_pair[pi] = (int32_t)b;
            }
            int32_t *const blk = R->vlb_pool + b;
            int32_t *const e = blk + 2 + VE_STRIDE * cnt;
            e[VE_OFF] = -1;
            e[VE_META] = c->hops | c->s1 << 8 | c->s2 << 16;
            e[VE_MID] = desc[0];
            e[VE_SLOTS] = desc[1] << 16 | desc[2];
            blk[0] = cnt + 1;
            c->epair = pi;
            c->ej = cnt;
        }
        return 1;
    }
    cached_vlb(R, src, dst, pi, draw(R, cnt), c);
    return 1;
}

/* UgalLocalStrategy / UgalGlobalStrategy.cost */
static int64_t cost(const State *s, const Route *R, const Cand *c)
{
    const int32_t *ch = CAND_CH(s, c);
    if (R->variant == V_UGAL_G) {
        int64_t sum = 0;
        for (int32_t j = 0; j < c->hops; j++)
            sum += load_of(s, R, ch[j]);
        return sum;
    }
    return load_of(s, R, ch[0]) * c->hops;
}

typedef struct {
    int32_t off, hops, vc0, vlb, rev;
} Pick;

/* RoutingAlgorithm._apply */
static int64_t choose(State *s, Route *R, Cand *c, int32_t vlb, Pick *pk)
{
    if (c->off < 0) {
        const int64_t off = intern(s, R, c->buf, c->hops,
                                   lad_key(R, c->s1, c->s2, 0));
        if (off < 0)
            return off;
        c->off = (int32_t)off;
        if (c->epair >= 0)
            vlb_entry(R, c->epair, c->ej)[VE_OFF] = c->off;
    }
    pk->off = c->off;
    pk->hops = c->hops;
    pk->vc0 = s->arena_vc[c->off];
    pk->vlb = vlb;
    pk->rev = 0;
    R->rcnt[vlb ? RC_VLB : RC_MIN]++;
    return 0;
}

/* RoutingAlgorithm.route_packet + the variant's strategy.decide */
static int64_t decide(State *s, Route *R, int32_t src, int32_t dst, Pick *pk)
{
    if (src == dst) {
        pk->off = pk->hops = pk->vc0 = pk->vlb = pk->rev = 0;
        R->rcnt[RC_MIN]++;
        return 0;
    }
    Cand m, v, o;
    int64_t rc = random_min(s, R, src, dst, &m);
    if (rc < 0)
        return rc;
    if (R->variant == V_MIN)
        return choose(s, R, &m, 0, pk);
    rc = random_vlb(R, src, dst, &v);
    if (rc < 0)
        return rc;
    if (rc == 0)
        return choose(s, R, &m, 0, pk);
    if (R->variant == V_VLB)
        return choose(s, R, &v, 1, pk);
    int64_t cm = cost(s, R, &m);
    for (int64_t j = 1; j < R->min_cands; j++) {
        rc = random_min(s, R, src, dst, &o);
        if (rc < 0)
            return rc;
        const int64_t co = cost(s, R, &o);
        if (co < cm) {
            m = o;
            cm = co;
        }
    }
    int64_t cv = cost(s, R, &v);
    for (int64_t j = 1; j < R->vlb_cands; j++) {
        rc = random_vlb(R, src, dst, &o);
        if (rc < 0)
            return rc;
        if (rc == 0)
            continue;
        const int64_t co = cost(s, R, &o);
        if (co < cv) {
            v = o;
            cv = co;
        }
    }
    if (cm <= cv + R->threshold) {
        rc = choose(s, R, &m, 0, pk);
        if (rc < 0)
            return rc;
        /* ParStrategy.on_min_chosen: >= 2 hops, first hop local */
        const int32_t legs = (int32_t)((R->mlh + 1) * (R->mlh + 1));
        if (R->variant == V_PAR && m.hops >= 2 &&
            (m.s1 >= legs || m.s1 / (R->mlh + 1) > 0))
            pk->rev = 1;
        return 0;
    }
    return choose(s, R, &v, 1, pk);
}

/* ParStrategy.revise at `router` for a packet delivered after hop 1 */
static int64_t revise(State *s, Route *R, int32_t *rec, int32_t *pm,
                      int32_t router)
{
    rec[PK_REV] = 0;
    const int32_t dst = rec[PK_DST] / (int32_t)R->p;
    if (router == dst)
        return 0;
    Cand v;
    int64_t rc = random_vlb(R, router, dst, &v);
    if (rc <= 0)
        return rc;
    const int32_t remaining = rec[PK_PATH] - 1;
    const int64_t roff = rec[PK_ROFF];
    const int64_t cost_min =
        remaining > 0 ? load_of(s, R, s->arena_chan[roff + 1]) * remaining
                      : 0;
    const int32_t *ch = CAND_CH(s, &v);
    const int64_t cost_vlb = load_of(s, R, ch[0]) * v.hops;
    if (cost_vlb + R->threshold >= cost_min)
        return 0;
    const int64_t key = lad_key(R, v.s1, v.s2, 1);
    const int32_t *vc = R->ladders + key * R->maxh;
    if (vc[0] < 0) {
        R->err = key;
        return ERR_VC;
    }
    /* route[:1] + vlb channels, vcs[:1] + the revised ladder */
    const int64_t off = s->counters[CNT_ARENA];
    if (off + 1 + v.hops > s->arena_cap)
        return ERR_CAP;
    s->arena_chan[off] = s->arena_chan[roff];
    s->arena_vc[off] = s->arena_vc[roff];
    for (int32_t j = 0; j < v.hops; j++) {
        s->arena_chan[off + 1 + j] = ch[j];
        s->arena_vc[off + 1 + j] = vc[j];
    }
    s->counters[CNT_ARENA] = off + 1 + v.hops;
    rec[PK_ROFF] = (int32_t)off;
    rec[PK_PATH] = 1 + v.hops;
    pm[PM_VLB] = 1;
    R->rcnt[RC_REV]++;
    return 0;
}

/* ArrayNetwork.inject for a natively routed packet */
static int64_t enqueue(State *s, int64_t node, int64_t dnode, int64_t cycle,
                       const Pick *pk)
{
    int32_t *const meta = s->src_meta + node * 2;
    const int32_t n = meta[1];
    const int32_t src_cap = (int32_t)s->src_cap;
    if (n >= src_cap)
        return ERR_CAP;
    if (n == 0) {
        const int64_t c = s->inj_base + node;
        const int64_t *tail =
            (const int64_t *)(s->outrow + c * s->outrow_stride +
                              OR_BUD(s->cred_stride));
        int64_t when = tail[2]; /* busy_until */
        if (when < cycle)
            when = cycle;
        const int64_t b = when % s->ws;
        const int32_t m = s->tw_n[b];
        if (m >= s->tw_cap)
            return -4;
        s->tw_chan[b * s->tw_cap + m] = (int32_t)c;
        s->tw_n[b] = m + 1;
        s->counters[CNT_PT]++;
    }
    int32_t pos = meta[0] + n;
    if (pos >= src_cap)
        pos -= src_cap;
    int32_t *const e = s->src_buf + (node * src_cap + pos) * SE_STRIDE;
    e[SE_PATH] = pk->hops;
    e[SE_VC0] = pk->hops ? pk->vc0 : 0;
    e[SE_DST] = (int32_t)dnode;
    e[SE_REV] = pk->rev;
    e[SE_ROFF] = pk->off;
    e[SE_ICYC] = (int32_t)cycle;
    e[SE_SPID] = 0;
    e[SE_VLB] = pk->vlb;
    meta[1] = n + 1;
    return 0;
}

/* Route and queue one injection cycle's packets, in order (the engine's
 * route_packets + inject loop).  A packet whose source queue already
 * holds max_queue packets stalls unrouted.  Returns the number of
 * stalled packets, or a negative error code. */
int64_t repro_route_batch(State *s, int64_t n, const int64_t *srcs,
                          const int64_t *dsts, int64_t cycle,
                          int64_t max_queue)
{
    Route *const R = s->route;
    const int64_t p = R->p;
    int64_t stalled = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t node = srcs[i];
        if (s->src_meta[node * 2 + 1] >= max_queue) {
            stalled++;
            continue;
        }
        Pick pk;
        int64_t rc = decide(s, R, (int32_t)(node / p),
                            (int32_t)(dsts[i] / p), &pk);
        if (rc)
            return rc;
        rc = enqueue(s, node, dsts[i], cycle, &pk);
        if (rc)
            return rc;
    }
    return stalled;
}

/* one rng.integers(k) through a numpy bit generator (the loader's replica
 * self-check and its unit test) */
int64_t repro_draw(void *bitgen, int64_t k)
{
    return (int64_t)draw_bounded((BitGen *)bitgen, (uint64_t)k);
}

int64_t repro_route_size(void)
{
    return (int64_t)sizeof(Route);
}

/* layout guard: version * 100000 + sizeof(State), compared against the
 * ctypes mirror before the first call */
int64_t repro_abi(void)
{
    return REPRO_ARRAYNET_ABI_VERSION * 100000 + (int64_t)sizeof(State);
}

int64_t repro_step_cycle(State *s, int64_t cycle, int64_t skip_credits)
{
    const int32_t idx = (int32_t)(cycle % s->ws);
    int64_t rc = deliver(s, cycle, idx, skip_credits);
    if (rc)
        return rc;
    rc = crossbar(s, cycle, idx);
    if (rc)
        return rc;
    return transmit(s, cycle, idx);
}

/* Advance `n` independent simulations by one cycle, run-major.  No
 * driver calls it any more (repro.sim.batch runs its members one after
 * another); it stays exported because perfbench/spans.py wraps it, and
 * goes with the rest of the batch layer (ROADMAP item 2).  A failing
 * run is encoded into the return code as `rc * 1000 + run_index`. */
int64_t repro_step_batch(State **ss, int64_t n, int64_t cycle,
                         const int64_t *skip_credits)
{
    for (int64_t r = 0; r < n; r++) {
        int64_t rc = repro_step_cycle(ss[r], cycle, skip_credits[r]);
        if (rc)
            return rc * 1000 + r;
    }
    return 0;
}
