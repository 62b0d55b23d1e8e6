"""Native route decisions for :class:`~repro.sim.array.ArrayNetwork`.

:class:`NativeRouting` binds one run's
:class:`~repro.sim.routing.RoutingAlgorithm` to the kernel's ``struct
Route``: the flat tables of :mod:`repro.routing.tables`, the per-run
candidate caches (numpy pools the kernel fills, grown here between
calls), the decision counters, the run's numpy bit generator and the
sparse-policy callback.  The kernel then routes each injection cycle
(``repro_route_batch``) and runs PAR revisions inside its deliver phase,
draw for draw like the Python reference, so results are bit-identical to
the wheel engine's (pinned by ``tests/fixtures/golden_simresults.json``).

Which runs route natively is a stated rule, not a silent choice
(:meth:`NativeRouting.bind` returns the reason when it declines, the
network logs it once and ``RunManifest.routing_backend`` records the
outcome):

* the kernel's rng replica passed its load-time self-check;
* the algorithm is a plain :class:`RoutingAlgorithm` running one of the
  five registered strategies (``min``, ``vlb``, ``ugal-l``, ``ugal-g``,
  ``par``; T- forms included) with a numpy ``Generator``;
* the topology's routes are at most
  :data:`~repro.routing.tables.MAX_PATH_HOPS` hops long;
* the policy compiles (:func:`~repro.routing.tables.compile_policy`):
  ``AllVlbPolicy``, ``HopClassPolicy``, ``StrategicFiveHopPolicy``,
  ``OrderedVlbPolicy``.  ``ExcludingPolicy``, ``ExplicitPathSet`` and
  unknown subclasses route through the Python reference.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Tuple

import numpy as np

from repro.routing.tables import (
    MAX_PATH_HOPS,
    compile_policy,
    topology_tables,
    vc_ladders,
)
from repro.sim.array.native import (
    CNT_ARENA,
    RC_MIN,
    RC_MINLEN,
    RC_REV,
    RC_VLB,
    RC_VLBLEN,
    ROUTE_TABLE_FIELDS,
    SPARSE_FN,
    CRoute,
    native_routing_available,
)
from repro.sim.routing import RoutingAlgorithm
from repro.sim.strategies import (
    MinimalStrategy,
    ParStrategy,
    UgalGlobalStrategy,
    UgalLocalStrategy,
    ValiantStrategy,
)

__all__ = ["NativeRouting"]

# kernel.c V_* codes, by exact strategy class
_VARIANTS = {
    MinimalStrategy: 0,
    ValiantStrategy: 1,
    UgalLocalStrategy: 2,
    UgalGlobalStrategy: 3,
    ParStrategy: 4,
}

# kernel.c ERR_* codes
_ERR_VC = -20
_ERR_SPARSE = -21
_ERR_NO_MIN = -22

_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)


def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_I64P if arr.dtype == np.int64 else _I32P)


def _grown(arr: np.ndarray, need: int) -> np.ndarray:
    size = len(arr)
    while size < need:
        size *= 2
    out = np.zeros(size, arr.dtype)
    out[: len(arr)] = arr
    return out


class NativeRouting:
    """One run's native decision state (see the module docstring)."""

    def __init__(self, network, algo: RoutingAlgorithm, tables, rule) -> None:
        params = network.params
        nsw = tables.num_switches
        # raised by the sparse callback, re-raised by raise_for
        self._errors: List[BaseException] = []
        self._ladders, self._ladder_errors = vc_ladders(
            tables.local_hops, params.vc_scheme, network.num_vcs
        )
        self._keep = (tables, rule)  # the kernel reads their arrays
        self.min_pair = np.full(nsw * nsw, -1, np.int32)
        self.vlb_pair = np.full(nsw * nsw, -1, np.int32)
        self.min_pool = np.zeros(1024, np.int32)
        self.vlb_pool = np.zeros(4096, np.int32)
        self.rcnt = np.zeros(8, np.int64)
        self.sparse_out = np.zeros(3, np.int32)
        # holds no reference to this object or the network: both stay
        # free of reference cycles and are freed when the run ends
        self._callback = SPARSE_FN(_sparse_fallback(algo, self._errors))

        cap = params.vlb_cache_per_pair
        # worst-case pool/arena growth of one routed packet (first use of
        # its pair's MIN block, the chosen route) and of one PAR
        # revision (the revised route)
        self._arena_per_packet = (
            tables.links * tables.max_leg + tables.max_hops
        )
        self._arena_per_revision = tables.max_hops + 1
        self._min_per_packet = 2 * tables.links
        # a VLB sample may move its pair's cache block to a new one of
        # at most 2 + VE_STRIDE * cap ints; a packet draws up to
        # vlb_candidates samples, a revision one
        self._vlb_per_sample = 2 + 4 * cap if cap > 0 else 0
        self._vlb_per_packet = params.vlb_candidates * self._vlb_per_sample

        st = CRoute()
        self.cstruct = st
        arrays = (
            tables.pair_links,
            tables.link_near,
            tables.link_far,
            tables.link_channel,
            tables.local_len,
            tables.local_channels,
            tables.eligible,
            tables.eligible_len,
            self._ladders,
            rule.classes,
            self.min_pair,
            self.min_pool,
            self.vlb_pair,
            self.vlb_pool,
        )
        for name, arr in zip(ROUTE_TABLE_FIELDS, arrays):
            setattr(st, name, _ptr(arr))
        st.rcnt = _ptr(self.rcnt)
        st.sparse_out = _ptr(self.sparse_out)
        st.bitgen = algo.rng.bit_generator.ctypes.bit_generator.value
        st.sparse = self._callback
        st.a = tables.a
        st.g = tables.g
        st.p = tables.p
        st.nS = nsw
        st.links = tables.links
        st.mlh = tables.local_hops
        st.maxh = tables.max_hops
        st.nsh = tables.num_shapes
        st.variant = _VARIANTS[type(algo.strategy)]
        st.threshold = algo.threshold
        st.min_cands = params.min_candidates
        st.vlb_cands = params.vlb_candidates
        st.vlb_cap = cap
        st.cred_cap = params.buffer_size * network.num_vcs
        st.rule_ordered = int(rule.ordered)
        st.rule_quota = rule.quota
        st.rule_seed = rule.seed
        st.min_pool_cap = len(self.min_pool)
        st.vlb_pool_cap = len(self.vlb_pool)

    @classmethod
    def bind(
        cls, network, algo
    ) -> Tuple[Optional["NativeRouting"], str]:
        """The native state for ``algo``, or ``None`` and the reason."""
        if not native_routing_available():
            return None, "the kernel's rng replica failed its self-check"
        if type(algo) is not RoutingAlgorithm:
            return None, f"routing class {type(algo).__name__} is not native"
        if type(algo.strategy) not in _VARIANTS:
            return None, (
                f"strategy {type(algo.strategy).__name__} has no native form"
            )
        if not isinstance(algo.rng, np.random.Generator):
            return None, "the run's rng is not a numpy Generator"
        # ArrayNetwork indexes channels in this dict's insertion order
        tables = topology_tables(network.topo, network.channels)
        if tables is None:
            return None, (
                f"routes of {network.topo} are longer than the kernel's "
                f"{MAX_PATH_HOPS} hops"
            )
        rule = compile_policy(algo.policy, tables.max_leg)
        if rule is None:
            return None, (
                f"policy {type(algo.policy).__name__} does not compile to "
                f"a leg-split rule"
            )
        return cls(network, algo, tables, rule), ""

    # ------------------------------------------------------------------
    def ensure(self, net, packets: int, revisions: int) -> None:
        """Grow the pools and ``net``'s arena for the worst case of one
        call."""
        S = net._S
        need = (
            int(S.counters[CNT_ARENA])
            + packets * self._arena_per_packet
            + revisions * self._arena_per_revision
        )
        if need > net._arena_cap:
            net._grow_arena(need)
        st = self.cstruct
        need = int(self.rcnt[RC_MINLEN]) + packets * self._min_per_packet
        if need > len(self.min_pool):
            self.min_pool = _grown(self.min_pool, need)
            st.min_pool = _ptr(self.min_pool)
            st.min_pool_cap = len(self.min_pool)
        need = (
            int(self.rcnt[RC_VLBLEN])
            + packets * self._vlb_per_packet
            + revisions * self._vlb_per_sample
        )
        if need > len(self.vlb_pool):
            self.vlb_pool = _grown(self.vlb_pool, need)
            st.vlb_pool = _ptr(self.vlb_pool)
            st.vlb_pool_cap = len(self.vlb_pool)

    def raise_for(self, rc: int, cycle: int) -> None:
        """Raise what the Python reference raises for kernel code ``rc``."""
        if rc == _ERR_VC:
            raise ValueError(self._ladder_errors[int(self.cstruct.err)])
        if rc == _ERR_SPARSE and self._errors:
            raise self._errors.pop()
        if rc == _ERR_NO_MIN:
            raise ValueError("high <= 0")  # rng.integers(0), as in Python
        raise RuntimeError(
            f"array kernel invariant violation (code {rc}) at cycle {cycle}"
        )

    def sync_counters(self, algo: RoutingAlgorithm) -> None:
        """Publish the decision counters on the algorithm object."""
        algo.min_chosen = int(self.rcnt[RC_MIN])
        algo.vlb_chosen = int(self.rcnt[RC_VLB])
        algo.par_revised = int(self.rcnt[RC_REV])


def _sparse_fallback(algo: RoutingAlgorithm, errors: List[BaseException]):
    """PathPolicy.sample's reservoir tail, as the kernel's callback."""
    policy, topo, rng = algo.policy, algo.topo, algo.rng

    def sparse(src: int, dst: int, out) -> int:
        try:
            desc = policy.sample_sparse(topo, src, dst, rng)
        except BaseException as exc:  # re-raised by raise_for
            errors.append(exc)
            return -1
        if desc is None:
            return 0
        out[0], out[1], out[2] = desc
        return 1

    return sparse
