"""Flat routing tables: the UGAL candidate space as small numpy arrays.

A MIN leg from switch ``u`` to a switch ``v`` of another group over global
link slot ``k`` is the local route from ``u`` to the link's near endpoint,
the global channel, and the local route from the far endpoint to ``v``
(:func:`repro.routing.minimal.min_path_via`).  A VLB path is two such legs
glued at the intermediate switch (:func:`repro.routing.vlb.vlb_path`).  So
three small per-topology tables determine every candidate route:

* per ordered group pair: the number of links, and per link slot the near
  endpoint, the far endpoint and the global channel id;
* per (switch, local index in its group): the local route's hop count and
  channel ids (padded to the topology's longest local route);
* per ordered group pair: the eligible VLB intermediate groups, in the
  order :meth:`~repro.routing.pathset.PathPolicy.sample` draws them.

A leg's *shape* -- local hops before and after its global hop -- is all
the VC allocation of ``repro.sim.vc`` looks at, so :func:`vc_ladders`
tabulates ``assign_vcs`` once per (first shape, second shape, revised)
key.  :func:`compile_policy` turns the policies whose membership is a
per-leg-split class rule (the rule ``repro.model`` weights its LP
classes with, :func:`leg_split_weight`), optionally with the
deterministic hash quota of ``pathset._mix``, into a class table.

The native route decisions of the array engine (``kernel.c``) read these
tables; the Python :class:`~repro.sim.routing.RoutingAlgorithm` stays the
reference semantics and never uses them.  Topology tables are built once
per topology *identity* (its constructor fields), so equal topologies
built separately share one build.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.routing.paths import LOCAL_SLOT, Path
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "MAX_PATH_HOPS",
    "PolicyRule",
    "TopologyTables",
    "compile_policy",
    "leg_split_weight",
    "topology_key",
    "topology_tables",
    "vc_ladders",
]

# longest route the native decisions handle (the kernel's stack buffers)
MAX_PATH_HOPS = 32

# policy class rules (PolicyRule.classes values, shared with kernel.c)
RULE_REJECT = 0
RULE_ACCEPT = 1
RULE_QUOTA = 2  # accept iff the path's hash falls below the quota

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclasses.dataclass(frozen=True)
class TopologyTables:
    """Per-topology leg tables (flat int32 arrays, C order)."""

    a: int
    g: int
    p: int
    num_switches: int
    links: int  # most links between any group pair (slot padding)
    local_hops: int  # longest local route
    pair_links: np.ndarray  # [g*g] links between the groups
    link_near: np.ndarray  # [g*g*links] endpoint in the first group
    link_far: np.ndarray  # [g*g*links] endpoint in the second group
    link_channel: np.ndarray  # [g*g*links] channel id near -> far
    local_len: np.ndarray  # [num_switches*a] local hops to that switch
    local_channels: np.ndarray  # [num_switches*a*local_hops] channel ids
    eligible: np.ndarray  # [g*g*g] eligible intermediate groups
    eligible_len: np.ndarray  # [g*g]

    @property
    def max_leg(self) -> int:
        return 2 * self.local_hops + 1

    @property
    def max_hops(self) -> int:
        return 2 * self.max_leg

    @property
    def num_shapes(self) -> int:
        """Leg shapes ``(pre, post)`` plus local-only MIN routes."""
        return (self.local_hops + 1) ** 2 + self.local_hops


def topology_key(topo: Dragonfly) -> Hashable:
    """A topology's identity: its type and constructor fields."""
    cls = type(topo)
    return (cls.__module__, cls.__qualname__) + tuple(
        (f.name, getattr(topo, f.name))
        for f in dataclasses.fields(topo)
        if f.init
    )


_TABLES: Dict[Hashable, TopologyTables] = {}
_TABLES_MAX = 16


def topology_tables(
    topo: Dragonfly, channels: Iterable[Tuple[int, int, int]]
) -> Optional[TopologyTables]:
    """The (cached) leg tables of ``topo``, or ``None`` if its routes are
    longer than :data:`MAX_PATH_HOPS`.

    ``channels`` lists the engine's directed switch channels ``(u, v,
    slot)`` in channel-index order.  ``Network`` numbers them from the
    topology alone, so the cache keys on :func:`topology_key`.
    """
    key = topology_key(topo)
    cached = _TABLES.get(key)
    if cached is not None:
        return cached
    index = {channel: i for i, channel in enumerate(channels)}
    tables = _build_tables(topo, lambda u, v, slot: index[(u, v, slot)])
    if tables is not None:
        if len(_TABLES) >= _TABLES_MAX:
            _TABLES.clear()
        _TABLES[key] = tables
    return tables


def _build_tables(
    topo: Dragonfly, channel_id: Callable[[int, int, int], int]
) -> Optional[TopologyTables]:
    # switches are numbered group * a + local, nodes switch * p + k
    a, g, p = topo.a, topo.g, topo.p
    n_sw = topo.num_switches
    mlh = max(1, topo.max_local_hops)
    if 2 * (2 * mlh + 1) > MAX_PATH_HOPS:
        return None

    pair_links = np.zeros((g, g), np.int32)
    for ga in range(g):
        for gb in range(g):
            if ga != gb:
                pair_links[ga, gb] = len(topo.links_between_groups(ga, gb))
    links = max(1, int(pair_links.max()))
    near = np.zeros((g, g, links), np.int32)
    far = np.zeros((g, g, links), np.int32)
    chan = np.zeros((g, g, links), np.int32)
    for ga in range(g):
        for gb in range(g):
            if ga == gb:
                continue
            for k, link in enumerate(topo.links_between_groups(ga, gb)):
                x, y = link.endpoint_in(ga), link.endpoint_in(gb)
                near[ga, gb, k] = x
                far[ga, gb, k] = y
                chan[ga, gb, k] = channel_id(x, y, link.slot)

    local_len = np.zeros((n_sw, a), np.int32)
    local_channels = np.zeros((n_sw, a, mlh), np.int32)
    for u in range(n_sw):
        base = (u // a) * a
        for r in range(a):
            v = base + r
            if v == u:
                continue
            hops = [u] + list(topo.local_route(u, v)) + [v]
            local_len[u, r] = len(hops) - 1
            for i in range(len(hops) - 1):
                local_channels[u, r, i] = channel_id(
                    hops[i], hops[i + 1], LOCAL_SLOT
                )

    eligible = np.zeros((g, g, g), np.int32)
    eligible_len = np.zeros((g, g), np.int32)
    for gs in range(g):
        for gd in range(g):
            row = [gm for gm in range(g) if gm != gs and gm != gd]
            eligible[gs, gd, : len(row)] = row
            eligible_len[gs, gd] = len(row)

    return TopologyTables(
        a=a,
        g=g,
        p=p,
        num_switches=n_sw,
        links=links,
        local_hops=mlh,
        pair_links=pair_links.ravel(),
        link_near=near.ravel(),
        link_far=far.ravel(),
        link_channel=chan.ravel(),
        local_len=local_len.ravel(),
        local_channels=local_channels.ravel(),
        eligible=eligible.ravel(),
        eligible_len=eligible_len.ravel(),
    )


# ----------------------------------------------------------------------
# VC ladders
# ----------------------------------------------------------------------
def _shape_slots(shape: int, local_hops: int) -> list:
    """Local/global slot pattern of a shape id (0 marks the global hop)."""
    legs = (local_hops + 1) ** 2
    if shape >= legs:  # a local-only MIN route of shape - legs + 1 hops
        return [LOCAL_SLOT] * (shape - legs + 1)
    pre, post = divmod(shape, local_hops + 1)
    return [LOCAL_SLOT] * pre + [0] + [LOCAL_SLOT] * post


@lru_cache(maxsize=32)
def vc_ladders(
    local_hops: int, scheme: str, num_vcs: int
) -> Tuple[np.ndarray, Dict[int, str]]:
    """``assign_vcs`` tabulated per (shape 1, shape 2, revised) key.

    Returns the flat ladder table -- ``max_hops`` VC indices per key
    ``(s1 * (num_shapes + 1) + s2) * 2 + revised``, where ``s2 ==
    num_shapes`` marks a single-segment (MIN) route -- and the
    ``ValueError`` text of every key whose ladder overflows ``num_vcs``
    (those rows start with ``-1``).  Revised ladders start at hop 1: a
    PAR revision happens at the second switch of the route.
    """
    # lazy: repro.sim sits above the routing layer
    from repro.sim.vc import assign_vcs

    legs = (local_hops + 1) ** 2
    nsh = legs + local_hops
    max_hops = 2 * (2 * local_hops + 1)
    table = np.full((nsh, nsh + 1, 2, max_hops), -1, np.int32)
    errors: Dict[int, str] = {}
    for s1 in range(nsh):
        for s2 in range(nsh + 1):
            if s2 < nsh and (s1 >= legs or s2 >= legs):
                continue  # VLB routes are two global legs
            slots = _shape_slots(s1, local_hops)
            if s2 < nsh:
                slots += _shape_slots(s2, local_hops)
            path = Path(tuple(range(len(slots) + 1)), tuple(slots))
            for revised in (0, 1):
                try:
                    vcs = assign_vcs(
                        path,
                        scheme,
                        hop_offset=revised,
                        revised=bool(revised),
                        num_vcs=num_vcs,
                    )
                except ValueError as exc:
                    errors[((s1 * (nsh + 1)) + s2) * 2 + revised] = str(exc)
                    continue
                table[s1, s2, revised, : len(vcs)] = vcs
    table.setflags(write=False)
    return table.ravel(), errors


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def leg_split_weight(
    policy: PathPolicy,
) -> Optional[Callable[[int, int], float]]:
    """The policy's membership as a weight per (leg-1, leg-2) hop split.

    Defined for :class:`AllVlbPolicy`, :class:`HopClassPolicy` (the
    ``extra_fraction`` boundary class weighs its hash quota) and
    :class:`StrategicFiveHopPolicy`; ``None`` for every other policy.
    """
    if isinstance(policy, AllVlbPolicy):
        return lambda l1, l2: 1.0
    if isinstance(policy, HopClassPolicy):
        full, frac = policy.full_hops, policy.extra_fraction

        def weight(l1: int, l2: int) -> float:
            hops = l1 + l2
            if hops <= full:
                return 1.0
            if hops == full + 1:
                return frac
            return 0.0

        return weight
    if isinstance(policy, StrategicFiveHopPolicy):
        keep = (2, 3) if policy.order == "2+3" else (3, 2)

        def weight(l1: int, l2: int) -> float:
            if l1 + l2 <= 4:
                return 1.0
            return 1.0 if (l1, l2) == keep else 0.0

        return weight
    return None


@dataclasses.dataclass(frozen=True)
class PolicyRule:
    """A policy's ``contains`` as a per-leg-split class table."""

    classes: np.ndarray  # [(max_leg + 1) ** 2] RULE_* per (l1, l2)
    ordered: bool  # additionally require mid > max(src, dst)
    seed: int  # pathset._mix seed, as an unsigned 64-bit value
    quota: int  # RULE_QUOTA: accept iff _mix(...) % 10000 < quota


def compile_policy(policy: PathPolicy, max_leg: int) -> Optional[PolicyRule]:
    """The native form of ``policy.contains``, or ``None``.

    Compiles exactly :class:`AllVlbPolicy`, :class:`HopClassPolicy`,
    :class:`StrategicFiveHopPolicy` and :class:`OrderedVlbPolicy` --
    not subclasses, which may override ``contains`` or ``sample``.
    Everything else (``ExcludingPolicy``, ``ExplicitPathSet``, unknown
    policies) selects below the leg-split granularity or is opaque, and
    routes through the Python reference.
    """
    size = max_leg + 1
    if type(policy) is OrderedVlbPolicy:
        quota = int(round(policy.fraction * 10_000))
        rule = RULE_ACCEPT if policy.fraction >= 1.0 else RULE_QUOTA
        classes = np.full(size * size, rule, np.int32)
        return PolicyRule(classes, True, policy.seed & _MASK64, quota)
    if type(policy) not in (AllVlbPolicy, HopClassPolicy, StrategicFiveHopPolicy):
        return None
    weight = leg_split_weight(policy)
    assert weight is not None
    # only HopClassPolicy has a fractional (hash-quota) class
    seed = policy.seed & _MASK64 if isinstance(policy, HopClassPolicy) else 0
    quota = 0
    classes = np.zeros(size * size, np.int32)
    for l1 in range(size):
        for l2 in range(size):
            w = weight(l1, l2)
            if w >= 1.0:
                classes[l1 * size + l2] = RULE_ACCEPT
            elif w > 0.0:
                classes[l1 * size + l2] = RULE_QUOTA
                quota = int(round(w * 10_000))
    return PolicyRule(classes, False, seed, quota)
