"""The LP throughput model.

Maximizes the per-node injection rate ``lambda`` (packets/cycle/node) that
the network can carry for a given switch-level demand matrix, when every
demand pair splits its traffic between

* its MIN paths (uniform split -- UGAL draws its single MIN candidate
  uniformly), and
* its candidate VLB set.

Two treatments of the VLB set are provided:

* ``mode="uniform"`` (default): one aggregate VLB rate per pair, spread
  uniformly over the candidate set -- UGAL's random candidate selection at
  adversarial saturation, and the limiting form of the paper's added
  constraint that a longer VLB path never out-rates a shorter one.
* ``mode="free"``: one rate per leg-split class, freely allocated by the LP
  (the original Model-3 behaviour); ``monotonic=True`` adds the paper's
  fix as explicit per-path-rate constraints between consecutive hop
  levels.  ``mode="free", monotonic=False`` reproduces the over-estimation
  the paper reports for sets with few long paths (see the ablation bench).

Channel capacities are 1 packet/cycle; terminal injection/ejection capacity
is ``p`` packets/cycle per switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.manifest import RunManifest

from repro.model.pathstats import PathStatsCache
from repro.routing.pathset import PathPolicy
from repro.topology.dragonfly import Dragonfly

__all__ = ["ModelResult", "model_throughput", "weights_for_policy"]

WeightFn = Callable[[int, int], float]


@dataclass
class ModelResult:
    """Outcome of one LP solve."""

    throughput: float  # saturation injection rate, packets/cycle/node
    min_fraction: float  # share of served traffic routed MIN
    status: str
    num_pairs: int
    # provenance record (repro.obs), excluded from equality: environment
    # fields vary run to run while the solve itself is deterministic
    manifest: Optional["RunManifest"] = field(
        default=None, compare=False, repr=False
    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelResult(throughput={self.throughput:.4f}, "
            f"min_fraction={self.min_fraction:.3f}, pairs={self.num_pairs})"
        )


def weights_for_policy(policy: "PathPolicy") -> WeightFn:
    """Translate a supported PathPolicy into leg-split class weights.

    Supported: AllVlbPolicy, HopClassPolicy, StrategicFiveHopPolicy.  The
    q%-subset of a HopClassPolicy is represented by its expectation
    (fraction q of the class's paths and usage), which is exact in
    expectation over the deterministic hash.

    Policies whose selection is *finer* than leg-split classes --
    ``ExcludingPolicy`` (drops individual channels/descriptors) and
    ``ExplicitPathSet`` (an arbitrary path list) -- cannot be expressed
    as class weights at all; they raise ``ValueError`` so callers never
    silently model the wrong candidate set.  Unknown policy types raise
    ``TypeError`` as before.
    """
    from repro.routing.pathset import ExcludingPolicy, ExplicitPathSet
    from repro.routing.tables import leg_split_weight

    if isinstance(policy, (ExcludingPolicy, ExplicitPathSet)):
        raise ValueError(
            f"{type(policy).__name__} selects paths below the leg-split "
            f"class granularity and has no class-weight representation; "
            f"evaluate it with the simulator instead"
        )
    weight = leg_split_weight(policy)
    if weight is not None:
        return weight
    raise TypeError(
        f"no class-weight translation for {type(policy).__name__}; "
        f"pass weight_fn explicitly"
    )


def model_throughput(
    topo: Dragonfly,
    demand: np.ndarray,
    weight_fn: Optional[WeightFn] = None,
    *,
    policy: Optional[PathPolicy] = None,
    cache: Optional[PathStatsCache] = None,
    mode: str = "uniform",
    monotonic: bool = True,
    max_descriptors: Optional[int] = None,
) -> ModelResult:
    """Solve the throughput LP for one demand matrix and VLB candidate set.

    ``demand`` is a switch-level matrix (packets/cycle at unit node rate,
    e.g. from ``TrafficPattern.demand_matrix``).  The candidate set is given
    either as ``weight_fn(l1, l2)`` over leg-split classes or as a
    ``policy`` translatable by :func:`weights_for_policy`.
    """
    if mode not in ("uniform", "free"):
        raise ValueError(f"unknown mode {mode!r}")
    exact_policy: Optional[PathPolicy] = None
    if weight_fn is None:
        if policy is None:
            weight_fn = lambda l1, l2: 1.0  # noqa: E731 - all VLB
        else:
            try:
                weight_fn = weights_for_policy(policy)
            except TypeError:
                # no class-weight translation (e.g. OrderedVlbPolicy):
                # enumerate the policy's own per-pair candidate set, so
                # the class table *is* the set and all-ones weights are
                # exact.  ValueError (sub-class-granularity policies)
                # still propagates: those are not modelable at all.
                exact_policy = policy
                weight_fn = lambda l1, l2: 1.0  # noqa: E731
    if cache is None:
        cache = PathStatsCache(topo, max_descriptors=max_descriptors)
    chidx = cache.chidx

    def pair_stats(s: int, d: int):
        if exact_policy is not None:
            return cache.policy_pair_stats(exact_policy, s, d)
        return cache.get(s, d)

    pairs: List[Tuple[int, int, float]] = [
        (s, d, float(demand[s, d]))
        for s, d in zip(*np.nonzero(demand))
        if s != d
    ]
    if not pairs:
        return ModelResult(1.0, 1.0, "trivial", 0)

    # Variable layout: [lambda, x_0..x_{K-1}, then VLB vars per pair]
    num_pairs = len(pairs)
    var_lambda = 0
    var_x = lambda k: 1 + k  # noqa: E731
    next_var = 1 + num_pairs
    # per pair: list of (var index, class count, usage dict) for VLB vars
    vlb_vars: List[List[Tuple[int, float, Dict[int, float]]]] = []
    hop_level: Dict[int, int] = {}  # var -> total hops (for monotonic rows)
    class_size: Dict[int, float] = {}  # var -> effective path count

    for k, (s, d, _w) in enumerate(pairs):
        stats = pair_stats(s, d)
        entries: List[Tuple[int, float, Dict[int, float]]] = []
        if mode == "uniform":
            total, usage = stats.weighted_vlb_usage(weight_fn)
            if total > 0:
                entries.append((next_var, total, usage))
                next_var += 1
        else:  # free: one var per included leg-split class
            for split, cs in sorted(stats.classes.items()):
                w = weight_fn(*split)
                if w <= 1e-9 or cs.count == 0:
                    continue  # sub-epsilon weights = excluded (LP scaling)
                eff_count = w * cs.count
                usage = {
                    idx: uses * w / eff_count
                    for idx, uses in cs.usage.items()
                }
                var = next_var
                next_var += 1
                entries.append((var, eff_count, usage))
                hop_level[var] = split[0] + split[1]
                class_size[var] = eff_count
        vlb_vars.append(entries)

    num_vars = next_var

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    b_ub: List[float] = []
    row = 0

    def add(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # Channel capacity rows (lazily created: only channels actually used).
    channel_row: Dict[int, int] = {}

    def channel_row_of(idx: int) -> int:
        nonlocal row
        r = channel_row.get(idx)
        if r is None:
            r = row
            row += 1
            channel_row[idx] = r
            b_ub.append(1.0)
        return r

    for k, (s, d, _w) in enumerate(pairs):
        stats = pair_stats(s, d)
        for idx, uses in stats.min_usage.items():
            add(channel_row_of(idx), var_x(k), uses)
        for var, _count, usage in vlb_vars[k]:
            for idx, uses in usage.items():
                add(channel_row_of(idx), var, uses)

    # Injection / ejection capacity: lambda * demand_row_sum <= p.
    inj = demand.sum(axis=1)
    ej = demand.sum(axis=0)
    for s in range(topo.num_switches):
        if inj[s] > 0:
            add(row, var_lambda, float(inj[s]))
            b_ub.append(float(topo.p))
            row += 1
        if ej[s] > 0:
            add(row, var_lambda, float(ej[s]))
            b_ub.append(float(topo.p))
            row += 1

    # Monotonicity rows (free mode): per-path rate of a longer class never
    # exceeds that of a shorter class of the same pair.
    if mode == "free" and monotonic:
        for entries in vlb_vars:
            levels = sorted({hop_level[v] for v, _, _ in entries})
            by_level: Dict[int, List[int]] = {}
            for v, _, _ in entries:
                by_level.setdefault(hop_level[v], []).append(v)
            for lo, hi in zip(levels, levels[1:]):
                for v_long in by_level[hi]:
                    for v_short in by_level[lo]:
                        # y_long/N_long - y_short/N_short <= 0
                        add(row, v_long, 1.0 / class_size[v_long])
                        add(row, v_short, -1.0 / class_size[v_short])
                        b_ub.append(0.0)
                        row += 1

    a_ub = coo_matrix((vals, (rows, cols)), shape=(row, num_vars))

    # Equality: x_k + sum(vlb vars) - w_k * lambda = 0.
    e_rows: List[int] = []
    e_cols: List[int] = []
    e_vals: List[float] = []
    for k, (s, d, w) in enumerate(pairs):
        e_rows.append(k)
        e_cols.append(var_x(k))
        e_vals.append(1.0)
        for var, _count, _usage in vlb_vars[k]:
            e_rows.append(k)
            e_cols.append(var)
            e_vals.append(1.0)
        e_rows.append(k)
        e_cols.append(var_lambda)
        e_vals.append(-w)
    a_eq = coo_matrix((e_vals, (e_rows, e_cols)), shape=(num_pairs, num_vars))
    b_eq = np.zeros(num_pairs)

    c = np.zeros(num_vars)
    c[var_lambda] = -1.0
    bounds = [(0.0, 1.0)] + [(0.0, None)] * (num_vars - 1)

    res = linprog(
        c,
        A_ub=a_ub.tocsr(),
        b_ub=np.asarray(b_ub),
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - defensive
        return ModelResult(0.0, 0.0, res.message, num_pairs)

    lam = float(res.x[var_lambda])
    x_total = float(sum(res.x[var_x(k)] for k in range(num_pairs)))
    served = float(sum(lam * w for _s, _d, w in pairs))
    min_frac = x_total / served if served > 0 else 1.0
    return ModelResult(lam, min_frac, "optimal", num_pairs)
