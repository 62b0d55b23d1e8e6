"""The three benchmark workloads, each split into set-up and timed body.

A workload object is built from the workload seed alone; the program
only ever sees the specs generated here.  ``setup()`` does the one-time
per-process work a user pays before the first result (imports, topology,
patterns, policies, native-kernel load, executor and cache creation);
``body()`` is the timed part and calls the program through module
attributes, so the span wrappers of ``spans.py`` see every call.
``outputs()`` turns the results into one comparable value per unit:
a SHA-256 of the exact ``SimResult`` fields for simulations, the
throughput float for LP solves.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

# fixed workload shapes (changing any of these invalidates references/)
FIG06_LOADS = (0.1, 0.3)  # below and near shift(2,0) saturation
FIG06_WINDOW = 40
MIN_UR_LOADS = (0.2, 0.4, 0.6, 0.8)
MIN_UR_LADDERS = 2
MIN_UR_WINDOW = 100
TVLB_NUM_TYPE1 = 3
TVLB_NUM_TYPE2 = 2
TVLB_STEP = 0.25
TVLB_MAX_DESCRIPTORS = 2000  # compute_tvlb's default


def sim_digest(result) -> str:
    """SHA-256 over every measured field of a ``SimResult`` (no manifest)."""
    from repro.perf.cache import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _load_native_kernel() -> bool:
    from repro.sim.array.native import load_kernel

    return load_kernel() is not None


class Workload:
    """Shared shape: per-unit ids, times, outputs and errors."""

    exact = True  # outputs compare exactly (else within LP_TOLERANCE)

    def __init__(self, seed: int, cache_dir: str) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self.unit_times: List[float] = []
        self.errors: List[str] = []
        self.native = False
        self.cache = None

    def unit_ids(self) -> List[str]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def body(self) -> None:
        raise NotImplementedError

    def outputs(self) -> List[Optional[object]]:
        """One value per unit id; ``None`` marks a unit that raised."""
        raise NotImplementedError

    def work(self) -> float:
        """Simulated cycles (sim workloads) or LP solves (tvlb_step1)."""
        raise NotImplementedError

    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    def _time_units(self, owner: object, attr: str) -> None:
        """Record the host time of every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        times = self.unit_times

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock() - start)

        setattr(owner, attr, timed)

    def _executor(self):
        from repro.perf.cache import SimCache
        from repro.perf.executor import SweepExecutor

        self.cache = SimCache(self.cache_dir)
        return SweepExecutor(jobs=1, cache=self.cache)


class Fig06Adv(Workload):
    """Figure 6: shift(2,0), UGAL-L/T-UGAL-L/PAR/T-PAR on dfly(4,8,4,9)."""

    def setup(self) -> None:
        import repro.sim.sweep as sweep
        from repro.experiments.figures import curve_suite, tvlb_policy_for
        from repro.sim import SimParams
        from repro.topology import default_dragonfly
        from repro.traffic import Shift

        self.native = _load_native_kernel()
        topo = default_dragonfly()
        # exactly run_figure("fig06")'s suite, at a fixed window and seed
        self.suite = curve_suite(
            "fig06",
            topo,
            lambda t, seed: Shift(t, 2, 0),
            FIG06_LOADS,
            ["ugal-l", "par"],
            params=SimParams(window_cycles=FIG06_WINDOW),
            policy=tvlb_policy_for(topo),
            seeds=(self.seed,),
        )
        self.results: List[Optional[list]] = []
        self._time_units(sweep, "simulate")  # unit = one simulate() point

    def unit_ids(self) -> List[str]:
        return [
            f"{sw.label}@{load:g}"
            for sw in self.suite.sweeps
            for load in sw.loads
        ]

    def body(self) -> None:
        import repro.experiments.figures as figures
        from repro.spec import SuiteSpec

        # run_suite() one sweep at a time, so a raising sweep fails only
        # its own points and the rest still run
        for sw in self.suite.sweeps:
            try:
                curves = figures.run_suite(SuiteSpec(self.suite.name, (sw,)))
                self.results.append(curves[sw.label][0].results)
            except Exception as exc:  # recorded as failed units
                self.errors.append(f"{sw.label}: {exc!r}")
                self.results.append(None)

    def outputs(self) -> List[Optional[object]]:
        out: List[Optional[object]] = []
        for sw, results in zip(self.suite.sweeps, self.results):
            for i in range(len(sw.loads)):
                if results is None:
                    out.append(None)
                elif i < len(results):
                    out.append(sim_digest(results[i]))
                else:
                    out.append("not run: ladder stopped at saturation")
        return out

    def work(self) -> float:
        return float(sum(
            r.manifest.engine_cycles
            for results in self.results if results
            for r in results
        ))


class MinUrSweep(Workload):
    """MIN routing, uniform random traffic, batched load ladders."""

    def setup(self) -> None:
        from repro.sim import SimParams
        from repro.spec import PatternSpec, SweepSpec, TopologySpec
        from repro.topology import default_dragonfly

        self.native = _load_native_kernel()
        topo_spec = TopologySpec.of(default_dragonfly())
        params = SimParams(window_cycles=MIN_UR_WINDOW)
        self.specs = [
            SweepSpec(
                topology=topo_spec,
                pattern=PatternSpec.make("ur"),
                loads=MIN_UR_LOADS,
                routing="min",
                policy=None,
                params=params,
                seed=MIN_UR_LADDERS * self.seed + i,
                label="MIN",
            )
            for i in range(MIN_UR_LADDERS)
        ]
        self.executor = self._executor()
        self.results: List[Optional[list]] = []

    def unit_ids(self) -> List[str]:
        return [f"MIN ur seed={spec.seed}" for spec in self.specs]

    def body(self) -> None:
        import repro.sim.sweep as sweep

        for spec in self.specs:  # unit = one SweepSpec ladder
            start = clock()
            try:
                ladder = sweep.latency_vs_load(spec, executor=self.executor)
                self.results.append(ladder.results)
            except Exception as exc:  # recorded as a failed unit
                self.errors.append(f"seed={spec.seed}: {exc!r}")
                self.results.append(None)
            self.unit_times.append(clock() - start)

    def outputs(self) -> List[Optional[object]]:
        return [
            None if results is None
            else hashlib.sha256(
                "".join(sim_digest(r) for r in results).encode()
            ).hexdigest()
            for results in self.results
        ]

    def work(self) -> float:
        # the executor simulates every load of a ladder (truncation after
        # a saturated point happens afterwards)
        return float(sum(
            len(spec.loads) * spec.params.total_cycles
            for spec, results in zip(self.specs, self.results)
            if results is not None
        ))


class TvlbStep1(Workload):
    """Algorithm 1, Step 1: the Table-1 LP sweep, cold FastModel."""

    exact = False

    def setup(self) -> None:
        import numpy as np

        import repro.model.fastpath as fastpath
        from repro.topology import default_dragonfly

        self.native = _load_native_kernel()
        topo = default_dragonfly()
        # the pattern suite and grid exactly as compute_tvlb() draws them
        rng = np.random.default_rng(self.seed)
        t1, t2 = topo.adversary_suite(
            num_type2=TVLB_NUM_TYPE2, seed=self.seed
        )
        idx = rng.choice(len(t1), size=TVLB_NUM_TYPE1, replace=False)
        self.topo = topo
        self.patterns = [t1[i] for i in sorted(idx)] + list(t2)
        self.grid = topo.tvlb_datapoints(step=TVLB_STEP, seed=self.seed)
        self.executor = self._executor()
        self.points: Optional[list] = None
        self._time_units(fastpath.FastModel, "solve")  # unit = one LP solve

    def unit_ids(self) -> List[str]:
        return [
            f"{dp.describe()} | {pat.describe()}"
            for dp in self.grid
            for pat in self.patterns
        ]

    def body(self) -> None:
        import repro.model.sweep as model_sweep

        try:
            self.points = model_sweep.step1_sweep(
                self.topo,
                self.patterns,
                self.grid,
                max_descriptors=TVLB_MAX_DESCRIPTORS,
                mode="free",
                engine="fast",
                executor=self.executor,
                seed=self.seed,
            )
        except Exception as exc:  # every solve of the sweep fails
            self.errors.append(repr(exc))

    def outputs(self) -> List[Optional[object]]:
        if self.points is None:
            return [None] * (len(self.grid) * len(self.patterns))
        return [v for pt in self.points for v in pt.per_pattern]

    def work(self) -> float:
        return float(len(self.unit_times))


# workload -> (class, name of its work-rate metric: work() per host second)
WORKLOADS: Dict[str, Tuple[Callable[[int, str], Workload], str]] = {
    "fig06_adv": (Fig06Adv, "sim_cycles_per_s"),
    "min_ur_sweep": (MinUrSweep, "sim_cycles_per_s"),
    "tvlb_step1": (TvlbStep1, "lp_solves_per_s"),
}
