"""Multi-run entry point for the executor's batched MIN units.

``simulate_batch([spec, ...])`` runs every MIN-routed :class:`RunSpec`
of one :class:`~repro.perf.planner.BatchPlanner` unit and returns, in
spec order, results **bit-identical** to ``simulate(spec)``; each
manifest also records the unit's size and the run's slot in it
(``RunManifest.batch_size``/``batch_slot``, environment fields).

The runs go one after another through the single-run engine.  They used
to advance in lockstep -- one ``repro_step_batch`` kernel call per cycle
for the whole batch, a shared MIN candidate table and a vectorized
injection path -- but once the kernel makes the route decisions itself,
a plain ``simulate()`` is faster than that driver: on dfly(4,8,4,9),
MIN, load 1.0, window 150, lockstep ran at 0.24x of sequential single
runs at B=8, and still at 0.68x with the kernel routing each member,
because eight interleaved networks share the CPU cache.

What remains of the layer (this module, the planner, the executor's
unit plumbing, ``repro_step_batch`` and the manifest fields) goes
together with the benchmark edit that stops ``perfbench/spans.py``
wrapping it (ROADMAP item 2).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

# perfbench/spans.py wraps these two names of this module
from repro.sim.array import ArrayNetwork  # noqa: F401
from repro.sim.array.native import load_kernel
from repro.sim.routing import make_routing  # noqa: F401
from repro.sim.stats import SimResult

__all__ = ["BatchUnsupported", "simulate_batch"]


class BatchUnsupported(RuntimeError):
    """This batch cannot take the batched path (caller should fall back
    to per-run ``simulate()``; results are identical either way)."""


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
    on_result: Optional[Callable[[int, SimResult], None]] = None,
) -> List[SimResult]:
    """Run every MIN ``RunSpec`` in ``specs`` on the array engine.

    Returns results in spec order, each bit-identical to
    ``simulate(spec)``.  Raises :class:`BatchUnsupported` when the batch
    cannot take this path (non-spec payloads, non-MIN routing, mixed
    topology/routing, observability-instrumented runs, or no native
    kernel); callers fall back to per-run ``simulate()``.
    ``on_result(index, result)`` fires as each run completes.
    """
    specs = list(specs)
    if not specs:
        return []
    _check_compatible(specs)
    if load_kernel() is None:
        raise BatchUnsupported(
            "native array kernel unavailable on this host"
        )
    results: List[SimResult] = []
    for slot, spec in enumerate(specs):
        result = spec.run()
        result.manifest.batch_size = len(specs)
        result.manifest.batch_slot = slot
        results.append(result)
        if on_result is not None:
            on_result(slot, result)
    return results
