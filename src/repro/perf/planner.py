"""Batch planning: group compatible sweep payloads into batched units.

:class:`BatchPlanner` sits between :class:`~repro.perf.executor.
SweepExecutor`'s cache-miss list and its worker fan-out.  It partitions
the pending payloads into *units* -- either a single payload executed by
the ordinary single-run path, or a group of compatible MIN-routed
:class:`~repro.spec.RunSpec` payloads executed by one
:func:`~repro.sim.batch.simulate_batch` call.

Batching no longer saves time: ``simulate_batch`` runs its members one
after another through the single-run engine, because the kernel's
native route decisions made a plain ``simulate()`` faster than the old
lockstep driver (see :mod:`repro.sim.batch`).  Every run of a unit is
bit-identical to its single-run result, keeps its own RunSpec
fingerprint and cache entry, and emits its own trace/progress events.
The planner stays, with the rest of the layer, until the benchmark
edit that stops ``perfbench/spans.py`` wrapping it (ROADMAP item 2).

* eligible payloads are declarative ``RunSpec``s, uninstrumented
  (``params.obs is None``), and MIN-routed -- the only payloads
  ``simulate_batch`` accepts;
* eligible payloads group by (topology, routing, policy) -- the
  compatibility contract of ``simulate_batch``; seed, load, pattern and
  measurement windows may differ within a group;
* groups chunk to :data:`DEFAULT_MAX_BATCH` runs and -- when the
  executor runs a process pool -- spread so every worker gets work
  instead of one worker hoarding a giant batch.

The native-kernel check lives in ``simulate_batch`` itself (workers may
see a different toolchain than the parent); a unit that raises
:class:`~repro.sim.batch.BatchUnsupported` falls back to per-run
execution inside the worker, so planning is always safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.spec import RunSpec

__all__ = ["DEFAULT_MAX_BATCH", "BatchPlanner", "BatchUnit"]

DEFAULT_MAX_BATCH = 16


@dataclass
class BatchUnit:
    """One executor work item: indices into the planned payload list."""

    indices: List[int]
    batched: bool


class BatchPlanner:
    """Partition pending payloads into single-run and batched units."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, jobs)

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(payload: object) -> bool:
        """Can (and should) this payload join a batched unit?"""
        if not isinstance(payload, RunSpec):
            return False
        if payload.params.obs is not None:
            return False
        return payload.routing.lower() == "min"

    @staticmethod
    def _group_key(payload: RunSpec) -> Tuple:
        from repro.spec import canonical_json

        return (
            canonical_json(payload.topology.to_dict()),
            payload.routing.lower(),
            canonical_json(payload.policy.to_dict())
            if payload.policy is not None
            else None,
        )

    def plan(self, payloads: Sequence) -> List[BatchUnit]:
        """Partition ``payloads`` into units covering each index once.

        Unit order follows first appearance: ineligible payloads keep
        their one-payload-per-unit place in the original order.
        """
        groups: Dict[Tuple, List[int]] = {}
        order: List[Tuple[int, BatchUnit]] = []
        for i, payload in enumerate(payloads):
            if self.eligible(payload):
                groups.setdefault(self._group_key(payload), []).append(i)
            else:
                order.append((i, BatchUnit([i], batched=False)))
        # repro: allow[DET102]: groups is keyed in first-payload order
        # (deterministic), and the final sort below orders units by
        # first index regardless of grouping order
        for indices in groups.values():
            cap = DEFAULT_MAX_BATCH
            if self.jobs > 1:
                # spread the group across the pool: a single giant unit
                # would serialize on one worker while the rest idle
                cap = min(cap, max(1, math.ceil(len(indices) / self.jobs)))
            for start in range(0, len(indices), cap):
                chunk = indices[start:start + cap]
                order.append(
                    (chunk[0], BatchUnit(chunk, batched=len(chunk) > 1))
                )
        order.sort(key=lambda item: item[0])
        return [unit for _first, unit in order]
