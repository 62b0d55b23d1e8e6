"""Cycle-engine microbenchmark: array engine vs the timing-wheel engine.

Times ``step()`` only (deliver / crossbar / transmit), MIN routing at
saturating load, interleaved wheel/array runs with best-of-N per engine
-- the same protocol ``python -m repro bench`` uses for the
``array_microbench`` record of ``BENCH_sim.json``.  Asserts the two
engines agree bit for bit and, when the native kernel loads, that the
array engine is faster.
"""

import os

from repro.perf.bench import bench_array

WINDOW = int(os.environ.get("REPRO_WINDOW", "600"))


def test_array_microbench(benchmark):
    record = benchmark.pedantic(
        bench_array,
        kwargs={"window_cycles": WINDOW, "repeats": 3},
        rounds=1,
        iterations=1,
    )
    print()
    if record.get("skipped"):
        print(f"array: skipped ({record['skipped']})")
    else:
        print(
            f"array ({record['backend']}): "
            f"{record['baseline_cycles_per_sec']:.0f} -> "
            f"{record['optimized_cycles_per_sec']:.0f} cycles/s "
            f"({record['speedup']:.2f}x)"
        )
    assert record["identical_results"], "engines diverged"
    if record["backend"] == "native":
        assert record["speedup"] > 1.0
