"""One benchmark repeat, in a fresh process.

Run by ``run.py`` (never by hand): sets the workload up, times its body,
and writes one JSON record to ``--out``.  A fresh process per repeat
means cold per-process memos (FastModel solver memo, batch MIN route
table, path-sampling memo), and ``--cache-dir`` is a fresh, empty
``SimCache`` directory, so no repeat can read another's results.

The host-speed probe of ``calibrate.py`` is timed right before and
right after the body (outside both ``setup_s`` and ``wall_s``).

``--warmup`` only imports the package and loads the native kernel,
compiling it into its cache on first use; nothing is timed.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cache-dir")
    ap.add_argument("--out")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args()

    if args.warmup:
        # byte-compile every module the workloads import, so the first
        # timed repeat does not pay for it
        import repro.experiments.figures  # noqa: F401
        import repro.model.fastpath  # noqa: F401
        import repro.perf.executor  # noqa: F401
        import repro.sim.batch  # noqa: F401
        import spans  # noqa: F401
        import workloads  # noqa: F401
        from repro.sim.array.native import load_kernel

        return 0 if load_kernel() is not None else 3

    import spans
    from workloads import WORKLOADS

    probe = spans.Probe()
    spans.install_probe(probe)
    recorder = None
    if args.trace:
        recorder = spans.Spans()
        spans.install_spans(recorder)

    factory, _rate_name = WORKLOADS[args.workload]
    wl = factory(args.seed, args.cache_dir)
    wl.setup()
    setup_s = time.perf_counter() - T0

    import calibrate  # after set-up: its numpy import is not set-up work

    calibration_s = [calibrate.probe_seconds()]
    root = recorder.open("bench.body") if recorder is not None else -1
    start = time.perf_counter()
    wl.body()
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.close(root)
    # ru_maxrss is in KiB on Linux; read before the probe can raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s.append(calibrate.probe_seconds())

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "traced": bool(args.trace),
        "unit_ids": wl.unit_ids(),
        "outputs": wl.outputs(),
        "errors": wl.errors,
        "unit_times": wl.unit_times,
        "work": wl.work(),
        "cache_hits": wl.cache_hits(),
        "native_kernel": wl.native,
        "probe": probe.to_dict(),
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        record["layers"] = spans.layer_metrics(recorder, root)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
