"""End-to-end benchmark: one workload, repeated in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig06_adv --seed 1 --seconds 32 --trace 0

Each repeat is a fresh ``perfbench/repeat.py`` process with an empty
``SimCache`` directory; repeats run one after another (one process,
``SweepExecutor(jobs=1)``, single-threaded BLAS) until ``--seconds``
would be exceeded, and at least ``MIN_REPEATS`` times if that fits in
``MAX_RUN_FACTOR`` times ``--seconds``.  ``--trace 1``
alternates untraced and traced repeats and reports the per-layer
metrics of the traced ones plus the tracing overhead.

Every unit's output is compared with the committed reference for the
seed (``perfbench/references/<workload>/seed-<n>.json``, written only by
``make_reference.py``).  A mismatch or an exception counts as a failed
unit and the run goes on.  The run is also marked invalid when a cache
hit occurs, when the native kernel does not load, when an array network
runs without it, or (traced) when layer self-times leave more than
``LAYER_GAP_TOL`` of the body unaccounted.

The metrics and their units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace 1``).  Everything above it is the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_REPEATS = 4  # untraced repeats per untraced run
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per traced run
MAX_RUN_FACTOR = 1.25  # a run may overshoot --seconds to reach the minimum
LOOP_CAP_S = 150.0  # never start a repeat that could end past this
FIRST_BUILD_TIMEOUT_S = 900.0
LAYER_GAP_TOL = 0.03
LP_TOLERANCE = 1e-9
P90_MIN_TAIL = 10  # report a p90 only with >= 10 samples beyond it
RATE_UNITS = {"sim_cycles_per_s": "cycles/s", "lp_solves_per_s": "solves/s"}

clock = time.perf_counter


def build_dir(root: str) -> str:
    return os.path.join(root, ".bench_build", "perfbench")


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(HERE, "references", workload, f"seed-{seed}.json")


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    for knob in ("REPRO_JOBS", "REPRO_BATCH", "REPRO_ARRAYNET_NATIVE"):
        env.pop(knob, None)  # measure the defaults a user gets
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        REPRO_ARRAYNET_CACHE=os.path.join(build_dir(root), "arraynet"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def warm_up(root: str, env: Dict[str, str]) -> bool:
    """Byte-compile and load (or build) the native kernel, untimed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "repeat.py"), "--warmup"],
        cwd=root, env=env, timeout=FIRST_BUILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def run_repeat(
    root: str, env: Dict[str, str], workload: str, seed: int,
    traced: bool, index: int, timeout: float,
) -> Tuple[Optional[dict], str]:
    """One fresh-process repeat; returns (record or None, error text)."""
    work = os.path.join(build_dir(root), f"run-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "record.json")
    try:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "repeat.py"),
                "--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced)),
                "--cache-dir", os.path.join(work, "cache"), "--out", out,
            ],
            cwd=root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"exit {proc.returncode}: {' | '.join(tail)}"
        with open(out) as fh:
            return json.load(fh), ""
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_reference(workload: str, seed: int) -> Optional[dict]:
    try:
        with open(reference_path(workload, seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def failed_units(
    record: dict, expected: List[Tuple[str, object]], exact: bool
) -> List[str]:
    """Ids of units that raised or differ from ``expected``."""
    ids, outputs = record["unit_ids"], record["outputs"]
    if [uid for uid, _v in expected] != ids or len(outputs) != len(ids):
        return list(ids) or ["<no units>"]
    bad = []
    for uid, got, (_uid, want) in zip(ids, outputs, expected):
        if got is None:
            bad.append(uid)
        elif exact or not isinstance(got, float):
            if got != want:
                bad.append(uid)
        elif not isinstance(want, float) or abs(got - want) > LP_TOLERANCE:
            bad.append(uid)
    return bad


def git_state(root: str) -> Dict[str, object]:
    def git(*argv: str) -> str:
        proc = subprocess.run(
            ["git", *argv], cwd=root, capture_output=True, text=True,
            timeout=20,
        )
        return proc.stdout.strip() if proc.returncode == 0 else ""

    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or os.path.realpath(top) != os.path.realpath(root):
            return {"commit": None, "dirty": None}  # not a git checkout
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(dirty)}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def versions() -> Dict[str, object]:
    out: Dict[str, object] = {
        "cpus": os.cpu_count(), "python": platform.python_version(),
    }
    for mod in ("numpy", "scipy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    return out


def median(values: List[float]) -> float:
    # 0.0 (never NaN, which is not JSON) when every repeat crashed; such a
    # run is already marked invalid
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
def collect(args, root: str, env: Dict[str, str]) -> Tuple[List[dict], List[str]]:
    """Run repeats until the time budget is spent; (records, errors).

    Repeats continue while the next one (estimated by the longest so far)
    fits in ``--seconds``, and beyond that until ``MIN_REPEATS`` (or
    ``MIN_TRACED_PAIRS``) are done -- but never past ``MAX_RUN_FACTOR``
    times ``--seconds``, so a slow host gets fewer samples, not a run
    that overshoots its time budget.
    """
    records: List[dict] = []
    errors: List[str] = []
    cap = min(LOOP_CAP_S, MAX_RUN_FACTOR * args.seconds)
    start = clock()
    longest = 0.0
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        elapsed = clock() - start
        if args.trace:
            done = index % 2 == 0 and index // 2 >= MIN_TRACED_PAIRS
        else:
            done = index >= MIN_REPEATS
        if done and elapsed + longest > args.seconds:
            break
        if index and elapsed + longest > cap and not traced:
            break
        t0 = clock()
        record, err = run_repeat(
            root, env, args.workload, args.seed, traced, index,
            timeout=max(10.0, LOOP_CAP_S + 20.0 - elapsed),
        )
        longest = max(longest, clock() - t0)
        if record is None:
            errors.append(f"repeat {index}: {err}")
        else:
            records.append(record)
        index += 1
    return records, errors


def host_speed(records: List[dict]) -> float:
    """Host speed during ``records`` relative to the reference host.

    Above 1 is faster.  The probe times of all the records are pooled:
    the drift this corrects is slow (minutes), while a single probe is
    as noisy as the body it brackets.
    """
    probes = [t for r in records for t in r["calibration_s"]]
    return REFERENCE_S / median(probes) if probes else 0.0


def e2e_metrics(
    records: List[dict], rate_name: str
) -> Dict[str, Tuple[float, str, int]]:
    """End-to-end metric -> (median value, unit, sample count).

    Only the metrics listed in ``BENCHMARK.json`` reach the JSON line; the
    rest (raw host times, host speed, work rate, per-unit percentiles)
    are printed.  The gated times are scaled to the reference host speed.
    """
    plain = [r for r in records if not r["traced"]]
    units = [t for r in plain for t in r["unit_times"]]
    per_unit = units
    if plain and len({len(r["unit_times"]) for r in plain}) == 1:
        # each unit's median over repeats first: units differ in size, so
        # a pooled median would jump between neighbouring units' extremes
        per_unit = [
            median(list(ts))
            for ts in zip(*(r["unit_times"] for r in plain))
        ]
    n = len(plain)
    wall = median([r["wall_s"] for r in plain])
    setup = median([r["setup_s"] for r in plain])
    speed = host_speed(plain)
    out = {
        "wall_s": (wall * speed, "s", n),
        "setup_s": (setup * speed, "s", n),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB", n),
        "wall_host_s": (wall, "s", n),
        "setup_host_s": (setup, "s", n),
        "host_speed": (speed, "ratio", 2 * n),
        rate_name: (
            median([r["work"] / r["wall_s"] for r in plain]),
            RATE_UNITS[rate_name], n,
        ),
        "unit_p50_s": (median(per_unit), "s", len(units)),
    }
    if len(units) * 0.1 >= P90_MIN_TAIL:
        out["unit_p90_s"] = (
            statistics.quantiles(units, n=10)[-1], "s", len(units)
        )
    return out


def layer_metrics(
    records: List[dict], units: Dict[str, str]
) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metric -> (median over traced repeats, unit, count)."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {
        name: (
            median([r["layers"][name] for r in traced]), units[name],
            len(traced),
        )
        for name in (traced[0]["layers"] if traced else {})
    }
    if traced and plain:
        out["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced]) * host_speed(traced)
            / (median([r["wall_s"] for r in plain]) * host_speed(plain))
            - 1.0,
            units["trace.overhead_frac"], min(len(traced), len(plain)),
        )
    return out


def validate(
    args, records: List[dict], errors: List[str]
) -> Tuple[int, int, List[str], str]:
    """(attempted, failed, problems, reference status)."""
    exact = WORKLOADS[args.workload][0].exact
    ref = load_reference(args.workload, args.seed)
    if ref is not None:
        expected = [(u["id"], u["value"]) for u in ref["units"]]
        path = os.path.relpath(reference_path(args.workload, args.seed))
        status = f"committed ({path})"
    elif records:
        # no reference for this seed: every repeat must agree with the first
        expected = list(zip(records[0]["unit_ids"], records[0]["outputs"]))
        status = ("MISSING -- only cross-repeat agreement checked; "
                  "run make_reference.py for this seed")
    else:
        expected, status = [], "unchecked"
    problems = list(errors)
    # a crashed repeat (one error each) fails every unit it should have run
    attempted = failed = len(errors) * max(len(expected), 1)
    for i, r in enumerate(records):
        bad = failed_units(r, expected, exact)
        attempted += max(len(r["unit_ids"]), 1)
        failed += len(bad)
        if bad:
            problems.append(f"repeat {i}: {len(bad)} failed units, e.g. {bad[0]}")
        problems += [f"repeat {i}: {e}" for e in r["errors"]]
        hits = r["cache_hits"] + r.get("layers", {}).get("perf.cache_hits", 0)
        if hits:
            problems.append(f"repeat {i}: {hits} cache hits (cold run required)")
        if not r["native_kernel"]:
            problems.append(f"repeat {i}: native kernel not loaded")
        for net in r["probe"]["networks"]:
            if net.startswith("ArrayNetwork/") and net != "ArrayNetwork/native":
                problems.append(f"repeat {i}: {net} ran (not the native kernel)")
        gap = r.get("layers", {}).get("trace.layer_gap_frac", 0.0)
        if abs(gap) > LAYER_GAP_TOL:
            problems.append(
                f"repeat {i}: layer self-times leave {gap:.1%} of traced "
                f"wall_s unaccounted (tolerance {LAYER_GAP_TOL:.0%})"
            )
    return attempted, failed, problems, status


def report(args, spec: dict, records, attempted, failed, problems, status,
           root: str) -> dict:
    """Print the human-readable report; return the JSON ``metrics``."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = layer_metrics(
            records, {m["name"]: m["unit"] for m in spec["per_layer"]}
        )
    else:
        values = e2e_metrics(records, WORKLOADS[args.workload][1])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(records)} (fresh process + empty cache each)")
    prov = {**git_state(root), **versions()}
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for i, r in enumerate(records):
        print(f"  repeat {i}: traced={int(r['traced'])} setup={r['setup_s']:.3f}s "
              f"wall={r['wall_s']:.3f}s units={len(r['unit_ids'])} "
              f"native={r['native_kernel']} cache_hits={r['cache_hits']} "
              f"networks={r['probe']['networks']} "
              f"batch_ran={r['probe']['batch_ran']} "
              f"batch_unsupported={r['probe']['batch_unsupported']}")
    print(f"reference: {status}")
    values.setdefault("failed_ops_frac", (failed / attempted, "ratio", attempted))
    for name, (value, unit, n) in values.items():
        print(f"  {name:34s} {value:14.6g} {unit:9s} n={n}")
    if not args.trace and "unit_p90_s" not in values:
        print("  unit_p90_s: not reported (fewer than 10 units beyond p90)")
    for problem in problems:
        print(f"INVALID: {problem}")
    return {
        m["name"]: {"value": values.get(m["name"], (0.0,))[0], "unit": m["unit"]}
        for m in listed
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = child_env(root)
    os.makedirs(build_dir(root), exist_ok=True)
    if not warm_up(root, env):
        print("perfbench: warm-up failed (import or native kernel build)",
              file=sys.stderr)
        return 3
    records, errors = collect(args, root, env)
    attempted, failed, problems, status = validate(args, records, errors)
    metrics = report(args, spec, records, attempted, failed, problems,
                     status, root)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
