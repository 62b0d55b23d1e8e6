"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``topo``   -- build and validate a topology, print its parameters
* ``paths``  -- MIN paths and the VLB hop-class histogram of a switch pair
* ``bounds`` -- closed-form capacity bounds
* ``model``  -- LP modeled throughput for a pattern and candidate set
  (``--engine fast|legacy`` picks the factored fast path or the
  original assembly; ``--jobs/--cache`` batch and memoize solves)
* ``sim``    -- one simulation run at a fixed load
* ``sweep``  -- a latency-vs-load ladder (``--jobs N`` fans the points
  out over worker processes; ``--cache`` reuses on-disk results)
* ``adversary`` -- search for worst-case traffic patterns beyond the
  paper's suites (``repro.adversary``); ``--out file.json`` saves the
  winner as a pattern spec usable via ``--pattern @file.json``
* ``tvlb``   -- run Algorithm 1 and print the chosen T-VLB
* ``verify`` -- static deadlock-freedom certification + path-set lint
* ``analyze`` -- AST static analysis of the repro tree itself:
  determinism, cache-identity, and registry-hygiene rules
  (``--baseline``, ``--fail-on``, ``--update-snapshot``)
* ``figure`` -- regenerate one of the paper's tables/figures
* ``bench``  -- engine/sweep performance benchmarks (``BENCH_sim.json``)
* ``obs``    -- summarize or export recorded traces (``repro.obs``):
  ``obs summarize trace.jsonl`` prints task/cache/engine aggregates,
  ``obs export trace.jsonl --out trace.json`` writes a Chrome
  ``trace_event`` file for ``chrome://tracing`` / Perfetto

``-v/--verbose`` (before the subcommand) attaches a stderr handler to
the ``repro`` logger (``-vv`` for debug); ``sweep --trace/--sample-every
/--progress`` records executor lifecycles and engine timeline samples.

Specification mini-languages (parsed by the ``repro.spec`` registries,
so the CLI and the Python API accept the same strings and raise the same
errors; ``python -c "from repro.spec import TRAFFIC_REGISTRY;
print(TRAFFIC_REGISTRY.help_text())"`` prints the live table):

==========  ===============================================================
topology    ``--topology P,A,H,G`` (e.g. ``4,8,4,9``) |
            ``dfly:P,A,H,G`` | ``cascade:P,A,H,G,ROWS,COLS`` |
            ``full-mesh:N[,P]``
pattern     ``ur`` | ``shift:DG[,DS]`` | ``perm[:SEED]`` |
            ``type2[:SEED]`` | ``mixed:UR,ADV[,SEED]`` |
            ``tmixed:UR,ADV[,SEED]`` |
            ``@file.json`` (a pattern saved by ``adversary --out``)
policy      ``all`` | ``hopclass:L[,FRAC]`` | ``strategic:2+3|3+2`` |
            ``@file.json`` (a policy saved by ``tvlb --save``)
routing     ``min`` | ``vlb`` | ``ugal-l`` | ``ugal-g`` | ``par``, plus
            ``t-`` forms of the policy-accepting variants
            (``t-ugal-l``, ``t-ugal-g``, ``t-par``)
==========  ===============================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.spec import PatternSpec, PolicySpec, SpecError, TopologySpec
from repro.topology import Dragonfly, validate_topology

__all__ = [
    "main",
    "parse_loads",
    "parse_pattern",
    "parse_policy",
    "parse_routing",
    "parse_topology",
]


def parse_topology(spec: str, arrangement: str = "absolute") -> Dragonfly:
    try:
        return TopologySpec.parse(spec, arrangement).build()
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def parse_routing(variant: str) -> str:
    """Validate a routing-variant name with the registry's error text.

    The CLI pairs T- variants with a default ``all`` policy, so only the
    name is checked here; the policy-presence rule is enforced by
    ``resolve_routing`` at simulation time.
    """
    from repro.spec import resolve_routing

    try:
        resolve_routing(variant)
    except SpecError as exc:
        raise SystemExit(str(exc)) from None
    return variant.lower()


def parse_pattern(topo: Dragonfly, spec: str):
    try:
        return PatternSpec.parse(spec).build(topo)
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def parse_policy(spec: Optional[str]):
    try:
        return PolicySpec.parse(spec if spec is not None else "all").build()
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def parse_loads(spec: str) -> List[float]:
    """``0.05,0.1,0.2`` (explicit) or ``0.05:0.4:8`` (lo:hi:count)."""
    try:
        if ":" in spec:
            lo_s, hi_s, n_s = spec.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if n < 1:
                raise ValueError
            if n == 1:
                return [lo]
            step = (hi - lo) / (n - 1)
            return [lo + step * i for i in range(n)]
        return [float(x) for x in spec.split(",") if x]
    except ValueError:
        raise SystemExit(
            f"bad loads spec {spec!r}: use L1,L2,... or LO:HI:COUNT"
        )


def _make_executor(args, progress=None):
    """A SweepExecutor from common --jobs/--cache/--cache-dir flags.

    ``progress`` (a :class:`repro.obs.ProgressReporter`) is attached
    when the command asked for heartbeats; the executor's tracer is left
    unset so it picks up any active ``repro.obs.capture`` context.
    """
    from repro.perf import SimCache, SweepExecutor

    cache = None
    if getattr(args, "cache", False):
        cache = SimCache(getattr(args, "cache_dir", None))
    return SweepExecutor(
        jobs=getattr(args, "jobs", None), cache=cache, progress=progress,
    )


def _exec_args(p, jobs_default=None):
    """Attach the shared --jobs/--cache/--cache-dir flags to a parser."""
    p.add_argument("--jobs", type=int, default=jobs_default,
                   help="worker processes for independent simulation "
                        "points (default: $REPRO_JOBS or 1)")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="reuse simulation results from the on-disk cache "
                        "(--no-cache disables; default off)")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro-sim)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _cmd_topo(args) -> int:
    topo = parse_topology(args.topology, args.arrangement)
    stats = validate_topology(topo)
    print(f"{topo} [{args.arrangement}]")
    for key, value in {**topo.describe(), **stats}.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_paths(args) -> int:
    from repro.routing import min_paths, vlb_class_counts

    topo = parse_topology(args.topology, args.arrangement)
    src, dst = args.src, args.dst
    print(f"{topo}: switch {src} -> switch {dst}")
    paths = min_paths(topo, src, dst)
    print(f"MIN paths ({len(paths)}):")
    for p in paths:
        print(f"  {' -> '.join(map(str, p.switches))}  ({p.num_hops} hops)")
    counts = vlb_class_counts(topo, src, dst)
    total = sum(counts.values())
    print(f"VLB paths ({total}):")
    for hops in sorted(counts):
        print(f"  {hops}-hop: {counts[hops]}")
    return 0


def _cmd_bounds(args) -> int:
    from repro.model.bounds import (
        min_only_shift_bound,
        optimal_min_fraction,
        shift_saturation_bound,
        uniform_random_bound,
    )

    topo = parse_topology(args.topology, args.arrangement)
    print(f"{topo} capacity bounds (packets/cycle/node):")
    print(f"  shift, any MIN/VLB mix : {shift_saturation_bound(topo):.4f}")
    print(f"  shift, MIN only        : {min_only_shift_bound(topo):.4f}")
    print(f"  optimal MIN fraction   : {optimal_min_fraction(topo):.4f}")
    print(f"  uniform random (MIN)   : {uniform_random_bound(topo):.4f}")
    return 0


def _cmd_model(args) -> int:
    from repro.perf import ModelTask

    topo = parse_topology(args.topology, args.arrangement)
    pattern = parse_pattern(topo, args.pattern)
    policy = parse_policy(args.policy)
    task = ModelTask(
        topo=topo,
        pattern=pattern,
        policy=policy,
        mode=args.mode,
        monotonic=not args.no_monotonic,
        max_descriptors=args.max_descriptors,
        engine=args.engine,
    )
    with _make_executor(args) as executor:
        res = executor.run_models([task])[0]
    print(
        f"{topo} {pattern.describe()} policy={policy.describe()} "
        f"mode={args.mode} engine={args.engine}"
    )
    print(f"  modeled throughput : {res.throughput:.4f}")
    print(f"  MIN fraction       : {res.min_fraction:.4f}")
    print(f"  demand pairs       : {res.num_pairs}")
    return 0


def _cmd_sim(args) -> int:
    from repro.sim import SimParams, simulate

    topo = parse_topology(args.topology, args.arrangement)
    pattern = parse_pattern(topo, args.pattern)
    routing = parse_routing(args.routing)
    policy = (
        parse_policy(args.policy)
        if routing.startswith("t-") or args.policy
        else None
    )
    params = SimParams(window_cycles=args.window, verify=args.verify)
    res = simulate(
        topo,
        pattern,
        args.load,
        routing=routing,
        policy=policy,
        params=params,
        seed=args.seed,
    )
    print(f"{topo} {pattern.describe()} {routing} load={args.load}")
    print(f"  avg latency   : {res.avg_latency:.1f} cycles")
    print(f"  p99 latency   : {res.p99_latency:.1f} cycles")
    print(f"  accepted rate : {res.accepted_rate:.4f}")
    print(f"  avg hops      : {res.avg_hops:.2f}")
    print(f"  VLB fraction  : {res.vlb_fraction:.2%}")
    print(f"  saturated     : {res.saturated}")
    return 0


def _cmd_sweep(args) -> int:
    from contextlib import nullcontext

    from repro.obs import (
        ObsConfig,
        ProgressReporter,
        Tracer,
        capture,
        render_summary,
    )
    from repro.sim import SimParams
    from repro.sim.sweep import latency_vs_load

    topo = parse_topology(args.topology, args.arrangement)
    pattern = parse_pattern(topo, args.pattern)
    routing = parse_routing(args.routing)
    policy = (
        parse_policy(args.policy)
        if routing.startswith("t-") or args.policy
        else None
    )
    loads = parse_loads(args.loads)
    params = SimParams(window_cycles=args.window, verify=args.verify)
    if args.sample_every or args.trace_dir:
        # identity-neutral: traced points still share cache entries with
        # untraced runs of the same spec
        params = params.with_obs(
            ObsConfig(
                sample_every=args.sample_every,
                trace_dir=args.trace_dir,
            )
        )
    tracer = Tracer() if args.trace else None
    progress = (
        ProgressReporter(label="sweep") if args.progress else None
    )
    ctx = capture(tracer) if tracer is not None else nullcontext()
    with _make_executor(args, progress=progress) as executor, ctx:
        sweep = latency_vs_load(
            topo,
            pattern,
            loads,
            routing=routing,
            policy=policy,
            params=params,
            seed=args.seed,
            stop_after_saturation=not args.no_stop,
            executor=executor,
        )
        print(
            f"{topo} {pattern.describe()} {routing} "
            f"policy={sweep.policy_label} [{executor.describe()}]"
        )
        print(f"  {'load':>6} {'latency':>9} {'accepted':>9}  sat")
        for load, latency, accepted, saturated in sweep.rows():
            print(
                f"  {load:6.3f} {latency:9.1f} {accepted:9.4f}  "
                f"{'yes' if saturated else 'no'}"
            )
        print(f"  saturation throughput: {sweep.saturation_throughput():.4f}")
    if tracer is not None:
        if args.trace.endswith(".jsonl"):
            tracer.save_jsonl(args.trace)
        else:
            tracer.export_chrome(args.trace)
        print(render_summary(tracer.summary()))
        print(f"[saved trace to {args.trace}]")
    return 0


def _cmd_bench(args) -> int:
    from repro.perf.bench import main as bench_main

    argv = ["--out", args.out, "--topology", args.topology,
            "--window", str(args.window), "--points", str(args.points)]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.quick:
        argv.append("--quick")
    return bench_main(argv)


def _cmd_adversary(args) -> int:
    from repro.adversary import run_search
    from repro.obs import ProgressReporter

    topo = parse_topology(args.topology, args.arrangement)
    progress = (
        ProgressReporter(label="adversary") if args.progress else None
    )
    with _make_executor(args, progress=progress) as executor:
        try:
            report = run_search(
                topo,
                strategy=args.strategy,
                budget=args.budget,
                seed=args.seed,
                executor=executor,
                num_type1=(
                    None if args.num_type1 <= 0 else args.num_type1
                ),
                num_type2=args.num_type2,
                max_descriptors=args.max_descriptors,
            )
        except SpecError as exc:
            raise SystemExit(str(exc)) from None
    print(report.to_json() if args.json else report.to_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
        print(
            f"[saved report to {args.out}; reuse the pattern anywhere "
            f"with --pattern @{args.out}]"
        )
    return 0


def _cmd_tvlb(args) -> int:
    from repro.core import compute_tvlb
    from repro.routing.serialization import save_policy
    from repro.sim import SimParams

    topo = parse_topology(args.topology, args.arrangement)
    with _make_executor(args) as executor:
        res = compute_tvlb(
            topo,
            sim_params=SimParams(window_cycles=args.window),
            seed=args.seed,
            executor=executor,
            model_engine=(
                None if args.model_engine == "auto" else args.model_engine
            ),
        )
    print(f"T-VLB for {topo}: {res.label}")
    print(f"converged to conventional UGAL: {res.converged_to_ugal}")
    for cand in res.candidates:
        print(f"  candidate {cand.label:32s} score={cand.score:.3f}")
    if args.save:
        save_policy(res.policy, args.save)
        print(f"[saved T-VLB policy to {args.save}]")
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import verify_config

    topo = parse_topology(args.topology, args.arrangement)
    policy = parse_policy(args.policy)
    routing = parse_routing(args.routing)
    rules = args.rules.split(",") if args.rules else None
    try:
        report = verify_config(
            topo,
            policy,
            scheme=args.vc_scheme,
            routing=routing,
            num_vcs=args.num_vcs,
            seed=args.seed,
            rules=rules,
            run_cdg=not args.no_cdg,
            run_lint=not args.no_lint,
            max_pairs=args.pairs,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(report.to_json() if args.json else report.to_text())
    if not report.passed:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_obs(args) -> int:
    import glob as globlib
    import json

    from repro.obs import Tracer, render_summary

    paths: List[str] = []
    for spec in args.traces:
        matched = sorted(globlib.glob(spec))
        paths.extend(matched if matched else [spec])
    tracer = Tracer()
    for path in paths:
        try:
            tracer.extend(Tracer.load_jsonl(path).events)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read trace {path!r}: {exc}")
    if args.action == "summarize":
        if args.json:
            print(json.dumps(tracer.summary(), indent=2, sort_keys=True))
        else:
            print(render_summary(tracer.summary()))
        return 0
    out = args.out if args.out else "trace.json"
    tracer.export_chrome(out)
    print(
        f"[saved Chrome trace to {out}] "
        f"({len(tracer)} events from {len(paths)} file"
        f"{'s' if len(paths) != 1 else ''}; open in chrome://tracing "
        f"or https://ui.perfetto.dev)"
    )
    return 0


def _cmd_analyze(args) -> int:
    from repro.analyze import (
        ANALYZE_RULES,
        AnalyzeConfig,
        AnalyzeError,
        analyze_tree,
    )
    from repro.analyze.baseline import save_baseline
    from repro.analyze.engine import build_context
    from repro.analyze.snapshot import identity_surface, save_snapshot

    if args.list_rules:
        for entry in ANALYZE_RULES:
            print(
                f"{entry.code}  [{entry.severity:7s}] "
                f"{entry.family}/{entry.name}\n    {entry.summary}"
            )
        return 0
    rules = (
        tuple(r.strip() for r in args.rules.split(",") if r.strip())
        if args.rules
        else None
    )
    config = AnalyzeConfig(
        root=args.root,
        paths=tuple(args.paths) if args.paths else ("src",),
        rules=rules,
        baseline_path=args.baseline,
        snapshot_path=args.snapshot,
    )
    try:
        if args.update_snapshot:
            path = config.resolved_snapshot_path()
            save_snapshot(path, identity_surface(build_context(config)))
            print(f"[wrote identity snapshot to {path}]")
            return 0
        report = analyze_tree(config)
    except AnalyzeError as exc:
        raise SystemExit(f"repro analyze: {exc}")
    if args.write_baseline:
        if args.baseline is None:
            raise SystemExit("--write-baseline requires --baseline PATH")
        save_baseline(args.baseline, report.findings)
        print(
            f"[wrote baseline with {len(report.findings)} finding(s) "
            f"to {args.baseline}]"
        )
        return 0
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(fail_on=args.fail_on))
    return 0 if report.passed(args.fail_on) else 1


def _cmd_figure(args) -> int:
    from repro.experiments import run_figure

    result = run_figure(args.name)
    print(result)
    if args.json:
        result.save(args.json)
        print(f"\n[saved JSON record to {args.json}]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Topology-Custom UGAL on Dragonfly (SC '19) toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log repro internals to stderr (-v info, -vv debug); "
             "must precede the subcommand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def topo_args(p):
        p.add_argument("--topology", "-t", default="4,8,4,9",
                       help="P,A,H,G or KIND:ARGS, e.g. full-mesh:16,4 "
                            "(default 4,8,4,9)")
        p.add_argument("--arrangement", default="absolute",
                       choices=["absolute", "relative", "circulant"])

    p = sub.add_parser("topo", help="build and validate a topology")
    topo_args(p)
    p.set_defaults(func=_cmd_topo)

    p = sub.add_parser("paths", help="MIN/VLB paths of a switch pair")
    topo_args(p)
    p.add_argument("src", type=int)
    p.add_argument("dst", type=int)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("bounds", help="closed-form capacity bounds")
    topo_args(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("model", help="LP modeled throughput")
    topo_args(p)
    p.add_argument("--pattern", default="shift:1")
    p.add_argument("--policy", default="all")
    p.add_argument("--mode", default="free", choices=["free", "uniform"])
    p.add_argument("--no-monotonic", action="store_true")
    p.add_argument("--max-descriptors", type=int, default=None)
    p.add_argument("--engine", default="fast", choices=["fast", "legacy"],
                   help="LP assembly engine: factored fast path (default) "
                        "or the original per-solve baseline")
    _exec_args(p)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("sim", help="one simulation run")
    topo_args(p)
    p.add_argument("--pattern", default="shift:1")
    p.add_argument("--routing", default="ugal-l")
    p.add_argument("--policy", default=None)
    p.add_argument("--load", type=float, default=0.1)
    p.add_argument("--window", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="statically verify the configuration before "
                        "simulating (repro.verify pre-flight gate)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser(
        "sweep", help="latency-vs-load ladder (parallel/cached)"
    )
    topo_args(p)
    p.add_argument("--pattern", default="shift:1")
    p.add_argument("--routing", default="ugal-l")
    p.add_argument("--policy", default=None)
    p.add_argument("--loads", default="0.05:0.40:8",
                   help="L1,L2,... or LO:HI:COUNT (default 0.05:0.40:8)")
    p.add_argument("--window", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-stop", action="store_true",
                   help="simulate every load even past saturation")
    p.add_argument("--verify", action="store_true",
                   help="statically verify the configuration before "
                        "simulating (repro.verify pre-flight gate)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record executor/engine events and write the "
                        "trace here (.jsonl = raw events, anything else "
                        "= Chrome trace_event JSON for chrome://tracing)")
    p.add_argument("--sample-every", type=int, default=0, metavar="K",
                   help="sample engine state (utilization, VC occupancy, "
                        "backlog) every K cycles (default 0 = off)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="per-run engine trace JSONL files land here "
                        "(required for engine samples from pool workers)")
    p.add_argument("--progress", action="store_true",
                   help="heartbeat/ETA lines on stderr while the batch "
                        "runs")
    _exec_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "adversary", help="search for worst-case traffic patterns"
    )
    topo_args(p)
    p.add_argument("--strategy", default="hillclimb",
                   help="search strategy: greedy | hillclimb[:BATCH] "
                        "(default hillclimb)")
    p.add_argument("--budget", type=int, default=32,
                   help="candidate destination maps to score (default 32)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-type1", type=int, default=6,
                   help="TYPE_1 suite patterns to pre-score as the "
                        "baseline pool (<= 0: the whole suite; default 6)")
    p.add_argument("--num-type2", type=int, default=4,
                   help="TYPE_2 suite seeds in the baseline pool "
                        "(default 4)")
    p.add_argument("--max-descriptors", type=int, default=2000)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the report JSON here; the file doubles as "
                        "a pattern spec (--pattern @FILE)")
    p.add_argument("--json", action="store_true",
                   help="print the full report JSON instead of the "
                        "ranked table")
    p.add_argument("--progress", action="store_true",
                   help="heartbeat/ETA lines on stderr while candidate "
                        "batches run")
    _exec_args(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("tvlb", help="run Algorithm 1")
    topo_args(p)
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", default=None,
                   help="write the chosen policy to this JSON file")
    p.add_argument("--model-engine", default="auto",
                   choices=["auto", "fast", "legacy"],
                   help="LP engine for the Step-1 sweep (default auto = "
                        "the topology's preferred engine)")
    _exec_args(p)
    p.set_defaults(func=_cmd_tvlb)

    p = sub.add_parser(
        "verify", help="static deadlock-freedom + path-set verification"
    )
    topo_args(p)
    p.add_argument("--policy", default=None,
                   help="path policy to verify (default: all VLB)")
    p.add_argument("--routing", default="par",
                   help="routing whose dependencies to model (default par; "
                        "par adds revised-fragment dependencies)")
    p.add_argument("--vc-scheme", default="won",
                   choices=["won", "perhop", "none"],
                   help="VC allocation to verify ('none' = no VC "
                        "protection, analysis only)")
    p.add_argument("--num-vcs", type=int, default=None,
                   help="VC count to lint against (default: the scheme's "
                        "requirement for this routing and topology)")
    p.add_argument("--rules", default=None,
                   help="comma-separated subset of lint rules to run")
    p.add_argument("--no-cdg", action="store_true",
                   help="skip the channel-dependency-graph analysis")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the path-set lint rules")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too")
    p.add_argument("--pairs", type=int, default=40,
                   help="switch pairs sampled by the linter (default 40)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "obs", help="summarize or export recorded traces (repro.obs)"
    )
    p.add_argument("action", choices=["summarize", "export"],
                   help="summarize: aggregate stats; export: Chrome "
                        "trace_event JSON")
    p.add_argument("traces", nargs="+",
                   help="JSONL trace files (globs ok), e.g. the --trace "
                        "output of sweep or engine-*.jsonl from a "
                        "--trace-dir")
    p.add_argument("--json", action="store_true",
                   help="summarize as JSON instead of text")
    p.add_argument("--out", default=None,
                   help="export output path (default trace.json)")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "analyze",
        help="static analysis: determinism, cache identity, registry "
             "hygiene (repro.analyze)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to analyze (default: src)")
    p.add_argument("--root", default=".",
                   help="repo root paths are reported relative to "
                        "(default .)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule codes to run "
                        "(default: every rule)")
    p.add_argument("--baseline", default=None,
                   help="committed baseline JSON of grandfathered "
                        "findings")
    p.add_argument("--write-baseline", action="store_true",
                   help="regenerate --baseline from the current active "
                        "findings and exit")
    p.add_argument("--snapshot", default=None,
                   help="identity snapshot path (default: the packaged "
                        "identity_snapshot.json)")
    p.add_argument("--update-snapshot", action="store_true",
                   help="regenerate the identity snapshot from the "
                        "current tree and exit (after an intentional "
                        "identity change + version bump)")
    p.add_argument("--fail-on", default="error",
                   choices=["error", "warning", "none"],
                   help="severity threshold for a nonzero exit "
                        "(default error)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", help="e.g. table2, fig06")
    p.add_argument("--json", default=None,
                   help="also save a JSON record to this path")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "bench", help="performance benchmarks -> BENCH_sim.json"
    )
    p.add_argument("--topology", "-t", default="4,8,4,9")
    p.add_argument("--out", default="BENCH_sim.json")
    p.add_argument("--window", type=int, default=300)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: the host's CPU count)")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs import enable_verbose

        enable_verbose(args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
