"""Command-line interface.

Five subcommands cover the library's end-to-end workflow without writing
Python::

    repro-cim generate --model powerlaw --nodes 500 --alpha 1.0 -o net.txt
    repro-cim inspect net.txt
    repro-cim solve net.txt --method cd --budget 10 -o plan.json
    repro-cim evaluate net.txt plan.json --samples 5000
    repro-cim reproduce fig5 --scale 0.02

``generate`` writes a SNAP-style edge list (probabilities included);
``solve`` assigns the paper's curve mixture (fractions configurable),
runs one solver and saves the resulting plan as JSON; ``evaluate`` scores
a saved plan with independent Monte-Carlo simulations; ``reproduce``
regenerates one paper exhibit.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def _worker_count(text: str):
    """argparse type for --workers: a positive int, or 'auto' (one per CPU)."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer or 'auto': {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1 (or 'auto' for one per CPU), got {text}"
        )
    return workers


def _add_workers_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        metavar="N|auto",
        help="parallel sampling processes (default 1, 'auto' = one per CPU); "
        "results are identical for every worker count",
    )


def _chunk_retries(text: str) -> int:
    """argparse type for --max-chunk-retries: a non-negative int."""
    try:
        retries = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if retries < 0:
        raise argparse.ArgumentTypeError(f"retries must be >= 0, got {text}")
    return retries


def _chunk_timeout(text: str) -> float:
    """argparse type for --chunk-timeout: a positive second count."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if math.isnan(seconds) or seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"chunk timeout must be a positive number of seconds, got {text}"
        )
    return seconds


def _add_supervision_arguments(subparser: argparse.ArgumentParser) -> None:
    """Worker-pool recovery knobs (see repro.parallel.supervisor)."""
    subparser.add_argument(
        "--max-chunk-retries",
        type=_chunk_retries,
        default=None,
        metavar="N",
        help="re-dispatches granted to a failing work chunk before it is "
        "declared poison (default 2); re-execution is bit-identical",
    )
    subparser.add_argument(
        "--chunk-timeout",
        type=_chunk_timeout,
        default=None,
        metavar="SECONDS",
        help="soft per-chunk deadline; an overdue chunk is treated as a "
        "straggler and re-dispatched on a fresh pool (default: none)",
    )
    subparser.add_argument(
        "--on-poison-chunk",
        choices=("fail", "partial", "serial"),
        default=None,
        help="poison-chunk policy: 'fail' raises, 'partial' quarantines the "
        "chunk and returns a truncated (still deterministic) prefix, "
        "'serial' re-runs the chunk inline in the parent (default: fail)",
    )


def _supervision_from_args(args) -> Optional[dict]:
    """Collect the supervision flags the user actually set (None = defaults)."""
    policy = {}
    if getattr(args, "max_chunk_retries", None) is not None:
        policy["max_chunk_retries"] = args.max_chunk_retries
    if getattr(args, "chunk_timeout", None) is not None:
        policy["chunk_timeout"] = args.chunk_timeout
    if getattr(args, "on_poison_chunk", None) is not None:
        policy["on_poison_chunk"] = args.on_poison_chunk
    return policy or None


def _add_obs_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace of nested spans (sampling, solver phases, "
        "runtime hooks) to FILE; span content is identical at any --workers",
    )
    subparser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a JSON snapshot of run counters/gauges/histograms to FILE",
    )


def _user_cap(text: str) -> float:
    """argparse type for --user-cap: a discount cap in [0, 1]."""
    try:
        cap = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if math.isnan(cap) or not 0.0 <= cap <= 1.0:
        raise argparse.ArgumentTypeError(f"user cap must lie in [0, 1], got {text}")
    return cap


def _access_k(text: str) -> int:
    """argparse type for --access-k: a positive user count."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if k < 1:
        raise argparse.ArgumentTypeError(f"access k must be >= 1, got {text}")
    return k


def _add_constraint_arguments(subparser: argparse.ArgumentParser) -> None:
    """Constrained-scenario flags (see docs/constraints.md)."""
    subparser.add_argument(
        "--access-k",
        type=_access_k,
        default=None,
        metavar="K",
        help="limited access: only the K most promising users (spillover-"
        "aware selection) may be offered discounts",
    )
    subparser.add_argument(
        "--user-cap",
        type=_user_cap,
        default=None,
        metavar="CAP",
        help="partial incentives: no user's discount may exceed CAP in [0, 1]",
    )
    subparser.add_argument(
        "--constraint-json",
        default=None,
        metavar="JSON|FILE",
        help="constraint spec as inline JSON or a path to a JSON file, e.g. "
        '\'[{"type": "cap", "cap": 0.5}, {"type": "topk", "k": 20}]\'; '
        "composes (intersects) with --access-k / --user-cap",
    )


def _constraints_from_args(args) -> Optional[list]:
    """Build the constraint list selected by the CLI flags (None = none)."""
    from repro.core.constraints import (
        PerUserCap,
        TopKAccess,
        constraints_from_spec,
    )

    parts = []
    if getattr(args, "access_k", None) is not None:
        parts.append(TopKAccess(args.access_k))
    if getattr(args, "user_cap", None) is not None:
        parts.append(PerUserCap(args.user_cap))
    raw = getattr(args, "constraint_json", None)
    if raw is not None:
        import json
        from pathlib import Path

        from repro.exceptions import ConstraintError

        text = raw
        path = Path(raw)
        try:
            if path.is_file():
                text = path.read_text(encoding="utf-8")
        except OSError:
            pass
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConstraintError(
                f"--constraint-json is neither valid JSON nor a readable "
                f"JSON file: {exc}"
            ) from None
        parts.extend(constraints_from_spec(spec))
    return parts or None


def _deadline_seconds(text: str) -> float:
    """argparse type for --deadline: a finite, non-negative second count."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if math.isnan(seconds) or seconds < 0:
        raise argparse.ArgumentTypeError(
            f"deadline must be a non-negative number of seconds, got {text}"
        )
    return seconds


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cim",
        description="Continuous influence maximization (SIGMOD 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic network")
    gen.add_argument(
        "--model",
        choices=("erdos-renyi", "powerlaw", "barabasi-albert", "forest-fire"),
        default="powerlaw",
    )
    gen.add_argument("--nodes", type=int, default=500)
    gen.add_argument("--average-degree", type=float, default=10.0)
    gen.add_argument("--edge-prob", type=float, default=0.02, help="erdos-renyi p")
    gen.add_argument("--attach", type=int, default=3, help="barabasi-albert m")
    gen.add_argument("--alpha", type=float, default=1.0, help="weighted-cascade alpha")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)

    insp = sub.add_parser("inspect", help="print statistics of an edge list")
    insp.add_argument("graph")
    insp.add_argument("--undirected", action="store_true")

    slv = sub.add_parser("solve", help="compute a discount plan")
    slv.add_argument("graph")
    slv.add_argument("--method", default="cd")
    slv.add_argument("--budget", type=float, required=True)
    slv.add_argument("--sensitive", type=float, default=0.85)
    slv.add_argument("--linear", type=float, default=0.10)
    slv.add_argument("--insensitive", type=float, default=0.05)
    slv.add_argument("--hyperedges", type=int, default=None)
    slv.add_argument(
        "--rr-sets",
        default=None,
        metavar="N|auto",
        help="hyper-edge count: an integer for a fixed-size build, or "
        "'auto' for adaptive doubling that stops once the estimate is "
        "certified (overrides --hyperedges)",
    )
    slv.add_argument(
        "--rr-epsilon",
        type=float,
        default=0.05,
        help="relative-error target of the --rr-sets auto certificate",
    )
    slv.add_argument(
        "--step-size",
        type=float,
        default=None,
        metavar="ETA",
        help="initial ascent step of --method gradient (Armijo-backtracked)",
    )
    slv.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="iteration cap of --method gradient/fw",
    )
    slv.add_argument(
        "--solver-tolerance",
        type=float,
        default=None,
        metavar="TOL",
        help="stopping tolerance of --method gradient/fw (gain, gap and "
        "certified duality-gap threshold)",
    )
    slv.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    slv.add_argument("--undirected", action="store_true")
    slv.add_argument("--seed", type=int, default=None)
    slv.add_argument(
        "--deadline",
        type=_deadline_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best feasible partial plan "
        "found so far is returned (marked partial) instead of failing",
    )
    slv.add_argument(
        "--storage",
        choices=("heap", "shared"),
        default=None,
        help="RR-set transport for the hyper-graph build: 'heap' pickles "
        "sampled chunks back through the worker pool (default), 'shared' "
        "writes them into memory-mapped slabs (bit-identical, near-zero "
        "pickling; see docs/performance.md)",
    )
    slv.add_argument(
        "--slab-dir",
        default=None,
        metavar="DIR",
        help="slab root for --storage shared (default: $REPRO_SLAB_DIR, "
        "else /dev/shm, else the system temp dir)",
    )
    slv.add_argument(
        "--backing",
        choices=("heap", "mmap"),
        default=None,
        help="where the assembled hyper-graph CSR lives: 'heap' (default) "
        "or 'mmap' — disk-backed spill files (bit-identical results; "
        "keeps coordinator RSS independent of theta only with --storage "
        "shared; see docs/performance.md)",
    )
    slv.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill root for --backing mmap (default: $REPRO_SPILL_DIR, "
        "else the system temp dir — unlike --slab-dir, never /dev/shm: "
        "spill exists to stay off RAM)",
    )
    _add_workers_argument(slv)
    _add_supervision_arguments(slv)
    _add_constraint_arguments(slv)
    _add_obs_arguments(slv)
    slv.add_argument("-o", "--output", default=None, help="save plan JSON here")

    ev = sub.add_parser("evaluate", help="Monte-Carlo score a saved plan")
    ev.add_argument("graph")
    ev.add_argument("plan", help="plan JSON from `solve` (SolveResult or Configuration)")
    ev.add_argument("--samples", type=int, default=2000)
    ev.add_argument("--sensitive", type=float, default=0.85)
    ev.add_argument("--linear", type=float, default=0.10)
    ev.add_argument("--insensitive", type=float, default=0.05)
    ev.add_argument("--diffusion", choices=("ic", "lt"), default="ic")
    ev.add_argument("--undirected", action="store_true")
    ev.add_argument("--seed", type=int, default=None)
    _add_workers_argument(ev)
    _add_obs_arguments(ev)

    sub.add_parser("selfcheck", help="verify the installation's internal consistency")

    rpt = sub.add_parser("report", help="regenerate every exhibit into CSV files")
    rpt.add_argument("output_dir")
    rpt.add_argument("--dataset", default="wiki-vote")
    rpt.add_argument("--scale", type=float, default=0.02)
    rpt.add_argument("--hyperedges", type=int, default=6000)
    rpt.add_argument("--samples", type=int, default=1000)
    rpt.add_argument("--seed", type=int, default=2016)
    rpt.add_argument(
        "--checkpoint-dir",
        default=None,
        help="snapshot each completed experiment cell here (atomic JSON/NPZ)",
    )
    rpt.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells found in --checkpoint-dir instead of recomputing",
    )
    _add_workers_argument(rpt)
    _add_supervision_arguments(rpt)
    _add_obs_arguments(rpt)

    rep = sub.add_parser("reproduce", help="regenerate a paper exhibit")
    rep.add_argument(
        "exhibit",
        choices=("table2", "fig3", "fig4", "fig5", "fig6", "table3", "table4"),
    )
    rep.add_argument("--dataset", default="wiki-vote")
    rep.add_argument("--alpha", type=float, default=1.0)
    rep.add_argument("--scale", type=float, default=0.02)
    rep.add_argument("--budget", type=float, default=20.0)
    rep.add_argument("--seed", type=int, default=2016)

    return parser


def _load_graph(path: str, undirected: bool):
    from repro.graphs.io import read_edge_list

    graph, _ = read_edge_list(path, undirected=undirected)
    return graph


def _build_model(graph, diffusion: str):
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.diffusion.linear_threshold import LinearThreshold

    if diffusion == "lt":
        return LinearThreshold(graph)
    return IndependentCascade(graph)


def _build_population(num_nodes: int, args) -> "object":
    from repro.core.population import paper_mixture

    return paper_mixture(
        num_nodes,
        sensitive_fraction=args.sensitive,
        linear_fraction=args.linear,
        insensitive_fraction=args.insensitive,
        seed=args.seed,
    )


def _cmd_generate(args) -> int:
    from repro.graphs.generators import (
        barabasi_albert,
        erdos_renyi,
        forest_fire,
        powerlaw_configuration,
    )
    from repro.graphs.io import write_edge_list
    from repro.graphs.weights import assign_weighted_cascade

    if args.model == "erdos-renyi":
        graph = erdos_renyi(args.nodes, args.edge_prob, seed=args.seed)
    elif args.model == "barabasi-albert":
        graph = barabasi_albert(args.nodes, args.attach, seed=args.seed)
    elif args.model == "forest-fire":
        graph = forest_fire(args.nodes, seed=args.seed)
    else:
        graph = powerlaw_configuration(
            args.nodes, average_degree=args.average_degree, seed=args.seed
        )
    graph = assign_weighted_cascade(graph, alpha=args.alpha)
    write_edge_list(graph, args.output, header=f"generated by repro-cim ({args.model})")
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.output}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.graphs.stats import describe

    graph = _load_graph(args.graph, args.undirected)
    stats = describe(graph)
    print(stats.as_row())
    print(
        f"max out-degree {stats.max_out_degree}, max in-degree {stats.max_in_degree}, "
        f"isolated {stats.num_isolated}"
    )
    return 0


def _cmd_solve(args) -> int:
    from repro.core.problem import CIMProblem
    from repro.core.solvers import solve
    from repro.io.serialization import save_solve_result

    graph = _load_graph(args.graph, args.undirected)
    model = _build_model(graph, args.diffusion)
    population = _build_population(graph.num_nodes, args)
    problem = CIMProblem(model, population, budget=args.budget)
    num_hyperedges = args.hyperedges
    options = {}
    if args.step_size is not None:
        options["step_size"] = args.step_size
    if args.max_steps is not None:
        options["max_steps"] = args.max_steps
    if args.solver_tolerance is not None:
        options["tolerance"] = args.solver_tolerance
    if args.rr_sets is not None:
        if args.rr_sets == "auto":
            num_hyperedges = "auto"
            options["adaptive"] = {"epsilon": args.rr_epsilon}
        else:
            try:
                num_hyperedges = int(args.rr_sets)
            except ValueError:
                print(f"--rr-sets must be an integer or 'auto', got {args.rr_sets!r}")
                return 2
    result = solve(
        problem,
        args.method,
        num_hyperedges=num_hyperedges,
        seed=args.seed,
        deadline=args.deadline,
        workers=args.workers,
        supervision=_supervision_from_args(args),
        constraints=_constraints_from_args(args),
        storage=args.storage,
        slab_dir=args.slab_dir,
        backing=args.backing,
        spill_dir=args.spill_dir,
        **options,
    )
    support = result.configuration.support
    partial = " [PARTIAL: deadline hit]" if result.extras.get("partial") else ""
    print(
        f"{args.method}: estimated spread {result.spread_estimate:.2f}, "
        f"{support.size} users targeted, spend {result.cost:.3f} / {args.budget:g}"
        f"{partial}"
    )
    active = result.extras.get("constraints")
    if active:
        kinds = ", ".join(part["type"] for part in active)
        print(f"constraints active: {kinds} (solution verified feasible)")
    adaptive = result.extras.get("adaptive")
    if adaptive:
        print(
            f"adaptive sampling: theta {adaptive['theta']}, "
            f"stopped on {adaptive['stop_reason']} "
            f"(epsilon bound {adaptive['epsilon_bound']:.3f}, "
            f"{len(adaptive['stages'])} stages)"
        )
    if args.output:
        save_solve_result(result, args.output)
        print(f"plan saved to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    from pathlib import Path

    from repro.core.problem import CIMProblem
    from repro.exceptions import ConfigurationError
    from repro.io.serialization import configuration_from_json, solve_result_from_json

    graph = _load_graph(args.graph, args.undirected)
    model = _build_model(graph, args.diffusion)
    population = _build_population(graph.num_nodes, args)
    text = Path(args.plan).read_text(encoding="utf-8")
    try:
        configuration = solve_result_from_json(text).configuration
    except ConfigurationError:
        configuration = configuration_from_json(text)
    problem = CIMProblem(model, population, budget=max(configuration.cost, 1e-9))
    estimate = problem.evaluate(
        configuration, num_samples=args.samples, seed=args.seed, workers=args.workers
    )
    lo, hi = estimate.confidence_interval()
    print(
        f"spread {estimate.mean:.2f} ± {estimate.stddev:.2f} "
        f"(95% CI [{lo:.2f}, {hi:.2f}], {args.samples} simulations)"
    )
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments import (
        figure3_influence_spread,
        figure4_approximation_bound,
        figure5_spread_vs_discount,
        figure6_running_time,
        table2_rows,
        table3_search_step,
        table4_sensitivity,
    )

    common = dict(dataset=args.dataset, scale=args.scale, seed=args.seed, verbose=True)
    if args.exhibit == "table2":
        for row in table2_rows(scale=args.scale, seed=args.seed):
            print(
                f"{row['network']:>16s}  paper n={row['paper_n']:,}  "
                f"ours n={row['analogue_n']:,} m={row['analogue_m']:,}"
            )
    elif args.exhibit == "fig3":
        from repro.experiments.ascii import multi_series_chart

        rows = figure3_influence_spread(alpha=args.alpha, **common)
        budgets = sorted({row.budget for row in rows})
        series = {
            method: [
                next(r.spread_mean for r in rows if r.budget == b and r.method == method)
                for b in budgets
            ]
            for method in ("im", "ud", "cd")
        }
        print()
        print(multi_series_chart(budgets, series))
    elif args.exhibit == "fig4":
        figure4_approximation_bound(alpha=args.alpha, **common)
    elif args.exhibit == "fig5":
        from repro.experiments.ascii import sparkline

        rows = figure5_spread_vs_discount(alpha=args.alpha, budget=args.budget, **common)
        print(f"\n  spread vs c:  {sparkline([row['spread'] for row in rows])}")
    elif args.exhibit == "fig6":
        figure6_running_time(alpha=args.alpha, **common)
    elif args.exhibit == "table3":
        table3_search_step(alpha=args.alpha, **common)
    elif args.exhibit == "table4":
        table4_sensitivity(alpha=args.alpha, budget=args.budget, **common)
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_full_report

    written = generate_full_report(
        args.output_dir,
        dataset=args.dataset,
        scale=args.scale,
        num_hyperedges=args.hyperedges,
        evaluation_samples=args.samples,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        workers=args.workers,
        supervision=_supervision_from_args(args),
    )
    for name, path in sorted(written.items()):
        print(f"  {name}: {path}")
    print(f"report written to {args.output_dir}")
    return 0


def _cmd_selfcheck(args) -> int:
    from repro.selfcheck import run_selfcheck

    results = run_selfcheck(verbose=True)
    return 0 if all(result.passed for result in results) else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "reproduce": _cmd_reproduce,
    "selfcheck": _cmd_selfcheck,
    "report": _cmd_report,
}


def _run_observed(args) -> int:
    """Run the selected command, honouring ``--trace`` / ``--metrics-out``.

    Both files are written even when the command fails partway, so an
    aborted run still leaves its partial trace behind for diagnosis.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    if trace_path is None and metrics_path is None:
        return _COMMANDS[args.command](args)

    from repro.obs import MetricsRegistry, Tracer, observe

    tracer = Tracer() if trace_path is not None else None
    metrics = MetricsRegistry() if metrics_path is not None else None
    try:
        with observe(tracer=tracer, metrics=metrics):
            return _COMMANDS[args.command](args)
    finally:
        if tracer is not None:
            tracer.export_jsonl(trace_path)
        if metrics is not None:
            metrics.export_json(metrics_path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_observed(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
