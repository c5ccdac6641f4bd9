"""Fold a span forest into a per-layer table and derive the layer metrics.

The traced run records the benchmark's own ``bench.*`` spans around each
call into a layer, and the program's spans (``solver.ud``,
``rrset.sample``, ...) nest under them through the shared tracer.  A
span is anything with ``name``, ``start``, ``end`` and ``children``
attributes, such as :class:`repro.obs.tracer.Span`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = ["fold_spans", "layer_metrics", "format_table", "PER_LAYER_UNITS"]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def fold_spans(roots: Iterable) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total_s``, ``self_s`` and ``share``.

    ``self_s`` is a span's duration minus the part of it that its child
    spans cover.  ``total_s`` counts a span only when no ancestor has the
    same name, so recursion does not count time twice.  ``share`` is
    ``self_s`` over the summed duration of the roots, so shares add up
    to one.
    """
    table: Dict[str, Dict[str, float]] = {}
    wall = 0.0

    def visit(span, open_names: frozenset) -> None:
        duration = max(0.0, span.end - span.start)
        children = list(span.children)
        covered = _covered([(c.start, c.end) for c in children], span.start, span.end)
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        if span.name not in open_names:
            row["total_s"] += duration
        row["self_s"] += duration - covered
        for child in children:
            visit(child, open_names | {span.name})

    for root in roots:
        wall += max(0.0, root.end - root.start)
        visit(root, frozenset())
    for row in table.values():
        row["share"] = row["self_s"] / wall if wall > 0.0 else 0.0
    return table


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "graphs.generate_s": "s",
    "graphs.edges_per_s": "1/s",
    "graphs.read_s": "s",
    "graphs.weight_s": "s",
    "graphs.edges": "count",
    "rrset.sample_s": "s",
    "rrset.members": "count",
    "rrset.members_per_s": "1/s",
    "rrset.index_s": "s",
    "storage.spill_bytes": "bytes",
    "storage.slab_bytes": "bytes",
    "storage.pickled_bytes_per_chunk": "bytes",
    "adaptive.stages": "count",
    "adaptive.theta": "count",
    "core.ud_s": "s",
    "ud.heap_seeds": "count",
    "core.cd_s": "s",
    "cd.pair_evals": "count",
    "cd.accept_ratio": "ratio",
    "objective.full_scans": "count",
    "objective.topology_hit_ratio": "ratio",
    "core.gradient_s": "s",
    "gradient.objective_evals": "count",
    "gradient.backtrack_ratio": "ratio",
    "diffusion.evaluate_s": "s",
    "mc.samples": "count",
    "diffusion.activations_per_s": "1/s",
    "parallel.chunks": "count",
    "pool.retries": "count",
    "obs.overhead_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, float],
    gauges: Mapping[str, float],
    *,
    num_nodes: int,
    num_edges: int,
    adaptive: bool,
    spread: float,
    overhead_s: float,
) -> Dict[str, float]:
    """Derive every :data:`PER_LAYER_UNITS` metric from one traced run.

    ``table`` folds the set-up, plan and evaluate spans; ``counters`` and
    ``gauges`` come from the program's ``MetricsRegistry`` over the same
    calls.  A layer the workload does not run reports 0.
    """

    def total(name: str) -> float:
        return float(table.get(name, {}).get("total_s", 0.0))

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    # The fixed-theta workloads call the sampler and from_csr themselves;
    # the adaptive driver samples and extends inside solve().
    sample_s = total("rrset.sample") if adaptive else total("bench.sample")
    index_s = total("hypergraph.extend") if adaptive else total("bench.index")
    produce_s = total("bench.generate") + total("bench.read")
    members = count("rrset.nodes_sampled_total")
    samples = count("mc.samples_total")
    evaluate_s = total("bench.evaluate")
    trials = count("gradient.steps_total") + count("gradient.backtracks_total")
    topology = count("objective.topology_cache_hits_total") + count(
        "objective.topology_cache_misses_total"
    )
    return {
        "graphs.generate_s": total("bench.generate"),
        "graphs.edges_per_s": _ratio(num_edges, produce_s),
        "graphs.read_s": total("bench.read"),
        "graphs.weight_s": total("bench.weight"),
        "graphs.edges": float(num_edges),
        "rrset.sample_s": sample_s,
        "rrset.members": members,
        "rrset.members_per_s": _ratio(members, sample_s),
        "rrset.index_s": index_s,
        "storage.spill_bytes": count("storage.spill_bytes_total"),
        "storage.slab_bytes": count("storage.slab_bytes_total"),
        "storage.pickled_bytes_per_chunk": _ratio(
            count("storage.pickled_bytes_total"), count("parallel.chunks_total")
        ),
        "adaptive.stages": count("adaptive.stages_total"),
        "adaptive.theta": float(gauges.get("adaptive.final_theta", 0)) if adaptive else 0.0,
        "core.ud_s": total("solver.ud"),
        # Computed, not counted: the CELF heap is seeded with one gain
        # evaluation per candidate (all n users) at every UD grid point.
        "ud.heap_seeds": float(num_nodes) * count("ud.grid_points_total"),
        "core.cd_s": total("solver.cd"),
        "cd.pair_evals": count("cd.pair_evals_total"),
        "cd.accept_ratio": _ratio(
            count("cd.pair_updates_total"), count("cd.pair_evals_total")
        ),
        "objective.full_scans": count("objective.full_scans_total"),
        "objective.topology_hit_ratio": _ratio(
            count("objective.topology_cache_hits_total"), topology
        ),
        "core.gradient_s": total("solver.gradient"),
        "gradient.objective_evals": count("gradient.objective_evals_total"),
        "gradient.backtrack_ratio": _ratio(count("gradient.backtracks_total"), trials),
        "diffusion.evaluate_s": evaluate_s,
        "mc.samples": samples,
        "diffusion.activations_per_s": _ratio(spread * samples, evaluate_s),
        "parallel.chunks": count("parallel.chunks_total"),
        "pool.retries": count("pool.chunks_retried_total")
        + count("pool.chunks_quarantined_total"),
        "obs.overhead_s": overhead_s,
    }


def format_table(table: Mapping[str, Mapping[str, float]]) -> str:
    """The folded spans as aligned text, largest self time first."""
    lines = [f"{'span':<28}{'count':>7}{'total_s':>11}{'self_s':>11}{'share':>8}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<28}{int(row['count']):>7}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{row['share']:>8.1%}"
        )
    return "\n".join(lines)
