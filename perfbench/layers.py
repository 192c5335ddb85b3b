"""Which kcoref callables the traced run wraps, and the per-layer metrics.

Each target is a layer boundary named after its kcoref module. Time metrics
are self milliseconds per item (a doc-step on the train workloads, a
document on evaluate), scaled to reference time like the end-to-end
metrics; counts are per item unless stated; a workload that
never enters a layer reports 0 for it, and so does a layer whose targets no
longer exist (run.py prints those as absent layers).
"""

from __future__ import annotations

from tracing import Target, Tracer


def _count_prune(t: Tracer, result, *args, **kwargs) -> None:
    doc, spans = args[0], args[1]
    gold = set(doc.gold_spans())
    t.add("model.spans", len(spans))
    t.add("model.candidates", len(result))
    t.add("model.gold_mentions", len(gold))
    t.add("model.gold_kept", len(gold.intersection(result.spans)))


def _count_antecedent_pairs(t: Tracer, result, *args, **kwargs) -> None:
    candidates, config = args[1], args[5]
    window = config.max_antecedents
    t.add("losses.antecedent_pairs",
          sum(min(k, window) for k in range(len(candidates))))


def _count_pair_set(t: Tracer, result, *args, **kwargs) -> None:
    doc, extra, budget = args[0], args[1], args[2]
    n = len(set(doc.gold_spans()) | set(extra))
    t.add("losses.pair_set_calls", 1)
    t.add("losses.rl_budget_hits", int(n * (n - 1) // 2 > budget))
    t.add("losses.rl_pairs", result.count)
    t.counts["losses.rl_pairs_max"] = max(t.counts["losses.rl_pairs_max"],
                                          result.count)


def _count_scaffold(t: Tracer, result, *args, **kwargs) -> None:
    t.add("losses.sl_targets", len(args[0]))


def _count_tape(t: Tracer, result, *args, **kwargs) -> None:
    root = args[0]
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    t.add("autodiff.tape_nodes", len(seen))


def _count_links(t: Tracer, result, *args, **kwargs) -> None:
    links = args[0]
    t.add("evaluation.link_slots", len(links))
    t.add("evaluation.links", sum(a is not None for a in links.values()))


def _count_ceaf(t: Tracer, result, *args, **kwargs) -> None:
    t.add("evaluation.ceaf_cells", len(args[0]) * len(args[1]))


TARGETS = [
    Target("kcoref.corpus", "enumerate_candidate_spans", "corpus.enumerate"),
    Target("kcoref.model", "encode_tokens", "model.encode"),
    Target("kcoref.model", "build_span_representations", "model.span_reps"),
    Target("kcoref.model", "mention_scores", "model.mention"),
    Target("kcoref.model", "prune_mentions", "model.prune", _count_prune),
    Target("kcoref.losses", "document_objective", "losses.objective"),
    Target("kcoref.losses", "_coref_loss_graph", "losses.cl_graph",
           _count_antecedent_pairs),
    Target("kcoref.losses", "build_pair_set", "losses.pair_set",
           _count_pair_set),
    Target("kcoref.losses", "_retrofit_loss_graph", "losses.rl_graph"),
    Target("kcoref.losses", "_scaffold_loss_graph", "losses.sl_graph",
           _count_scaffold),
    Target("kcoref.autodiff", "Tensor.backward", "autodiff.backward",
           _count_tape),
    Target("kcoref.training", "run_schedule", "training.schedule"),
    Target("kcoref.training", "compute_gradients", "training.gradients"),
    Target("kcoref.training", "bind_parameters", "training.bind"),
    Target("kcoref.training", "optimizer_step", "training.optimizer"),
    Target("kcoref.evaluation", "predict_antecedents",
           "evaluation.antecedents"),
    Target("kcoref.evaluation", "decode_clusters", "evaluation.decode",
           _count_links),
    Target("kcoref.evaluation", "score_documents", "evaluation.score"),
    Target("kcoref.evaluation", "pool_documents", "evaluation.score"),
    Target("kcoref.evaluation", "score_clusterings", "evaluation.score"),
    Target("kcoref.evaluation", "muc", "evaluation.score"),
    Target("kcoref.evaluation", "b_cubed", "evaluation.score"),
    Target("kcoref.evaluation", "ceaf_e", "evaluation.ceaf_e", _count_ceaf),
    Target("kcoref.evaluation", "slice_by_concept",
           "evaluation.concept_slices"),
    Target("kcoref.evaluation", "slice_by_subword_bucket",
           "evaluation.subword_slices"),
]

# Per-layer time metric -> the layer whose self time it reports. The
# benchmark opens "training.load" itself, around ParameterStore.load.
TIME_METRICS = {
    "autodiff.backward_ms": "autodiff.backward",
    "training.optimizer_ms": "training.optimizer",
    "training.gradients_self_ms": "training.gradients",
    "training.schedule_self_ms": "training.schedule",
    "training.bind_ms": "training.bind",
    "training.load_ms": "training.load",
    "losses.objective_self_ms": "losses.objective",
    "losses.cl_graph_ms": "losses.cl_graph",
    "losses.rl_graph_ms": "losses.rl_graph",
    "losses.pair_set_ms": "losses.pair_set",
    "losses.sl_graph_ms": "losses.sl_graph",
    "corpus.enumerate_ms": "corpus.enumerate",
    "model.encode_ms": "model.encode",
    "model.span_reps_ms": "model.span_reps",
    "model.mention_ms": "model.mention",
    "model.prune_ms": "model.prune",
    "evaluation.antecedents_self_ms": "evaluation.antecedents",
    "evaluation.decode_ms": "evaluation.decode",
    "evaluation.score_ms": "evaluation.score",
    "evaluation.ceaf_e_ms": "evaluation.ceaf_e",
    "evaluation.concept_slices_ms": "evaluation.concept_slices",
    "evaluation.subword_slices_ms": "evaluation.subword_slices",
}

# Count metrics reported per item.
PER_ITEM_COUNTS = ("autodiff.tape_nodes", "losses.antecedent_pairs",
                   "losses.rl_pairs", "losses.sl_targets", "model.spans",
                   "model.candidates", "evaluation.links")

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {**{name: "ms" for name in TIME_METRICS},
         **{name: "count" for name in PER_ITEM_COUNTS},
         "losses.rl_budget_hit_rate": "ratio",
         "model.prune_gold_recall": "ratio",
         "evaluation.dummy_rate": "ratio",
         "evaluation.ceaf_cells": "count",
         "training.final_loss": "loss",
         "evaluation.avg_f1": "ratio",
         "trace.overhead_pct": "%"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, items: int, passes: int,
                      quality: dict, overhead_pct: float,
                      speed_scale: float) -> dict[str, float]:
    """Every per-layer metric of one traced phase.

    Self times are multiplied by `speed_scale`, the traced repeats' time in
    reference ns over their measured ns (clock.py).
    """
    table = tracer.layer_table()
    c = tracer.counts
    out = {name: table.get(layer, (0, 0))[1] / 1e6 / items * speed_scale
           for name, layer in TIME_METRICS.items()}
    out.update({name: c.get(name, 0.0) / items for name in PER_ITEM_COUNTS})
    out["losses.rl_budget_hit_rate"] = _ratio(c.get("losses.rl_budget_hits", 0),
                                              c.get("losses.pair_set_calls", 0))
    out["model.prune_gold_recall"] = _ratio(c.get("model.gold_kept", 0),
                                            c.get("model.gold_mentions", 0))
    out["evaluation.dummy_rate"] = _ratio(
        c.get("evaluation.link_slots", 0) - c.get("evaluation.links", 0),
        c.get("evaluation.link_slots", 0))
    out["evaluation.ceaf_cells"] = c.get("evaluation.ceaf_cells", 0) / passes
    out["training.final_loss"] = quality.get(
        "final_loss", quality.get("checkpoint_final_loss", 0.0))
    out["evaluation.avg_f1"] = quality.get("avg_f1", 0.0)
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in UNITS}


def traced_shape(workload: str, tracer: Tracer, items: int) -> dict:
    """Input shape only a traced run sees: RL pairs per doc-step."""
    if workload == "evaluate":
        return {}
    return {"rl_pairs_per_step": tracer.counts.get("losses.rl_pairs", 0)
            / items,
            "rl_pairs_max": tracer.counts.get("losses.rl_pairs_max", 0)}


def _absent(layer: str, absent: list[str]) -> str:
    """The layer's targets when none of them exists any more, else ""."""
    labels = {t.label for t in TARGETS if t.layer == layer}
    return f"{', '.join(sorted(labels))} absent" if labels <= set(absent) \
        else ""


def bypass_checks(workload: str, tracer: Tracer,
                  absent: list[str]) -> list[tuple[str, bool | None, str]]:
    """Layers a workload must not enter, and the tracer's own consistency.

    A check whose layer has no target left, or whose counter failed, has
    `None` for ok: it is reported as unverifiable, neither passed nor failed.
    """
    table = tracer.layer_table()
    checks = []
    problems = tracer.consistency_problems()
    checks.append(("self times sum to each root span", not problems,
                   "; ".join(problems)))
    forbidden = {
        "train_cl": ("losses.rl_graph", "losses.sl_graph", "losses.pair_set"),
        "evaluate": ("autodiff.backward", "training.optimizer"),
    }.get(workload, ())
    for layer in forbidden:
        calls = table.get(layer, (0, 0))[0]
        why = _absent(layer, absent)
        checks.append((f"no {layer} spans", None if why else calls == 0,
                       why or f"{calls} spans"))
    if workload == "train_cl":
        pairs = tracer.counts.get("losses.rl_pairs", 0)
        why = _absent("losses.pair_set", absent)
        if not why and "losses.pair_set" in tracer.count_errors:
            why = f"counter failed: {tracer.count_errors['losses.pair_set']}"
        checks.append(("no RL pairs", None if why else pairs == 0,
                       why or f"{pairs} pairs"))
    return checks
