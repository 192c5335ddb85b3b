"""The three kcoref benchmark workloads: set-up, measured phases and checks.

Every workload uses the acceptance "confound" setup (corpus seed 9, the
ModelConfig and ObjectiveConfig below, the 16-document train split with the
fine lexicon annotated) and the same parameter initialisation. A seeded
initialisation would change the trained model, and with it the RL pairs per
doc-step (164 to 297 over seeds 1-10) and the clusters evaluate predicts,
which CEAF-e's cost grows with. So the train inputs are the same for every
workload seed, and on evaluate the seed draws the 200 evaluation documents
from a held-out pool.

A run repeats identical work (a schedule or an evaluation pass) and times
each repeat as a row of consecutive segments that cover it: one per doc-step
or document, plus the work before the first and after the last. Each
segment is scaled by the machine's speed around it (clock.py), and the
timing metrics use, per segment, its median over the repeats.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kcoref import evaluation as ev
from kcoref import training as tr
from kcoref.lexicon import MatchPolicy, annotate_documents
from kcoref.losses import LossWeights, ObjectiveConfig
from kcoref.model import ModelConfig
from kcoref.toolkit import SyntheticSpec, generate_synthetic_corpus

import tracing
from clock import Clock

WORKLOADS = ("train_full", "train_cl", "evaluate")

TRAIN_DOCS = 16
EVAL_DOCS = 200
EVAL_POOL = 600
INIT_SEED = 0
# A 20-epoch schedule (about 3 s with the full objective) is repeated until
# the run time is spent, so one run holds several identical schedules to
# compare and overshoots its time by at most one schedule.
EPOCHS = 20
BASE_LR, TASK_LR = 3e-3, 6e-3
# Segments between two probes of the machine's speed: one epoch of
# doc-steps on train, about 40 ms of documents on evaluate.
TRAIN_BLOCK = TRAIN_DOCS
EVAL_BLOCK = 25
SLICE_LEXICON = "coarse"

FULL_WEIGHTS = LossWeights(alpha_c=1.0, alpha_k={"coarse": 0.5, "fine": 0.2},
                           beta=(1.0, 1.0, 0.5))
CL_WEIGHTS = LossWeights(beta=(1.0, 0.0, 0.0))


def corpus_spec(n_documents: int) -> SyntheticSpec:
    # The generator is sequential, so the first 16 documents are the same
    # for every n_documents: the evaluate set shares the train vocabulary.
    return SyntheticSpec(n_documents=n_documents, seed=9,
                         chains_per_doc=(3, 4), chain_length=(2, 4),
                         suffixes=("ia",), entities_per_concept=6)


def model_config() -> ModelConfig:
    return ModelConfig(d_token=24, d_width=4, window_radius=1,
                       scorer_hidden=16, max_span_width=3, prune_ratio=0.3,
                       max_antecedents=30)


def objective_config() -> ObjectiveConfig:
    return ObjectiveConfig(pair_budget=600, pair_seed=5,
                           scaffold_lexicon="coarse")


def schedule(weights: LossWeights) -> tr.TrainingSchedule:
    return tr.TrainingSchedule(
        [tr.Phase("train", EPOCHS, weights, BASE_LR, TASK_LR)])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def store_digest(store: tr.ParameterStore) -> str:
    h = hashlib.sha256()
    for name in sorted(store.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(store.tensors[name]).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Inputs:
    workload: str
    seed: int
    config: ModelConfig
    objective: ObjectiveConfig
    train_docs: list
    store: tr.ParameterStore          # initial (train) or trained (evaluate)
    weights: LossWeights | None = None
    eval_docs: list = field(default_factory=list)
    subword_vocab: object = None
    checkpoint: Path | None = None
    fingerprint: str = ""             # identical across repeated set-ups
    setup_final_loss: float = 0.0     # evaluate: last epoch of the checkpoint


def setup(workload: str, seed: int, out_dir: Path, tag: str) -> Inputs:
    """Build a workload's inputs from its seed; evaluate also trains."""
    config, objective = model_config(), objective_config()
    n_docs = TRAIN_DOCS + (EVAL_POOL if workload == "evaluate" else 0)
    corpus = generate_synthetic_corpus(corpus_spec(n_docs))
    docs = annotate_documents(corpus.documents, corpus.fine_lexicon,
                              MatchPolicy(mode="exact"))
    train_docs = docs[:TRAIN_DOCS]
    classes = tuple(sorted(corpus.coarse_lexicon.concepts))
    vocab = tr.build_vocab(train_docs)
    store = tr.init_parameters(config, vocab, classes, seed=INIT_SEED)
    if workload != "evaluate":
        weights = FULL_WEIGHTS if workload == "train_full" else CL_WEIGHTS
        return Inputs(workload, seed, config, objective, train_docs, store,
                      weights, fingerprint=store_digest(store))
    store, records = tr.run_schedule(schedule(FULL_WEIGHTS),
                                     {"train": train_docs}, config, objective,
                                     store)
    checkpoint = out_dir / f"evaluate-seed{seed}-{tag}.ckpt"
    store.save(checkpoint)
    chosen = np.sort(np.random.default_rng(seed).choice(
        EVAL_POOL, size=EVAL_DOCS, replace=False))
    eval_docs = [docs[TRAIN_DOCS + int(i)] for i in chosen]
    return Inputs(workload, seed, config, objective, train_docs, store,
                  eval_docs=eval_docs, subword_vocab=corpus.subword_vocab,
                  checkpoint=checkpoint,
                  fingerprint=digest(checkpoint.read_bytes()
                                     + repr(chosen.tolist()).encode()),
                  setup_final_loss=records[-1].total)


# ---------------------------------------------------------------------------
# Measured phases


@dataclass
class Measurement:
    items: int = 0              # doc-steps (train) or documents (evaluate)
    busy_ns: int = 0            # measured time, probes excluded
    # Per repeat, its time scaled by the probes at its two ends: a traced
    # repeat and an untraced one are comparable only so (clock.py).
    repeat_ns: list = field(default_factory=list)
    # Per repeat, its consecutive segments in reference ns; all but the
    # first and last are items. A traced repeat is one segment.
    segments: list = field(default_factory=list)
    probe_ns: list = field(default_factory=list)
    failed: int = 0
    checks: list = field(default_factory=list)   # (name, ok, detail)
    quality: dict = field(default_factory=dict)
    shape: dict = field(default_factory=dict)
    repeats: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def merge(self, other: "Measurement") -> None:
        self.items += other.items
        self.busy_ns += other.busy_ns
        self.repeat_ns += other.repeat_ns
        self.segments += other.segments
        self.probe_ns += other.probe_ns
        self.failed += other.failed
        self.checks += other.checks
        self.repeats += other.repeats
        self.quality = self.quality or other.quality
        self.shape = self.shape or other.shape

    def add_repeat(self, clock: Clock) -> None:
        self.segments.append(clock.scaled())
        self.probe_ns += clock.probes
        self.busy_ns += sum(clock.raw)
        self.repeat_ns.append(clock.scaled_whole())

    def medians_ns(self) -> list[float]:
        """Per segment, its median over the repeats, in reference ns."""
        return [statistics.median(column) for column in zip(*self.segments)]


@contextlib.contextmanager
def step_marks(clocks: list[Clock]):
    """Mark a segment at every `training.optimizer_step`: one per doc-step."""

    def make(target, fn):
        def wrapper(*args, **kwargs):
            clocks[-1].mark()
            return fn(*args, **kwargs)
        return wrapper

    target = tracing.Target("kcoref.training", "optimizer_step", "")
    with tracing.installed([target], make) as absent:
        if absent:
            raise RuntimeError(f"{target.label} is gone; the doc-step "
                               f"interval cannot be measured")
        yield


def train_phase(inp: Inputs, seconds: float,
                tracer: tracing.Tracer | None = None,
                resetup=None, min_repeats: int = 2) -> Measurement:
    """Repeat the schedule from the same initial store until time is spent.

    With `resetup`, the inputs are built again before every repetition after
    the first (outside the measured time).
    """
    phase = Measurement()
    sched = schedule(inp.weights)
    steps_per_rep = EPOCHS * len(inp.train_docs)
    clocks: list[Clock] = []
    reference = None
    recorders = (contextlib.nullcontext() if tracer is not None
                 else step_marks(clocks))
    start = time.perf_counter_ns()
    with recorders:
        while True:
            if resetup is not None and phase.repeats:
                inp = resetup()
            store = inp.store.copy()
            clocks.append(Clock(TRAIN_BLOCK))
            try:
                store, records = tr.run_schedule(
                    sched, {"train": inp.train_docs}, inp.config,
                    inp.objective, store)
            except tr.TrainingError as exc:
                phase.failed += 1
                phase.check("schedule completes", False, str(exc))
                break
            clocks[-1].mark()
            phase.add_repeat(clocks[-1])
            phase.items += steps_per_rep
            phase.repeats += 1
            totals = [r.total for r in records]
            rows = [(r.phase, r.epoch, r.cl, r.rl, r.sl, r.total,
                     r.pruning_misses) for r in records]
            phase.check("loss finite", all(map(math.isfinite, totals)),
                        f"repeat {phase.repeats}")
            phase.check("last epoch below first", totals[-1] < totals[0],
                        f"{totals[0]!r} -> {totals[-1]!r}")
            if reference is None:
                reference = (rows, store_digest(store))
                phase.quality = {"first_loss": totals[0],
                                 "final_loss": totals[-1],
                                 "pruning_misses_last_epoch":
                                     records[-1].pruning_misses}
            else:
                phase.check("records identical across repeats",
                            rows == reference[0], f"repeat {phase.repeats}")
                phase.check("parameters identical across repeats",
                            store_digest(store) == reference[1],
                            f"repeat {phase.repeats}")
            elapsed = (time.perf_counter_ns() - start) / 1e9
            if elapsed >= seconds and phase.repeats >= min_repeats:
                break
    return phase


def _report_values(report: ev.MetricReport) -> list[float]:
    return [v for metric in (report.muc, report.b_cubed, report.ceaf_e,
                             report.average)
            for v in (metric.recall, metric.precision, metric.f1)]


def _clusters_key(preds) -> str:
    rows = [sorted(sorted((s.start, s.end) for s in c) for c in doc)
            for doc in preds]
    return digest(repr(rows).encode())


def evaluate_phase(inp: Inputs, seconds: float,
                   tracer: tracing.Tracer | None = None,
                   min_repeats: int = 2) -> Measurement:
    """Repeat the `kcoref evaluate` path: load, predict, score, slice."""
    phase = Measurement()
    docs = inp.eval_docs
    gold = [doc.gold_clusters for doc in docs]
    span = tracer.span if tracer is not None \
        else (lambda _: contextlib.nullcontext())
    reference = None
    start = time.perf_counter_ns()
    while True:
        # A traced pass is one segment: probes would land in its spans.
        clock = Clock(EVAL_BLOCK)
        mark = clock.mark if tracer is None else (lambda: None)
        with span("bench.evaluate_pass"):
            with span("training.load"):
                store = tr.ParameterStore.load(inp.checkpoint)
            mark()
            preds = []
            for doc in docs:
                preds.append(ev.predict_clusters(doc, store,
                                                 inp.config).clusters)
                mark()
            report = ev.score_documents(gold, preds)
            concept = ev.slice_by_concept(docs, preds, SLICE_LEXICON)
            subword = ev.slice_by_subword_bucket(docs, preds,
                                                 inp.subword_vocab)
        clock.mark()
        phase.add_repeat(clock)
        phase.items += len(docs)
        phase.repeats += 1

        values = _report_values(report)
        for s in concept + subword:
            values.extend(_report_values(s.report))
        avg_f1 = report.average.f1
        n_pred = sum(len(p) for p in preds)
        phase.check("scores within [0, 1]",
                    all(0.0 <= v <= 1.0 for v in values),
                    f"pass {phase.repeats}")
        phase.check("predicted clusters present", n_pred > 0,
                    f"{n_pred} clusters")
        key = _clusters_key(preds)
        if reference is None:
            reference = (avg_f1, key)
            phase.quality = {"avg_f1": avg_f1,
                             "muc_f1": report.muc.f1,
                             "b_cubed_f1": report.b_cubed.f1,
                             "ceaf_e_f1": report.ceaf_e.f1,
                             "concept_slices": len(concept),
                             "subword_slices": len(subword),
                             "checkpoint_final_loss": inp.setup_final_loss}
            phase.shape["predicted_clusters_per_doc"] = n_pred / len(docs)
        else:
            phase.check("avg_f1 identical across passes",
                        avg_f1 == reference[0],
                        f"{reference[0]!r} vs {avg_f1!r}")
            phase.check("predictions identical across passes",
                        key == reference[1], f"pass {phase.repeats}")
        elapsed = (time.perf_counter_ns() - start) / 1e9
        if elapsed >= seconds and phase.repeats >= min_repeats:
            break
    return phase


def run_phase(inp: Inputs, seconds: float,
              tracer: tracing.Tracer | None = None, resetup=None,
              min_repeats: int = 2) -> Measurement:
    if inp.workload == "evaluate":
        return evaluate_phase(inp, seconds, tracer, min_repeats)
    return train_phase(inp, seconds, tracer, resetup, min_repeats)


# ---------------------------------------------------------------------------
# Static input shape


def static_shape(inp: Inputs) -> dict:
    """Per-document sizes that follow from the corpus and the config alone."""
    docs = inp.eval_docs if inp.workload == "evaluate" else inp.train_docs
    cfg = inp.config
    tokens, spans, cands, pairs, gold = [], [], [], [], []
    for doc in docs:
        n = len(doc)
        n_spans = sum(min(cfg.max_span_width, n - s) for s in range(n))
        n_cands = min(n_spans, math.ceil(cfg.prune_ratio * n))
        tokens.append(n)
        spans.append(n_spans)
        cands.append(n_cands)
        pairs.append(sum(min(k, cfg.max_antecedents) for k in range(n_cands)))
        gold.append(len(doc.gold_clusters))

    def stats(values):
        return {"mean": sum(values) / len(values), "max": max(values)}

    return {"documents": len(docs), "tokens_per_doc": stats(tokens),
            "spans_per_doc": stats(spans),
            "candidates_per_doc": stats(cands),
            "antecedent_pairs_per_doc": stats(pairs),
            "gold_clusters_per_doc": stats(gold)}
