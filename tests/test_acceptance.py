"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The training-based criteria run on
synthetic corpora with a planted suffix-piece confound: entity names from
different concepts share suffix pieces, so surface overlap misleads a
model trained on the coreference loss alone.
"""

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from kcoref import evaluation as ev
from kcoref import model as m
from kcoref import toolkit as tk
from kcoref import training as tr
from kcoref.corpus import SubwordVocab, subword_bucket, tokenize_subwords
from kcoref.evaluation import RPF1, average_report, score_documents
from kcoref.lexicon import MatchPolicy, annotate_documents
from kcoref.losses import LossWeights, ObjectiveConfig, document_objective
from kcoref.toolkit import SyntheticSpec, generate_synthetic_corpus

from oracles import (b_cubed_reference, ceaf_e_brute_force, cosine_distance,
                     eig2x2, muc_reference, random_clustering,
                     target_distance)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {name}: {status} {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared confound corpus and trained models


CONFOUND_SPEC = SyntheticSpec(
    n_documents=24, seed=9, chains_per_doc=(3, 4), chain_length=(2, 4),
    suffixes=("ia",), entities_per_concept=6)

FULL_WEIGHTS = LossWeights(alpha_c=1.0, alpha_k={"coarse": 0.5, "fine": 0.2},
                           beta=(1.0, 1.0, 0.5))
RL_WEIGHTS = dataclasses.replace(FULL_WEIGHTS, beta=(1.0, 1.0, 0.0))
CL_WEIGHTS = LossWeights(beta=(1.0, 0.0, 0.0))


def confound_config(prune_ratio=0.3):
    return m.ModelConfig(d_token=24, d_width=4, window_radius=1,
                         scorer_hidden=16, max_span_width=3,
                         prune_ratio=prune_ratio, max_antecedents=30)


def confound_objective():
    return ObjectiveConfig(pair_budget=600, pair_seed=5,
                           scaffold_lexicon="coarse")


@pytest.fixture(scope="module")
def confound_data():
    corpus = generate_synthetic_corpus(CONFOUND_SPEC)
    policy = MatchPolicy(mode="exact")
    train = annotate_documents(corpus.documents[:16], corpus.fine_lexicon,
                               policy)
    test = annotate_documents(corpus.documents[16:], corpus.fine_lexicon,
                              policy)
    classes = tuple(sorted(corpus.coarse_lexicon.concepts))
    vocab = tr.build_vocab(train)
    return corpus, train, test, vocab, classes


def train_model(train_docs, vocab, classes, weights, config, seed,
                epochs=80, base_lr=3e-3, task_lr=6e-3):
    store = tr.init_parameters(config, vocab, classes, seed=seed)
    schedule = tr.TrainingSchedule(
        [tr.Phase("train", epochs, weights, base_lr, task_lr)])
    store, records = tr.run_schedule(schedule, {"train": train_docs}, config,
                                     confound_objective(), store)
    return store, records


ARMS = {"cl": CL_WEIGHTS, "full": FULL_WEIGHTS}


def train_arm(train_docs, vocab, classes, seed, name):
    """The trained store of one (seed, arm) run of `seed_runs`."""
    store, _ = train_model(train_docs, vocab, classes, ARMS[name],
                           confound_config(), seed)
    return store


@pytest.fixture(scope="module")
def seed_runs(confound_data):
    """Six seeds x {CL-only, CL+RL+SL} trained on the confound train split.

    The runs are deterministic and independent, so two worker processes
    train them (`test_seed_runs_match_serial_training`).
    """
    _, train, test, vocab, classes = confound_data
    runs = [(seed, name) for seed in range(6) for name in ARMS]
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        stores = pool.map(train_arm, *zip(*[(train, vocab, classes) + run
                                             for run in runs]),
                          timeout=600)
        return dict(zip(runs, stores))


def test_seed_runs_match_serial_training(confound_data, seed_runs):
    _, train, _, vocab, classes = confound_data
    for name in ARMS:
        serial = train_arm(train, vocab, classes, 0, name)
        parallel = seed_runs[(0, name)]
        assert (parallel.step, parallel.seed) == (serial.step, serial.seed)
        assert parallel.buffer().tobytes() == serial.buffer().tobytes()


def tracked_gold_gap(docs, store, config, weights):
    gaps = []
    for doc in docs:
        gold = doc.gold_spans()
        internals = tk.span_internals(doc, gold, store, config)
        for a, b in itertools.combinations(gold, 2):
            target = target_distance(a, b, doc, weights)
            gaps.append(abs(target - cosine_distance(internals[a],
                                                     internals[b])))
    return float(np.mean(gaps))


def concept_cosine_means(docs, store, config, lexicon_id="coarse"):
    within, across = [], []
    for doc in docs:
        labels = doc.concept_annotations.get(lexicon_id, {})
        gold = [s for s in doc.gold_spans() if s in labels]
        internals = tk.span_internals(doc, gold, store, config)
        for a, b in itertools.combinations(gold, 2):
            d = cosine_distance(internals[a], internals[b])
            (within if labels[a] == labels[b] else across).append(d)
    return float(np.mean(within)), float(np.mean(across))


def scaffold_accuracy(docs, store, config, lexicon_id="coarse"):
    classes = store.scaffold_classes
    weight_matrix = store.tensors["scaffold.weights"]
    correct = total = 0
    for doc in docs:
        labels = doc.concept_annotations.get(lexicon_id, {})
        spans = [s for s in doc.gold_spans() if s in labels]
        if not spans:
            continue
        internals = tk.span_internals(doc, spans, store, config)
        for span in spans:
            logits = weight_matrix @ internals[span]
            predicted = classes[int(np.argmax(logits))]
            correct += predicted == labels[span]
            total += 1
    return correct / total


# ---------------------------------------------------------------------------
# 1. Gradient suite


def test_criterion_1_gradient_suite():
    started = time.monotonic()
    spec = SyntheticSpec(n_documents=2, seed=3, chains_per_doc=(2, 2),
                         chain_length=(2, 2), filler_gap=(1, 2),
                         entities_per_concept=4, suffixes=("ia", "oma"))
    corpus = generate_synthetic_corpus(spec)
    docs = annotate_documents(corpus.documents, corpus.fine_lexicon,
                              MatchPolicy())
    config = m.ModelConfig(d_token=5, d_width=3, window_radius=1,
                           scorer_hidden=4, max_span_width=2, prune_ratio=0.4,
                           max_antecedents=10)
    vocab = tr.build_vocab(docs)
    classes = tuple(sorted(corpus.coarse_lexicon.concepts))
    objective = ObjectiveConfig(pair_budget=120, pair_seed=7,
                                scaffold_lexicon="coarse")

    worst = {}
    for label, beta in (("CL", (1.0, 0.0, 0.0)), ("RL", (0.0, 1.0, 0.0)),
                        ("SL", (0.0, 0.0, 1.0)),
                        ("combined", (1.0, 0.7, 0.4))):
        weights = LossWeights(alpha_c=1.0,
                              alpha_k={"coarse": 0.5, "fine": 0.2}, beta=beta)
        store = tr.init_parameters(config, vocab, classes, seed=1)
        store.tensors["scaffold.weights"][...] = \
            np.random.default_rng(2).normal(size=(len(classes),
                                                  config.d_token)) * 0.3

        def build(enc, scoring, scaffold):
            return [document_objective(
                doc, enc, scoring, scaffold, weights, config, objective,
                np.random.default_rng([objective.pair_seed, i]))
                for i, doc in enumerate(docs)]

        check = tr.gradient_check(store, build, epsilon=1e-5,
                                  threshold=1e-4, coords_per_tensor=20,
                                  seed=4)
        worst[label] = check.max_error
        assert check.passed, f"{label}: {check.summary()}"

    elapsed = time.monotonic() - started
    detail = (f"max rel errors {({k: f'{v:.2e}' for k, v in worst.items()})} "
              f"in {elapsed:.1f}s")
    report(1, "gradient suite", max(worst.values()) < 1e-4 and elapsed < 60,
           detail)


# ---------------------------------------------------------------------------
# 2. Metric oracle suite


def test_criterion_2_metric_oracles():
    gold_ex = [frozenset("abc"), frozenset("de")]
    pred_ex = [frozenset("ab"), frozenset("cde")]
    worked_report = score_documents([gold_ex], [pred_ex])
    got_muc, got_b3 = worked_report.muc, worked_report.b_cubed
    worked = (got_muc.recall == pytest.approx(2 / 3)
              and got_muc.precision == pytest.approx(2 / 3)
              and got_b3.recall == pytest.approx(11 / 15)
              and got_b3.precision == pytest.approx(11 / 15))

    rng = np.random.default_rng(20_240_601)
    max_ceaf_err = 0.0
    for case in range(200):
        gold = random_clustering(rng, 12, 6)
        pred = random_clustering(rng, 12, 6)
        got_report = score_documents([gold], [pred])
        got = got_report.ceaf_e
        want = ceaf_e_brute_force(gold, pred)
        max_ceaf_err = max(max_ceaf_err, abs(got.recall - want[0]),
                           abs(got.precision - want[1]))
        got_m = got_report.muc
        assert (got_m.recall, got_m.precision, got_m.f1) == \
            muc_reference(gold, pred), f"MUC mismatch on case {case}"
        got_b = got_report.b_cubed
        assert (got_b.recall, got_b.precision, got_b.f1) == \
            b_cubed_reference(gold, pred), f"B3 mismatch on case {case}"

    report(2, "metric oracle suite",
           worked and max_ceaf_err < 1e-9,
           f"200 random clusterings, max CEAF-e deviation {max_ceaf_err:.1e}, "
           f"worked example MUC=(2/3, 2/3) B3=(11/15, 11/15)")


# ---------------------------------------------------------------------------
# 3. Averages check


def test_criterion_3_average_report():
    got = average_report(RPF1(0.7093, 0.7251, 0.7171),
                         RPF1(0.6491, 0.6648, 0.6569),
                         RPF1(0.5457, 0.5844, 0.5644))
    report(3, "averages check", abs(got.f1 - 0.6461) <= 1e-4,
           f"mean F1 {got.f1:.5f} vs 0.6461")


# ---------------------------------------------------------------------------
# 4. Overfit check


def test_criterion_4_overfit():
    started = time.monotonic()
    spec = SyntheticSpec(n_documents=20, seed=42, chains_per_doc=(2, 4),
                         chain_length=(2, 4))
    corpus = generate_synthetic_corpus(spec)
    docs = corpus.documents
    config = m.ModelConfig(d_token=12, d_width=4, window_radius=1,
                           scorer_hidden=12, max_span_width=3,
                           prune_ratio=0.5, max_antecedents=30)
    vocab = tr.build_vocab(docs)
    store = tr.init_parameters(config, vocab, (), seed=7)
    objective = ObjectiveConfig()

    best_f1, cl_per_doc, epochs_used = 0.0, float("inf"), 0
    for block in range(8):  # 8 x 25 = 200 epochs ceiling
        schedule = tr.TrainingSchedule(
            [tr.Phase("train", 25, CL_WEIGHTS, 5e-3, 1e-2)])
        store, records = tr.run_schedule(schedule, {"train": docs}, config,
                                         objective, store)
        epochs_used += 25
        cl_per_doc = records[-1].cl / len(docs)
        best_f1 = score_documents(
            [doc.gold_clusters for doc in docs],
            [ev.predict_clusters(doc, store, config).clusters
             for doc in docs]).average.f1
        if best_f1 >= 0.95 and cl_per_doc < 0.05:
            break
    elapsed = time.monotonic() - started
    report(4, "overfit check",
           best_f1 >= 0.95 and cl_per_doc < 0.05 and elapsed < 300,
           f"train avg F1 {best_f1:.4f}, CL/doc {cl_per_doc:.4f} after "
           f"{epochs_used} epochs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Retrofitting efficacy


def test_criterion_5_retrofitting(confound_data):
    _, train, _, vocab, classes = confound_data
    config = confound_config(prune_ratio=0.15)
    store0 = tr.init_parameters(config, vocab, classes, seed=3)
    gap_init = tracked_gold_gap(train, store0, config, RL_WEIGHTS)
    store, _ = train_model(train, vocab, classes, RL_WEIGHTS, config, seed=3,
                           epochs=100)
    gap_final = tracked_gold_gap(train, store, config, RL_WEIGHTS)
    within, across = concept_cosine_means(train, store, config)
    reduction = 1.0 - gap_final / gap_init
    report(5, "retrofitting efficacy",
           reduction >= 0.5 and across > within,
           f"gap {gap_init:.4f} -> {gap_final:.4f} ({reduction:.0%}); "
           f"cosine distance across={across:.3f} > within={within:.3f}")


# ---------------------------------------------------------------------------
# 6. Scaffold efficacy


def test_criterion_6_scaffold(confound_data, seed_runs):
    _, train, test, vocab, classes = confound_data
    config = confound_config()
    accuracy = scaffold_accuracy(test, seed_runs[(0, "full")], config)

    control_store, _ = train_model(train, vocab, classes, RL_WEIGHTS, config,
                                   seed=0)
    control = scaffold_accuracy(test, control_store, config)
    chance = 1.0 / len(classes)
    report(6, "scaffold efficacy",
           accuracy >= 0.9 and abs(control - chance) <= 0.10,
           f"held-out concept accuracy {accuracy:.3f} (>= 0.9); "
           f"beta3=0 control {control:.3f} vs chance {chance:.2f}")


# ---------------------------------------------------------------------------
# 7. Direction of effect


def test_criterion_7_direction_of_effect(confound_data, seed_runs):
    """Overall precision decides; the table beside it puts each claim of
    the abstract next to its number, per seed and arm, on the test split."""
    corpus, _, test, _, _ = confound_data
    config = confound_config()
    gold = [doc.gold_clusters for doc in test]
    rows, slices = [], {"coarse": {}, "fine": {}}
    for seed in range(6):
        for name in ARMS:
            store = seed_runs[(seed, name)]
            preds = [ev.predict_clusters(doc, store, config).clusters
                     for doc in test]
            overall = score_documents(gold, preds).average
            rows.append((seed, name, overall,
                         scaffold_accuracy(test, store, config),
                         tracked_gold_gap(test, store, config, FULL_WEIGHTS),
                         *concept_cosine_means(test, store, config)))
            for lexicon_id, table in slices.items():
                table[seed, name] = ev.slice_by_concept(test, preds,
                                                        lexicon_id)
    # A chain's bucket depends on its gold spans alone.
    subword = ev.slice_by_subword_bucket(test, gold, corpus.subword_vocab)

    print(f"\n  {len(test)} test documents; the RL gap is against the "
          f"CL+RL+SL target for both arms")
    print("  seed  arm        P       R      F1  scaffold  RL gap  "
          "cos within  cos across")
    for seed, name, rpf, accuracy, gap, within, across in rows:
        print(f"  {seed:4d}  {name:4s}  {rpf.precision:6.4f}  "
              f"{rpf.recall:6.4f}  {rpf.f1:6.4f}  {accuracy:8.3f}  "
              f"{gap:6.4f}  {within:10.4f}  {across:10.4f}")
    for lexicon_id, table in slices.items():
        keys = [f"{s.key} ({s.gold_chains})" for s in table[0, "cl"]]
        print(f"  {lexicon_id} concept slice F1, gold chains in brackets: "
              f"{', '.join(keys)}")
        for (seed, name), found in table.items():
            print(f"  {seed:4d}  {name:4s}  "
                  + " ".join(f"{s.report.average.f1:.3f}" for s in found))
    buckets = ", ".join(f"{s.key}: {s.gold_chains} chains" for s in subword)
    print(f"  subword buckets of the test chains: {buckets}"
          + ("; one bucket holds every chain, so the subword slice is "
             "degenerate and no evidence on domain-specific spans"
             if len(subword) == 1 else ""))

    precision = {name: [r[2].precision for r in rows if r[1] == name]
                 for name in ARMS}
    mean_cl = float(np.mean(precision["cl"]))
    mean_full = float(np.mean(precision["full"]))
    report(7, "direction of effect", mean_full >= mean_cl,
           f"mean test precision CL+RL+SL {mean_full:.4f} >= "
           f"CL-only {mean_cl:.4f} over 6 seeds")


def test_offset_separation_statistic():
    """The qualitative projection separation, as a measurable statistic.

    On a confound corpus whose chains open with a concept-marked modifier
    (first mention full form, second mention reduced), the trained
    CL+RL+SL model's mention-antecedent offsets point more alike within a
    concept than across concepts.
    """
    spec = SyntheticSpec(n_documents=24, seed=9, chains_per_doc=(3, 4),
                         chain_length=(2, 2), suffixes=("ia",),
                         entities_per_concept=6, qualifier_fraction=1.0,
                         determiner_fraction=0.0)
    corpus = generate_synthetic_corpus(spec)
    train = annotate_documents(corpus.documents[:16], corpus.fine_lexicon,
                               MatchPolicy())
    vocab = tr.build_vocab(train)
    classes = tuple(sorted(corpus.coarse_lexicon.concepts))
    config = confound_config()
    store, _ = train_model(train, vocab, classes, FULL_WEIGHTS, config, seed=0)
    records = tk.mention_antecedent_offsets(train, store, config,
                                            lexicon_id="coarse", sample=200,
                                            seed=1)
    within, across = tk.offset_cosine_statistics(records)
    print(f"\n  offset cosine similarity: within={within:.4f} "
          f"across={across:.4f}")
    assert within > across


# ---------------------------------------------------------------------------
# 8. Tokenizer and bucket suite


def test_criterion_8_tokenizer_buckets():
    vocab = SubwordVocab(initial=frozenset({"lap"}),
                         continuation=frozenset({"aro", "sco", "py", "tom",
                                                 "y"}),
                         unk="[UNK]")
    seg_ok = (tokenize_subwords("laparoscopy", vocab)
              == ["lap", "##aro", "##sco", "##py"]
              and tokenize_subwords("laparotomy", vocab)
              == ["lap", "##aro", "##tom", "##y"])

    buckets_ok = (subword_bucket(0.0) == 0
                  and subword_bucket(1.6999) == 0
                  and subword_bucket(1.7) == 1      # boundary belongs above
                  and subword_bucket(3.4 - 1e-9) == 1
                  and subword_bucket(3.4) == 2
                  and subword_bucket(6.8) == 4
                  and subword_bucket(8.5) == 5)     # overflow slice
    report(8, "tokenizer/bucket suite", seg_ok and buckets_ok,
           "wordpiece segmentations and half-open 1.7-wide buckets")


# ---------------------------------------------------------------------------
# 9. Determinism


def _run_cli_pipeline(root: Path, epochs: int = 5) -> dict[str, str]:
    root.mkdir(parents=True, exist_ok=True)
    spec = {"n_documents": 10, "seed": 9, "chains_per_doc": [2, 3],
            "chain_length": [2, 3], "suffixes": ["ia"],
            "entities_per_concept": 4}
    (root / "spec.json").write_text(json.dumps(spec))
    config = {
        "seed": 5,
        "corpora": {"train": "data/corpus.jsonl",
                    "eval": "data/corpus_test.jsonl"},
        "lexicons": [{"path": "data/coarse.lex"},
                     {"path": "data/fine.lex", "annotate": True}],
        "subword_vocab": "data/pieces.vocab",
        "model": {"d_token": 8, "d_width": 3, "window_radius": 1,
                  "scorer_hidden": 8, "max_span_width": 3,
                  "prune_ratio": 0.3, "max_antecedents": 20},
        "objective": {"pair_budget": 200, "pair_seed": 11,
                      "scaffold_lexicon": "coarse"},
        "phases": [{"corpus": "train", "epochs": epochs, "role": "target",
                    "weights": {"alpha_c": 1.0,
                                "alpha_k": {"coarse": 0.5, "fine": 0.2},
                                "beta": [1.0, 0.5, 0.3]},
                    "base_lr": 3e-3, "task_lr": 6e-3}],
        "eval_corpus": "eval",
        "projection": {"sample": 12, "seed": 4, "lexicon": "coarse"},
    }
    (root / "config.json").write_text(json.dumps(config))
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def cli(*args):
        result = subprocess.run([sys.executable, "-m", "kcoref.cli", "--quiet",
                                 *args], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr
        return result

    cli("synth", str(root / "spec.json"), "--out", str(root / "data"),
        "--test-docs", "4")
    cli("train", str(root / "config.json"), "--out", str(root / "run"))
    cli("evaluate", str(root / "config.json"),
        str(root / "run" / "checkpoint.ckpt"), "--out", str(root / "eval"))
    cli("project", str(root / "config.json"),
        str(root / "run" / "checkpoint.ckpt"), "--out", str(root / "proj"))

    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_9_determinism(tmp_path):
    # Two independent pipelines of separate processes, run side by side.
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(_run_cli_pipeline,
                                 [tmp_path / "run1", tmp_path / "run2"],
                                 timeout=600)
    same_names = set(first) == set(second)
    mismatched = [k for k in first if same_names and first[k] != second[k]]
    report(9, "determinism", same_names and not mismatched,
           f"{len(first)} artifacts byte-identical across two separate "
           f"processes" + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_a_linking_pipeline_reruns_byte_identically(tmp_path):
    """Criterion 9's pipeline trained for 40 epochs, so that `evaluate`
    predicts links and the reruns also pin decoding and the non-empty
    metric arithmetic."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(
            lambda root: _run_cli_pipeline(root, epochs=40),
            [tmp_path / "run1", tmp_path / "run2"], timeout=600)
    assert first == second
    report_json = json.loads((tmp_path / "run1" / "eval" / "report.json")
                             .read_text(encoding="utf-8"))
    assert report_json["overall"]["muc"]["precision"] > 0


# ---------------------------------------------------------------------------
# 10. PCA suite


def test_criterion_10_pca():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(50, 9)) * np.linspace(3.0, 0.3, 9)
    _, explained, components = tk.pca_2d(data)
    gram = components @ components.T
    orthonormal = np.abs(gram - np.eye(2)).max() < 1e-10
    sorted_ok = explained[0] >= explained[1] >= 0.0

    planar = np.zeros((3, 6))
    planar[:, 1] = [0.0, 2.0, 0.0]
    planar[:, 4] = [0.0, 0.0, 1.0]
    _, got, _ = tk.pca_2d(planar)
    lam1, lam2 = eig2x2(8 / 9, -2 / 9, 2 / 9)
    hand_ok = (abs(got[0] - lam1) < 1e-12 and abs(got[1] - lam2) < 1e-12)
    report(10, "PCA suite", orthonormal and sorted_ok and hand_ok,
           f"orthonormality dev {np.abs(gram - np.eye(2)).max():.1e}; "
           f"variances {got[0]:.5f}, {got[1]:.5f} match 2x2 eigendecomposition")
