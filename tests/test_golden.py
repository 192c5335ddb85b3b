"""The benchmark's computed bytes, pinned per environment.

perfbench's three workloads check only that a run's own repeats agree. This
test rebuilds their inputs and compares what they compute with
`tests/golden.json`: the digest and final loss of both training schedules,
and the clusters and average F1 of the seed-1 evaluate set. A change that
moves one byte of training or prediction fails here.

The goldens are keyed by environment (Python, numpy and the BLAS build),
because another BLAS may round the hidden layers differently. On an
environment with no entry the test skips and names the key; a change that
moves bytes on purpose adds or updates the entry and says why.
"""

import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from kcoref import evaluation as ev
from kcoref import training as tr
from kcoref.lexicon import MatchPolicy, annotate_documents
from kcoref.toolkit import generate_synthetic_corpus

from test_acceptance import (CL_WEIGHTS, CONFOUND_SPEC, FULL_WEIGHTS,
                             confound_config, confound_objective)

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# perfbench/workloads.py's set-up: the first 16 documents train, 200 of the
# next 600 are drawn per evaluate seed, and every run starts from init
# seed 0 with a 20-epoch schedule.
TRAIN_DOCS, EVAL_POOL, EVAL_DOCS = 16, 600, 200
EPOCHS, BASE_LR, TASK_LR = 20, 3e-3, 6e-3
EVAL_SEED = 1


def environment_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def store_digest(store: tr.ParameterStore) -> str:
    """perfbench's `store_digest`: every tensor's name and bytes, by name."""
    h = hashlib.sha256()
    for name in sorted(store.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(store.tensors[name]).tobytes())
    return h.hexdigest()[:16]


def clusters_key(preds) -> str:
    """perfbench's `_clusters_key`: each document's clusters, sorted."""
    rows = [sorted(sorted((s.start, s.end) for s in c) for c in doc)
            for doc in preds]
    return digest(repr(rows).encode())


def computed(tmp_path: Path) -> dict:
    spec = dataclasses.replace(CONFOUND_SPEC,
                               n_documents=TRAIN_DOCS + EVAL_POOL)
    corpus = generate_synthetic_corpus(spec)
    docs = annotate_documents(corpus.documents, corpus.fine_lexicon,
                              MatchPolicy(mode="exact"))
    train = docs[:TRAIN_DOCS]
    config, objective = confound_config(), confound_objective()
    initial = tr.init_parameters(config, tr.build_vocab(train),
                                 tuple(sorted(corpus.coarse_lexicon.concepts)),
                                 seed=0)
    got, stores = {}, {}
    for name, weights in (("train_full", FULL_WEIGHTS),
                          ("train_cl", CL_WEIGHTS)):
        schedule = tr.TrainingSchedule(
            [tr.Phase("train", EPOCHS, weights, BASE_LR, TASK_LR)])
        stores[name], records = tr.run_schedule(
            schedule, {"train": train}, config, objective, initial.copy())
        got[name] = {"store": store_digest(stores[name]),
                     "final_loss": records[-1].total}

    # evaluate reads the full-objective model back from its checkpoint.
    stores["train_full"].save(tmp_path / "model.ckpt")
    store = tr.ParameterStore.load(tmp_path / "model.ckpt")
    chosen = np.sort(np.random.default_rng(EVAL_SEED).choice(
        EVAL_POOL, size=EVAL_DOCS, replace=False))
    held = [docs[TRAIN_DOCS + int(i)] for i in chosen]
    preds = [ev.predict_clusters(doc, store, config).clusters for doc in held]
    report = ev.score_documents([doc.gold_clusters for doc in held], preds)
    got[f"evaluate_seed{EVAL_SEED}"] = {"clusters": clusters_key(preds),
                                        "avg_f1": report.average.f1}
    return got


def test_the_benchmark_computes_the_committed_bytes(tmp_path):
    key = environment_key()
    goldens = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in goldens:
        pytest.skip(f"tests/golden.json has no entry for {key!r}")
    assert computed(tmp_path) == goldens[key]
