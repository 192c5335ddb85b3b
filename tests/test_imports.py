"""What imports what: the kcoref names the benchmark needs, and which parts
of scipy a process loads.

Every kcoref name that perfbench's workloads import, read through a module
alias or wrap as a `tracing.Target` must exist, or every benchmark run
fails. Importing kcoref loads no scipy module, checked in a fresh
interpreter. The synth and project paths never do; a training doc-step
loads `scipy.sparse` for the CL backward's scatter; the assignment solver
and the graph labelling load on the first CEAF-e score.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def benchmark_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, dotted name) of each kcoref name a benchmark file imports
    with `from kcoref... import`, reads as `alias.name[.attr...]` through a
    module imported that way, or names in a `tracing.Target` call; a
    module imported from `kcoref` is (module, "")."""
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "kcoref":
            for alias in node.names:
                if node.module == "kcoref":
                    module = aliases[alias.asname or alias.name] = \
                        f"kcoref.{alias.name}"
                    names.add((module, ""))
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root, *path = ast.unparse(node).split(".")
            if root in aliases and all(map(str.isidentifier, path)):
                names.add((aliases[root], ".".join(path)))
        elif isinstance(node, ast.Call) \
                and ast.unparse(node.func) == "tracing.Target":
            module, attr = (ast.literal_eval(arg) for arg in node.args[:2])
            names.add((module, attr))
    return names


def test_every_kcoref_name_the_benchmark_needs_exists():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(
        encoding="utf-8"))
    names = benchmark_names(tree)
    assert {("kcoref.evaluation", "score_documents"),
            ("kcoref.training", "ParameterStore.load"),
            ("kcoref.training", "optimizer_step"),
            ("kcoref.toolkit", "generate_synthetic_corpus")} <= names
    missing = []
    for module, dotted in sorted(names):
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            missing.append(module)
            continue
        for part in filter(None, dotted.split(".")):
            owner = getattr(owner, part, missing)
        if owner is missing:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"perfbench/workloads.py needs {missing}"

SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

stages = {}
import kcoref.cli
from kcoref import evaluation as ev, losses as L, toolkit as tk
from kcoref import training as tr
from kcoref.corpus import SpanRef
from kcoref.lexicon import MatchPolicy, annotate_documents
from kcoref.model import ModelConfig
stages["import"] = loaded()

synthetic = tk.generate_synthetic_corpus(tk.SyntheticSpec(
    n_documents=3, seed=9, chains_per_doc=(2, 3), chain_length=(2, 3)))
docs = annotate_documents(synthetic.documents, synthetic.coarse_lexicon,
                          MatchPolicy())
config = ModelConfig(d_token=6, d_width=3, window_radius=1, scorer_hidden=4,
                     max_span_width=3, max_antecedents=10)
store = tr.init_parameters(config, tr.build_vocab(docs),
                           tuple(sorted(synthetic.coarse_lexicon.concepts)))
tk.mention_antecedent_offsets(docs, store, config, sample=4)
stages["synth_project"] = loaded()

weights = L.LossWeights(alpha_k={"coarse": 0.5}, beta=(1.0, 1.0, 0.5))
objective = L.ObjectiveConfig(pair_budget=50, scaffold_lexicon="coarse")
tr.compute_gradients(store, lambda enc, scoring, scaffold: [
    L.document_objective(docs[0], enc, scoring, scaffold, weights, config,
                         objective)])
stages["doc_step"] = loaded()

def cluster(*starts):
    return frozenset(SpanRef(s, s) for s in starts)

ev.score_documents([[cluster(1, 2, 3), cluster(4, 5, 6)]],
                   [[cluster(1, 2, 4), cluster(3, 5, 6)]])
stages["ceaf_e"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_loads_where_it_is_first_used():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    stages = {name: set(modules)
              for name, modules in json.loads(done.stdout).items()}
    assert stages["import"] == set()
    assert stages["synth_project"] == set()
    assert "scipy.sparse" in stages["doc_step"]
    assert not {"scipy.optimize", "scipy.sparse.csgraph"} & stages["doc_step"]
    assert {"scipy.optimize", "scipy.sparse.csgraph"} <= stages["ceaf_e"]
