"""What imports what: the kcoref names the benchmark needs, and that no
kcoref path loads scipy.

Every kcoref name that perfbench's workloads import, read through a module
alias or wrap as a `tracing.Target` must exist, or every benchmark run
fails; every layer target of perfbench/layers.py must exist but the seven
known to be gone. No stage of a fresh interpreter's run loads a scipy
module: importing kcoref, the synth and project paths, a training doc-step,
CEAF-e and the evaluate path. The source has no scipy import; only the tests use scipy, as
an oracle.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def kcoref_aliases(tree: ast.AST) -> dict[str, tuple[str, str]]:
    """Local name -> (module, dotted name) of each name a benchmark file
    imports with `from kcoref... import`; a module imported from `kcoref`
    is (module, "")."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "kcoref":
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    (f"kcoref.{alias.name}", "") if node.module == "kcoref" \
                    else (node.module, alias.name)
    return aliases


def resolve(aliases: dict[str, tuple[str, str]],
            node: ast.AST) -> tuple[str, str] | None:
    """(module, dotted name) of `alias.name[.attr...]` through `aliases`."""
    root, *path = ast.unparse(node).split(".")
    if root not in aliases or not all(map(str.isidentifier, path)):
        return None
    module, dotted = aliases[root]
    return module, ".".join(filter(None, [dotted, *path]))


def benchmark_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, dotted name) of each kcoref name a benchmark file imports,
    reads through a module imported from `kcoref`, or names in a
    `tracing.Target` call (`Target` where it is imported by name)."""
    aliases = kcoref_aliases(tree)
    modules = {local: target for local, target in aliases.items()
               if not target[1]}
    names = set(aliases.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and (found := resolve(modules, node)):
            names.add(found)
        elif isinstance(node, ast.Call) \
                and ast.unparse(node.func) in ("Target", "tracing.Target"):
            module, attr = (ast.literal_eval(arg) for arg in node.args[:2])
            names.add((module, attr))
    return names


def kcoref_object(module: str, dotted: str):
    owner = importlib.import_module(module)
    for part in filter(None, dotted.split(".")):
        owner = getattr(owner, part)
    return owner


WORKLOADS = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(
    encoding="utf-8"))
LAYERS = ast.parse((ROOT / "perfbench" / "layers.py").read_text(
    encoding="utf-8"))

# The layer targets perfbench/layers.py still names although kcoref no longer
# has them: the traced run reports each as an absent layer. The benchmark
# refresh (ROADMAP item 1) deletes or retargets them and empties this set.
ABSENT_LAYER_TARGETS = {
    ("kcoref.autodiff", "Tensor.backward"),
    ("kcoref.training", "bind_parameters"),
    ("kcoref.evaluation", "pool_documents"),
    ("kcoref.evaluation", "score_clusterings"),
    ("kcoref.evaluation", "muc"),
    ("kcoref.evaluation", "b_cubed"),
    ("kcoref.evaluation", "ceaf_e"),
}


def absent_names(names: set[tuple[str, str]]) -> set[tuple[str, str]]:
    absent = set()
    for module, dotted in names:
        try:
            kcoref_object(module, dotted)
        except (ModuleNotFoundError, AttributeError):
            absent.add((module, dotted))
    return absent


def test_every_kcoref_name_the_benchmark_needs_exists():
    names = benchmark_names(WORKLOADS)
    assert {("kcoref.evaluation", "score_documents"),
            ("kcoref.training", "ParameterStore.load"),
            ("kcoref.training", "optimizer_step"),
            ("kcoref.toolkit", "generate_synthetic_corpus")} <= names
    missing = [f"{module}.{dotted}".rstrip(".")
               for module, dotted in sorted(absent_names(names))]
    assert not missing, f"perfbench/workloads.py needs {missing}"


def test_every_traced_layer_exists_but_the_known_absent_ones():
    """A target deleted or renamed in kcoref would turn its layer into an
    absent one without a word; a known-absent target that exists again
    would be traced, and leaves this list."""
    targets = benchmark_names(LAYERS)
    assert ("kcoref.model", "mention_scores") in targets
    absent = absent_names(targets)
    newly = sorted(absent - ABSENT_LAYER_TARGETS)
    back = sorted(ABSENT_LAYER_TARGETS - absent)
    assert not newly, f"perfbench/layers.py traces absent {newly}"
    assert not back, f"no longer absent, so not to be listed: {back}"


def test_every_benchmark_call_to_kcoref_binds():
    """Each call perfbench's workloads make to a kcoref function or class
    binds to its signature: a parameter the benchmark passes that was
    deleted or renamed fails here, not as a failed benchmark run."""
    aliases = kcoref_aliases(WORKLOADS)
    checked, unbound = [], []
    for node in ast.walk(WORKLOADS):
        target = resolve(aliases, node.func) \
            if isinstance(node, ast.Call) else None
        if target is None or any(isinstance(arg, ast.Starred)
                                 for arg in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        call = f"line {node.lineno}: {ast.unparse(node.func)}"
        try:
            inspect.signature(kcoref_object(*target)).bind(
                *[None] * len(node.args), **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{call}: {exc}")
        checked.append(call)
    assert len(checked) >= 10, checked
    assert not unbound, unbound


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

def cluster(*starts):
    return frozenset(SpanRef(s, s) for s in starts)

# One 2x2 block, so CEAF-e solves an assignment.
BLOCK = [cluster(1, 2, 3), cluster(4, 5, 6)], [cluster(1, 2, 4),
                                               cluster(3, 5, 6)]
if sys.argv[1] == "train":
    weights = L.LossWeights(alpha_k={"coarse": 0.5}, beta=(1.0, 1.0, 0.5))
    objective = L.ObjectiveConfig(pair_budget=50, scaffold_lexicon="coarse")
    tr.compute_gradients(store, lambda enc, scoring, scaffold: [
        L.document_objective(docs[0], enc, scoring, scaffold, weights, config,
                             objective)])
    stages["doc_step"] = loaded()
    ev.score_documents([BLOCK[0]], [BLOCK[1]])
    stages["ceaf_e"] = loaded()
else:
    store.save(sys.argv[2])
    shapes, solve = [], ev.linear_sum_assignment
    ev.linear_sum_assignment = lambda matrix, maximize=False: (
        shapes.append(matrix.shape) or solve(matrix, maximize=maximize))
    store = tr.ParameterStore.load(sys.argv[2])
    preds = [ev.predict_clusters(doc, store, config).clusters for doc in docs]
    ev.score_documents([doc.gold_clusters for doc in docs] + [BLOCK[0]],
                       preds + [BLOCK[1]])
    ev.slice_by_concept(docs, preds, "coarse")
    ev.slice_by_subword_bucket(docs, preds, synthetic.subword_vocab)
    assert (2, 2) in shapes, shapes
    stages["evaluate"] = loaded()
print(json.dumps(stages))
"""


def scipy_stages(*args) -> dict[str, set[str]]:
    """The scipy modules loaded by each stage of `SCRIPT`, run in a fresh
    interpreter with `args`; a stage lists every module loaded so far."""
    done = subprocess.run([sys.executable, "-c", SCRIPT, *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return {name: set(modules)
            for name, modules in json.loads(done.stdout).items()}


def test_no_stage_loads_scipy(tmp_path):
    """Importing kcoref, the synth and project paths, a training doc-step,
    CEAF-e and the whole evaluate path load no scipy module."""
    train = scipy_stages("train")
    evaluate = scipy_stages("evaluate", tmp_path / "model.ckpt")
    assert set(train) == {"import", "synth_project", "doc_step", "ceaf_e"}
    assert set(evaluate) == {"import", "synth_project", "evaluate"}
    loaded = {f"{stage}: {sorted(modules)}"
              for stages in (train, evaluate)
              for stage, modules in stages.items() if modules}
    assert not loaded, loaded


def scipy_imports(node: ast.AST, scope: tuple[str, ...] = ()):
    """(line, enclosing class and function names, module) of each scipy
    module or name imported in `node`'s tree."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            names = [f"{child.module}.{alias.name}" for alias in child.names]
        else:
            names = []
        for name in names:
            if name.split(".")[0] == "scipy":
                yield child.lineno, scope, name
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from scipy_imports(child, (*scope, child.name))
        else:
            yield from scipy_imports(child, scope)


def test_src_has_no_scipy_import():
    """No file of src/kcoref imports scipy, at module level or inside a
    function, so scipy cannot return to a kcoref path unnoticed."""
    found = [f"{path.name}:{line} imports {module} in "
             f"{'.'.join(scope) or '<module>'}"
             for path in sorted((SRC / "kcoref").glob("*.py"))
             for line, scope, module in scipy_imports(ast.parse(
                 path.read_text(encoding="utf-8")))]
    assert not found, found
