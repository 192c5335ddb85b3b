"""Command-line interface: synth, train, evaluate, project, gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import evaluation as ev
from . import toolkit as tk
from . import training as tr
from .config import (ConfigError, RunConfig, load_config, load_run_data,
                     load_synthetic_spec, scaffold_classes,
                     training_corpus_names)
from .corpus import CorpusError, check_field, save_corpus, save_subword_vocab
from .lexicon import LexiconError, save_lexicon
from .losses import LossError, document_objective

log = logging.getLogger("kcoref")

USER_ERRORS = (ConfigError, CorpusError, LexiconError, LossError,
               tr.TrainingError, OSError, ValueError)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve(args, name: str) -> str:
    """Accept `<name>` positionally or as a --<name> flag."""
    positional = getattr(args, name, None)
    flagged = getattr(args, f"{name}_flag", None)
    if positional and flagged and positional != flagged:
        raise ConfigError(f"{name} given both positionally ({positional}) and "
                          f"as --{name} ({flagged})")
    value = positional or flagged
    if not value:
        raise ConfigError(f"missing required {name} (pass it positionally or "
                          f"with --{name})")
    return value


def cmd_synth(args) -> int:
    spec = load_synthetic_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    held = check_field(ConfigError, "--test-docs", args.test_docs, "integer", 0)
    if held >= spec.n_documents:
        raise ConfigError(f"--test-docs must be below n_documents "
                          f"({spec.n_documents}), not {held}")
    corpus = tk.generate_synthetic_corpus(spec)
    out = _out_dir(args)

    docs = corpus.documents
    save_corpus(docs[:len(docs) - held], out / "corpus.jsonl")
    if held:
        save_corpus(docs[len(docs) - held:], out / "corpus_test.jsonl")
    save_lexicon(corpus.coarse_lexicon, out / "coarse.lex")
    save_lexicon(corpus.fine_lexicon, out / "fine.lex")
    save_subword_vocab(corpus.subword_vocab, out / "pieces.vocab")
    log.info("wrote %d documents to %s", len(docs), out)
    return 0


def _prepare(config: RunConfig):
    data = load_run_data(config)
    classes = scaffold_classes(config, data)
    train_docs = [doc for name in training_corpus_names(config)
                  for doc in data.corpora[name]]
    vocab = tr.build_vocab(train_docs)
    return data, classes, vocab


def cmd_train(args) -> int:
    config = load_config(_resolve(args, "config"))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    data, classes, vocab = _prepare(config)
    store = tr.init_parameters(config.model, vocab, classes, seed=config.seed)
    out = _out_dir(args)
    checkpoint_dir = config.checkpoint_dir or out
    try:
        store, records = tr.run_schedule(config.schedule(), data.corpora,
                                         config.model, config.objective, store,
                                         checkpoint_dir=checkpoint_dir)
    except tr.TrainingDiverged as exc:
        tr.write_loss_log(exc.records, out / "loss_log.tsv")
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    store.save(out / "checkpoint.ckpt")
    tr.write_loss_log(records, out / "loss_log.tsv")
    log.info("trained %d epochs; checkpoint at %s", len(records),
             out / "checkpoint.ckpt")
    return 0


_METRICS = ("muc", "b_cubed", "ceaf_e", "average")


def _report_dict(report: ev.MetricReport) -> dict:
    return {name: dataclasses.asdict(getattr(report, name))
            for name in _METRICS}


def _report_rows(section: str, report: ev.MetricReport) -> list[str]:
    return ["\t".join([section, name,
                       *map(repr, dataclasses.astuple(getattr(report, name)))])
            for name in _METRICS]


def cmd_evaluate(args) -> int:
    config = load_config(_resolve(args, "config"))
    data = load_run_data(config)
    store = tr.ParameterStore.load(_resolve(args, "checkpoint"))
    tr.check_parameters(store, config.model)
    if config.eval_corpus not in data.corpora:
        raise ConfigError(f"eval corpus {config.eval_corpus!r} is not declared "
                          f"under 'corpora'")
    docs = data.corpora[config.eval_corpus]
    preds = [ev.predict_clusters(doc, store, config.model).clusters
             for doc in docs]
    gold = [doc.gold_clusters for doc in docs]
    report = ev.score_documents(gold, preds)

    sections = []
    slice_lexicon = config.projection.lexicon or \
        config.objective.scaffold_lexicon
    if slice_lexicon:
        sections.append(("concept", "concept_slices",
                         ev.slice_by_concept(docs, preds, slice_lexicon)))
    if data.subword_vocab is not None:
        sections.append(("subwords", "subword_slices",
                         ev.slice_by_subword_bucket(docs, preds,
                                                    data.subword_vocab)))
    payload = {"overall": _report_dict(report)}
    rows = ["section\tmetric\trecall\tprecision\tf1",
            *_report_rows("overall", report)]
    for prefix, key, slices in sections:
        payload[key] = {
            s.key: {"chains": s.gold_chains, **_report_dict(s.report)}
            for s in slices}
        for s in slices:
            rows.extend(_report_rows(f"{prefix}:{s.key}", s.report))

    out = _out_dir(args)
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "report.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"average F1: {report.average.f1:.4f}")
    return 0


def cmd_project(args) -> int:
    config = load_config(_resolve(args, "config"))
    overrides = {name: getattr(args, name) for name in ("sample", "seed")
                 if getattr(args, name) is not None}
    projection = dataclasses.replace(config.projection, **overrides)
    data = load_run_data(config)
    store = tr.ParameterStore.load(_resolve(args, "checkpoint"))
    tr.check_parameters(store, config.model)
    docs = data.corpora[config.eval_corpus if config.eval_corpus in data.corpora
                        else training_corpus_names(config)[0]]
    lexicon = projection.lexicon or config.objective.scaffold_lexicon
    records = tk.mention_antecedent_offsets(
        docs, store, config.model, lexicon_id=lexicon,
        sample=projection.sample, seed=projection.seed)
    if len(records) < 3:
        raise ValueError("not enough gold mention-antecedent pairs to project")
    records, explained = tk.project_offsets(records)
    out = _out_dir(args)
    tk.write_projection_table(records, out / "projection.csv")
    meta = {"explained_variance": [float(v) for v in explained],
            "records": len(records)}
    (out / "projection_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_gradcheck(args) -> int:
    check_field(ConfigError, "--docs", args.docs, "integer", 1)
    check_field(ConfigError, "--coords", args.coords, "integer", 1)
    check_field(ConfigError, "--epsilon", args.epsilon, "fraction")
    check_field(ConfigError, "--threshold", args.threshold, "number", 0)
    config = load_config(_resolve(args, "config"))
    data, classes, vocab = _prepare(config)
    store = tr.init_parameters(config.model, vocab, classes, seed=config.seed)
    name = training_corpus_names(config)[0]
    docs = data.corpora[name][: args.docs]
    weights = config.phases[-1].weights

    def build(enc, scoring, scaffold):
        return [document_objective(
            doc, enc, scoring, scaffold, weights, config.model,
            config.objective, [config.objective.pair_seed, i])
            for i, doc in enumerate(docs)]

    report = tr.gradient_check(store, build, epsilon=args.epsilon,
                               threshold=args.threshold,
                               coords_per_tensor=args.coords, seed=config.seed)
    print(report.summary())
    if args.out:
        out = _out_dir(args)
        (out / "gradcheck.txt").write_text(report.summary() + "\n",
                                           encoding="utf-8")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcoref",
        description="Knowledge-augmented coreference: train, evaluate, and "
                    "inspect span representations.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("spec", help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-docs", type=int, default=0,
                   help="hold out the last N documents as corpus_test.jsonl")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the training schedule")
    p.add_argument("config", nargs="?")
    p.add_argument("--config", dest="config_flag")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the eval corpus")
    p.add_argument("config", nargs="?")
    p.add_argument("checkpoint", nargs="?")
    p.add_argument("--config", dest="config_flag")
    p.add_argument("--checkpoint", dest="checkpoint_flag")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="PCA of mention-antecedent offsets")
    p.add_argument("config", nargs="?")
    p.add_argument("checkpoint", nargs="?")
    p.add_argument("--config", dest="config_flag")
    p.add_argument("--checkpoint", dest="checkpoint_flag")
    p.add_argument("--out", required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("config", nargs="?")
    p.add_argument("--config", dest="config_flag")
    p.add_argument("--out", default=None)
    p.add_argument("--docs", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--coords", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
