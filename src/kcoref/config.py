"""Run configuration: one JSON file wires corpora, lexicons, model dims,
loss weights, and the phase schedule together.

Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .corpus import (Document, SubwordVocab, load_corpus, load_subword_vocab,
                     truncate_document)
from .lexicon import ConceptLexicon, MatchPolicy, annotate_documents, load_lexicon
from .losses import LossError, LossWeights, ObjectiveConfig
from .model import ModelConfig
from .training import Phase, TrainingSchedule


class ConfigError(ValueError):
    pass


@dataclass
class LexiconEntry:
    path: Path
    annotate: bool = False
    policy: MatchPolicy = field(default_factory=MatchPolicy)


@dataclass
class ProjectionSettings:
    sample: int = 200
    seed: int = 0
    lexicon: str | None = None


@dataclass
class RunConfig:
    corpora: dict[str, Path]
    lexicons: list[LexiconEntry]
    model: ModelConfig
    objective: ObjectiveConfig
    phases: list[Phase]
    seed: int = 0
    subword_vocab: Path | None = None
    eval_corpus: str = "eval"
    truncate_tokens: int | None = None
    checkpoint_dir: Path | None = None
    projection: ProjectionSettings = field(default_factory=ProjectionSettings)

    def schedule(self) -> TrainingSchedule:
        return TrainingSchedule(list(self.phases))


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _integer(value, field: str, context: str,
             minimum: int | None = None) -> int:
    """`value`, required to be an int of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: {field} must be an integer, not "
                          f"{value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: {field} must be >= {minimum}, not "
                          f"{value}")
    return value


def _number(value, field: str, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}: {field} must be a number, not "
                          f"{value!r}") from None


def _weights_from(raw, context: str) -> LossWeights:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{context}: weights must be a mapping, not "
                          f"{raw!r}")
    alpha_k, beta = raw.get("alpha_k", {}), raw.get("beta", (1.0, 0.0, 0.0))
    if not isinstance(alpha_k, Mapping):
        raise ConfigError(f"{context}: weights.alpha_k must be a mapping, "
                          f"not {alpha_k!r}")
    if not isinstance(beta, (list, tuple)):
        raise ConfigError(f"{context}: weights.beta must be a list, not "
                          f"{beta!r}")
    try:
        return LossWeights(
            alpha_c=_number(raw.get("alpha_c", 1.0), "weights.alpha_c",
                            context),
            alpha_k={k: _number(v, f"weights.alpha_k.{k}", context)
                     for k, v in alpha_k.items()},
            beta=tuple(_number(b, f"weights.beta[{i}]", context)
                       for i, b in enumerate(beta)))
    except LossError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})")
    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    corpora_raw = _require(raw, "corpora", str(path))
    corpora = {name: resolve(p) for name, p in corpora_raw.items()}

    lexicons = []
    for i, entry in enumerate(raw.get("lexicons", [])):
        match = entry.get("match", {})
        try:
            policy = MatchPolicy(
                mode=match.get("mode", "exact"),
                overlap_threshold=float(match.get("threshold", 1.0)),
                lowercase=bool(match.get("lowercase", True)))
        except ValueError as exc:
            raise ConfigError(f"{path}: lexicons[{i}]: {exc}") from None
        lexicons.append(LexiconEntry(
            path=resolve(_require(entry, "path", f"lexicons[{i}]")),
            annotate=bool(entry.get("annotate", False)),
            policy=policy))

    model_raw = dict(raw.get("model", {}))
    if "width_bucket_edges" in model_raw:
        model_raw["width_bucket_edges"] = tuple(model_raw["width_bucket_edges"])
    try:
        model = ModelConfig(**model_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: model: {exc}") from None

    objective_raw = dict(raw.get("objective", {}))
    try:
        objective = ObjectiveConfig(**objective_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: objective: {exc}") from None

    phases_raw = _require(raw, "phases", str(path))
    if not phases_raw:
        raise ConfigError(f"{path}: phases must not be empty")
    phases = []
    for i, entry in enumerate(phases_raw):
        context = f"{path}: phases[{i}]"
        role = entry.get("role")
        if role is None:
            role = "source" if (len(phases_raw) > 1 and i == 0) else "target"
        corpus = _require(entry, "corpus", context)
        epochs = _integer(_require(entry, "epochs", context), "epochs",
                          context)
        weights = _weights_from(entry.get("weights", {}), context)
        base_lr = _number(entry.get("base_lr", 1e-3), "base_lr", context)
        task_lr = _number(entry.get("task_lr", 1e-3), "task_lr", context)
        try:
            phases.append(Phase(corpus=corpus, epochs=epochs,
                                weights=weights, base_lr=base_lr,
                                task_lr=task_lr, role=role))
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"{context}: {exc}") from None
        if phases[-1].corpus not in corpora:
            raise ConfigError(f"{context}: corpus {phases[-1].corpus!r} is not "
                              f"declared under 'corpora'")

    projection_raw = raw.get("projection", {})
    context = f"{path}: projection"
    projection = ProjectionSettings(
        sample=_integer(projection_raw.get("sample", 200), "sample", context,
                        minimum=1),
        seed=_integer(projection_raw.get("seed", 0), "seed", context,
                      minimum=0),
        lexicon=projection_raw.get("lexicon"))

    truncate_tokens = raw.get("truncate_tokens")
    if truncate_tokens is not None:
        _integer(truncate_tokens, "truncate_tokens", str(path), minimum=1)

    return RunConfig(
        corpora=corpora,
        lexicons=lexicons,
        model=model,
        objective=objective,
        phases=phases,
        seed=_integer(raw.get("seed", 0), "seed", str(path), minimum=0),
        subword_vocab=resolve(raw["subword_vocab"])
        if raw.get("subword_vocab") else None,
        eval_corpus=raw.get("eval_corpus", "eval"),
        truncate_tokens=truncate_tokens,
        checkpoint_dir=resolve(raw["checkpoint_dir"])
        if raw.get("checkpoint_dir") else None,
        projection=projection)


@dataclass
class RunData:
    """Loaded and annotated inputs for one run."""

    corpora: dict[str, list[Document]]
    lexicons: dict[str, ConceptLexicon]
    subword_vocab: SubwordVocab | None


def load_run_data(config: RunConfig) -> RunData:
    """Load corpora and lexicons; apply annotate-enabled lexicons everywhere.

    Every `alpha_k` key must name a loaded lexicon or one that annotates
    some corpus, the lexicons `scaffold_classes` can draw on; a misspelled
    id would otherwise set d_k = 1 for every pair.
    """
    corpora: dict[str, list[Document]] = {}
    for name, corpus_path in config.corpora.items():
        if not corpus_path.exists():
            raise ConfigError(f"corpus {name!r}: file not found: {corpus_path}")
        docs = load_corpus(corpus_path)
        if config.truncate_tokens:
            docs = [truncate_document(d, config.truncate_tokens) for d in docs]
        corpora[name] = docs

    lexicons: dict[str, ConceptLexicon] = {}
    for entry in config.lexicons:
        if not entry.path.exists():
            raise ConfigError(f"lexicon file not found: {entry.path}")
        lexicon = load_lexicon(entry.path)
        lexicons[lexicon.lexicon_id] = lexicon
        if entry.annotate:
            for name in corpora:
                corpora[name] = annotate_documents(corpora[name], lexicon,
                                                   entry.policy)

    known = set(lexicons).union(*(doc.concept_annotations
                                  for docs in corpora.values()
                                  for doc in docs))
    for i, phase in enumerate(config.phases):
        for lexicon_id in phase.weights.alpha_k:
            if lexicon_id not in known:
                raise ConfigError(f"phases[{i}]: alpha_k names {lexicon_id!r}, "
                                  f"which no loaded lexicon or corpus "
                                  f"annotation provides")

    vocab = None
    if config.subword_vocab is not None:
        if not config.subword_vocab.exists():
            raise ConfigError(f"subword vocab not found: {config.subword_vocab}")
        vocab = load_subword_vocab(config.subword_vocab)
    return RunData(corpora, lexicons, vocab)


def scaffold_classes(config: RunConfig, data: RunData) -> tuple[str, ...]:
    """Class list for the scaffold head, from the configured coarse lexicon."""
    lexicon_id = config.objective.scaffold_lexicon
    if lexicon_id is None:
        return ()
    if lexicon_id in data.lexicons:
        classes = sorted(data.lexicons[lexicon_id].concepts)
    else:
        found: set[str] = set()
        for docs in data.corpora.values():
            for doc in docs:
                found.update(doc.concept_annotations.get(lexicon_id, {})
                             .values())
        classes = sorted(found)
    if not classes:
        raise ConfigError(f"scaffold lexicon {lexicon_id!r} has no concepts in "
                          f"any loaded lexicon or corpus")
    if config.objective.scaffold_include_unlabeled:
        classes.append("<none>")
    return tuple(classes)


def training_corpus_names(config: RunConfig) -> list[str]:
    names = []
    for phase in config.phases:
        if phase.corpus not in names:
            names.append(phase.corpus)
    return names
