"""Run configuration: one JSON file wires corpora, lexicons, model dims,
loss weights, and the phase schedule together.

Relative paths are resolved against the config file's directory. The
synthetic-corpus spec of `kcoref synth` is read the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import (Document, SubwordVocab, check_field, load_corpus,
                     load_subword_vocab, read_text, truncate_document)
from .lexicon import ConceptLexicon, MatchPolicy, annotate_documents, load_lexicon
from .losses import NONE_CLASS, LossWeights, ObjectiveConfig
from .model import ModelConfig
from .toolkit import SyntheticSpec
from .training import Phase, TrainingError, TrainingSchedule


class ConfigError(ValueError):
    pass


@dataclass
class LexiconEntry:
    path: Path
    annotate: bool = False
    match: MatchPolicy = field(default_factory=MatchPolicy)

    def __post_init__(self):
        check_field(ConfigError, "annotate", self.annotate, "switch")


@dataclass
class ProjectionSettings:
    sample: int = 200
    seed: int = 0
    lexicon: str | None = None

    def __post_init__(self):
        check_field(ConfigError, "sample", self.sample, "integer", 1)
        check_field(ConfigError, "seed", self.seed, "integer", 0)
        if self.lexicon is not None:
            check_field(ConfigError, "lexicon", self.lexicon, "string")


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

    def __post_init__(self):
        check_field(ConfigError, "seed", self.seed, "integer", 0)
        check_field(ConfigError, "eval_corpus", self.eval_corpus, "string")
        if self.truncate_tokens is not None:
            check_field(ConfigError, "truncate_tokens", self.truncate_tokens,
                        "integer", 1)
        if not self.phases:
            raise ConfigError("phases must not be empty")
        for i, phase in enumerate(self.phases):
            if phase.corpus not in self.corpora:
                raise ConfigError(f"phases[{i}]: corpus {phase.corpus!r} is "
                                  f"not declared under 'corpora'")

    def schedule(self) -> TrainingSchedule:
        return TrainingSchedule(list(self.phases))


def _build(cls, raw, name: str, sep: str = ": ", **parsed):
    """`cls` built from the JSON object `raw`, with `parsed` in place of its
    nested sections; every error, a missing or unknown field included, is
    a ConfigError naming `name`."""
    check_field(ConfigError, name, raw, "mapping")
    try:
        return cls(**{**raw, **parsed})
    except (ValueError, TypeError, TrainingError) as exc:
        raise ConfigError(f"{name}{sep}{exc}") from None


def _read_json(path: Path):
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    try:
        return json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line "
                          f"{exc.lineno})") from None


def load_config(path) -> RunConfig:
    """The run config in JSON file `path`.

    Each section is built by the dataclass that owns it, which checks its
    own fields; the loader checks only the JSON shape of sections and list
    entries, and names the file and the field path in every error.
    """
    path = Path(path)
    raw = check_field(ConfigError, str(path), _read_json(path), "mapping")
    try:
        sections = _sections(raw, path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return _build(RunConfig, raw, str(path), **sections)


def load_synthetic_spec(path) -> SyntheticSpec:
    """The generator settings in JSON file `path`."""
    path = Path(path)
    return _build(SyntheticSpec, _read_json(path), str(path))


def _sections(raw: dict, base: Path) -> dict:
    def resolve(value, name: str) -> Path:
        p = Path(check_field(ConfigError, name, value, "string"))
        return p if p.is_absolute() else base / p

    sections = {name: _build(cls, raw.get(name, {}), name) for name, cls in
                (("model", ModelConfig), ("objective", ObjectiveConfig),
                 ("projection", ProjectionSettings))}
    for name in ("subword_vocab", "checkpoint_dir"):
        sections[name] = None if raw.get(name) is None \
            else resolve(raw[name], name)
    sections["corpora"] = {
        name: resolve(p, f"corpora: {name}") for name, p in
        check_field(ConfigError, "corpora", raw.get("corpora"),
                    "mapping").items()}

    sections["lexicons"] = []
    for i, entry in enumerate(check_field(ConfigError, "lexicons",
                                          raw.get("lexicons", []), "list")):
        name = f"lexicons[{i}]"
        check_field(ConfigError, name, entry, "mapping")
        policy = _build(MatchPolicy, entry.get("match", {}), f"{name}: match")
        sections["lexicons"].append(_build(
            LexiconEntry, entry, name, match=policy,
            path=resolve(entry.get("path"), f"{name}: path")))

    phases = check_field(ConfigError, "phases", raw.get("phases"), "list")
    sections["phases"] = []
    for i, entry in enumerate(phases):
        name = f"phases[{i}]"
        check_field(ConfigError, name, entry, "mapping")
        weights = _build(LossWeights, entry.get("weights", {}),
                         f"{name}: weights", ".")
        role = "source" if len(phases) > 1 and i == 0 else "target"
        sections["phases"].append(_build(Phase, {"role": role, **entry}, name,
                                         weights=weights))
    return sections


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
        if not corpus_path.is_file():
            raise ConfigError(f"corpus {name!r}: file not found: {corpus_path}")
        docs = load_corpus(corpus_path)
        if not docs:
            raise ConfigError(f"corpus {name!r}: no documents in {corpus_path}")
        if config.truncate_tokens:
            docs = [truncate_document(d, config.truncate_tokens) for d in docs]
        corpora[name] = docs

    lexicons: dict[str, ConceptLexicon] = {}
    for entry in config.lexicons:
        if not entry.path.is_file():
            raise ConfigError(f"lexicon file not found: {entry.path}")
        lexicon = load_lexicon(entry.path)
        lexicons[lexicon.lexicon_id] = lexicon
        if entry.annotate:
            for name in corpora:
                corpora[name] = annotate_documents(corpora[name], lexicon,
                                                   entry.match)

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
        if not config.subword_vocab.is_file():
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
        classes.append(NONE_CLASS)
    return tuple(classes)


def training_corpus_names(config: RunConfig) -> list[str]:
    names = []
    for phase in config.phases:
        if phase.corpus not in names:
            names.append(phase.corpus)
    return names
