"""Diagnostics and desk-scale data: mention-antecedent projections, PCA,
and the synthetic corpus generator.

The generator plants coreference chains whose entities are either common
vocabulary words or out-of-vocabulary coinages built from subword pieces.
OOV entity names from different concepts share suffix pieces, so a model
that leans on surface overlap will conflate them; that is the planted
confound the knowledge losses are meant to fix.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import model as m
from . import training as tr
from .corpus import (Document, SpanRef, SubwordVocab, chain_concepts,
                     check_field, span_bounds, span_keys)
from .lexicon import ConceptLexicon

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Mention-antecedent offsets and PCA


@dataclass
class ProjectionRecord:
    """One sampled gold mention-antecedent pair in representation space."""

    concept: str
    mention_id: str
    antecedent_id: str
    offset: np.ndarray
    point: np.ndarray | None = None


def span_id(doc: Document, span: SpanRef) -> str:
    return f"{doc.doc_id}:{span.start}-{span.end}"


def gold_links(doc: Document) -> list[tuple[SpanRef, SpanRef]]:
    """(mention, nearest preceding gold antecedent) pairs, document order."""
    chains = [sorted(cluster) for cluster in doc.gold_clusters]
    return sorted(link for spans in chains for link in zip(spans[1:], spans))


def span_internals(doc: Document, spans: Sequence[SpanRef],
                   store: tr.ParameterStore,
                   config: m.ModelConfig) -> dict[SpanRef, np.ndarray]:
    """Attention-weighted internal vectors for the given spans."""
    if not spans:
        return {}
    enc, _, _ = store.groups
    token_vecs, _ = m.encode_tokens(doc, enc)
    starts, ends = span_bounds(np.unique(span_keys(spans)))
    reps, _ = m.build_span_representations(
        token_vecs, m.span_layout(starts, ends, config), enc)
    return dict(zip(map(SpanRef, starts.tolist(), ends.tolist()),
                    reps[:, enc.internal_columns]))


def mention_antecedent_offsets(docs: Sequence[Document],
                               store: tr.ParameterStore,
                               config: m.ModelConfig,
                               lexicon_id: str | None = None,
                               sample: int = 200,
                               seed: int = 0) -> list[ProjectionRecord]:
    """Sample gold mention-antecedent pairs and their internal-vector offsets.

    The offset points from the mention to its antecedent. When fewer than
    `sample` gold links exist, all of them are used. A record's concept is
    its chain's single `lexicon_id` label, else "none".

    It encodes document after document, so it keeps the heap as training
    does (`training.keep_heap`).
    """
    tr.keep_heap()
    pool = [(d, link) for d, doc in enumerate(docs)
            for link in gold_links(doc)]
    if len(pool) < sample:
        log.warning("only %d gold mention-antecedent pairs available "
                    "(requested %d)", len(pool), sample)
        chosen = range(len(pool))
    else:
        rng = np.random.default_rng(seed)
        chosen = sorted(rng.choice(len(pool), size=sample, replace=False))

    out: list[ProjectionRecord] = []
    # Keyed by position: document ids need not be unique here. The chosen
    # indices ascend, so each document's links are consecutive.
    for d, group in itertools.groupby((pool[i] for i in chosen),
                                      key=lambda entry: entry[0]):
        doc = docs[d]
        links = [link for _, link in group]
        spans = [span for link in links for span in link]
        vectors = span_internals(doc, spans, store, config)
        labels = doc.concept_annotations.get(lexicon_id, {})
        concept_of = {}
        for chain in doc.gold_clusters:
            found = chain_concepts(chain, labels)
            concept_of.update(dict.fromkeys(
                chain, found.pop() if len(found) == 1 else "none"))
        for mention, antecedent in links:
            out.append(ProjectionRecord(
                concept_of[mention], span_id(doc, mention),
                span_id(doc, antecedent),
                vectors[antecedent] - vectors[mention]))
    return out


def pca_2d(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project row vectors onto their top two principal components.

    Returns (points, explained_variances, components). Components are the
    covariance eigenvectors with the largest eigenvalues, sign-fixed so each
    component's largest-magnitude coordinate is positive. Rank-deficient
    input zero-fills the missing components.
    """
    data = np.asarray(offsets, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 3:
        raise ValueError("need at least 3 offset vectors")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / data.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:2]
    explained = np.maximum(eigenvalues[order], 0.0)
    components = eigenvectors[:, order].T.copy()

    scale = max(float(explained[0]), 1.0)
    zero_filled = 0
    for i in range(2):
        if explained[i] <= 1e-12 * scale:
            explained[i] = 0.0
            components[i] = 0.0
            zero_filled += 1
        else:
            peak = np.argmax(np.abs(components[i]))
            if components[i][peak] < 0:
                components[i] = -components[i]
    if zero_filled:
        log.warning("offset matrix is rank deficient; %d component(s) "
                    "zero-filled", zero_filled)
    points = centered @ components.T
    return points, explained, components


def project_offsets(records: Sequence[ProjectionRecord]
                    ) -> tuple[list[ProjectionRecord], np.ndarray]:
    """Attach 2-D PCA points to projection records."""
    matrix = np.stack([r.offset for r in records])
    points, explained, _ = pca_2d(matrix)
    for record, point in zip(records, points):
        record.point = point
    return list(records), explained


def write_projection_table(records: Sequence[ProjectionRecord], path) -> None:
    """One CSV row per record; a field with a comma or a quote is quoted,
    and a coordinate is its `repr`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        rows = csv.writer(handle, lineterminator="\n")
        rows.writerow(("concept", "x", "y", "mention", "antecedent"))
        for r in records:
            rows.writerow((r.concept, repr(float(r.point[0])),
                           repr(float(r.point[1])), r.mention_id,
                           r.antecedent_id))


def offset_cosine_statistics(records: Sequence[ProjectionRecord]
                             ) -> tuple[float, float]:
    """(within-concept, across-concept) mean cosine similarity over the
    pairs of records; a zero offset takes part in no pair, and a side with
    no pair reads 0.0."""
    if len(records) < 2:
        return 0.0, 0.0
    offsets = np.stack([r.offset for r in records])
    norms = np.linalg.norm(offsets, axis=1)
    first, second = np.triu_indices(len(records), 1)
    live = (norms[first] != 0) & (norms[second] != 0)
    first, second = first[live], second[live]
    cosines = (np.einsum("pd,pd->p", offsets[first], offsets[second])
               / (norms[first] * norms[second]))
    concepts = np.array([r.concept for r in records])
    same = concepts[first] == concepts[second]
    return tuple(float(side.mean()) if len(side) else 0.0
                 for side in (cosines[same], cosines[~same]))


# ---------------------------------------------------------------------------
# Synthetic corpus generation


_FILLERS = (
    "the a was on with and noted seen for after before status stable today "
    "admitted denies review plan continued daily without remained follow "
    "course improved mild left right prior repeat recent"
).split()

# concept-marked span modifiers; disjoint from the filler pool
_QUALIFIERS = "acute chronic focal routine gross subtle".split()

_STEM_LETTERS = "bcdfglmnprstvz"
# An entity name's stem is three stem letters and its concept's vowel,
# "aeiou"[c % 5] for concept c; no filler word has that shape.
_STEMS_PER_VOWEL = len(_STEM_LETTERS) ** 3


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic corpus with planted chains.

    `oov_fraction` of each concept's entity names are coined from subword
    pieces (stem + suffix); the suffix pool is shared across concepts, so
    two OOV names from different concepts collide on their suffix piece
    with probability 1 / len(suffixes).

    With `qualifier_fraction` > 0, a chain's first mention opens with a
    modifier word tied to the entity's concept ("acute dorvia" ... "dorvia"),
    so later mentions are reduced forms of their antecedent.
    """

    n_documents: int = 20
    concepts: tuple[str, ...] = ("problem", "test")
    entities_per_concept: int = 8
    oov_fraction: float = 1.0
    suffixes: tuple[str, ...] = ("ia", "oma")
    chains_per_doc: tuple[int, int] = (2, 4)
    chain_length: tuple[int, int] = (2, 4)
    determiner_fraction: float = 0.3
    qualifier_fraction: float = 0.0
    filler_gap: tuple[int, int] = (1, 4)
    coarse_lexicon_id: str = "coarse"
    fine_lexicon_id: str = "fine"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_documents", 0), ("entities_per_concept", 1),
                          ("seed", 0)):
            check_field(ValueError, name, getattr(self, name), "integer", low)
        for name in ("oov_fraction", "determiner_fraction",
                     "qualifier_fraction"):
            check_field(ValueError, name, getattr(self, name), "number", 0, 1)
        for name in ("coarse_lexicon_id", "fine_lexicon_id"):
            check_field(ValueError, name, getattr(self, name), "string")
        for name in ("concepts", "suffixes"):
            names = check_field(ValueError, name, getattr(self, name), "list")
            if not names:
                raise ValueError(f"{name} must not be empty")
            for i, value in enumerate(names):
                check_field(ValueError, f"{name}[{i}]", value, "string")
                if name == "suffixes" and value != value.lower():
                    raise ValueError(f"suffixes[{i}] must be lower-case, "
                                     f"not {value!r}")
            if len(set(names)) < len(names):
                twice = next(c for c in names if names.count(c) > 1)
                raise ValueError(f"{name} lists {twice!r} twice")
            object.__setattr__(self, name, tuple(names))
        for name in ("chains_per_doc", "chain_length", "filler_gap"):
            pair = check_field(ValueError, name, getattr(self, name), "list")
            for i, value in enumerate(pair):
                check_field(ValueError, f"{name}[{i}]", value, "integer", 0)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"{name} must be [low, high] with low <= "
                                 f"high, not {pair!r}")
            object.__setattr__(self, name, tuple(pair))
        # Concepts c and c + 5 draw distinct stems from one vowel's pool.
        sharing = -(-len(self.concepts) // 5)
        if self.entities_per_concept * sharing > _STEMS_PER_VOWEL:
            raise ValueError(f"entities_per_concept must be at most "
                             f"{_STEMS_PER_VOWEL // sharing} for "
                             f"{len(self.concepts)} concepts, not "
                             f"{self.entities_per_concept}")


@dataclass(frozen=True)
class Entity:
    name: str                 # detokenized surface, e.g. "dorvia"
    pieces: tuple[str, ...]   # document tokens, e.g. ("dorv", "##ia")
    concept: str
    code: str                 # fine-grained concept code


@dataclass
class SyntheticCorpus:
    documents: list[Document]
    coarse_lexicon: ConceptLexicon
    fine_lexicon: ConceptLexicon
    subword_vocab: SubwordVocab
    entities: list[Entity] = field(default_factory=list)


def _make_entities(spec: SyntheticSpec, rng: np.random.Generator) -> list[Entity]:
    entities = []
    stems_used: set[str] = set()
    for c_idx, concept in enumerate(spec.concepts):
        n_oov = round(spec.entities_per_concept * spec.oov_fraction)
        for e_idx in range(spec.entities_per_concept):
            while True:
                letters = rng.choice(list(_STEM_LETTERS), size=3)
                stem = "".join(letters) + "aeiou"[c_idx % 5]
                if stem not in stems_used and stem not in _FILLERS:
                    stems_used.add(stem)
                    break
            code = f"C{c_idx}{e_idx:02d}"
            if e_idx < n_oov:
                suffix = spec.suffixes[e_idx % len(spec.suffixes)]
                entities.append(Entity(stem + suffix, (stem, "##" + suffix),
                                       concept, code))
            else:
                entities.append(Entity(stem, (stem,), concept, code))
    return entities


def generate_synthetic_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministic corpus, lexicons, and subword vocab from one seed."""
    rng = np.random.default_rng(spec.seed)
    entities = _make_entities(spec, rng)

    pools = {concept: [e for e in entities if e.concept == concept]
             for concept in spec.concepts}

    documents = []
    for d in range(spec.n_documents):
        n_chains = int(rng.integers(spec.chains_per_doc[0],
                                    spec.chains_per_doc[1] + 1))
        n_chains = min(n_chains, len(entities))
        # round-robin over concepts keeps every document roughly balanced
        shuffled = {c: [pool[i] for i in rng.permutation(len(pool))]
                    for c, pool in pools.items()}
        chosen = []
        for i in range(n_chains):
            concept = spec.concepts[i % len(spec.concepts)]
            pool = shuffled[concept]
            if pool:
                chosen.append(pool.pop())

        mentions: list[tuple[Entity, bool]] = []
        for entity in chosen:
            length = int(rng.integers(spec.chain_length[0],
                                      spec.chain_length[1] + 1))
            for _ in range(length):
                determiner = rng.random() < spec.determiner_fraction
                mentions.append((entity, determiner))
        perm = rng.permutation(len(mentions))
        ordered = [mentions[i] for i in perm]

        concept_index = {c: i for i, c in enumerate(spec.concepts)}
        tokens: list[str] = []
        spans_by_entity: dict[str, list[SpanRef]] = {}
        for entity, determiner in ordered:
            gap = int(rng.integers(spec.filler_gap[0], spec.filler_gap[1] + 1))
            for _ in range(gap):
                tokens.append(_FILLERS[int(rng.integers(0, len(_FILLERS)))])
            start = len(tokens)
            if determiner:
                tokens.append("the")
            first_mention = entity.name not in spans_by_entity
            if first_mention and spec.qualifier_fraction > 0 \
                    and rng.random() < spec.qualifier_fraction:
                tokens.append(_QUALIFIERS[concept_index[entity.concept]
                                          % len(_QUALIFIERS)])
            tokens.extend(entity.pieces)
            span = SpanRef(start, len(tokens) - 1)
            spans_by_entity.setdefault(entity.name, []).append(span)
        tokens.append(_FILLERS[int(rng.integers(0, len(_FILLERS)))])

        clusters = []
        coarse: dict[SpanRef, str] = {}
        entity_by_name = {e.name: e for e in chosen}
        for name in sorted(spans_by_entity):
            spans = spans_by_entity[name]
            if len(spans) >= 2:
                clusters.append(frozenset(spans))
            for span in spans:
                coarse[span] = entity_by_name[name].concept
        doc = Document(
            f"syn{d:03d}",
            tuple(tokens),
            tuple(clusters),
            {spec.coarse_lexicon_id: coarse})
        documents.append(doc)

    coarse_concepts = {
        concept: frozenset(e.name for e in entities if e.concept == concept)
        for concept in spec.concepts}
    fine_concepts = {e.code: frozenset([e.name]) for e in entities}
    coarse_lexicon = ConceptLexicon(spec.coarse_lexicon_id, coarse_concepts,
                                    "coarse")
    fine_lexicon = ConceptLexicon(spec.fine_lexicon_id, fine_concepts, "fine")

    initial = set(_FILLERS)
    continuation = set()
    for entity in entities:
        for piece in entity.pieces:
            if piece.startswith("##"):
                continuation.add(piece[2:])
            else:
                initial.add(piece)
    vocab = SubwordVocab(frozenset(initial), frozenset(continuation), "<unk>")
    return SyntheticCorpus(documents, coarse_lexicon, fine_lexicon, vocab,
                           entities)


def confound_share(corpus: SyntheticCorpus) -> float:
    """Fraction of cross-concept OOV entity pairs sharing a suffix piece."""
    oov = [e for e in corpus.entities if len(e.pieces) > 1]
    first, second = np.triu_indices(len(oov), 1)
    concepts = np.array([e.concept for e in oov])
    suffixes = np.array([e.pieces[-1] for e in oov])
    cross = concepts[first] != concepts[second]
    total = np.count_nonzero(cross)
    shared = np.count_nonzero(cross & (suffixes[first] == suffixes[second]))
    return shared / total if total else 0.0
