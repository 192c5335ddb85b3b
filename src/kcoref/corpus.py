"""Documents, spans, gold clusters, and the subword machinery.

Corpus files are UTF-8 with one JSON document record per line:

    {"doc_id": "d0",
     "tokens": ["a", "b"],
     "clusters": [[[0, 0], [1, 1]]],
     "concepts": [{"span": [0, 0], "label": "problem", "lexicon": "coarse"}]}

Span indices are inclusive [start, end] token positions. Subword vocab
files hold one piece per line, continuation pieces prefixed "##", with the
unknown symbol on the first line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

import numpy as np

T = TypeVar("T")


class CorpusError(ValueError):
    """Raised for malformed corpus or vocab input."""


@dataclass(frozen=True, order=True, slots=True)
class SpanRef:
    """Inclusive token span [start, end] within one document.

    Slotted: documents keep their span tables (`Document.cached`), so a
    span should cost two fields, not a dict.
    """

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise CorpusError(f"span start {self.start} is negative")
        if self.end < self.start:
            raise CorpusError(f"end before start: [{self.start}, {self.end}]")

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def tokens(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class Token:
    surface: str
    index: int

    def __post_init__(self):
        if not self.surface:
            raise CorpusError(f"empty token surface at index {self.index}")


@dataclass(frozen=True)
class Document:
    """One ingested document: tokens, gold clusters, concept annotations.

    `concept_annotations` maps lexicon_id -> {span -> concept label}; several
    lexicons can annotate the same span. Documents are immutable after load.
    """

    doc_id: str
    tokens: tuple[Token, ...]
    gold_clusters: tuple[frozenset[SpanRef], ...] = ()
    concept_annotations: Mapping[str, Mapping[SpanRef, str]] = field(
        default_factory=dict)

    def __post_init__(self):
        n = len(self.tokens)
        for i, tok in enumerate(self.tokens):
            if tok.index != i:
                raise CorpusError(
                    f"{self.doc_id}: token index {tok.index} at position {i}")
        seen: set[SpanRef] = set()
        for cluster in self.gold_clusters:
            if not cluster:
                raise CorpusError(f"{self.doc_id}: empty gold cluster")
            for span in cluster:
                if span.end >= n:
                    raise CorpusError(
                        f"{self.doc_id}: span [{span.start}, {span.end}] out of "
                        f"bounds for {n} tokens")
                if span in seen:
                    raise CorpusError(
                        f"{self.doc_id}: span [{span.start}, {span.end}] belongs "
                        f"to more than one cluster")
                seen.add(span)
        for lexicon_id, spans in self.concept_annotations.items():
            for span in spans:
                if span.end >= n:
                    raise CorpusError(
                        f"{self.doc_id}: {lexicon_id} annotation "
                        f"[{span.start}, {span.end}] out of bounds")

    def __len__(self) -> int:
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def span_surface(self, span: SpanRef) -> str:
        """Detokenized text of a span; "##" continuation pieces glue on."""
        parts: list[str] = []
        for i in span.tokens():
            s = self.tokens[i].surface
            if s.startswith("##") and parts:
                parts[-1] += s[2:]
            else:
                parts.append(s)
        return " ".join(parts)

    def gold_spans(self) -> list[SpanRef]:
        return sorted(span for cluster in self.gold_clusters for span in cluster)

    def concept_of(self, span: SpanRef, lexicon_id: str) -> str | None:
        return self.concept_annotations.get(lexicon_id, {}).get(span)

    def cluster_of(self, span: SpanRef) -> frozenset[SpanRef] | None:
        for cluster in self.gold_clusters:
            if span in cluster:
                return cluster
        return None

    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """`build()`, computed on the first call per key and kept on this
        document.

        Documents are immutable, so whatever is derived from one stays valid
        for as long as it lives, and is freed with it.
        """
        derived = self.__dict__.setdefault("_derived", {})
        if key not in derived:
            derived[key] = build()
        return derived[key]

    def with_annotations(self, lexicon_id: str,
                         labels: Mapping[SpanRef, str]) -> "Document":
        """Copy of this document with one lexicon's annotations replaced."""
        merged = {k: dict(v) for k, v in self.concept_annotations.items()}
        merged[lexicon_id] = dict(labels)
        return Document(self.doc_id, self.tokens, self.gold_clusters, merged)


_UNLABELED = object()


def chain_concepts(chain: Iterable[SpanRef],
                   labels: Mapping[SpanRef, str]) -> set[str]:
    """The concept labels of a chain's labeled spans, one lookup per span."""
    found = {labels.get(span, _UNLABELED) for span in chain}
    found.discard(_UNLABELED)
    return found


def check_cluster_concept_consistency(doc: Document, lexicon_id: str) -> None:
    """Every labeled span in a gold cluster must carry the same label."""
    labels = doc.concept_annotations.get(lexicon_id, {})
    for cluster in doc.gold_clusters:
        found = chain_concepts(cluster, labels)
        if len(found) > 1:
            raise CorpusError(
                f"{doc.doc_id}: cluster mixes {lexicon_id} concepts "
                f"{sorted(found)}")


def _parse_record(record: dict, line_no: int) -> Document:
    try:
        doc_id = record["doc_id"]
        raw_tokens = record["tokens"]
    except KeyError as exc:
        raise CorpusError(f"line {line_no}: missing field {exc}") from None
    tokens = tuple(Token(s, i) for i, s in enumerate(raw_tokens))
    clusters = tuple(
        frozenset(SpanRef(int(s), int(e)) for s, e in cluster)
        for cluster in record.get("clusters", []))
    annotations: dict[str, dict[SpanRef, str]] = {}
    for entry in record.get("concepts", []):
        span = SpanRef(int(entry["span"][0]), int(entry["span"][1]))
        annotations.setdefault(entry["lexicon"], {})[span] = entry["label"]
    doc = Document(doc_id, tokens, clusters, annotations)
    for lexicon_id in annotations:
        check_cluster_concept_consistency(doc, lexicon_id)
    return doc


def load_corpus(path) -> list[Document]:
    """Read one Document per line, preserving order; ids must be unique."""
    path = Path(path)
    docs: list[Document] = []
    first_line: dict[str, int] = {}
    with path.open(encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc.msg}") from None
            try:
                doc = _parse_record(record, line_no)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc}") from None
            first = first_line.setdefault(doc.doc_id, line_no)
            if first != line_no:
                raise CorpusError(f"{path}: line {line_no}: doc_id "
                                  f"{doc.doc_id!r} repeats line {first}")
            docs.append(doc)
    return docs


def document_to_record(doc: Document) -> dict:
    record = {
        "doc_id": doc.doc_id,
        "tokens": list(doc.surfaces()),
        "clusters": [sorted([s.start, s.end] for s in cluster)
                     for cluster in doc.gold_clusters],
    }
    concepts = []
    for lexicon_id in sorted(doc.concept_annotations):
        spans = doc.concept_annotations[lexicon_id]
        for span in sorted(spans):
            concepts.append({"span": [span.start, span.end],
                             "label": spans[span], "lexicon": lexicon_id})
    if concepts:
        record["concepts"] = concepts
    return record


def save_corpus(docs: Iterable[Document], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps(document_to_record(doc), sort_keys=False))
            handle.write("\n")


def corpus_stats(docs: list[Document]) -> tuple[int, float, float]:
    """(document count, mean tokens per document, mean spans per gold chain)."""
    if not docs:
        raise CorpusError("empty corpus")
    token_counts = [len(d) for d in docs]
    chain_sizes = [len(c) for d in docs for c in d.gold_clusters]
    mean_tokens = sum(token_counts) / len(docs)
    mean_chain = sum(chain_sizes) / len(chain_sizes) if chain_sizes else 0.0
    return len(docs), mean_tokens, mean_chain


def concept_chain_stats(docs: list[Document],
                        lexicon_id: str) -> dict[str, tuple[int, float]]:
    """Per-concept (chain count, mean chain length) over gold chains."""
    sizes: dict[str, list[int]] = {}
    for doc in docs:
        labels = doc.concept_annotations.get(lexicon_id, {})
        for cluster in doc.gold_clusters:
            found = chain_concepts(cluster, labels)
            if len(found) == 1:
                sizes.setdefault(found.pop(), []).append(len(cluster))
    return {label: (len(v), sum(v) / len(v))
            for label, v in sorted(sizes.items())}


def span_keys(spans: Iterable[SpanRef]) -> np.ndarray:
    """One int64 per span, ordered as the spans are: (start << 32) + end."""
    return np.array([(s.start << 32) + s.end for s in spans], dtype=np.int64)


def bounds_keys(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """`span_keys` of the spans [starts[i], ends[i]]."""
    return (starts.astype(np.int64) << 32) + ends


def span_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (starts, ends) of the spans whose `span_keys` are `keys`."""
    return keys >> 32, keys & 0xFFFFFFFF


def enumerate_candidate_spans(doc: Document,
                              max_width: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of all spans of width <= max_width, in (start, end)
    order."""
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    n = len(doc)
    last = np.arange(n, dtype=np.intp)[:, None] \
        + np.arange(min(max_width, n), dtype=np.intp)
    starts, offsets = np.nonzero(last < n)
    return starts, starts + offsets


def truncate_document(doc: Document, max_tokens: int) -> Document:
    """Optional hard cap on document length; spans past the cap are dropped."""
    if len(doc) <= max_tokens:
        return doc
    tokens = doc.tokens[:max_tokens]
    clusters = []
    for cluster in doc.gold_clusters:
        kept = frozenset(s for s in cluster if s.end < max_tokens)
        if len(kept) >= 2:
            clusters.append(kept)
    annotations = {
        lex: {s: lab for s, lab in spans.items() if s.end < max_tokens}
        for lex, spans in doc.concept_annotations.items()}
    return Document(doc.doc_id, tokens, tuple(clusters), annotations)


# ---------------------------------------------------------------------------
# Subword segmentation


@dataclass(frozen=True)
class SubwordVocab:
    """Greedy longest-match wordpiece inventory.

    `initial` holds word-initial pieces, `continuation` the "##"-marked ones
    (stored without the marker). Lookup lowercases first unless disabled.
    """

    initial: frozenset[str]
    continuation: frozenset[str]
    unk: str
    lowercase: bool = True

    def __post_init__(self):
        if not self.unk:
            raise CorpusError("unknown symbol must be non-empty")
        if "" in self.initial or "" in self.continuation:
            raise CorpusError("empty subword piece")


def load_subword_vocab(path, lowercase: bool = True) -> SubwordVocab:
    path = Path(path)
    lines = [ln.rstrip("\n") for ln in path.open(encoding="utf-8")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CorpusError(f"{path}: empty vocab file")
    unk, pieces = lines[0], lines[1:]
    initial = frozenset(p for p in pieces if not p.startswith("##"))
    continuation = frozenset(p[2:] for p in pieces if p.startswith("##"))
    return SubwordVocab(initial, continuation, unk, lowercase)


def save_subword_vocab(vocab: SubwordVocab, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(vocab.unk + "\n")
        for piece in sorted(vocab.initial):
            handle.write(piece + "\n")
        for piece in sorted(vocab.continuation):
            handle.write("##" + piece + "\n")


def tokenize_subwords(surface: str, vocab: SubwordVocab) -> list[str]:
    """Greedy longest-match-first segmentation of one word.

    Falls back to a single unknown symbol for the whole word as soon as no
    piece matches at some position.
    """
    if not surface:
        raise ValueError("empty surface")
    word = surface.lower() if vocab.lowercase else surface
    pieces: list[str] = []
    pos = 0
    while pos < len(word):
        table = vocab.initial if pos == 0 else vocab.continuation
        end = len(word)
        while end > pos and word[pos:end] not in table:
            end -= 1
        if end == pos:
            return [vocab.unk]
        pieces.append(word[pos:end] if pos == 0 else "##" + word[pos:end])
        pos = end
    return pieces


def subword_count(surface: str, vocab: SubwordVocab) -> int:
    return len(tokenize_subwords(surface, vocab))


def mean_subwords_per_span(chain: Iterable[SpanRef], doc: Document,
                           vocab: SubwordVocab,
                           counts: dict[str, int] | None = None) -> float:
    """Mean over spans of the span's total wordpiece count.

    `counts` memoizes wordpiece counts by surface under `vocab`; one dict
    passed to several calls segments each distinct surface once.
    """
    counts = {} if counts is None else counts
    totals = []
    for span in chain:
        total = 0
        for token in doc.tokens[span.start:span.end + 1]:
            if token.surface not in counts:
                counts[token.surface] = subword_count(token.surface, vocab)
            total += counts[token.surface]
        totals.append(total)
    if not totals:
        raise ValueError("empty chain")
    return sum(totals) / len(totals)


def subword_bucket(mean_pieces: float, width: float = 1.7,
                   n_buckets: int = 5) -> int:
    """Half-open bucket [k*width, (k+1)*width); returns n_buckets for overflow."""
    k = int(mean_pieces // width)
    return min(k, n_buckets)

