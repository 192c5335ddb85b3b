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
import math
import sys
from collections.abc import Sized
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

import numpy as np

T = TypeVar("T")


class CorpusError(ValueError):
    """Raised for malformed corpus or vocab input."""


_NUMBER = (int, float, np.integer, np.floating)
_FIELD_KINDS = {
    "integer": ((int, np.integer), "an integer"),
    "number": (_NUMBER, "a number"),
    "fraction": (_NUMBER, "in (0, 1]"),
    "switch": (bool, "true or false"),
    "string": (str, "a string"),
    "list": ((list, tuple), "a list"),
    "mapping": (Mapping, "a mapping"),
}


def check_field(error: type[Exception], name: str, value, kind: str,
                low=None, high=None):
    """`value`, or `error` naming field `name` if it is not of `kind`.

    The one rule for settings and records read from JSON: an "integer" is
    an int (numpy's too), a "number" a finite int or float, a "fraction" a
    number in (0, 1], a "switch" true or false, a "string" a str, a "list"
    a list and a "mapping" a JSON object. A bool is no number, and no
    string is read as a number or a switch. `low` and `high` are inclusive
    bounds on an integer or a number.
    """
    types, noun = _FIELD_KINDS[kind]
    if not isinstance(value, types) \
            or isinstance(value, bool) and kind != "switch" \
            or kind == "fraction" and not 0 < value <= 1:
        raise error(f"{name} must be {noun}, not {value!r}")
    if kind == "number" and not (abs(value) <= sys.float_info.max
                                 if isinstance(value, int)
                                 else math.isfinite(value)):
        raise error(f"{name} must be finite, not {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, not {value!r}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, not {value!r}")
    return value


def read_text(path: Path, error: type[Exception], newline=None) -> str:
    """The UTF-8 text of file `path`, or `error` naming it if it is not
    UTF-8; `newline` as for `open` ("" keeps CRLF line ends)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason})") from None


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


@dataclass(frozen=True)
class Document:
    """One ingested document: tokens, gold clusters, concept annotations.

    A token is its surface string, never empty. `concept_annotations` maps
    lexicon_id -> {span -> concept label}; several lexicons can annotate the
    same span. Documents are immutable after load.
    """

    doc_id: str
    tokens: tuple[str, ...]
    gold_clusters: tuple[frozenset[SpanRef], ...] = ()
    concept_annotations: Mapping[str, Mapping[SpanRef, str]] = field(
        default_factory=dict)

    def __post_init__(self):
        n = len(self.tokens)
        for i, token in enumerate(self.tokens):
            if not isinstance(token, str):
                raise CorpusError(f"{self.doc_id}: token at index {i} must "
                                  f"be a string, not {token!r}")
            if not token:
                raise CorpusError(f"{self.doc_id}: empty token at index {i}")
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

    def span_surface(self, span: SpanRef) -> str:
        """Detokenized text of a span; "##" continuation pieces glue on."""
        parts: list[str] = []
        for s in self.tokens[span.start:span.end + 1]:
            if s.startswith("##") and parts:
                parts[-1] += s[2:]
            else:
                parts.append(s)
        return " ".join(parts)

    def gold_spans(self) -> list[SpanRef]:
        return sorted(span for cluster in self.gold_clusters for span in cluster)

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


def _span_field(value, field_name: str) -> SpanRef:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value)):
        raise CorpusError(f"{field_name} must be two integers [start, end], "
                          f"not {value!r}")
    return SpanRef(*value)


def _parse_record(record) -> Document:
    check_field(CorpusError, "record", record, "mapping")
    try:
        doc_id = check_field(CorpusError, "doc_id", record["doc_id"], "string")
        raw_tokens = check_field(CorpusError, "tokens", record["tokens"],
                                 "list")
    except KeyError as exc:
        raise CorpusError(f"missing field {exc}") from None
    tokens = tuple(check_field(CorpusError, f"tokens[{i}]", surface, "string")
                   for i, surface in enumerate(raw_tokens))
    clusters = []
    for i, cluster in enumerate(check_field(
            CorpusError, "clusters", record.get("clusters", []), "list")):
        check_field(CorpusError, f"clusters[{i}]", cluster, "list")
        members: set[SpanRef] = set()
        for mention in cluster:
            span = _span_field(mention, "cluster mention")
            if span in members:
                raise CorpusError(f"clusters[{i}] lists span [{span.start}, "
                                  f"{span.end}] twice")
            members.add(span)
        clusters.append(frozenset(members))
    annotations: dict[str, dict[SpanRef, str]] = {}
    for entry in check_field(CorpusError, "concepts",
                             record.get("concepts", []), "list"):
        missing = [name for name in ("span", "label", "lexicon")
                   if not isinstance(entry, dict) or name not in entry]
        if missing:
            raise CorpusError(f"concept entry {entry!r} is missing "
                              f"{', '.join(missing)}")
        label, lexicon = (check_field(CorpusError, f"concept {name}",
                                      entry[name], "string")
                          for name in ("label", "lexicon"))
        span = _span_field(entry["span"], "concept span")
        labels = annotations.setdefault(lexicon, {})
        if labels.setdefault(span, label) != label:
            raise CorpusError(f"{lexicon} labels span [{span.start}, "
                              f"{span.end}] both {labels[span]!r} and "
                              f"{label!r}")
    doc = Document(doc_id, tokens, tuple(clusters), annotations)
    for lexicon_id in annotations:
        check_cluster_concept_consistency(doc, lexicon_id)
    return doc


def load_corpus(path) -> list[Document]:
    """Read one Document per line, preserving order; ids must be unique."""
    path = Path(path)
    docs: list[Document] = []
    first_line: dict[str, int] = {}
    with path.open("rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}: line {line_no}: not UTF-8 "
                                  f"({exc.reason})") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {line_no}: {exc.msg}") from None
            try:
                doc = _parse_record(record)
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
        "tokens": list(doc.tokens),
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


def span_keys(spans: Iterable[SpanRef]) -> np.ndarray:
    """One int64 per span, ordered as the spans are: (start << 32) + end."""
    return np.array([(s.start << 32) + s.end for s in spans], dtype=np.int64)


def bounds_keys(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """`span_keys` of the spans [starts[i], ends[i]]."""
    return (starts.astype(np.int64) << 32) + ends


def span_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (starts, ends) of the spans whose `span_keys` are `keys`."""
    return keys >> 32, keys & 0xFFFFFFFF


def enumerate_candidate_spans(doc: Sized,
                              max_width: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of all spans of width <= max_width over the len(doc)
    tokens of a document (or of any sized sequence), in (start, end)
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
    (stored without the marker), all lower-case: lookup lowercases first.
    """

    initial: frozenset[str]
    continuation: frozenset[str]
    unk: str

    def __post_init__(self):
        if not self.unk:
            raise CorpusError("unknown symbol must be non-empty")
        if "" in self.initial or "" in self.continuation:
            raise CorpusError("empty subword piece")
        pieces = [*self.initial, *("##" + p for p in self.continuation)]
        upper = sorted(p for p in pieces if p != p.lower())
        if upper:
            raise CorpusError(f"subword piece {upper[0]!r} is not lower-case")


def load_subword_vocab(path) -> SubwordVocab:
    path = Path(path)
    lines = [ln for ln in read_text(path, CorpusError).split("\n") if ln]
    if not lines:
        raise CorpusError(f"{path}: empty vocab file")
    unk, pieces = lines[0], lines[1:]
    initial = frozenset(p for p in pieces if not p.startswith("##"))
    continuation = frozenset(p[2:] for p in pieces if p.startswith("##"))
    try:
        return SubwordVocab(initial, continuation, unk)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


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
    word = surface.lower()
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


def mean_subwords_per_span(chain: Iterable[SpanRef], doc: Document,
                           vocab: SubwordVocab,
                           counts: dict[str, int]) -> float:
    """Mean over spans of the span's total wordpiece count.

    `counts` memoizes wordpiece counts by surface under `vocab`; one dict
    passed to several calls segments each distinct surface once.
    """
    totals = []
    for span in chain:
        total = 0
        for token in doc.tokens[span.start:span.end + 1]:
            if token not in counts:
                counts[token] = len(tokenize_subwords(token, vocab))
            total += counts[token]
        totals.append(total)
    if not totals:
        raise ValueError("empty chain")
    return sum(totals) / len(totals)


# The subword slices' bucket width and count, in mean wordpieces per span.
SUBWORD_BUCKET_WIDTH = 1.7
SUBWORD_BUCKETS = 5


def subword_bucket(mean_pieces: float, width: float = SUBWORD_BUCKET_WIDTH,
                   n_buckets: int = SUBWORD_BUCKETS) -> int:
    """Half-open bucket [k*width, (k+1)*width); returns n_buckets for overflow."""
    k = int(mean_pieces // width)
    return min(k, n_buckets)

