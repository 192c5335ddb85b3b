"""Concept lexicons and the matcher that assigns concepts to spans.

Lexicon files are UTF-8. The header line is `<lexicon_id>\t<granularity>`
with granularity `coarse` or `fine`; every following line is one concept:
`<code>\t<surface>|<surface>|...`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Document, SpanRef, check_field, read_text

log = logging.getLogger(__name__)


class LexiconError(ValueError):
    """Raised for malformed lexicon input."""


@dataclass(frozen=True)
class MatchPolicy:
    """How surfaces are matched against a lexicon.

    `threshold` is the minimum fraction of an entry's tokens that a
    span must cover, boundary inclusive; it only applies in overlap mode.
    """

    mode: str = "exact"
    threshold: float = 1.0
    lowercase: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "overlap"):
            raise LexiconError(f"unknown match mode {self.mode!r}")
        check_field(LexiconError, "threshold", self.threshold, "fraction")
        check_field(LexiconError, "lowercase", self.lowercase, "switch")

    def normalize(self, surface: str) -> str:
        return surface.lower() if self.lowercase else surface


@dataclass(frozen=True)
class ConceptLexicon:
    """Named concept clusters: code -> set of surface strings."""

    lexicon_id: str
    concepts: Mapping[str, frozenset[str]]
    granularity: str = "coarse"
    _exact_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.granularity not in ("coarse", "fine"):
            raise LexiconError(f"unknown granularity {self.granularity!r}")
        for code, surfaces in self.concepts.items():
            if not code:
                raise LexiconError(f"{self.lexicon_id}: empty concept code")
            if not surfaces:
                raise LexiconError(f"{self.lexicon_id}: concept {code} has no "
                                   f"surfaces")

    def exact_index(self, lowercase: bool) -> Mapping[str, list[str]]:
        """normalized surface -> sorted codes containing it (cached)."""
        if lowercase not in self._exact_cache:
            index: dict[str, list[str]] = {}
            for code in sorted(self.concepts):
                for surface in self.concepts[code]:
                    key = surface.lower() if lowercase else surface
                    index.setdefault(key, []).append(code)
            ambiguous = sum(1 for codes in index.values() if len(codes) > 1)
            if ambiguous:
                log.info("%s: %d surfaces appear in more than one concept",
                         self.lexicon_id, ambiguous)
            self._exact_cache[lowercase] = index
        return self._exact_cache[lowercase]


def load_lexicon(path) -> ConceptLexicon:
    path = Path(path)
    lines = [ln for ln in read_text(path, LexiconError).split("\n")
             if ln.strip()]
    if not lines:
        raise LexiconError(f"{path}: empty lexicon file")
    header = lines[0].split("\t")
    if len(header) != 2:
        raise LexiconError(f"{path}: header must be '<lexicon_id>\\t"
                           f"<granularity>', got {lines[0]!r}")
    lexicon_id, granularity = header
    concepts: dict[str, frozenset[str]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{path}: line {line_no}: expected "
                               f"'<code>\\t<surfaces>'")
        code, surface_field = parts
        surfaces = frozenset(s for s in surface_field.split("|") if s)
        if not surfaces:
            raise LexiconError(f"{path}: line {line_no}: concept {code} has no "
                               f"surfaces")
        if code in concepts:
            raise LexiconError(f"{path}: line {line_no}: duplicate code {code}")
        concepts[code] = surfaces
    if not concepts:
        raise LexiconError(f"{path}: lexicon has no concepts")
    return ConceptLexicon(lexicon_id, concepts, granularity)


def save_lexicon(lexicon: ConceptLexicon, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{lexicon.lexicon_id}\t{lexicon.granularity}\n")
        for code in sorted(lexicon.concepts):
            surfaces = "|".join(sorted(lexicon.concepts[code]))
            handle.write(f"{code}\t{surfaces}\n")


def assign_concept(surface: str, lexicon: ConceptLexicon,
                   policy: MatchPolicy) -> str | None:
    """The code of the concept `surface` matches under `policy`, or None.

    Exact mode looks the whole string up; an ambiguous surface resolves to
    the smallest code. Overlap mode matches a concept when some entry has
    at least the threshold fraction of its tokens covered by the span; ties
    break by highest fraction, then smallest code.
    """
    if policy.mode == "exact":
        codes = lexicon.exact_index(policy.lowercase).get(
            policy.normalize(surface))
        if not codes:
            return None
        if len(codes) > 1:
            log.warning("%s: surface %r is ambiguous across %d concepts; "
                        "using %s", lexicon.lexicon_id, surface, len(codes),
                        codes[0])
        return codes[0]
    span_tokens = set(policy.normalize(surface).split())
    if not span_tokens:
        return None
    best: tuple[float, str] | None = None
    for code in sorted(lexicon.concepts):
        for entry in lexicon.concepts[code]:
            entry_tokens = set(policy.normalize(entry).split())
            if not entry_tokens:
                continue
            fraction = len(span_tokens & entry_tokens) / len(entry_tokens)
            if fraction >= policy.threshold:
                if best is None or fraction > best[0]:
                    best = (fraction, code)
    return None if best is None else best[1]


def annotate_documents(docs: Iterable[Document], lexicon: ConceptLexicon,
                       policy: MatchPolicy) -> list[Document]:
    """Match every gold span against one lexicon.

    Annotations from other lexicons are preserved; re-running with the same
    lexicon and policy is idempotent.
    """
    annotated = []
    for doc in docs:
        existing = doc.concept_annotations.get(lexicon.lexicon_id, {})
        spans = set(doc.gold_spans())
        spans.update(existing)
        labels: dict[SpanRef, str] = dict(existing)
        for span in sorted(spans):
            code = assign_concept(doc.span_surface(span), lexicon, policy)
            if code is not None:
                labels[span] = code
        annotated.append(doc.with_annotations(lexicon.lexicon_id, labels))
    return annotated
