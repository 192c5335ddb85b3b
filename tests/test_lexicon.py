import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref.corpus import SpanRef
from kcoref.lexicon import (ConceptLexicon, LexiconError, MatchPolicy,
                            annotate_documents, assign_concept, load_lexicon,
                            save_lexicon)

from test_corpus import make_doc

HEAD_LEXICON = ConceptLexicon(
    "umls",
    {"C-HEAD": frozenset({"headaches", "cranial pain", "head pain",
                          "cephalgia"})},
    granularity="fine")

EXACT = MatchPolicy(mode="exact")
OVERLAP = MatchPolicy(mode="overlap", threshold=1.0)


class TestLoadLexicon:
    def test_single_concept_file(self, tmp_path):
        path = tmp_path / "l.lex"
        path.write_text("umls\tfine\n"
                        "C-HEAD\theadaches|cranial pain|head pain|cephalgia\n")
        lex = load_lexicon(path)
        assert lex.lexicon_id == "umls"
        assert lex.granularity == "fine"
        assert len(lex.concepts) == 1
        assert len(lex.concepts["C-HEAD"]) == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "l.lex"
        path.write_text("")
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon(path)

    def test_concept_without_surfaces_rejected(self, tmp_path):
        path = tmp_path / "l.lex"
        path.write_text("umls\tfine\nC1\t\n")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_duplicate_code_rejected(self, tmp_path):
        path = tmp_path / "l.lex"
        path.write_text("umls\tfine\nC1\ta\nC1\tb\n")
        with pytest.raises(LexiconError, match="duplicate"):
            load_lexicon(path)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "l.lex"
        save_lexicon(HEAD_LEXICON, path)
        loaded = load_lexicon(path)
        assert loaded.lexicon_id == HEAD_LEXICON.lexicon_id
        assert loaded.concepts == HEAD_LEXICON.concepts

    def test_bad_granularity_rejected(self):
        with pytest.raises(LexiconError):
            ConceptLexicon("x", {"C1": frozenset({"a"})}, "medium")


class TestExactMatch:
    def test_surface_in_concept(self):
        assert assign_concept("cranial pain", HEAD_LEXICON, EXACT) == "C-HEAD"

    def test_absent_surface(self):
        assert assign_concept("aspirin", HEAD_LEXICON, EXACT) is None

    def test_lowercasing_normalization(self):
        assert assign_concept("Headaches", HEAD_LEXICON, EXACT) == "C-HEAD"

    def test_case_sensitive_when_disabled(self):
        policy = MatchPolicy(mode="exact", lowercase=False)
        assert assign_concept("Headaches", HEAD_LEXICON, policy) is None

    def test_ambiguity_resolves_to_smallest_code(self, caplog):
        lex = ConceptLexicon("x", {"C2": frozenset({"dup"}),
                                   "C1": frozenset({"dup"})})
        assert assign_concept("dup", lex, EXACT) == "C1"
        assert "'dup' is ambiguous across 2 concepts; using C1" in caplog.text


class TestOverlapMatch:
    CANCER = ConceptLexicon("umls", {
        "C-GB": frozenset({"gallbladder cancer"}),
        "C-PA": frozenset({"pancreatic cancer"})}, "fine")

    def test_entry_fully_covered(self):
        assert assign_concept("metastatic gallbladder cancer", self.CANCER,
                              OVERLAP) == "C-GB"

    def test_half_covered_fails_at_full_threshold(self):
        lex = ConceptLexicon("umls", {"C-PA": frozenset({"pancreatic cancer"})},
                             "fine")
        assert assign_concept("metastatic gallbladder cancer", lex,
                              OVERLAP) is None

    def test_boundary_inclusive_at_half(self):
        lex = ConceptLexicon("umls", {"C-PA": frozenset({"pancreatic cancer"})},
                             "fine")
        policy = MatchPolicy(mode="overlap", threshold=0.5)
        assert assign_concept("metastatic gallbladder cancer", lex,
                              policy) == "C-PA"

    def test_tie_breaks_by_fraction_then_code(self):
        lex = ConceptLexicon("umls", {
            "C2": frozenset({"alpha beta"}),       # 2/2 covered
            "C1": frozenset({"alpha beta gamma"}),  # 2/3 covered
        }, "fine")
        policy = MatchPolicy(mode="overlap", threshold=0.5)
        assert assign_concept("alpha beta", lex, policy) == "C2"

    def test_threshold_validation(self):
        with pytest.raises(LexiconError):
            MatchPolicy(mode="overlap", threshold=0.0)

    @given(st.text(alphabet="ab ", min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_exact_implies_overlap(self, surface):
        lex = ConceptLexicon("x", {"C1": frozenset({"aa", "b", "a b"})})
        exact = assign_concept(surface, lex, EXACT)
        if exact is not None and surface.strip():
            assert assign_concept(surface, lex, OVERLAP) is not None


class TestAnnotate:
    def test_matching_span_annotated(self):
        doc = make_doc(["cranial", "pain"], [])
        doc = doc.with_annotations("seed", {SpanRef(0, 1): "X"})
        doc = make_doc(["cranial", "pain", "x", "cranial", "pain"],
                       [[(0, 1), (3, 4)]])
        out = annotate_documents([doc], HEAD_LEXICON, EXACT)[0]
        assert out.concept_annotations["umls"][SpanRef(0, 1)] == "C-HEAD"
        assert out.concept_annotations["umls"][SpanRef(3, 4)] == "C-HEAD"

    def test_no_match_leaves_annotations_unchanged(self):
        doc = make_doc(["aspirin", "x", "aspirin"], [[(0, 0), (2, 2)]])
        out = annotate_documents([doc], HEAD_LEXICON, EXACT)[0]
        assert out.concept_annotations.get("umls", {}) == {}

    def test_layering_preserves_other_lexicons(self):
        doc = make_doc(["headaches", "y", "headaches"], [[(0, 0), (2, 2)]],
                       {"coarse": {SpanRef(0, 0): "problem",
                                   SpanRef(2, 2): "problem"}})
        out = annotate_documents([doc], HEAD_LEXICON, EXACT)[0]
        assert out.concept_annotations["coarse"][SpanRef(0, 0)] == "problem"
        assert out.concept_annotations["umls"][SpanRef(0, 0)] == "C-HEAD"

    def test_idempotent(self):
        doc = make_doc(["headaches", "y", "headaches"], [[(0, 0), (2, 2)]])
        once = annotate_documents([doc], HEAD_LEXICON, EXACT)
        twice = annotate_documents(once, HEAD_LEXICON, EXACT)
        assert once == twice

    def test_matching_is_pure(self):
        for _ in range(3):
            assert assign_concept("cephalgia", HEAD_LEXICON, EXACT) == \
                "C-HEAD"
