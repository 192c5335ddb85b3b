import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import model as m
from kcoref import toolkit as tk
from kcoref import training as tr
from kcoref.corpus import Document, SpanRef, tokenize_subwords
from kcoref.toolkit import (ProjectionRecord, SyntheticSpec, confound_share,
                            generate_synthetic_corpus, gold_links,
                            mention_antecedent_offsets,
                            offset_cosine_statistics, pca_2d, project_offsets,
                            span_id, write_projection_table)

from oracles import (confound_share_reference, eig2x2,
                     offset_cosine_statistics_reference)
from test_corpus import make_doc
from test_losses import tiny_setup

S = SpanRef


class TestGoldLinks:
    def test_links_nearest_preceding_chain_mate(self):
        doc = make_doc(["a"] * 8, [[(0, 0), (3, 3), (6, 6)], [(1, 1), (4, 4)]])
        links = gold_links(doc)
        assert (S(3, 3), S(0, 0)) in links
        assert (S(6, 6), S(3, 3)) in links
        assert (S(4, 4), S(1, 1)) in links
        assert len(links) == 3

    def test_span_id_format(self):
        doc = make_doc(["a", "b"], doc_id="docX")
        assert span_id(doc, S(0, 1)) == "docX:0-1"


class TestSpanInternals:
    def test_no_spans_give_no_vectors(self):
        docs, config, store, _, _ = tiny_setup()
        assert tk.span_internals(docs[0], [], store, config) == {}

    def test_one_vector_per_span(self):
        docs, config, store, _, _ = tiny_setup()
        spans = [S(1, 1), S(0, 1)]
        got = tk.span_internals(docs[0], spans, store, config)
        assert sorted(got) == sorted(spans)
        assert all(v.shape == (config.d_token,) for v in got.values())

    def test_vectors_are_the_internal_block_of_the_representations(self):
        docs, config, store, _, _ = tiny_setup()
        enc = store.groups[0]
        layout = m.enumerated_layout(len(docs[0]), config)
        reps, _ = m.build_span_representations(
            m.encode_tokens(docs[0], enc)[0], layout, enc)
        spans = [S(2, 3), S(0, 0)]
        got = tk.span_internals(docs[0], spans, store, config)
        for span in spans:
            row = np.flatnonzero((layout.starts == span.start)
                                 & (layout.ends == span.end))[0]
            np.testing.assert_allclose(
                got[span], reps[row, enc.internal_columns], rtol=1e-12)


class TestOffsets:
    def test_sample_size_honored(self):
        docs, config, store, _, _ = tiny_setup()
        records = mention_antecedent_offsets(docs, store, config,
                                             lexicon_id="i2b2", sample=2,
                                             seed=0)
        assert len(records) == 2

    def test_all_links_used_with_warning_when_short(self, caplog):
        docs, config, store, _, _ = tiny_setup()
        with caplog.at_level("WARNING"):
            records = mention_antecedent_offsets(docs, store, config,
                                                 sample=500)
        assert len(records) == 2  # one gold link per tiny document
        assert "available" in caplog.text

    def test_projection_keeps_the_heap(self, monkeypatch):
        """`project` encodes document after document, as training does, so
        it sets the same malloc thresholds before the first one."""
        docs, config, store, _, _ = tiny_setup()
        calls, span_internals = [], tk.span_internals

        def encode(*args):
            calls.append("encode")
            return span_internals(*args)

        monkeypatch.setattr(tk.tr, "keep_heap", lambda: calls.append("heap"))
        monkeypatch.setattr(tk, "span_internals", encode)
        mention_antecedent_offsets(docs, store, config, sample=2)
        assert calls == ["heap", "encode", "encode"]

    def test_same_seed_same_sample(self):
        docs, config, store, _, _ = tiny_setup()
        a = mention_antecedent_offsets(docs, store, config, sample=1, seed=3)
        b = mention_antecedent_offsets(docs, store, config, sample=1, seed=3)
        assert a[0].mention_id == b[0].mention_id
        np.testing.assert_array_equal(a[0].offset, b[0].offset)

    def test_concept_labels_attached(self):
        docs, config, store, _, _ = tiny_setup()
        records = mention_antecedent_offsets(docs, store, config,
                                             lexicon_id="i2b2", sample=2,
                                             seed=0)
        assert {r.concept for r in records} <= {"problem", "test"}

    def test_repeated_document_ids_keep_their_own_spans(self):
        docs, config, store, _, _ = tiny_setup()
        longer = make_doc(["melk", "##ia", "w", "x", "y", "z", "dorv", "##ia"],
                          [[(0, 1), (6, 7)]], doc_id="d2")
        # the 5-token document first: the others' spans run past its end
        distinct = [docs[1], docs[0], longer]
        named_d = [Document("d", d.tokens, d.gold_clusters,
                            d.concept_annotations) for d in distinct]
        want = mention_antecedent_offsets(distinct, store, config, sample=3)
        got = mention_antecedent_offsets(named_d, store, config, sample=3)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.offset, b.offset)

    def test_identical_vectors_give_zero_offset(self):
        docs, config, store, _, _ = tiny_setup()
        zero = tr.init_parameters(config, store.vocab, store.scaffold_classes)
        zero.buffer().fill(0.0)
        records = mention_antecedent_offsets(docs, zero, config, sample=2,
                                             seed=0)
        for r in records:
            np.testing.assert_array_equal(r.offset, np.zeros(config.d_token))


class TestPCA:
    def test_axis_aligned_identity_case(self):
        points = np.zeros((4, 5))
        points[:, 0] = [2.0, -2.0, 2.0, -2.0]   # variance 4
        points[:, 1] = [1.0, -1.0, -1.0, 1.0]   # variance 1
        projected, explained, components = pca_2d(points)
        np.testing.assert_allclose(explained, [4.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(components[0]),
                                   [1, 0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(projected[:, 0], points[:, 0], atol=1e-12)
        np.testing.assert_allclose(projected[:, 1], points[:, 1], atol=1e-12)

    def test_all_identical_points_project_to_zero(self):
        points = np.ones((5, 4))
        projected, explained, _ = pca_2d(points)
        np.testing.assert_array_equal(projected, np.zeros((5, 2)))
        np.testing.assert_array_equal(explained, [0.0, 0.0])

    def test_three_points_match_hand_eigendecomposition(self):
        planar = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        embedded = np.zeros((3, 6))
        embedded[:, 1] = planar[:, 0]
        embedded[:, 4] = planar[:, 1]
        _, explained, components = pca_2d(embedded)
        lam1, lam2 = eig2x2(8 / 9, -2 / 9, 2 / 9)
        np.testing.assert_allclose(explained, [lam1, lam2], atol=1e-12)
        # first component lies in the coordinate plane of the larger spread
        assert abs(components[0][1]) > abs(components[0][4])

    def test_components_orthonormal_and_variances_sorted(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 7)) * np.array([3, 1, 1, 1, 1, 1, 0.2])
        _, explained, components = pca_2d(data)
        gram = components @ components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        assert explained[0] >= explained[1] >= 0

    def test_mean_projects_to_origin(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(12, 4)) + 7.0
        projected, _, components = pca_2d(data)
        np.testing.assert_allclose(projected.mean(axis=0), [0.0, 0.0],
                                   atol=1e-10)

    def test_rank_deficient_zero_fills_second_component(self, caplog):
        base = np.array([[1.0, 2.0, 0.0]])
        data = np.concatenate([base * t for t in (0.0, 1.0, 2.0, 3.0)])
        with caplog.at_level("WARNING"):
            projected, explained, components = pca_2d(data)
        assert explained[1] == 0.0
        np.testing.assert_array_equal(components[1], np.zeros(3))
        np.testing.assert_array_equal(projected[:, 1], np.zeros(4))
        assert "rank deficient" in caplog.text

    def test_sign_convention_largest_coordinate_positive(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(20, 5))
        _, _, components = pca_2d(data)
        for component in components:
            peak = np.argmax(np.abs(component))
            assert component[peak] > 0

    def test_needs_three_vectors(self):
        with pytest.raises(ValueError):
            pca_2d(np.zeros((2, 3)))


class TestProjectionOutput:
    def test_table_format(self, tmp_path):
        records = [ProjectionRecord("problem", "d0:0-1", "d0:3-4",
                                    np.array([1.0, 0.0]),
                                    np.array([0.25, -0.5]))]
        path = tmp_path / "proj.csv"
        write_projection_table(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "concept,x,y,mention,antecedent"
        assert lines[1] == "problem,0.25,-0.5,d0:0-1,d0:3-4"

    def test_a_field_with_a_comma_reads_back_as_one_field(self, tmp_path):
        records = [ProjectionRecord("C,1", "doc,7:0-0", "doc,7:2-2",
                                    np.array([1.0, 0.0]),
                                    np.array([0.5, 1.0]))]
        path = tmp_path / "proj.csv"
        write_projection_table(records, path)
        with open(path, newline="", encoding="utf-8") as handle:
            header, row = csv.reader(handle)
        assert header == ["concept", "x", "y", "mention", "antecedent"]
        assert row == ["C,1", "0.5", "1.0", "doc,7:0-0", "doc,7:2-2"]

    def test_project_offsets_attaches_points(self):
        rng = np.random.default_rng(2)
        records = [ProjectionRecord("c", f"d0:{i}-{i}", "d0:0-0",
                                    rng.normal(size=4)) for i in range(6)]
        out, explained = project_offsets(records)
        assert all(r.point is not None and r.point.shape == (2,) for r in out)
        assert explained.shape == (2,)

    def test_cosine_statistics_split_by_concept(self):
        records = [
            ProjectionRecord("a", "x", "y", np.array([1.0, 0.0])),
            ProjectionRecord("a", "x", "y", np.array([1.0, 0.1])),
            ProjectionRecord("b", "x", "y", np.array([-1.0, 0.0])),
        ]
        within, across = offset_cosine_statistics(records)
        assert within > 0.99
        assert across < 0.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_cosine_statistics_match_the_pairwise_reference(self, data):
        n = data.draw(st.integers(0, 9))
        dim = data.draw(st.integers(1, 4))
        coords = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)
        records = [ProjectionRecord(
            data.draw(st.sampled_from("abc")), "m", "a",
            np.array(data.draw(st.lists(coords, min_size=dim,
                                        max_size=dim))))
            for _ in range(n)]
        got = offset_cosine_statistics(records)
        want = offset_cosine_statistics_reference(records)
        assert all(type(v) is float for v in got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_offsets_and_empty_sides_read_zero(self):
        zero = ProjectionRecord("a", "m", "a", np.zeros(3))
        one = ProjectionRecord("a", "m", "a", np.ones(3))
        assert offset_cosine_statistics([]) == (0.0, 0.0)
        assert offset_cosine_statistics([one]) == (0.0, 0.0)
        assert offset_cosine_statistics([zero, one, zero]) == (0.0, 0.0)
        within, across = offset_cosine_statistics([one, one])
        assert within == pytest.approx(1.0) and across == 0.0


class TestSyntheticGenerator:
    def test_documents_hold_their_tokens_as_strings(self):
        corpus = generate_synthetic_corpus(SyntheticSpec(n_documents=3, seed=4))
        for doc in corpus.documents:
            assert type(doc.tokens) is tuple and doc.tokens
            assert all(type(t) is str and t for t in doc.tokens)

    def test_zero_oov_fraction_uses_whole_words(self):
        spec = SyntheticSpec(n_documents=4, oov_fraction=0.0, seed=1)
        corpus = generate_synthetic_corpus(spec)
        assert all(len(e.pieces) == 1 for e in corpus.entities)
        for doc in corpus.documents:
            assert not any(t.startswith("##") for t in doc.tokens)

    def test_fixed_seed_reproducible(self):
        spec = SyntheticSpec(n_documents=6, seed=11)
        a = generate_synthetic_corpus(spec)
        b = generate_synthetic_corpus(spec)
        assert a.documents == b.documents
        assert a.entities == b.entities
        assert a.coarse_lexicon.concepts == b.coarse_lexicon.concepts

    def test_different_seeds_differ(self):
        a = generate_synthetic_corpus(SyntheticSpec(n_documents=4, seed=1))
        b = generate_synthetic_corpus(SyntheticSpec(n_documents=4, seed=2))
        assert a.documents != b.documents

    @pytest.mark.parametrize("n_concepts, most", [
        (1, 2744), (5, 2744), (6, 1372), (11, 914)])
    def test_names_per_concept_are_capped_by_the_shared_stem_pool(
            self, n_concepts, most):
        """Concepts c and c + 5 draw distinct stems, three of 14 letters
        and one vowel, from one pool that no filler word takes from."""
        assert not [word for word in tk._FILLERS if len(word) == 4
                    and set(word[:3]) <= set(tk._STEM_LETTERS)
                    and word[3] in "aeiou"]
        concepts = tuple(f"c{i}" for i in range(n_concepts))
        SyntheticSpec(concepts=concepts, entities_per_concept=most)
        with pytest.raises(ValueError, match="entities_per_concept"):
            SyntheticSpec(concepts=concepts, entities_per_concept=most + 1)

    @pytest.mark.parametrize("field", ["oov_fraction", "determiner_fraction",
                                       "qualifier_fraction"])
    def test_fractions_are_within_zero_and_one(self, field):
        SyntheticSpec(**{field: 0.0})
        SyntheticSpec(**{field: 1})
        for value in (1.5, 1 + 1e-12, -0.1):
            with pytest.raises(ValueError, match=field):
                SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("suffixes", [("IA",), ("ia", "Oma"), ("ɪA",)])
    def test_a_suffix_must_be_lower_case(self, suffixes):
        """Subword lookup lowercases each word, so `synth` cannot write a
        vocab piece that would never match."""
        with pytest.raises(ValueError, match=r"suffixes\[\d\] must be "
                                             r"lower-case"):
            SyntheticSpec(suffixes=suffixes)

    def test_confound_share_matches_suffix_pool(self):
        spec = SyntheticSpec(n_documents=2, entities_per_concept=8,
                             suffixes=("ia", "oma"), oov_fraction=1.0, seed=3)
        corpus = generate_synthetic_corpus(spec)
        assert confound_share(corpus) == pytest.approx(0.5)

    def test_single_suffix_full_confound(self):
        spec = SyntheticSpec(n_documents=2, entities_per_concept=4,
                             suffixes=("ia",), seed=3)
        assert confound_share(generate_synthetic_corpus(spec)) == 1.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(entities=st.lists(st.builds(
        tk.Entity, st.just("x"),
        st.lists(st.sampled_from(["x", "##ia", "##oma", "##el"]),
                 min_size=1, max_size=3).map(tuple),
        st.sampled_from(["problem", "test", "treatment"]), st.just("C")),
        max_size=12))
    def test_confound_share_matches_the_pairwise_reference(self, entities):
        corpus = tk.SyntheticCorpus([], None, None, None, entities)
        assert confound_share(corpus) == confound_share_reference(entities)

    def test_documents_pass_invariants_and_chains_labeled(self):
        spec = SyntheticSpec(n_documents=8, seed=5)
        corpus = generate_synthetic_corpus(spec)
        for doc in corpus.documents:
            labels = doc.concept_annotations["coarse"]
            for cluster in doc.gold_clusters:
                assert len(cluster) >= 2
                found = {labels[s] for s in cluster}
                assert len(found) == 1

    def test_oov_names_tokenize_to_their_pieces(self):
        spec = SyntheticSpec(n_documents=2, seed=7)
        corpus = generate_synthetic_corpus(spec)
        oov = [e for e in corpus.entities if len(e.pieces) > 1]
        assert oov
        for entity in oov[:4]:
            assert tokenize_subwords(entity.name, corpus.subword_vocab) == \
                list(entity.pieces)

    def test_lexicons_cover_entity_names(self):
        corpus = generate_synthetic_corpus(SyntheticSpec(n_documents=2, seed=9))
        coarse_surfaces = set().union(*corpus.coarse_lexicon.concepts.values())
        assert {e.name for e in corpus.entities} <= coarse_surfaces
        assert len(corpus.fine_lexicon.concepts) == len(corpus.entities)

    def test_qualifier_marks_first_mention_of_each_chain(self):
        spec = SyntheticSpec(n_documents=4, seed=5, qualifier_fraction=1.0,
                             determiner_fraction=0.0, chain_length=(2, 2))
        corpus = generate_synthetic_corpus(spec)
        qualifiers = set(tk._QUALIFIERS)
        for doc in corpus.documents:
            for cluster in doc.gold_clusters:
                first, rest = sorted(cluster)[0], sorted(cluster)[1:]
                assert doc.tokens[first.start] in qualifiers
                for span in rest:
                    assert doc.tokens[span.start] not in qualifiers

    def test_qualifiers_absent_by_default(self):
        corpus = generate_synthetic_corpus(SyntheticSpec(n_documents=4, seed=5))
        surfaces = {t for d in corpus.documents for t in d.tokens}
        assert not surfaces & set(tk._QUALIFIERS)

    def test_gold_span_surfaces_match_lexicon_entries(self):
        corpus = generate_synthetic_corpus(SyntheticSpec(n_documents=3, seed=2,
                                                         determiner_fraction=0.0))
        names = {e.name for e in corpus.entities}
        for doc in corpus.documents:
            for span in doc.gold_spans():
                assert doc.span_surface(span) in names
