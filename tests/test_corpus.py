import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref.corpus import (CorpusError, Document, SpanRef, SubwordVocab, Token,
                           chain_concepts, concept_chain_stats, corpus_stats,
                           document_to_record, enumerate_candidate_spans,
                           load_corpus, load_subword_vocab,
                           mean_subwords_per_span, save_corpus,
                           save_subword_vocab, subword_bucket, subword_count,
                           tokenize_subwords, truncate_document)

from oracles import enumerate_spans_brute, width_bucket_index


def make_doc(tokens, clusters=(), concepts=None, doc_id="d0"):
    return Document(
        doc_id,
        tuple(Token(s, i) for i, s in enumerate(tokens)),
        tuple(frozenset(SpanRef(a, b) for a, b in c) for c in clusters),
        concepts or {})


SECTION_VOCAB = SubwordVocab(
    initial=frozenset({"lap", "open"}),
    continuation=frozenset({"aro", "sco", "py", "tom", "y"}),
    unk="[UNK]")


class TestSpanRef:
    def test_orders_by_start_then_end(self):
        assert SpanRef(0, 1) < SpanRef(0, 2) < SpanRef(1, 1)

    def test_rejects_end_before_start(self):
        with pytest.raises(CorpusError, match="end before start"):
            SpanRef(3, 1)

    def test_rejects_negative_start(self):
        with pytest.raises(CorpusError):
            SpanRef(-1, 0)

    def test_width(self):
        assert SpanRef(2, 4).width == 3


class TestDocument:
    def test_span_out_of_bounds(self):
        with pytest.raises(CorpusError, match="out of bounds"):
            make_doc(["a", "b"], [[(0, 2)], ])

    def test_overlapping_cluster_membership(self):
        with pytest.raises(CorpusError, match="more than one cluster"):
            make_doc(["a", "b", "c"], [[(0, 0), (1, 1)], [(0, 0), (2, 2)]])

    def test_empty_cluster_rejected(self):
        # It would count as a gold entity: a perfect prediction then reads
        # MUC recall 0 and CEAF-e recall 1/2.
        with pytest.raises(CorpusError, match="d0: empty gold cluster"):
            make_doc(["a", "b"], [[(0, 0), (1, 1)], []])

    def test_empty_token_rejected(self):
        with pytest.raises(CorpusError, match="empty token"):
            make_doc(["a", ""])

    def test_span_surface_glues_continuations(self):
        doc = make_doc(["the", "dorv", "##ia", "sign"])
        assert doc.span_surface(SpanRef(0, 2)) == "the dorvia"
        assert doc.span_surface(SpanRef(1, 2)) == "dorvia"
        assert doc.span_surface(SpanRef(3, 3)) == "sign"

    def test_cluster_of(self):
        doc = make_doc(["a", "b", "c"], [[(0, 0), (2, 2)]])
        assert doc.cluster_of(SpanRef(0, 0)) == frozenset({SpanRef(0, 0),
                                                           SpanRef(2, 2)})
        assert doc.cluster_of(SpanRef(1, 1)) is None


class TestLoadCorpus:
    def test_round_trips_single_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d0", "tokens": ["a", "b"], '
                        '"clusters": [[[0, 0], [1, 1]]]}\n')
        docs = load_corpus(path)
        assert len(docs) == 1
        assert len(docs[0].gold_clusters) == 1
        assert docs[0].gold_clusters[0] == frozenset({SpanRef(0, 0),
                                                      SpanRef(1, 1)})

    def test_end_before_start_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d0", "tokens": ["a", "b", "c", "d"], '
                        '"clusters": [[[3, 1]]]}\n')
        with pytest.raises(CorpusError, match="line 1.*end before start"):
            load_corpus(path)

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d0", "tokens": ["a"]}\n{nope\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_out_of_bounds_names_doc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "dX", "tokens": ["a"], '
                        '"clusters": [[[0, 3]]]}\n')
        with pytest.raises(CorpusError, match="dX"):
            load_corpus(path)

    def test_cluster_concept_consistency_enforced(self, tmp_path):
        record = {"doc_id": "d0", "tokens": ["a", "b"],
                  "clusters": [[[0, 0], [1, 1]]],
                  "concepts": [
                      {"span": [0, 0], "label": "problem", "lexicon": "coarse"},
                      {"span": [1, 1], "label": "test", "lexicon": "coarse"}]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match="mixes"):
            load_corpus(path)

    def test_repeated_doc_id_reports_line_and_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_doc(["a"], doc_id="d"), make_doc(["b"], doc_id="e"),
                     make_doc(["a", "b"], doc_id="d")], path)
        with pytest.raises(CorpusError, match=r"c\.jsonl: line 3: doc_id "
                                              r"'d' repeats line 1"):
            load_corpus(path)

    def test_save_load_identity(self, tmp_path):
        docs = [
            make_doc(["a", "b", "c", "d"], [[(0, 0), (2, 3)]],
                     {"coarse": {SpanRef(0, 0): "x", SpanRef(2, 3): "x"}}),
            make_doc(["e", "f"], [], doc_id="d1"),
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_order_preserved(self, tmp_path):
        docs = [make_doc(["a"], doc_id=f"d{i}") for i in range(5)]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        assert [d.doc_id for d in load_corpus(path)] == [f"d{i}"
                                                         for i in range(5)]


class TestCorpusStats:
    def test_single_doc(self):
        doc = make_doc(list("abcdefghij"), [[(0, 0), (1, 1)]])
        assert corpus_stats([doc]) == (1, 10.0, 2.0)

    def test_mean_tokens(self):
        docs = [make_doc(list("abcd")), make_doc(list("abcdef"))]
        assert corpus_stats(docs)[1] == 5.0

    def test_empty_corpus_raises(self):
        with pytest.raises(CorpusError, match="empty"):
            corpus_stats([])

    def test_concept_chain_stats(self):
        doc = make_doc(
            list("abcdef"),
            [[(0, 0), (1, 1)], [(2, 2), (3, 3), (4, 4)]],
            {"coarse": {SpanRef(0, 0): "problem", SpanRef(1, 1): "problem",
                        SpanRef(2, 2): "test", SpanRef(3, 3): "test",
                        SpanRef(4, 4): "test"}})
        stats = concept_chain_stats([doc], "coarse")
        assert stats == {"problem": (1, 2.0), "test": (1, 3.0)}

    def test_chain_concepts(self):
        a, b, c = SpanRef(0, 0), SpanRef(1, 1), SpanRef(2, 2)
        labels = {a: "x", b: "y", SpanRef(5, 5): "z"}
        assert chain_concepts([c], labels) == set()
        assert chain_concepts({a, c}, labels) == {"x"}
        assert chain_concepts((a, b, c), labels) == {"x", "y"}


def enumerated(doc, max_width):
    starts, ends = enumerate_candidate_spans(doc, max_width)
    return list(zip(starts.tolist(), ends.tolist()))


class TestEnumerateSpans:
    def test_unigrams(self):
        doc = make_doc(["a", "b", "c"])
        assert enumerated(doc, 1) == [(0, 0), (1, 1), (2, 2)]

    def test_full_width(self):
        doc = make_doc(["a", "b", "c"])
        assert len(enumerated(doc, 3)) == 6

    def test_n5_w2_hand_enumeration(self):
        doc = make_doc(list("abcde"))
        spans = enumerated(doc, 2)
        assert spans == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
                         (3, 3), (3, 4), (4, 4)]

    @given(n=st.integers(1, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, data):
        max_width = data.draw(st.integers(1, n))
        doc = make_doc(["t"] * n)
        spans = enumerated(doc, max_width)
        assert spans == enumerate_spans_brute(n, max_width)
        expected = sum(max(0, n - w + 1) for w in range(1, max_width + 1))
        assert len(spans) == expected


class TestTokenizer:
    def test_medical_segmentations(self):
        assert tokenize_subwords("laparoscopy", SECTION_VOCAB) == \
            ["lap", "##aro", "##sco", "##py"]
        assert tokenize_subwords("laparotomy", SECTION_VOCAB) == \
            ["lap", "##aro", "##tom", "##y"]

    def test_whole_word_hit(self):
        assert tokenize_subwords("open", SECTION_VOCAB) == ["open"]

    def test_unknown_fallback(self):
        assert tokenize_subwords("zzz", SECTION_VOCAB) == ["[UNK]"]

    def test_lowercases_by_default(self):
        assert tokenize_subwords("Open", SECTION_VOCAB) == ["open"]

    def test_vocab_requires_unk(self):
        with pytest.raises(CorpusError):
            SubwordVocab(frozenset({"a"}), frozenset(), "")

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_when_no_unk(self, word):
        vocab = SubwordVocab(
            initial=frozenset({"a", "ab", "bc", "c", "d", "e"}),
            continuation=frozenset({"a", "b", "cd", "e", "f", "gh", "g", "h",
                                    "c", "d"}),
            unk="[UNK]")
        pieces = tokenize_subwords(word, vocab)
        assert pieces == tokenize_subwords(word, vocab)
        if pieces != ["[UNK]"]:
            rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
            assert rebuilt == word

    def test_vocab_file_round_trip(self, tmp_path):
        path = tmp_path / "v.vocab"
        save_subword_vocab(SECTION_VOCAB, path)
        loaded = load_subword_vocab(path)
        assert loaded == SECTION_VOCAB
        assert path.read_text().splitlines()[0] == "[UNK]"


class TestMeanSubwords:
    def test_two_singleton_spans(self):
        doc = make_doc(["laparoscopy", "x", "laparotomy"])
        chain = {SpanRef(0, 0), SpanRef(2, 2)}
        assert mean_subwords_per_span(chain, doc, SECTION_VOCAB) == 4.0

    def test_whole_word_spans_are_one(self):
        doc = make_doc(["open", "open"])
        chain = {SpanRef(0, 0), SpanRef(1, 1)}
        assert mean_subwords_per_span(chain, doc, SECTION_VOCAB) == 1.0

    def test_open_laparoscopy_counts_five(self):
        doc = make_doc(["open", "laparoscopy"])
        assert mean_subwords_per_span({SpanRef(0, 1)}, doc,
                                      SECTION_VOCAB) == 5.0

    def test_empty_chain_rejected(self):
        doc = make_doc(["open"])
        with pytest.raises(ValueError):
            mean_subwords_per_span(set(), doc, SECTION_VOCAB)

    def test_shared_counts_segment_each_surface_once(self, monkeypatch):
        import kcoref.corpus as corpus
        segmented = []
        count = corpus.subword_count

        def recording(surface, vocab):
            segmented.append(surface)
            return count(surface, vocab)

        monkeypatch.setattr(corpus, "subword_count", recording)
        doc = make_doc(["open", "laparoscopy", "open", "laparoscopy"])
        counts = {}
        means = [mean_subwords_per_span(chain, doc, SECTION_VOCAB, counts)
                 for chain in ({SpanRef(0, 1)}, {SpanRef(1, 1), SpanRef(2, 3)})]
        assert means == [5.0, 4.5]
        assert sorted(segmented) == ["laparoscopy", "open"]
        assert counts == {"open": 1, "laparoscopy": 4}


class TestBuckets:
    def test_mean_one_in_first_bucket(self):
        assert subword_bucket(1.0) == 0

    def test_boundary_exactly_17_moves_up(self):
        assert subword_bucket(1.7) == 1

    def test_overflow(self):
        assert subword_bucket(9.1) == 5

    def test_width_buckets_default_edges(self):
        edges = (1, 2, 3, 4, 7)
        assert [width_bucket_index(w, edges) for w in (1, 2, 3, 4, 5, 7, 8, 20)] \
            == [0, 1, 2, 3, 4, 4, 5, 5]

    def test_consecutive_buckets_match_min_rule(self):
        edges = (1, 2, 3, 4)  # buckets {1},{2},{3},{4},{5+}
        for width in range(1, 10):
            assert width_bucket_index(width, edges) == min(width, 5) - 1


class TestTruncate:
    def test_noop_when_short(self):
        doc = make_doc(["a", "b"])
        assert truncate_document(doc, 10) is doc

    def test_drops_spans_past_cap(self):
        doc = make_doc(list("abcdef"), [[(0, 0), (1, 1)], [(4, 4), (5, 5)]])
        cut = truncate_document(doc, 3)
        assert len(cut) == 3
        assert len(cut.gold_clusters) == 1


def test_subword_count_matches_tokenize():
    assert subword_count("laparotomy", SECTION_VOCAB) == 4


def test_record_format_matches_documented_shape():
    doc = make_doc(["a", "b"], [[(0, 0), (1, 1)]],
                   {"coarse": {SpanRef(0, 0): "x", SpanRef(1, 1): "x"}})
    record = document_to_record(doc)
    assert set(record) == {"doc_id", "tokens", "clusters", "concepts"}
    assert record["clusters"] == [[[0, 0], [1, 1]]]
    assert record["concepts"][0] == {"span": [0, 0], "label": "x",
                                     "lexicon": "coarse"}
