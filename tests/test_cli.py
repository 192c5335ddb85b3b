import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import cli
from kcoref import evaluation as ev
from kcoref import toolkit as tk
from kcoref import training as tr
from kcoref.config import (ConfigError, load_config, load_run_data,
                           scaffold_classes)
from kcoref.corpus import (CorpusError, load_corpus, load_subword_vocab,
                           save_corpus)
from kcoref.lexicon import LexiconError, load_lexicon
from kcoref.losses import LossError

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized corpus, a config, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("ws")
    spec = {"n_documents": 10, "seed": 9, "chains_per_doc": [2, 3],
            "chain_length": [2, 3], "suffixes": ["ia"],
            "entities_per_concept": 4}
    (root / "spec.json").write_text(json.dumps(spec))
    assert cli.main(["--quiet", "synth", str(root / "spec.json"),
                     "--out", str(root / "data"), "--test-docs", "3"]) == 0
    config = {
        "seed": 5,
        "corpora": {"train": "data/corpus.jsonl",
                    "eval": "data/corpus_test.jsonl"},
        "lexicons": [{"path": "data/coarse.lex"},
                     {"path": "data/fine.lex", "annotate": True}],
        "subword_vocab": "data/pieces.vocab",
        "model": {"d_token": 8, "d_width": 3, "window_radius": 1,
                  "scorer_hidden": 8, "max_span_width": 3,
                  "prune_ratio": 0.3, "max_antecedents": 20},
        "objective": {"pair_budget": 200, "pair_seed": 11,
                      "scaffold_lexicon": "coarse"},
        "phases": [{"corpus": "train", "epochs": 40, "role": "target",
                    "weights": {"alpha_c": 1.0,
                                "alpha_k": {"coarse": 0.5, "fine": 0.2},
                                "beta": [1.0, 0.5, 0.3]},
                    "base_lr": 3e-3, "task_lr": 6e-3}],
        "eval_corpus": "eval",
        "projection": {"sample": 10, "seed": 4, "lexicon": "coarse"},
    }
    (root / "config.json").write_text(json.dumps(config))
    assert cli.main(["--quiet", "train", str(root / "config.json"),
                     "--out", str(root / "run")]) == 0
    return root


class TestSynth:
    def test_outputs_parse(self, workspace):
        docs = load_corpus(workspace / "data" / "corpus.jsonl")
        held = load_corpus(workspace / "data" / "corpus_test.jsonl")
        assert len(docs) == 7 and len(held) == 3
        coarse = load_lexicon(workspace / "data" / "coarse.lex")
        assert coarse.granularity == "coarse"
        fine = load_lexicon(workspace / "data" / "fine.lex")
        assert fine.granularity == "fine"
        vocab = load_subword_vocab(workspace / "data" / "pieces.vocab")
        assert vocab.unk == "<unk>"

    def test_test_docs_must_leave_train(self, workspace, tmp_path, capsys):
        code = cli.main(["--quiet", "synth", str(workspace / "spec.json"),
                         "--out", str(tmp_path), "--test-docs", "99"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("held, problem", [
        ("-2", "error: --test-docs must be >= 0, not -2"),
        ("99", "error: --test-docs must be below n_documents (10), not 99"),
        ("10", "error: --test-docs must be below n_documents (10), not 10"),
    ], ids=["negative", "more-than-all", "all"])
    def test_a_test_docs_count_out_of_range_fails_before_writing(
            self, workspace, tmp_path, capsys, held, problem):
        """A negative count would hold out nothing without a word, and one
        that leaves no training document is refused before `--out` is
        made."""
        code = cli.main(["--quiet", "synth", str(workspace / "spec.json"),
                         "--out", str(tmp_path / "out"), "--test-docs", held])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [problem]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, setting", [
        ([1], "must be a mapping, not [1]"),
        ({"bogus": 1}, "'bogus'"),
        ({"n_documents": "4"}, "n_documents must be an integer, not '4'"),
        ({"chains_per_doc": 3}, "chains_per_doc must be a list, not 3"),
        ({"chains_per_doc": [3, 2]}, "chains_per_doc must be [low, high]"),
        ({"suffixes": ["ia", 2]}, "suffixes[1] must be a string, not 2"),
        ({"oov_fraction": None}, "oov_fraction must be a number, not None"),
        ({"concepts": ["a", "b", "a"]}, "concepts lists 'a' twice"),
        ({"suffixes": ["ia", "ia"]}, "suffixes lists 'ia' twice"),
        ({"entities_per_concept": 0}, "entities_per_concept must be >= 1, "
                                      "not 0"),
        ({"suffixes": ["ia", "Oma"]}, "suffixes[1] must be lower-case, "
                                      "not 'Oma'"),
        ({"oov_fraction": 1.5}, "oov_fraction must be <= 1, not 1.5"),
        ({"determiner_fraction": 2}, "determiner_fraction must be <= 1, "
                                     "not 2"),
        ({"qualifier_fraction": 1.01}, "qualifier_fraction must be <= 1, "
                                       "not 1.01"),
    ])
    def test_malformed_spec_is_one_named_error(self, tmp_path, capsys, spec,
                                               setting):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = cli.main(["--quiet", "synth", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}") and setting in line

    @pytest.mark.parametrize("concepts, per_concept, most", [
        (["problem"], 2745, 2744), ([f"c{i}" for i in range(6)], 1400, 1372)])
    def test_a_spec_with_more_names_than_stems_fails_at_once(
            self, tmp_path, concepts, per_concept, most):
        """Concepts c and c + 5 share one pool of 14**3 = 2,744 name stems;
        a spec that needs more of them is refused, where the generator
        would draw forever."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"concepts": concepts,
                                    "entities_per_concept": per_concept}))
        done = subprocess.run(
            [sys.executable, "-m", "kcoref.cli", "--quiet", "synth",
             str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith(f"error: {path}: entities_per_concept must "
                               f"be at most {most} ")
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert (workspace / "run" / "checkpoint.ckpt").exists()
        log_lines = (workspace / "run" / "loss_log.tsv").read_text().splitlines()
        assert len(log_lines) == 41  # header + 40 epochs
        header = log_lines[0].split("\t")
        assert header[:6] == ["phase", "epoch", "cl", "rl", "sl", "total"]

    def test_loss_components_active(self, workspace):
        rows = (workspace / "run" / "loss_log.tsv").read_text().splitlines()[1:]
        cl, rl, sl = (float(rows[0].split("\t")[i]) for i in (2, 3, 4))
        assert cl > 0 and rl > 0 and sl > 0


class TestEvaluate:
    def test_report_files(self, workspace, capsys):
        code = cli.main(["--quiet", "evaluate", str(workspace / "config.json"),
                         str(workspace / "run" / "checkpoint.ckpt"),
                         "--out", str(workspace / "eval")])
        assert code == 0
        assert "average F1" in capsys.readouterr().out
        payload = json.loads((workspace / "eval" / "report.json").read_text())
        assert set(payload["overall"]) == {"muc", "b_cubed", "ceaf_e",
                                           "average"}
        for metric in payload["overall"].values():
            for key in ("recall", "precision", "f1"):
                assert 0.0 <= metric[key] <= 1.0
        assert "concept_slices" in payload
        assert "subword_slices" in payload
        tsv = (workspace / "eval" / "report.tsv").read_text().splitlines()
        assert tsv[0].split("\t") == ["section", "metric", "recall",
                                      "precision", "f1"]
        assert any(row.startswith("overall\tmuc") for row in tsv)

    def test_report_is_the_library_scores_of_a_linking_model(self, workspace):
        """The workspace model links mentions, and both report files hold
        `score_documents` and the two slice functions on its
        `predict_clusters`, value for value."""
        out = workspace / "eval_check"
        assert cli.main(["--quiet", "evaluate", str(workspace / "config.json"),
                         str(workspace / "run" / "checkpoint.ckpt"),
                         "--out", str(out)]) == 0
        config = load_config(workspace / "config.json")
        data = load_run_data(config)
        docs = data.corpora["eval"]
        store = tr.ParameterStore.load(workspace / "run" / "checkpoint.ckpt")
        preds = [ev.predict_clusters(doc, store, config.model).clusters
                 for doc in docs]
        metrics = ("muc", "b_cubed", "ceaf_e", "average")

        def scores(report):
            return {name: {"recall": getattr(report, name).recall,
                           "precision": getattr(report, name).precision,
                           "f1": getattr(report, name).f1}
                    for name in metrics}

        def slices(found):
            return {s.key: {"chains": s.gold_chains, **scores(s.report)}
                    for s in found}

        overall = ev.score_documents([doc.gold_clusters for doc in docs],
                                     preds)
        assert overall.muc.f1 > 0
        want = {"overall": scores(overall),
                "concept_slices": slices(ev.slice_by_concept(docs, preds,
                                                             "coarse")),
                "subword_slices": slices(ev.slice_by_subword_bucket(
                    docs, preds, data.subword_vocab))}
        assert json.loads((out / "report.json").read_text()) == want
        sections = [("overall", want["overall"])]
        for prefix, key in (("concept", "concept_slices"),
                            ("subwords", "subword_slices")):
            sections += [(f"{prefix}:{k}", v) for k, v in want[key].items()]
        fields = ("recall", "precision", "f1")
        rows = ["\t".join([section, name,
                           *(repr(values[name][f]) for f in fields)])
                for section, values in sections for name in metrics]
        assert (out / "report.tsv").read_text().splitlines() == \
            ["section\tmetric\trecall\tprecision\tf1", *rows]

    def test_flags_write_the_report_of_positional_arguments(self, workspace,
                                                           tmp_path):
        config = str(workspace / "config.json")
        checkpoint = str(workspace / "run" / "checkpoint.ckpt")
        assert cli.main(["--quiet", "evaluate", config, checkpoint,
                         "--out", str(tmp_path / "positional")]) == 0
        assert cli.main(["--quiet", "evaluate", "--config", config,
                         "--checkpoint", checkpoint,
                         "--out", str(tmp_path / "flags")]) == 0
        assert (tmp_path / "flags" / "report.json").read_bytes() == \
            (tmp_path / "positional" / "report.json").read_bytes()


def _config_with(workspace, name: str, edit) -> str:
    """The workspace config after `edit(raw)`, saved next to it as `name`."""
    raw = json.loads((workspace / "config.json").read_text())
    edit(raw)
    path = workspace / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestProject:
    def test_without_an_eval_corpus_projects_the_training_corpus(
            self, workspace, tmp_path):
        config = _config_with(workspace, "no-eval.json",
                              lambda raw: raw["corpora"].pop("eval"))
        assert cli.main(["--quiet", "project", config,
                         str(workspace / "run" / "checkpoint.ckpt"),
                         "--out", str(tmp_path)]) == 0
        train = {doc.doc_id
                 for doc in load_corpus(workspace / "data" / "corpus.jsonl")}
        rows = (tmp_path / "projection.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3].split(":")[0] for row in rows} <= train

    def test_projection_table(self, workspace):
        code = cli.main(["--quiet", "project", str(workspace / "config.json"),
                         str(workspace / "run" / "checkpoint.ckpt"),
                         "--out", str(workspace / "proj")])
        assert code == 0
        lines = (workspace / "proj" / "projection.csv").read_text().splitlines()
        assert lines[0] == "concept,x,y,mention,antecedent"
        assert len(lines) == 11  # header + sample of 10
        meta = json.loads((workspace / "proj" / "projection_meta.json")
                          .read_text())
        assert len(meta["explained_variance"]) == 2
        # The statistic of the records the table lists, as the library
        # computes it from the same checkpoint and settings.
        config = load_config(workspace / "config.json")
        data = load_run_data(config)
        records = tk.mention_antecedent_offsets(
            data.corpora["eval"],
            tr.ParameterStore.load(workspace / "run" / "checkpoint.ckpt"),
            config.model, lexicon_id="coarse", sample=10, seed=4)
        within, across = tk.offset_cosine_statistics(records)
        assert meta["offset_cosine"] == {"within": within, "across": across}
        assert sorted(meta) == ["explained_variance", "offset_cosine",
                                "records"]


class TestGradcheck:
    def test_passes_on_default_config(self, workspace, tmp_path, capsys):
        code = cli.main(["--quiet", "gradcheck", str(workspace / "config.json"),
                         "--out", str(tmp_path), "--coords", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "gradcheck.txt").read_text().strip().endswith("PASS")


    @pytest.mark.parametrize("args, problem", [
        (["--docs", "0"], "error: --docs must be >= 1, not 0"),
        (["--coords", "0"], "error: --coords must be >= 1, not 0"),
        (["--coords", "-3"], "error: --coords must be >= 1, not -3"),
        (["--epsilon", "0"], "error: --epsilon must be in (0, 1], not 0.0"),
        (["--threshold", "-1"], "error: --threshold must be >= 0, not -1.0"),
        (["--threshold", "nan"], "error: --threshold must be finite, not nan"),
    ], ids=["docs-0", "coords-0", "coords-negative", "epsilon-0",
            "threshold-negative", "threshold-nan"])
    def test_a_flag_that_would_probe_nothing_is_one_named_error(
            self, workspace, tmp_path, capsys, args, problem):
        """No documents or coordinates would print PASS with nothing
        probed, and a zero step would divide by zero."""
        code = cli.main(["--quiet", "gradcheck", str(workspace / "config.json"),
                         "--out", str(tmp_path / "out"), *args])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [problem]
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_missing_config_is_actionable(self, capsys):
        code = cli.main(["--quiet", "train", "/nope/missing.json",
                         "--out", "/tmp/x"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"phases": []}')
        code = cli.main(["--quiet", "train", str(tmp_path / "bad.json"),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "corpora" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_checkpoint(self, workspace, tmp_path, capsys):
        code = cli.main(["--quiet", "evaluate", str(workspace / "config.json"),
                         str(tmp_path / "missing.ckpt"),
                         "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("command, corpus", [
        ("evaluate", "eval"), ("project", "eval"), ("train", "train")])
    def test_a_corpus_without_documents_is_named(self, workspace, tmp_path,
                                                 capsys, command, corpus):
        """A declared corpus with no documents fails to load: an empty eval
        corpus would score F1 0.3333 over nothing, and an empty training
        corpus would train nothing."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        config = _config_with(workspace, f"empty-{corpus}.json", lambda raw:
                              raw["corpora"].update({corpus: str(empty)}))
        checkpoint = [] if command == "train" \
            else [str(workspace / "run" / "checkpoint.ckpt")]
        code = cli.main(["--quiet", command, config, *checkpoint,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: corpus {corpus!r}: no documents in {empty}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, problem", [
        (["other.json", "--config", "config.json"],
         "error: config given both positionally (other.json) and as --config "
         "(config.json)"),
        ([], "error: missing required config (pass it positionally or with "
             "--config)"),
        (["config.json", "run/checkpoint.ckpt", "--checkpoint", "x.ckpt"],
         "error: checkpoint given both positionally (run/checkpoint.ckpt) and "
         "as --checkpoint (x.ckpt)"),
        (["config.json"], "error: missing required checkpoint (pass it "
                          "positionally or with --checkpoint)"),
    ])
    def test_an_argument_given_twice_or_not_at_all_is_one_error(
            self, workspace, tmp_path, capsys, monkeypatch, args, problem):
        monkeypatch.chdir(workspace)
        code = cli.main(["--quiet", "evaluate", *args,
                         "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [problem]

    @pytest.mark.parametrize("command, args, problem", [
        ("evaluate", ["config.json", "data"],
         "error: [Errno 21] Is a directory: 'data'"),
        ("train", ["config.json", "--out", "data/corpus.jsonl"],
         "error: [Errno 17] File exists: 'data/corpus.jsonl'"),
    ], ids=["checkpoint-is-a-directory", "out-is-a-file"])
    def test_a_path_the_command_cannot_use_is_one_named_error(
            self, workspace, capsys, monkeypatch, command, args, problem):
        monkeypatch.chdir(workspace)
        code = cli.main(["--quiet", command, "--out", "unused", *args])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [problem]
        assert not (workspace / "unused").exists()

    @pytest.mark.parametrize("command, flag, value, problem", [
        ("train", "--seed", "-1", "error: seed must be >= 0, not -1"),
        ("project", "--seed", "-1", "error: seed must be >= 0, not -1"),
        ("project", "--sample", "-5", "error: sample must be >= 1, not -5"),
        ("project", "--sample", "0", "error: sample must be >= 1, not 0"),
    ], ids=["train-seed", "project-seed", "project-sample-negative",
            "project-sample-0"])
    def test_an_override_flag_is_checked_by_the_setting_it_replaces(
            self, workspace, tmp_path, capsys, command, flag, value, problem):
        checkpoint = [] if command == "train" \
            else [str(workspace / "run" / "checkpoint.ckpt")]
        code = cli.main(["--quiet", command, str(workspace / "config.json"),
                         *checkpoint, flag, value,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [problem]
        assert not (tmp_path / "out").exists()

    def test_a_token_with_a_line_boundary_fails_before_training(
            self, workspace, tmp_path, capsys):
        docs = load_corpus(workspace / "data" / "corpus.jsonl")
        tokens = ("with\u2028out", *docs[0].tokens[1:])
        corpus = tmp_path / "broken.jsonl"
        save_corpus([dataclasses.replace(docs[0], tokens=tokens), *docs[1:]],
                    corpus)
        config = _config_with(workspace, "broken-token.json", lambda raw:
                              raw["corpora"].update(train=str(corpus)))
        code = cli.main(["--quiet", "train", config,
                         "--out", str(tmp_path / "run")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("error: vocab tokens with a line boundary cannot be "
                        "saved: ['with\\u2028out']")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, command, text", [
        ("config", "train", None),
        ("corpus", "train", "[1, 2]\n"),
        ("lexicon", "train", "coarse\nC0\tdorvia\n"),
        ("subword_vocab", "train", "\n\n"),
        ("checkpoint", "evaluate", "not a checkpoint\n"),
        # bytes that are not UTF-8 (0xe9 is Latin-1's e-acute)
        ("corpus", "train", b'{"doc_id": "d\xe9", "tokens": ["a"]}\n'),
        ("lexicon", "train", b"coarse\tcoarse\nC0\tdorvi\xe9\n"),
        ("subword_vocab", "train", b"[UNK]\nd\xe9\n"),
        # a piece that lower-cased lookup could never match
        ("subword_vocab", "train", "[UNK]\nDorv\n##ia\n"),
        ("checkpoint", "evaluate", b"kcoref-checkpoint v1\nseed \xe9\n"),
        # a gold cluster listing a mention twice
        ("corpus", "train", '{"doc_id": "d0", "tokens": ["a", "b"], '
                            '"clusters": [[[0, 0], [0, 0]]]}\n'),
        # a vocab token listed twice
        ("checkpoint", "evaluate", "kcoref-checkpoint v1\nseed 0\nstep 0\n"
                                   "vocab 2\n<unk>\n<unk>\nclasses 0\nend\n"),
        # a value beyond the float64 range
        ("checkpoint", "evaluate", "kcoref-checkpoint v1\nseed 0\nstep 0\n"
                                   "vocab 1\n<unk>\nclasses 0\n"
                                   "tensor w 1 1\n0x1.0p+99999\nend\n"),
    ])
    def test_malformed_input_file_is_one_named_error(self, workspace, tmp_path,
                                                     capsys, kind, command,
                                                     text):
        raw = json.loads((workspace / "config.json").read_text())
        raw["corpora"] = {name: str(workspace / p)
                          for name, p in raw["corpora"].items()}
        for entry in raw["lexicons"]:
            entry["path"] = str(workspace / entry["path"])
        raw["subword_vocab"] = str(workspace / raw["subword_vocab"])
        config = tmp_path / "config.json"
        bad = {"config": config, "corpus": tmp_path / "bad.jsonl",
               "lexicon": tmp_path / "bad.lex",
               "subword_vocab": tmp_path / "bad.vocab",
               "checkpoint": tmp_path / "bad.ckpt"}[kind]
        if kind == "config":
            raw["lexicons"][1]["annotate"] = "false"
        elif isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text)
        if kind == "corpus":
            raw["corpora"]["train"] = str(bad)
        elif kind == "lexicon":
            raw["lexicons"][0]["path"] = str(bad)
        elif kind == "subword_vocab":
            raw["subword_vocab"] = str(bad)
        config.write_text(json.dumps(raw))
        checkpoint = bad if kind == "checkpoint" \
            else workspace / "run" / "checkpoint.ckpt"
        args = [str(config)] + ([str(checkpoint)] if command == "evaluate"
                                else [])
        code = cli.main(["--quiet", command, *args,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(bad) in line

    @pytest.mark.parametrize("command", ["evaluate", "project"])
    def test_checkpoint_missing_a_tensor_is_named(self, workspace, tmp_path,
                                                  capsys, command):
        store = tr.ParameterStore.load(workspace / "run" / "checkpoint.ckpt")
        partial = tr.ParameterStore({name: tensor for name, tensor
                                     in store.tensors.items()
                                     if name != "scorer.mention.w2"},
                                    store.vocab, store.scaffold_classes,
                                    store.step, store.seed)
        partial.save(tmp_path / "partial.ckpt")
        code = cli.main(["--quiet", command, str(workspace / "config.json"),
                         str(tmp_path / "partial.ckpt"),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "scorer.mention.w2" in capsys.readouterr().err

    def test_a_checkpoint_without_vocab_is_one_named_error(self, workspace,
                                                          tmp_path, capsys):
        """A checkpoint with no `<unk>` row would pass the config check and
        fail in prediction, on the first token."""
        store = tr.ParameterStore.load(workspace / "run" / "checkpoint.ckpt")
        lines = store.checkpoint_text(1).splitlines()
        n, d = store.tensors["encoder.embeddings"].shape
        row = lines.index(f"tensor encoder.embeddings 2 {n} {d}")
        lines[row:row + 2] = [f"tensor encoder.embeddings 2 0 {d}", ""]
        start = lines.index(f"vocab {n}")
        lines[start:start + 1 + n] = ["vocab 0"]
        bad = tmp_path / "no-vocab.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["--quiet", "evaluate", str(workspace / "config.json"),
                         str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {bad}: vocab must start with '<unk>'"


FROZEN_CONFIG = {"corpora": {"a": "x.jsonl"},
                 "lexicons": [{"path": "c.lex"}],
                 "phases": [{"corpus": "a", "epochs": 1},
                            {"corpus": "a", "epochs": 2}]}


class TestFrozenConfigs:
    """Configs are values: a field is set by the validating constructor or
    by `dataclasses.replace`, which validates again, never by assignment."""

    @pytest.fixture
    def config(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps(FROZEN_CONFIG))
        return load_config(tmp_path / "c.json")

    @pytest.mark.parametrize("part, field, value", [
        (lambda c: c, "seed", 3),
        (lambda c: c, "phases", []),
        (lambda c: c.model, "max_antecedents", 0),
        (lambda c: c.objective, "unlabeled_knowledge", "skp"),
        (lambda c: c.phases[0], "epochs", 0),
        (lambda c: c.schedule(), "phases", []),
        (lambda c: c.projection, "sample", 0),
        (lambda c: c.lexicons[0], "annotate", "yes"),
    ], ids=["RunConfig", "RunConfig-phases", "ModelConfig", "ObjectiveConfig",
            "Phase", "TrainingSchedule", "ProjectionSettings",
            "LexiconEntry"])
    def test_assigning_a_field_raises(self, config, part, field, value):
        target = part(config)
        before = getattr(target, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, field, value)
        assert getattr(target, field) == before

    def test_phases_are_tuples_the_caller_cannot_reach(self, config):
        phases = list(config.phases)
        rebuilt = dataclasses.replace(config, phases=phases)
        schedule = tr.TrainingSchedule(phases)
        phases.clear()
        for held in (config, rebuilt, schedule, config.schedule()):
            assert isinstance(held.phases, tuple) and len(held.phases) == 2
        with pytest.raises(tr.TrainingError, match="at least one phase"):
            dataclasses.replace(schedule, phases=[])
        with pytest.raises(ConfigError, match="phases must not be empty"):
            dataclasses.replace(config, phases=())

    def test_replace_validates_again(self, config):
        """The two settings that assignment used to break without a word:
        no antecedent slot (CL 0.0, no clusters) and a misspelled rule."""
        with pytest.raises(ValueError, match="max_antecedents must be >= 1"):
            dataclasses.replace(config.model, max_antecedents=0)
        with pytest.raises(LossError, match="unlabeled_knowledge"):
            dataclasses.replace(config.objective, unlabeled_knowledge="skp")


class TestConfigModule:
    def test_relative_paths_resolve_against_config(self, workspace):
        config = load_config(workspace / "config.json")
        assert config.corpora["train"].is_absolute()
        assert config.corpora["train"].exists()

    def test_phase_role_defaults(self, tmp_path):
        base = {"corpora": {"a": "x.jsonl"},
                "phases": [{"corpus": "a", "epochs": 1},
                           {"corpus": "a", "epochs": 1}]}
        (tmp_path / "two.json").write_text(json.dumps(base))
        two = load_config(tmp_path / "two.json")
        assert [p.role for p in two.phases] == ["source", "target"]
        base["phases"] = [{"corpus": "a", "epochs": 1}]
        (tmp_path / "one.json").write_text(json.dumps(base))
        one = load_config(tmp_path / "one.json")
        assert one.phases[0].role == "target"

    def test_unknown_phase_corpus_rejected(self, tmp_path):
        cfg = {"corpora": {"a": "x.jsonl"},
               "phases": [{"corpus": "missing", "epochs": 1}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="missing"):
            load_config(tmp_path / "c.json")

    @pytest.mark.parametrize("objective, field", [
        ({"unlabeled_knowledge": "skp"}, "unlabeled_knowledge"),
        ({"grad_accumulation": 0}, "grad_accumulation"),
        ({"pair_budget": -1}, "pair_budget"),
        ({"pair_budget": "600"}, "pair_budget must be an integer"),
        ({"pair_seed": "x"}, "pair_seed must be an integer, not 'x'"),
        ({"pair_seed": -1}, "pair_seed must be >= 0"),
        ({"grad_accumulation": 1.5}, "grad_accumulation must be an integer"),
        ({"source_phase_rl": "false"}, "source_phase_rl must be true or "
                                       "false, not 'false'"),
    ])
    def test_bad_objective_values_rejected(self, tmp_path, objective, field):
        cfg = {"corpora": {"a": "x.jsonl"}, "objective": objective,
               "phases": [{"corpus": "a", "epochs": 1}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=field):
            load_config(tmp_path / "c.json")

    @pytest.mark.parametrize("phase, field", [
        ({"base_lr": -0.01}, "base_lr"),
        ({"task_lr": float("nan")}, "task_lr"),
        ({"base_lr": float("inf")}, "base_lr"),
    ])
    def test_bad_learning_rates_rejected(self, tmp_path, phase, field):
        cfg = {"corpora": {"a": "x.jsonl"},
               "phases": [{"corpus": "a", "epochs": 1},
                          {"corpus": "a", "epochs": 1, **phase}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=rf"phases\[1\]: {field}"):
            load_config(tmp_path / "c.json")

    @pytest.mark.parametrize("model, field", [
        ({"d_token": 0}, "d_token"),
        ({"d_width": -1}, "d_width"),
        ({"scorer_hidden": -1}, "scorer_hidden"),
        ({"max_span_width": 0}, "max_span_width"),
        ({"max_antecedents": -3}, "max_antecedents"),
        ({"width_bucket_edges": [4, 2, 1]}, "width_bucket_edges"),
        ({"width_bucket_edges": [0, 2]}, "width_bucket_edges"),
        ({"width_bucket_edges": [1, 2.5]}, "width_bucket_edges"),
        ({"d_token": "16"}, "d_token must be an integer, not '16'"),
        ({"max_antecedents": 2.0}, "max_antecedents must be an integer"),
        ({"prune_ratio": "0.4"}, "prune_ratio must be in"),
    ])
    def test_bad_model_values_rejected(self, tmp_path, model, field):
        cfg = {"corpora": {"a": "x.jsonl"}, "model": model,
               "phases": [{"corpus": "a", "epochs": 1}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=f"model: {field}"):
            load_config(tmp_path / "c.json")

    @pytest.mark.parametrize("fields, message", [
        ({"truncate_tokens": -5}, "truncate_tokens must be >= 1, not -5"),
        ({"truncate_tokens": 0}, "truncate_tokens must be >= 1, not 0"),
        ({"truncate_tokens": "50"}, "truncate_tokens must be an integer"),
        ({"seed": "seven"}, "seed must be an integer, not 'seven'"),
        ({"seed": 1.5}, "seed must be an integer, not 1.5"),
        ({"seed": -3}, "seed must be >= 0, not -3"),
        ({"projection": {"sample": 0}}, "projection: sample must be >= 1"),
        ({"projection": {"sample": "all"}},
         "projection: sample must be an integer"),
        ({"projection": {"seed": [4]}}, "projection: seed must be an integer"),
        ({"phases": [{"corpus": "a", "epochs": 1.5}]},
         "phases[0]: epochs must be an integer, not 1.5"),
        ({"phases": [{"corpus": "a", "epochs": "2"}]},
         "phases[0]: epochs must be an integer, not '2'"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"beta": [1, None, 0]}}]},
         "phases[0]: weights.beta[1] must be a number, not None"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"beta": 1}}]},
         "phases[0]: weights.beta must be a list, not 1"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"alpha_k": {"x": None}}}]},
         "phases[0]: weights.alpha_k.x must be a number, not None"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"alpha_k": [0.5]}}]},
         "phases[0]: weights.alpha_k must be a mapping, not [0.5]"),
        ({"phases": [{"corpus": "a", "epochs": 1, "weights": [1, 0, 0]}]},
         "phases[0]: weights must be a mapping, not [1, 0, 0]"),
        ({"phases": [{"corpus": "a", "epochs": 1, "base_lr": "fast"}]},
         "phases[0]: base_lr must be a number, not 'fast'"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"beta": [1.0, 1.0, 0.5]}}]},
         "phases[0]: weights.beta[2] is 0.5, but objective.scaffold_lexicon "
         "is not set"),
        ({"phases": [{"corpus": "a", "epochs": 1},
                     {"corpus": "a", "epochs": 1,
                      "weights": {"beta": [1.0, 0.0, 0.3]}}]},
         "phases[1]: weights.beta[2] is 0.3, but objective.scaffold_lexicon "
         "is not set"),
        ({"objective": {"scaffold_lexicon": None},
          "phases": [{"corpus": "a", "epochs": 1, "role": "target",
                      "weights": {"beta": [0.0, 0.0, 1]}}]},
         "phases[0]: weights.beta[2] is 1, but objective.scaffold_lexicon "
         "is not set"),
    ])
    def test_malformed_field_named_with_its_path(self, tmp_path, capsys,
                                                fields, message):
        cfg = {"corpora": {"a": "x.jsonl"},
               "phases": [{"corpus": "a", "epochs": 1}], **fields}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(str(path)) \
            and message in str(err.value)
        assert cli.main(["--quiet", "train", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert str(path) in stderr and message in stderr

    @pytest.mark.parametrize("fields, message", [
        ({"corpora": ["a"]}, "corpora must be a mapping, not ['a']"),
        ({"corpora": {"a": 5}}, "corpora: a must be a string, not 5"),
        ({"lexicons": ["x"]}, "lexicons[0] must be a mapping, not 'x'"),
        ({"lexicons": [{"path": 3}]},
         "lexicons[0]: path must be a string, not 3"),
        ({"lexicons": [{"path": "x.lex", "annotate": "false"}]},
         "lexicons[0]: annotate must be true or false, not 'false'"),
        ({"lexicons": [{"path": "x.lex", "match": {"lowercase": "false"}}]},
         "lexicons[0]: match: lowercase must be true or false, not 'false'"),
        ({"lexicons": [{"path": "x.lex", "match": {"threshold": "0.5"}}]},
         "lexicons[0]: match: threshold must be in (0, 1], not '0.5'"),
        ({"lexicons": [{"path": "x.lex", "match": []}]},
         "lexicons[0]: match must be a mapping, not []"),
        ({"phases": ["a"]}, "phases[0] must be a mapping, not 'a'"),
        ({"phases": [{"corpus": ["a"], "epochs": 1}]},
         "phases[0]: corpus must be a string, not ['a']"),
        ({"phases": [{"corpus": "a", "epochs": 1, "base_lr": "0.001"}]},
         "phases[0]: base_lr must be a number, not '0.001'"),
        ({"phases": [{"corpus": "a", "epochs": 1, "base_lr": True}]},
         "phases[0]: base_lr must be a number, not True"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"beta": ["1", 0, 0]}}]},
         "phases[0]: weights.beta[0] must be a number, not '1'"),
        ({"phases": [{"corpus": "a", "epochs": 1,
                      "weights": {"alpha_c": float("nan")}}]},
         "phases[0]: weights.alpha_c must be finite, not nan"),
        ({"phases": [{"corpus": "a", "epochs": 1, "bogus": 1}]},
         "phases[0]: Phase.__init__() got an unexpected keyword argument "
         "'bogus'"),
        ({"model": 5}, "model must be a mapping, not 5"),
        ({"model": {"prune_ratio": True}},
         "model: prune_ratio must be in (0, 1], not True"),
        ({"objective": {"scaffold_lexicon": ["coarse"]}},
         "objective: scaffold_lexicon must be a string, not ['coarse']"),
        ({"projection": 3}, "projection must be a mapping, not 3"),
        ({"projection": {"lexicon": 3}},
         "projection: lexicon must be a string, not 3"),
        ({"subword_vocab": 5}, "subword_vocab must be a string, not 5"),
        ({"eval_corpus": None}, "eval_corpus must be a string, not None"),
        ({"bogus": 1}, "unexpected keyword argument 'bogus'"),
    ])
    def test_malformed_section_is_one_named_error(self, tmp_path, capsys,
                                                  fields, message):
        cfg = {"corpora": {"a": "x.jsonl"},
               "phases": [{"corpus": "a", "epochs": 1}], **fields}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: ") \
            and str(err.value).endswith(message)
        assert cli.main(["--quiet", "train", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {err.value}"

    def test_config_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"corpora": {"a": "caf\xe9.jsonl"}}')
        with pytest.raises(ConfigError, match=f"^{path}: not UTF-8"):
            load_config(path)

    def test_integer_valued_numbers_train_like_floats(self, workspace,
                                                      tmp_path):
        runs = {}
        for kind, one, zero in (("float", 1.0, 0.0), ("int", 1, 0)):
            raw = json.loads((workspace / "config.json").read_text())
            raw["model"]["prune_ratio"] = one
            raw["phases"][0].update(
                epochs=1, weights={"alpha_c": one,
                                   "alpha_k": {"coarse": one, "fine": zero},
                                   "beta": [one, one, one]})
            path = workspace / f"{kind}-valued.json"
            path.write_text(json.dumps(raw))
            out = tmp_path / kind
            assert cli.main(["--quiet", "train", str(path),
                             "--out", str(out)]) == 0
            runs[kind] = [(out / name).read_bytes()
                          for name in ("checkpoint.ckpt", "loss_log.tsv")]
        assert runs["int"] == runs["float"]

    @pytest.mark.parametrize("value, loaded", [(None, None), (7, 7)])
    def test_truncate_tokens_may_be_absent_or_positive(self, tmp_path, value,
                                                       loaded):
        cfg = {"corpora": {"a": "x.jsonl"}, "truncate_tokens": value,
               "phases": [{"corpus": "a", "epochs": 1}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert load_config(tmp_path / "c.json").truncate_tokens == loaded

    def test_unknown_alpha_k_lexicon_rejected(self, workspace, tmp_path):
        raw = json.loads((workspace / "config.json").read_text())
        raw["phases"][0]["weights"]["alpha_k"] = {"coarse": 0.5, "fnie": 0.2}
        path = workspace / "misspelled.json"
        path.write_text(json.dumps(raw))
        config = load_config(path)
        with pytest.raises(ConfigError, match="'fnie'"):
            load_run_data(config)
        assert cli.main(["--quiet", "train", str(path),
                         "--out", str(tmp_path)]) == 1

    def test_a_source_phase_may_weigh_the_scaffold_without_a_lexicon(
            self, tmp_path):
        # `effective_weights` trains a source phase without the scaffold.
        cfg = {"corpora": {"a": "x.jsonl"},
               "phases": [{"corpus": "a", "epochs": 1,
                           "weights": {"beta": [1.0, 0.0, 0.5]}},
                          {"corpus": "a", "epochs": 1}]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        config = load_config(tmp_path / "c.json")
        assert [p.role for p in config.phases] == ["source", "target"]
        assert config.phases[0].weights.beta[2] == 0.5

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["phases"][0]["weights"]["alpha_k"].update(fnie=0.2),
         "phases[0]: alpha_k names 'fnie'"),
        (lambda raw: raw["objective"].update(scaffold_lexicon="corse"),
         "objective: scaffold_lexicon names 'corse'"),
        (lambda raw: raw["projection"].update(lexicon="corse"),
         "projection: lexicon names 'corse'"),
    ], ids=["alpha_k", "scaffold_lexicon", "projection_lexicon"])
    def test_an_unknown_lexicon_id_is_named_by_its_field(
            self, workspace, tmp_path, capsys, edit, message):
        message += ", which no loaded lexicon or corpus annotation provides"
        path = _config_with(workspace, "unknown-lexicon.json", edit)
        with pytest.raises(ConfigError) as err:
            load_run_data(load_config(path))
        assert str(err.value) == message
        checkpoint = str(workspace / "run" / "checkpoint.ckpt")
        for args in (["train", path], ["evaluate", path, checkpoint],
                     ["project", path, checkpoint]):
            assert cli.main(["--quiet", *args, "--out",
                             str(tmp_path / args[0])]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / args[0]).exists()

    def test_annotate_adds_fine_labels(self, workspace):
        config = load_config(workspace / "config.json")
        data = load_run_data(config)
        labeled = [doc for doc in data.corpora["train"]
                   if doc.concept_annotations.get("fine")]
        assert labeled


# A valid config with every optional field spelled out: the workspace config
# plus the match policy, bucket edges, objective switches and caps.
def _full_config(workspace) -> dict:
    raw = json.loads((workspace / "config.json").read_text())
    raw["lexicons"][1]["match"] = {"mode": "exact", "threshold": 1.0,
                                   "lowercase": True}
    raw["model"]["width_bucket_edges"] = [1, 2, 3, 4, 7]
    raw["objective"].update(unlabeled_knowledge="strict",
                            scaffold_include_unlabeled=False,
                            source_phase_rl=True, grad_accumulation=1)
    raw.update(truncate_tokens=1000, checkpoint_dir="ckpt")
    return raw


def _paths(node, prefix=()):
    """The path of every value inside `node`, nested ones included."""
    children = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_config_value_escapes_as_a_traceback(workspace, data):
    """Whatever one value of a valid config is replaced by, what `train`
    runs before training returns or raises a named error: ConfigError, or
    CorpusError/LexiconError for an existing file that is malformed."""
    raw = _full_config(workspace)
    where = data.draw(st.sampled_from(sorted(_paths(raw), key=str)))
    value = data.draw(st.sampled_from([None, True, "false", "1", [], {}, 1.5,
                                       -1, float("nan")]))
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = workspace / "mutated.json"
    path.write_text(json.dumps(raw))
    try:
        config = load_config(path)
        scaffold_classes(config, load_run_data(config))
    except ConfigError:
        pass
    except (CorpusError, LexiconError) as exc:
        assert Path(str(exc).split(": ")[0]).is_file(), exc
