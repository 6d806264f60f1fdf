"""End-to-end tests of the command line driven through main(argv)."""

import dataclasses
import json

import pytest

import doctext.formats
from doctext.cli import build_parser, load_params, main
from doctext.corrector import Hyper, TrainConfig
from doctext.errors import FormatError, InputError
from doctext.formats import (
    read_boxes, read_corpus, read_frames, read_jsonl, read_words, truth_from_boxes, write_words,
)
from doctext.geometry import read_pgm
from doctext.layout import LayoutParams
from doctext.pipeline import PipelineParams, decode_words, evaluate
from doctext.synth import SynthSpec


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth-gen", "--out", out, "--docs", "2", "--seed", "5",
        "--temperature", "0.4", "--jitter", "0.2", "--corpus", "25", "--render",
    )
    assert code == 0
    return out


class TestSynthGen:
    def test_writes_expected_files(self, synth_dir):
        for i in range(2):
            assert (synth_dir / f"doc_{i:04d}.boxes.jsonl").exists()
            assert (synth_dir / f"doc_{i:04d}.frames.jsonl").exists()
            assert (synth_dir / f"doc_{i:04d}.page.pgm").exists()
        assert (synth_dir / "corpus.jsonl").exists()

    def test_outputs_parse_and_align(self, synth_dir):
        records = read_boxes(synth_dir / "doc_0000.boxes.jsonl")
        alphabet, frames = read_frames(synth_dir / "doc_0000.frames.jsonl")
        assert {r.box.id for r in records} == set(frames)
        for r in records:
            assert r.box.word is not None
            alphabet.encode(r.box.word)
        pairs = read_corpus(synth_dir / "corpus.jsonl")
        assert len(pairs) == 25

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        code = run_cli(
            "synth-gen", "--out", again, "--docs", "2", "--seed", "5",
            "--temperature", "0.4", "--jitter", "0.2", "--corpus", "25", "--render",
        )
        assert code == 0
        for name in ["doc_0000.boxes.jsonl", "doc_0001.frames.jsonl", "corpus.jsonl",
                     "doc_0000.page.pgm"]:
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


    @pytest.mark.parametrize("flag", ["--docs", "--corpus"])
    def test_negative_count_writes_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run_cli("synth-gen", "--out", out, flag, -2) == 2
        assert f"synth-gen: {flag} must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestLayoutCommands:
    def test_group_and_arrange(self, synth_dir, tmp_path):
        boxes = synth_dir / "doc_0000.boxes.jsonl"
        gout = tmp_path / "groups.json"
        assert run_cli("group", "--boxes", boxes, "--out", gout) == 0
        labels = json.loads(gout.read_text())["labels"]
        records = read_boxes(boxes)
        assert set(labels) == {str(r.box.id) for r in records}

        aout = tmp_path / "layout.json"
        overlay = tmp_path / "overlay.pgm"
        assert run_cli("arrange", "--boxes", boxes, "--out", aout,
                       "--dump-overlay", overlay) == 0
        payload = json.loads(aout.read_text())
        assert set(payload) == {"labels", "order"}
        ordered = [i for seq in payload["order"].values() for i in seq]
        assert sorted(ordered) == sorted(int(k) for k in payload["labels"])
        assert read_pgm(overlay).width > 0

    @pytest.mark.parametrize("flag", ["--page-width", "--page-height"])
    def test_page_size_needs_overlay(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "layout.json"
        assert run_cli("arrange", "--boxes", synth_dir / "doc_0000.boxes.jsonl", "--out", out, flag, 500) == 2
        assert f"{flag} sizes the overlay; --dump-overlay is missing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--page-width", "--page-height"])
    @pytest.mark.parametrize("size", [0, -5])
    def test_page_size_must_be_positive(self, synth_dir, tmp_path, capsys, flag, size):
        overlay = tmp_path / "overlay.pgm"
        assert run_cli("arrange", "--boxes", synth_dir / "doc_0000.boxes.jsonl", "--out", tmp_path / "layout.json",
                       "--dump-overlay", overlay, flag, size) == 2
        assert "overlay size must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_deep_nesting_names_the_file_line(self, tmp_path, capsys):
        boxes = tmp_path / "deep.jsonl"
        boxes.write_text('{"id":0,"rect":[0,0,1,1]}\n' + "[" * 100_000 + "\n", encoding="utf-8")
        assert run_cli("arrange", "--boxes", boxes, "--out", tmp_path / "layout.json") == 2
        assert f"{boxes}:2: bad JSON line: maximum recursion depth exceeded" in capsys.readouterr().err

    def test_overlong_integer_names_the_file_line(self, tmp_path, capsys):
        boxes = tmp_path / "big.jsonl"
        boxes.write_text('{"id":0,"rect":[0,0,1,1]}\n{"id":1,"rect":[0,0,' + "1" * 5000 + ',1]}\n',
                         encoding="utf-8")
        assert run_cli("arrange", "--boxes", boxes, "--out", tmp_path / "layout.json") == 2
        assert f"{boxes}:2: bad JSON line: Exceeds the limit" in capsys.readouterr().err

    def test_empty_page_overlay_is_margin_only(self, tmp_path):
        boxes = tmp_path / "empty.boxes.jsonl"
        boxes.write_text("", encoding="utf-8")
        overlay = tmp_path / "overlay.pgm"
        assert run_cli("arrange", "--boxes", boxes, "--out", tmp_path / "layout.json",
                       "--dump-overlay", overlay) == 0
        assert json.loads((tmp_path / "layout.json").read_text()) == {"labels": {}, "order": {}}
        page = read_pgm(overlay)
        assert (page.height, page.width) == (4, 4)

    def test_group_respects_params_file(self, synth_dir, tmp_path):
        # An enormous horizontal reach merges everything into one group.
        boxes = synth_dir / "doc_0000.boxes.jsonl"
        params = tmp_path / "params.json"
        params.write_text('{"kappa_h": 100.0, "kappa_v": 100.0}', encoding="utf-8")
        gout = tmp_path / "one_group.json"
        assert run_cli("group", "--boxes", boxes, "--out", gout, "--params", params) == 0
        labels = json.loads(gout.read_text())["labels"]
        assert set(labels.values()) == {0}


class TestDecode:
    def test_beam_and_greedy(self, synth_dir, tmp_path):
        frames = synth_dir / "doc_0000.frames.jsonl"
        beam_out = tmp_path / "beam.jsonl"
        greedy_out = tmp_path / "greedy.jsonl"
        assert run_cli("decode", "--frames", frames, "--out", beam_out) == 0
        assert run_cli("decode", "--frames", frames, "--out", greedy_out, "--greedy") == 0
        beam_rows = read_jsonl(beam_out)
        assert all(set(r) == {"box_id", "word"} for r in beam_rows)
        assert len(beam_rows) == len(read_jsonl(greedy_out))

    def test_default_beam_is_eight(self, synth_dir, tmp_path):
        frames = synth_dir / "doc_0000.frames.jsonl"
        default_out, beam8_out = tmp_path / "default.jsonl", tmp_path / "beam8.jsonl"
        assert run_cli("decode", "--frames", frames, "--out", default_out) == 0
        assert run_cli("decode", "--frames", frames, "--out", beam8_out, "--beam", 8) == 0
        assert default_out.read_bytes() == beam8_out.read_bytes()

    def test_greedy_refuses_beam(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "words.jsonl"
        code = run_cli("decode", "--frames", synth_dir / "doc_0000.frames.jsonl", "--out", out,
                       "--greedy", "--beam", 3)
        assert code == 2
        assert "--greedy and --beam exclude each other" in capsys.readouterr().err
        assert not out.exists()


class TestRectify:
    def test_crops_written(self, synth_dir, tmp_path):
        crops = tmp_path / "crops"
        code = run_cli(
            "rectify", "--image", synth_dir / "doc_0000.page.pgm",
            "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--out", crops, "--height", "16",
        )
        assert code == 0
        records = read_boxes(synth_dir / "doc_0000.boxes.jsonl")
        files = sorted(crops.glob("box_*.pgm"))
        assert len(files) == len(records)
        img = read_pgm(files[0])
        assert img.height == 16

    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_height_checked_before_reading(self, tmp_path, capsys, height):
        # with an empty boxes file, --height 0 used to exit 0 and create
        # --out; with boxes, it failed naming an internal argument
        boxes = tmp_path / "boxes.jsonl"
        boxes.write_text("", encoding="utf-8")
        crops = tmp_path / "crops"
        code = run_cli("rectify", "--image", tmp_path / "absent.pgm", "--boxes", boxes,
                       "--out", crops, "--height", height)
        assert code == 2
        assert "rectify: --height must be >= 1" in capsys.readouterr().err
        assert not crops.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    """A small checkpoint trained via the CLI on the synth corpus."""
    out = tmp_path_factory.mktemp("model")
    params = out / "train.json"
    params.write_text(
        json.dumps({
            "emb_dim": 8, "hidden_dim": 16, "enc_layers": 1, "dec_layers": 1,
            "batch_size": 8, "max_steps": 60, "lr0": 0.5,
        }),
        encoding="utf-8",
    )
    model = out / "model.json"
    code = run_cli(
        "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
        "--out", model, "--params", params, "--curve", out / "curve.json",
    )
    assert code == 0
    return model, params


class TestTrainAndCorrect:
    def test_checkpoint_and_curve_written(self, trained):
        model, _ = trained
        payload = json.loads(model.read_text())
        assert payload["format"] == "doctext-corrector"
        curve = json.loads((model.parent / "curve.json").read_text())
        assert len(curve) == 60

    def test_retrain_is_byte_identical(self, trained, synth_dir, tmp_path):
        model, params = trained
        model2 = tmp_path / "model2.json"
        code = run_cli(
            "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
            "--out", model2, "--params", params,
        )
        assert code == 0
        assert model2.read_bytes() == model.read_bytes()

    def test_toml_params_equal_json_params(self, trained, synth_dir, tmp_path):
        model, _ = trained
        toml = tmp_path / "train.toml"
        toml.write_text(
            "[network]\n"
            "emb_dim = 8\n"
            "hidden_dim = 16\n"
            "enc_layers = 1\n"
            "dec_layers = 1\n"
            "[schedule]\n"
            "batch_size = 8\n"
            "max_steps = 60\n"
            "lr0 = 0.5\n",
            encoding="utf-8",
        )
        model3 = tmp_path / "model3.json"
        code = run_cli(
            "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
            "--out", model3, "--params", toml,
        )
        assert code == 0
        assert model3.read_bytes() == model.read_bytes()

    def test_correct_beam_defaults_to_the_pipelines(self):
        args = build_parser().parse_args(["correct", "--model", "m.json", "--text", "mother"])
        assert args.beam == PipelineParams().correct_beam

    def test_correct_prints_text(self, trained, capsys):
        model, _ = trained
        assert run_cli("correct", "--model", model, "--text", "mother") == 0
        out = capsys.readouterr().out.strip()
        assert out  # some correction was printed

    def test_steps_override(self, trained, synth_dir, tmp_path):
        model, params = trained
        quick = tmp_path / "quick.json"
        code = run_cli(
            "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
            "--out", quick, "--params", params, "--steps", "3",
            "--curve", tmp_path / "c.json",
        )
        assert code == 0
        assert len(json.loads((tmp_path / "c.json").read_text())) == 3


class TestRunAndEval:
    def test_full_document_run(self, synth_dir, trained, tmp_path, capsys):
        model, _ = trained
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--frames", synth_dir / "doc_0000.frames.jsonl",
            "--model", model, "--image", synth_dir / "doc_0000.page.pgm",
            "--out", report_path, "--crops-dir", tmp_path / "crops",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline accuracy:" in out
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "doctext-report"
        assert payload["n_boxes"] > 0
        # the crops are the ones `rectify` writes at run's default height
        assert run_cli(
            "rectify", "--image", synth_dir / "doc_0000.page.pgm",
            "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--out", tmp_path / "rectified", "--height", PipelineParams().rect_height,
        ) == 0
        written = {f.name: f.read_bytes() for f in (tmp_path / "crops").iterdir()}
        assert len(written) == payload["n_boxes"]
        assert written == {f.name: f.read_bytes() for f in (tmp_path / "rectified").iterdir()}

    @pytest.mark.parametrize("given, missing", [("--image", "--crops-dir"), ("--crops-dir", "--image")])
    def test_image_and_crops_dir_go_together(self, synth_dir, tmp_path, capsys, given, missing):
        value = synth_dir / "doc_0000.page.pgm" if given == "--image" else tmp_path / "crops"
        code = run_cli(
            "run", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--frames", synth_dir / "doc_0000.frames.jsonl",
            "--out", tmp_path / "report.json", given, value,
        )
        assert code == 2
        assert f"{missing} is missing" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists() and not (tmp_path / "crops").exists()

    def test_rerun_report_byte_identical(self, synth_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = run_cli(
                "run", "--boxes", synth_dir / "doc_0001.boxes.jsonl",
                "--frames", synth_dir / "doc_0001.frames.jsonl", "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_against_truth_boxes(self, synth_dir, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        assert run_cli("decode", "--frames", synth_dir / "doc_0000.frames.jsonl",
                       "--out", pred) == 0
        out_json = tmp_path / "acc.json"
        code = run_cli(
            "eval", "--pred", pred, "--truth", synth_dir / "doc_0000.boxes.jsonl",
            "--out", out_json,
        )
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["total"] > 0

    def test_decode_then_eval(self, synth_dir, tmp_path, capsys):
        # the word rows decode writes are the ones eval reads, as prediction and as truth
        frames = synth_dir / "doc_0000.frames.jsonl"
        pred = tmp_path / "pred.jsonl"
        assert run_cli("decode", "--frames", frames, "--out", pred) == 0
        words = read_words(pred)
        assert words == decode_words(*read_frames(frames))
        out_json = tmp_path / "acc.json"
        assert run_cli("eval", "--pred", pred, "--truth", pred, "--out", out_json) == 0
        assert json.loads(out_json.read_text()) == {
            "accuracy": 1.0, "correct": len(words), "total": len(words),
        }
        truth = truth_from_boxes(read_boxes(synth_dir / "doc_0000.boxes.jsonl"))
        assert run_cli("eval", "--pred", pred, "--truth", synth_dir / "doc_0000.boxes.jsonl",
                       "--out", out_json) == 0
        assert json.loads(out_json.read_text())["accuracy"] == evaluate(words, truth)

    @pytest.mark.parametrize("kind", ["boxes", "words"])
    def test_eval_reads_the_truth_file_once(self, synth_dir, tmp_path, monkeypatch, kind):
        boxes = synth_dir / "doc_0000.boxes.jsonl"
        truth = truth_from_boxes(read_boxes(boxes))
        if kind == "words":
            path = tmp_path / "truth.jsonl"
            write_words(path, truth)
        else:
            path = boxes
        pred = tmp_path / "pred.jsonl"
        write_words(pred, {bid: word if bid % 3 else word + "x" for bid, word in truth.items()})
        reads = []
        real = doctext.formats._read_text

        def counted(p):
            reads.append(str(p))
            return real(p)

        monkeypatch.setattr(doctext.formats, "_read_text", counted)
        out_json = tmp_path / "acc.json"
        assert run_cli("eval", "--pred", pred, "--truth", path, "--out", out_json) == 0
        assert reads.count(str(path)) == 1
        assert json.loads(out_json.read_text())["accuracy"] == evaluate(read_words(pred), truth)

    @pytest.mark.parametrize("rows, line, message", [
        ('{"id":0,"rect":[0,0,4,2],"word":"a"}\n\n{"id":1,"rect":[4,0,2,2]}', 3, "must have left < right"),
        ('\n{"box_id":0,"word":"a"}\n{"box_id":1,"word":"b"', 3, "bad JSON line"),
    ], ids=["boxes", "words"])
    def test_eval_truth_refusal_names_the_line(self, tmp_path, capsys, rows, line, message):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"box_id":0,"word":"a"}\n', encoding="utf-8")
        truth = tmp_path / "truth.jsonl"
        truth.write_text(rows + "\n", encoding="utf-8")
        assert run_cli("eval", "--pred", pred, "--truth", truth) == 2
        err = capsys.readouterr().err
        assert f"{truth}:{line}: " in err and message in err

    @pytest.mark.parametrize("rows, line", [
        ('{"box_id":0,"word":null}', 1),
        ('{"box_id":0,"word":7}', 1),
        ('{"box_id":true,"word":"a"}', 1),
        ('{"box_id":0.5,"word":"a"}', 1),
        ('{"box_id":0,"word":"a"}\n{"box_id":0,"word":"b"}', 2),
    ], ids=["word_null", "word_number", "id_bool", "id_fraction", "id_repeated"])
    @pytest.mark.parametrize("role", ["--pred", "--truth"])
    def test_eval_refuses_bad_word_rows(self, tmp_path, capsys, role, rows, line):
        good = tmp_path / "good.jsonl"
        good.write_text('{"box_id":0,"word":"a"}\n', encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(rows + "\n", encoding="utf-8")
        files = {"--pred": good, "--truth": good, role: bad}
        assert run_cli("eval", *[a for kv in files.items() for a in kv]) == 2
        assert f"{bad}:{line}: " in capsys.readouterr().err


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert run_cli("decode", "--frames", tmp_path / "nope.jsonl",
                       "--out", tmp_path / "o.jsonl") == 2

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run_cli("decode", "--frames", bad, "--out", tmp_path / "o.jsonl") == 2

    @pytest.mark.parametrize("argv", [
        ("decode", "--frames", "BAD.jsonl", "--out", "o.jsonl"),
        ("run", "--boxes", "BAD.jsonl", "--frames", "FRAMES", "--out", "o.json"),
        ("run", "--boxes", "BOXES", "--frames", "BAD.jsonl", "--out", "o.json"),
        ("run", "--boxes", "BOXES", "--frames", "FRAMES", "--out", "o.json", "--params", "BAD.toml"),
        ("correct", "--model", "BAD.json", "--text", "mother"),
        ("train-corrector", "--corpus", "BAD.jsonl", "--out", "m.json"),
        ("train-corrector", "--corpus", "CORPUS", "--out", "m.json", "--params", "BAD.json"),
        ("eval", "--pred", "BAD.jsonl", "--truth", "BOXES"),
        ("eval", "--pred", "WORDS", "--truth", "BAD.jsonl"),
    ], ids=["decode_frames", "run_boxes", "run_frames", "run_params", "correct_model",
            "train_corpus", "train_params", "eval_pred", "eval_truth"])
    def test_non_utf8_input_names_the_file(self, synth_dir, tmp_path, capsys, argv):
        # the capitalised names are good inputs; file names go to tmp_path
        inputs = {
            "BOXES": synth_dir / "doc_0000.boxes.jsonl",
            "FRAMES": synth_dir / "doc_0000.frames.jsonl",
            "CORPUS": synth_dir / "corpus.jsonl",
            "WORDS": tmp_path / "words.jsonl",
        }
        inputs["WORDS"].write_text('{"box_id":0,"word":"a"}\n', encoding="utf-8")
        bad = tmp_path / next(a for a in argv if a.startswith("BAD."))
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        files = (".json", ".jsonl", ".toml")
        assert run_cli(*[inputs.get(a, tmp_path / a if a.endswith(files) else a) for a in argv]) == 2
        assert f"{bad} is not UTF-8 text" in capsys.readouterr().err

    def test_divergence_exit_code(self, synth_dir, tmp_path):
        params = tmp_path / "explode.json"
        params.write_text(
            json.dumps({
                "emb_dim": 4, "hidden_dim": 4, "enc_layers": 1, "dec_layers": 1,
                "batch_size": 4, "max_steps": 30, "lr0": 1e200, "clip_norm": 1e308,
            }),
            encoding="utf-8",
        )
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
                "--out", tmp_path / "m.json", "--params", params,
            )
        assert code == 3

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


class TestUnknownParams:
    """A ``--params`` key that no reader of the subcommand consumes is
    refused with exit code 2, and the message names it."""

    def _refused(self, capsys, *argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "unknown parameter" in err
        return err

    @pytest.mark.parametrize("suffix,text", [
        (".json", '{"beam": 1}'),
        (".toml", "beam = 1\n"),
    ])
    def test_run_rejects_beam(self, synth_dir, tmp_path, capsys, suffix, text):
        params = tmp_path / f"p{suffix}"
        params.write_text(text, encoding="utf-8")
        out = tmp_path / "report.json"
        err = self._refused(
            capsys, "run", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--frames", synth_dir / "doc_0000.frames.jsonl", "--out", out, "--params", params,
        )
        assert ": beam" in err
        assert not out.exists()

    def test_run_accepts_layout_and_pipeline_keys(self, synth_dir, tmp_path):
        params = tmp_path / "p.toml"
        params.write_text("beam_width = 2\n[layout]\nkappa_h = 1.5\n", encoding="utf-8")
        code = run_cli(
            "run", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--frames", synth_dir / "doc_0000.frames.jsonl",
            "--out", tmp_path / "report.json", "--params", params,
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["group", "arrange"])
    def test_layout_commands(self, synth_dir, tmp_path, capsys, command):
        params = tmp_path / "p.json"
        params.write_text('{"kappa_h": 2.0, "beam_width": 4}', encoding="utf-8")
        err = self._refused(
            capsys, command, "--boxes", synth_dir / "doc_0000.boxes.jsonl",
            "--out", tmp_path / "o.json", "--params", params,
        )
        assert "beam_width" in err and "kappa_h" not in err

    def test_train_corrector(self, synth_dir, tmp_path, capsys):
        params = tmp_path / "p.toml"
        params.write_text("[network]\nemb_dim = 8\n[schedule]\nlr = 0.5\n", encoding="utf-8")
        err = self._refused(
            capsys, "train-corrector", "--corpus", synth_dir / "corpus.jsonl",
            "--out", tmp_path / "m.json", "--params", params,
        )
        assert ": lr" in err and "emb_dim" not in err

    def test_synth_gen(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"temperature": 0.5, "page_size": 100}', encoding="utf-8")
        err = self._refused(capsys, "synth-gen", "--out", tmp_path / "s", "--params", params)
        assert ": page_size" in err and "temperature" not in err

    # Every key each subcommand accepts, written out so that a new field
    # of a parameter dataclass cannot become a key without notice.
    ACCEPTED = {
        "synth-gen": [
            "page_width", "page_height", "blocks", "lines_per_block", "words_per_line",
            "box_height", "jitter", "temperature", "p_sub", "p_del", "p_ins", "words",
        ],
        "group": ["kappa_h", "kappa_v", "line_lambda"],
        "arrange": ["kappa_h", "kappa_v", "line_lambda"],
        "train-corrector": [
            "emb_dim", "hidden_dim", "enc_layers", "dec_layers", "dropout",
            "lr0", "decay_start", "halve_every", "batch_size", "clip_norm", "max_steps",
        ],
        "run": ["kappa_h", "kappa_v", "line_lambda", "beam_width", "correct_beam", "rect_height"],
    }

    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_accepted_keys_are_pinned(self, synth_dir, tmp_path, capsys, command):
        # A file with every field name of every parameter dataclass (plus
        # seed and layout, which stay refused) is refused for exactly the
        # keys outside the subcommand's list.
        candidates = {"seed", "layout"}
        for cls in (LayoutParams, PipelineParams, Hyper, TrainConfig, SynthSpec):
            candidates.update(f.name for f in dataclasses.fields(cls))
        params = tmp_path / "p.json"
        params.write_text(json.dumps({name: 1 for name in sorted(candidates)}), encoding="utf-8")
        inputs = {
            "synth-gen": [],
            "group": ["--boxes", synth_dir / "doc_0000.boxes.jsonl"],
            "arrange": ["--boxes", synth_dir / "doc_0000.boxes.jsonl"],
            "train-corrector": ["--corpus", synth_dir / "corpus.jsonl"],
            "run": ["--boxes", synth_dir / "doc_0000.boxes.jsonl",
                    "--frames", synth_dir / "doc_0000.frames.jsonl"],
        }[command]
        err = self._refused(capsys, command, *inputs, "--out", tmp_path / "o", "--params", params)
        refused = err.strip().split(f"for {command}: ")[1].split(", ")
        assert sorted(refused) == sorted(candidates - set(self.ACCEPTED[command]))

    def test_unconvertible_value(self, synth_dir, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"kappa_h": "wide"}', encoding="utf-8")
        assert run_cli("group", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
                       "--out", tmp_path / "o.json", "--params", params) == 2
        assert "kappa_h" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("train-corrector", '{"hidden_dim": 8.5}'),
        ("train-corrector", '{"batch_size": true}'),
        ("train-corrector", '{"dropout": false}'),
        ("group", '{"kappa_h": "1.5"}'),
        ("synth-gen", '{"blocks": [1, 2.5]}'),
        ("synth-gen", '{"words": ["alpha", 7]}'),
        ("synth-gen", '{"box_height": 1' + "0" * 400 + "}"),
    ], ids=["int_from_fraction", "int_from_bool", "float_from_bool", "float_from_text",
            "tuple_item_fraction", "str_from_number", "float_overflow"])
    def test_mistyped_value_refused(self, synth_dir, tmp_path, capsys, command, text):
        # Converting by calling the field's type would train with
        # hidden_dim 8 or read false as 0.0; a value must have its type.
        params = tmp_path / "p.json"
        params.write_text(text, encoding="utf-8")
        inputs = {
            "group": ["--boxes", synth_dir / "doc_0000.boxes.jsonl"],
            "train-corrector": ["--corpus", synth_dir / "corpus.jsonl"],
            "synth-gen": [],
        }[command]
        out = tmp_path / "o"
        assert run_cli(command, *inputs, "--out", out, "--params", params) == 2
        assert f"parameter {next(iter(json.loads(text)))}" in capsys.readouterr().err
        assert not out.exists()

    def test_toml_integer_for_a_float_field(self, synth_dir, tmp_path):
        boxes = synth_dir / "doc_0000.boxes.jsonl"
        outs = []
        for text in ("kappa_h = 1\n", "kappa_h = 1.0\n"):
            params = tmp_path / "p.toml"
            params.write_text(text, encoding="utf-8")
            outs.append(tmp_path / f"o{len(outs)}.json")
            assert run_cli("group", "--boxes", boxes, "--out", outs[-1], "--params", params) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_text_for_a_tuple_field(self, tmp_path, capsys):
        # A tuple field takes a list; "13" is not split into "1" and "3".
        params = tmp_path / "p.json"
        params.write_text('{"blocks": "13"}', encoding="utf-8")
        assert run_cli("synth-gen", "--out", tmp_path / "o", "--params", params) == 2
        assert "blocks" in capsys.readouterr().err


class TestParamsLoader:
    def test_json_nested_tables_flatten(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"layout": {"kappa_h": 2.0}, "beam_width": 4}', encoding="utf-8")
        assert load_params(p) == {"kappa_h": 2.0, "beam_width": 4}

    @pytest.mark.parametrize("name, text", [
        ("p.json", '{"layout": {"kappa_h": 100.0}, "kappa_h": 0.1}'),
        ("p.json", '{"kappa_h": 0.1, "layout": {"kappa_h": 100.0}}'),
        ("p.json", '{"layout": {"kappa_h": 100.0}, "grouping": {"kappa_h": 0.1}}'),
        ("p.json", '{"kappa_h": 100.0, "kappa_h": 0.1}'),
        ("p.toml", "kappa_h = 0.1\n[layout]\nkappa_h = 100.0\n"),
        ("p.toml", "layout = { kappa_h = 100.0 }\nkappa_h = 0.1\n"),
        ("p.toml", "[layout]\nkappa_h = 100.0\n[grouping]\nkappa_h = 0.1\n"),
    ], ids=["json_table_first", "json_top_first", "json_two_tables", "json_same_object",
            "toml_top_first", "toml_table_first", "toml_two_tables"])
    def test_key_given_twice_rejected(self, tmp_path, name, text):
        # Flattening by overwriting would make the value depend on the
        # order of the file; a key may appear once.
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="kappa_h"):
            load_params(p)

    def test_toml_subset(self, tmp_path):
        p = tmp_path / "p.toml"
        p.write_text(
            "# comment\n"
            "[layout]\n"
            'name = "x"  # trailing comment\n'
            "kappa_h = 2.0\n"
            "flag = true\n"
            "sizes = [1, 2, 3]\n",
            encoding="utf-8",
        )
        assert load_params(p) == {
            "name": "x", "kappa_h": 2.0, "flag": True, "sizes": [1, 2, 3],
        }

    def test_unknown_extension_rejected(self, tmp_path):
        p = tmp_path / "p.yaml"
        p.write_text("a: 1", encoding="utf-8")
        with pytest.raises(InputError):
            load_params(p)

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError):
            load_params(p)
