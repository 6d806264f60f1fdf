"""End-to-end tests of the command line driven through main(argv)."""

import json

import pytest

from doctext.cli import load_params, main
from doctext.errors import FormatError, InputError
from doctext.formats import read_boxes, read_corpus, read_frames, read_jsonl
from doctext.geometry import read_pgm


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
        assert (tmp_path / "crops").exists()

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


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert run_cli("decode", "--frames", tmp_path / "nope.jsonl",
                       "--out", tmp_path / "o.jsonl") == 2

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run_cli("decode", "--frames", bad, "--out", tmp_path / "o.jsonl") == 2

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

    def test_unconvertible_value(self, synth_dir, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"kappa_h": "wide"}', encoding="utf-8")
        assert run_cli("group", "--boxes", synth_dir / "doc_0000.boxes.jsonl",
                       "--out", tmp_path / "o.json", "--params", params) == 2
        assert "kappa_h" in capsys.readouterr().err


class TestParamsLoader:
    def test_json_nested_tables_flatten(self, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"layout": {"kappa_h": 2.0}, "beam_width": 4}', encoding="utf-8")
        assert load_params(p) == {"kappa_h": 2.0, "beam_width": 4}

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
