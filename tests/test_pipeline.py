"""Tests for the end-to-end document pipeline and its reports."""

import dataclasses
import inspect
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doctext.pipeline
from doctext.corrector import CorrectionResult, Hyper, TrainConfig, Vocab, init_model, train
from doctext.ctc import Alphabet
from doctext.errors import FormatError, InputError, VersionError
from doctext.formats import BoxRecord, canonical_dumps
from doctext.geometry import GrayImage, Quad
from doctext.layout import TextBox
from doctext.pipeline import (
    EvalReport,
    GroupReport,
    PipelineParams,
    decode_words,
    evaluate,
    format_percent,
    load_report,
    run,
    save_report,
)
from doctext.synth import SynthSpec, gen_document, gen_frames, render_page


@pytest.fixture(scope="module")
def copy_model():
    """A tiny corrector trained to copy phrases over two words."""
    vocab = Vocab.from_chars("ab")
    corpus = [(p, p) for p in ["ab", "ba", "ab ba", "ba ab", "ab ab", "ba ba", "ab ba ab"]]
    model = init_model(vocab, Hyper(emb_dim=8, hidden_dim=16, enc_layers=1, dec_layers=1), seed=0)
    trained, curve = train(
        model,
        corpus,
        TrainConfig(lr0=1.0, decay_start=300, halve_every=100, batch_size=8, max_steps=400, seed=0),
    )
    assert curve[-1] < 0.2, "copy fixture failed to converge"
    return trained


def one_hot_frames(alphabet, word):
    ids = alphabet.encode(word)
    rows = np.zeros((2 * len(ids) + 1, alphabet.size))
    rows[::2, alphabet.blank] = 1.0
    for k, c in enumerate(ids):
        rows[2 * k + 1, c] = 1.0
    return rows


def line_records(words, y=0.0, x0=0.0, h=10.0, start_id=0):
    recs = []
    x = x0
    for k, w in enumerate(words):
        width = 6.0 * len(w)
        box = TextBox(id=start_id + k, left=x, top=y, right=x + width, bottom=y + h, word=w)
        recs.append(BoxRecord(box=box))
        x += width + 4.0
    return recs


class TestFormatPercent:
    def test_two_decimal_rendering(self):
        # Large-run accuracy fixtures with awkward rounding.
        assert format_percent(226067 / 251074) == "90.04%"
        assert format_percent(1630 / 2293) == "71.09%"
        assert format_percent(1.0) == "100.00%"
        assert format_percent(0.0) == "0.00%"


class TestPipelineParams:
    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=repr)
    @pytest.mark.parametrize("name", ["beam_width", "correct_beam", "rect_height"])
    def test_sizes_must_be_integers(self, name, value):
        # a float width used to reach ctc or the corrector as a TypeError,
        # and beam_width=True decoded at width 1
        with pytest.raises(InputError, match=name):
            PipelineParams(**{name: value})

    def test_numpy_integers_accepted(self):
        assert PipelineParams(beam_width=np.int64(4), correct_beam=np.int32(2)).beam_width == 4

    @pytest.mark.parametrize("layout", [None, {"kappa_h": 1.0}], ids=repr)
    def test_layout_must_be_layout_params(self, layout):
        # a dict used to construct, and run ended in an AttributeError
        with pytest.raises(InputError, match="layout must be a LayoutParams"):
            PipelineParams(layout=layout)


class TestEvaluate:
    def test_exact_match_fraction(self):
        pred = {0: "cat", 1: "dog", 2: "bat"}
        truth = {0: "cat", 1: "dot", 2: "bat"}
        assert evaluate(pred, truth) == pytest.approx(2 / 3)

    def test_case_sensitive(self):
        assert evaluate({0: "Cat"}, {0: "cat"}) == 0.0

    def test_unicode_normalisation(self):
        # Composed vs decomposed accents compare equal.
        composed = "café"
        decomposed = "café"
        assert evaluate({0: composed}, {0: decomposed}) == 1.0

    def test_id_mismatch_rejected(self):
        with pytest.raises(InputError):
            evaluate({0: "x"}, {1: "x"})

    def test_empty_truth_rejected(self):
        with pytest.raises(InputError):
            evaluate({}, {})


class TestDecodeWords:
    def test_default_beam_is_the_pipelines(self):
        default = inspect.signature(decode_words).parameters["beam_width"].default
        assert default == PipelineParams().beam_width

    def test_decodes_synth_document(self):
        spec = SynthSpec(seed=40, temperature=0.0)
        doc = gen_document(spec)
        alpha, frames = gen_frames(doc, spec)
        words = decode_words(alpha, frames)
        for b in doc.boxes:
            assert words[b.id] == b.word

    def test_rejects_frames_missing_the_blank_column(self):
        # Three columns for three characters would read column 2 as the
        # blank and decode to plausible text.
        alpha = Alphabet(("a", "b", "c"))
        frames = {0: np.array([[0.1, 0.8, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])}
        with pytest.raises(InputError, match="box 0"):
            decode_words(alpha, frames)

    def test_rejects_non_finite_frames(self):
        alpha = Alphabet(("a", "b", "c"))
        frames = {0: one_hot_frames(alpha, "ab"), 1: np.full((3, alpha.size), np.nan)}
        with pytest.raises(InputError, match="box 1"):
            decode_words(alpha, frames)

    def test_rejects_ragged_frames(self):
        alpha = Alphabet(("a", "b"))
        frames = {0: one_hot_frames(alpha, "ab"), 1: [[0.5, 0.25, 0.25], [1.0, 0.0]]}
        with pytest.raises(InputError, match="box 1: frame probabilities must be a 2-D array"):
            decode_words(alpha, frames)

    def test_run_rejects_bad_frames(self):
        alpha = Alphabet(("a", "b"))
        recs = line_records(["ab"])
        with pytest.raises(InputError):
            run(recs, alpha, {0: np.full((3, alpha.size), np.nan)})
        with pytest.raises(InputError):
            run(recs, alpha, {0: np.full((3, alpha.size), 5.0 / alpha.size)})


class TestRun:
    def test_never_loses_a_box(self):
        spec = SynthSpec(seed=41, temperature=0.6, jitter=0.2)
        doc = gen_document(spec)
        alpha, frames = gen_frames(doc, spec)
        res = run([BoxRecord(box=b) for b in doc.boxes], alpha, frames)
        seen = [i for g in res.report.groups for i in g.box_ids]
        assert sorted(seen) == sorted(b.id for b in doc.boxes)
        assert res.report.n_boxes == len(doc.boxes)

    def test_unreadable_boxes_counted_and_kept(self):
        alpha = Alphabet("ab")
        recs = line_records(["ab", "ba", "ab"])
        frames = {0: one_hot_frames(alpha, "ab"), 2: one_hot_frames(alpha, "ab")}
        res = run(recs, alpha, frames)
        rep = res.report
        assert rep.n_unreadable == 1
        assert rep.n_readable == 2
        # The frameless box still appears in its group.
        assert any(1 in g.box_ids for g in rep.groups)
        # It counts against accuracy: truth "ba", prediction empty.
        assert rep.baseline_correct == 2
        assert rep.n_truth == 3

    def test_stray_frame_ids_rejected(self):
        alpha = Alphabet("ab")
        recs = line_records(["ab"])
        frames = {0: one_hot_frames(alpha, "ab"), 9: one_hot_frames(alpha, "ab")}
        with pytest.raises(InputError):
            run(recs, alpha, frames)

    def test_empty_document_rejected(self):
        with pytest.raises(InputError):
            run([], Alphabet("ab"), {})

    def test_no_model_skips_correction(self):
        alpha = Alphabet("ab")
        recs = line_records(["ab", "ba"])
        frames = {r.box.id: one_hot_frames(alpha, r.box.word) for r in recs}
        rep = run(recs, alpha, frames).report
        assert rep.corrected_correct is None
        assert rep.corrected_accuracy is None
        assert any("correction skipped" in n for n in rep.notes)
        for g in rep.groups:
            assert g.corrected_text == g.baseline_text
            assert not g.realigned

    def test_copy_model_realigns(self, copy_model):
        alpha = Alphabet("ab")
        recs = line_records(["ab", "ba"])
        frames = {r.box.id: one_hot_frames(alpha, r.box.word) for r in recs}
        res = run(recs, alpha, frames, model=copy_model)
        rep = res.report
        assert rep.groups[0].baseline_text == "ab ba"
        assert rep.groups[0].corrected_text == "ab ba"
        assert rep.groups[0].realigned
        assert rep.corrected_correct == 2
        assert res.corrected_by_id == {0: "ab", 1: "ba"}

    def test_word_count_change_falls_back_to_baseline(self):
        # An untrained all-zero model emits uniform distributions; the
        # decoder then stops immediately (<end> is the smallest allowed
        # token on a tie), so the corrected word count differs and the
        # group must keep its baseline words, unflagged as realigned.
        from doctext.corrector.model import CorrectorModel, param_shapes

        vocab = Vocab.from_chars("ab")
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=1)
        zero = CorrectorModel(
            vocab=vocab,
            hyper=hyper,
            params={k: np.zeros(s) for k, s in param_shapes(hyper, vocab.size).items()},
        )
        alpha = Alphabet("ab")
        recs = line_records(["ab", "ba"])
        frames = {r.box.id: one_hot_frames(alpha, r.box.word) for r in recs}
        res = run(recs, alpha, frames, model=zero)
        g = res.report.groups[0]
        assert not g.realigned
        assert res.corrected_by_id == res.baseline_by_id

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_correction_length_keeps_every_box(self, data):
        # Lines 14 apart join one group, lines 200 apart stay separate;
        # "" decodes to nothing, and boxes without frames are unreadable.
        alpha = Alphabet("ab")
        recs, frames = [], {}
        y = 0.0
        for _ in range(data.draw(st.integers(1, 4))):
            y += data.draw(st.sampled_from([14.0, 200.0]))
            words = data.draw(st.lists(st.sampled_from(["", "a", "ab", "ba"]), min_size=1, max_size=5))
            for k, w in enumerate(words):
                box = TextBox(id=len(recs), left=40.0 * k, top=y, right=40.0 * k + 30.0, bottom=y + 10.0)
                if data.draw(st.integers(0, 4)):
                    frames[box.id] = one_hot_frames(alpha, w)
                recs.append(BoxRecord(box=box))
        calls, batches = [], []

        def fake_correct_batch(model, phrases, beam_width):
            batches.append(list(phrases))
            results = []
            for text in phrases:
                n_out = data.draw(st.integers(0, len(text.split()) + 2))
                out = tuple(f"w{i}" for i in range(n_out))
                calls.append(out)
                results.append(CorrectionResult(text=" ".join(out), tokens=(), hit_cap=False, degraded=False))
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doctext.pipeline, "correct_batch", fake_correct_batch)
            res = run(recs, alpha, frames, model=object())

        # one call, with the non-empty group phrases in label order
        labels = [g.label for g in res.report.groups]
        assert labels == sorted(labels)
        phrases = [" ".join(filter(None, map(res.baseline_by_id.get, g.box_ids))) for g in res.report.groups]
        assert batches == [[p for p in phrases if p]]
        seen = [i for g in res.report.groups for i in g.box_ids]
        assert sorted(seen) == [r.box.id for r in recs]
        assert set(res.corrected_by_id) == set(res.baseline_by_id) == set(frames)
        outs = iter(calls)
        for g in res.report.groups:
            present = [i for i in g.box_ids if res.baseline_by_id.get(i)]
            if not present:
                assert not g.realigned and g.corrected_text == ""
                continue
            out = next(outs)
            assert g.realigned == (len(out) == len(present))
            want = out if g.realigned else tuple(res.baseline_by_id[i] for i in present)
            assert tuple(res.corrected_by_id[i] for i in present) == want
        assert next(outs, None) is None

    def test_rectifies_when_image_supplied(self):
        alpha = Alphabet("ab")
        recs = [
            BoxRecord(
                box=TextBox(id=0, left=2, top=2, right=26, bottom=10, word="ab"),
                quad=Quad.from_points([(2, 2), (26, 3), (25, 10), (3, 9)]),
            ),
            BoxRecord(box=TextBox(id=1, left=30, top=2, right=54, bottom=10, word="ba")),
        ]
        frames = {r.box.id: one_hot_frames(alpha, r.box.word) for r in recs}
        image = GrayImage(np.random.default_rng(42).random((40, 80)))
        params = PipelineParams(rect_height=8)
        res = run(recs, alpha, frames, params=params, image=image)
        assert set(res.crops) == {0, 1}
        for crop in res.crops.values():
            assert crop.height == 8
        assert any("rectified 2 boxes" in n for n in res.report.notes)
        # Decoding still uses the supplied frames.
        assert res.baseline_by_id == {0: "ab", 1: "ba"}

    def test_one_rectify_call_per_box(self, monkeypatch):
        # perfbench/tracing.py times rectification by wrapping
        # doctext.pipeline.rectify; a batched path that bypassed that name
        # would make geometry.rectify.* read 0 without any error
        spec = SynthSpec(seed=5, jitter=0.2)
        doc = gen_document(spec)
        alpha, frames = gen_frames(doc, spec)
        calls = []
        real = doctext.pipeline.rectify

        def counted(image, src, width, height):
            calls.append((width, height))
            return real(image, src, width, height)

        monkeypatch.setattr(doctext.pipeline, "rectify", counted)
        records = [BoxRecord(box=b) for b in doc.boxes]
        crops = doctext.pipeline.rectify_boxes(render_page(doc, spec), records, 16)
        assert len(calls) == len(crops) == len(records) > 1
        assert calls == [(c.width, c.height) for c in crops.values()]
        calls.clear()
        res = run(records, alpha, frames, image=render_page(doc, spec))
        assert len(calls) == len(res.crops) == len(records)

    def test_without_image_no_crops(self):
        alpha = Alphabet("ab")
        recs = line_records(["ab"])
        frames = {0: one_hot_frames(alpha, "ab")}
        res = run(recs, alpha, frames)
        assert res.crops == {}
        assert any("rectification skipped" in n for n in res.report.notes)

    def test_no_truth_means_no_accuracy(self):
        alpha = Alphabet("ab")
        box = TextBox(id=0, left=0, top=0, right=12, bottom=10)  # no word
        frames = {0: one_hot_frames(alpha, "ab")}
        rep = run([BoxRecord(box=box)], alpha, frames).report
        assert rep.n_truth == 0
        assert rep.baseline_correct is None
        assert rep.baseline_accuracy is None


def reports():
    """Random reports: 0-4 groups, None or int counts, non-ASCII text."""
    count = st.integers(0, 10**6)
    text = st.text(st.characters(codec="utf-8"), max_size=12)
    group = st.builds(
        GroupReport,
        label=st.integers(0, 99),
        box_ids=st.lists(count, max_size=5).map(tuple),
        baseline_text=text,
        corrected_text=text,
        realigned=st.booleans(),
    )
    return st.builds(
        EvalReport,
        n_boxes=count,
        n_readable=count,
        n_unreadable=count,
        n_truth=count,
        baseline_correct=st.none() | count,
        corrected_correct=st.none() | count,
        groups=st.lists(group, max_size=4).map(tuple),
        notes=st.lists(text, max_size=3).map(tuple),
    )


class TestReportIO:
    def make_report(self):
        return EvalReport(
            n_boxes=3,
            n_readable=3,
            n_unreadable=0,
            n_truth=3,
            baseline_correct=2,
            corrected_correct=3,
            groups=(
                GroupReport(
                    label=0,
                    box_ids=(0, 1, 2),
                    baseline_text="ab ba ab",
                    corrected_text="ab ba ab",
                    realigned=True,
                ),
            ),
            notes=("rectification skipped: no page image supplied",),
        )

    def test_round_trip(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.json"
        save_report(rep, p)
        assert load_report(p) == rep

    def test_save_is_deterministic(self, tmp_path):
        rep = self.make_report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_report(rep, p1)
        save_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_refused(self, tmp_path):
        rep = self.make_report()
        bad = dataclasses.replace(rep, baseline_correct=float("nan"))
        p = tmp_path / "report.json"
        with pytest.raises(FormatError):
            save_report(bad, p)
        assert not p.exists()

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format":"other","version":1}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            load_report(p)

    def test_wrong_version_rejected(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.json"
        save_report(rep, p)
        payload = json.loads(p.read_text())
        payload["version"] = 2
        p.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(VersionError, match=f"^{re.escape(str(p))}: unsupported report version 2"):
            load_report(p)

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(baseline_correct="x"),
        lambda p: p.update(groups=5),
        lambda p: p["groups"][0].pop("realigned"),
        lambda p: p.update(n_boxes="many"),
        lambda p: p.update(n_boxes=2.5),
        lambda p: p.update(n_truth=True),
        lambda p: p["groups"][0].update(realigned="false"),
        lambda p: p["groups"][0].update(realigned=0),
        lambda p: p["groups"][0].update(baseline_text=7),
        lambda p: p["groups"][0].update(box_ids=[0, 1.5]),
        lambda p: p["groups"][0].update(score=0.5),
        lambda p: p.update(groups=[[0, [0, 1, 2], "ab ba ab", "ab ba ab", True]]),
    ], ids=["baseline_correct_text", "groups_not_list", "group_without_realigned", "n_boxes_text",
            "n_boxes_fraction", "n_truth_bool", "realigned_text", "realigned_number",
            "baseline_text_number", "box_id_fraction", "group_unknown_key", "group_not_object"])
    def test_mistyped_field_rejected(self, tmp_path, edit):
        p = tmp_path / "report.json"
        save_report(self.make_report(), p)
        payload = json.loads(p.read_text(encoding="utf-8"))
        edit(payload)
        p.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError):
            load_report(p)

    @settings(max_examples=60, deadline=None)
    @given(reports())
    def test_json_shape_property(self, rep):
        # to_dict() must hold JSON values only (lists, never tuples), so
        # that the written file reads back equal to it.
        d = rep.to_dict()
        assert json.loads(canonical_dumps(d)) == d
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_report(rep, p1)
            save_report(rep, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert load_report(p1) == rep

    def test_summary_mentions_accuracies(self):
        rep = self.make_report()
        text = rep.summary()
        assert "baseline accuracy: 66.67% (2/3)" in text
        assert "corrected accuracy: 100.00% (3/3)" in text
        assert "delta: +33.33pp" in text
