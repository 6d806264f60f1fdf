"""Tests for the JSON/JSONL file formats."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctext.cli import load_params
from doctext.corrector.model import load_model
from doctext.errors import FormatError, InputError
from doctext.formats import (
    BoxRecord,
    canonical_dumps,
    read_boxes,
    read_corpus,
    read_frames,
    read_json_file,
    read_jsonl,
    read_words,
    truth_from_boxes,
    write_boxes,
    write_corpus,
    write_frames,
    write_json_file,
    write_jsonl,
    write_words,
)
from doctext.pipeline import load_report
from doctext.geometry import Quad
from doctext.layout import TextBox
from doctext.synth import SynthSpec, gen_document, gen_frames


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        # Sorted keys, no spaces, one trailing newline.
        assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "x.json"
        payload = {"z": 1, "a": {"nested": [1.5, None, "s"]}}
        write_json_file(p, payload)
        assert read_json_file(p) == payload
        assert p.read_text().endswith("\n")

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"k": [0.1, 0.2, 1e-30]}
        write_json_file(p1, payload)
        write_json_file(p2, read_json_file(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError):
            read_json_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_json_file(tmp_path / "absent.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused(self, bad):
        # NaN and Infinity are not JSON; json.dumps would write them.
        with pytest.raises(FormatError):
            canonical_dumps({"x": bad})

    def test_curve_writer_refuses_nan(self, tmp_path):
        p = tmp_path / "curve.json"
        with pytest.raises(FormatError):
            write_json_file(p, [2.5, float("nan")])
        assert not p.exists()


class TestJsonl:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"a":1}\n\n{"b":2}\n', encoding="utf-8")
        assert read_jsonl(p) == [{"a": 1}, {"b": 2}]

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"a":1}\nnot json\n', encoding="utf-8")
        with pytest.raises(FormatError, match=":2:"):
            read_jsonl(p)

    def test_empty_write(self, tmp_path):
        p = tmp_path / "e.jsonl"
        write_jsonl(p, [])
        assert p.read_text() == ""

    def test_lines_are_canonical(self, tmp_path):
        p = tmp_path / "r.jsonl"
        write_jsonl(p, [{"b": 1, "a": [1.5, None]}, {"s": "x"}])
        assert p.read_text() == '{"a":[1.5,null],"b":1}\n{"s":"x"}\n'

    def test_refuses_nan(self, tmp_path):
        p = tmp_path / "r.jsonl"
        with pytest.raises(FormatError):
            write_jsonl(p, [{"a": 1}, {"x": float("nan")}])
        assert not p.exists()


class TestBoxes:
    def test_rect_round_trip(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        recs = [
            BoxRecord(box=TextBox(id=0, left=1, top=2, right=3, bottom=4, word="hi")),
            BoxRecord(box=TextBox(id=1, left=5, top=6, right=9, bottom=8)),
        ]
        write_boxes(p, recs)
        back = read_boxes(p)
        assert back == recs

    def test_quad_round_trip(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        quad = Quad.from_points([(0, 0), (10, 1), (11, 8), (1, 7)])
        recs = [BoxRecord(box=TextBox(id=3, left=0, top=0, right=11, bottom=8), quad=quad)]
        write_boxes(p, recs)
        back = read_boxes(p)
        assert back[0].quad == quad
        # The axis-aligned box is the quad's bounding box.
        assert back[0].box.left == 0 and back[0].box.right == 11

    def test_rect_and_quad_both_present_rejected(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text(
            '{"id":0,"rect":[0,0,1,1],"quad":[[0,0],[1,0],[1,1],[0,1]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            read_boxes(p)

    def test_neither_geometry_rejected(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            read_boxes(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,1,1]}\n{"id":0,"rect":[2,2,3,3]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:2: duplicate box id 0"):
            read_boxes(p)

    def test_malformed_rect_rejected(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,"wide",1]}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            read_boxes(p)
        # an integer too large for a float
        p.write_text('{"id":0,"rect":[0,0,1' + "0" * 400 + ',1]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match="malformed geometry"):
            read_boxes(p)

    def test_error_names_the_file_line(self, tmp_path):
        # Blank lines hold no record but still count as lines.
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,1,1]}\n\n{"id":1,"rect":[0,0,"wide",1]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:3: malformed geometry"):
            read_boxes(p)

    def test_inverted_rect_names_the_file_line(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,1,1]}\n{"id":7,"rect":[5,0,1,1]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:2: box 7 must have left < right"):
            read_boxes(p)

    def test_box_narrower_than_a_float_step_names_the_file_line(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,1,1]}\n{"id":3,"rect":[1e16,0,10000000000000002,10]}\n',
                     encoding="utf-8")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:2: box 3 is too narrow"):
            read_boxes(p)

    def test_integral_float_id_is_an_integer(self, tmp_path):
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":3.0,"rect":[0,0,1.5,1]}\n', encoding="utf-8")
        assert read_boxes(p)[0].box.id == 3

    @pytest.mark.parametrize("row, message", [
        ('{"id":1.9,"rect":[0,0,1,1]}', "box id must be an integer"),
        ('{"id":true,"rect":[0,0,1,1]}', "box id must be an integer"),
        ('{"id":"7","rect":[0,0,1,1]}', "box id must be an integer"),
        ('{"id":null,"rect":[0,0,1,1]}', "box id must be an integer"),
        ('{"id":2,"rect":["0",0,1,1]}', "'rect' must be a list of numbers"),
        ('{"id":2,"rect":[0,0,true,1]}', "'rect' must be a list of numbers"),
        ('{"id":2,"rect":{"left":0}}', "'rect' must be a list of numbers"),
        ('{"id":2,"quad":[[0,0],[1,"0"],[1,1],[0,1]]}', "'quad' corner must be a list of numbers"),
        ('{"id":2,"quad":[[0,0],[1,0],[1,true],[0,1]]}', "'quad' corner must be a list of numbers"),
        ('{"id":2,"quad":"square"}', "'quad' must be a list of corners"),
    ], ids=["id_fraction", "id_bool", "id_text", "id_null", "rect_text", "rect_bool", "rect_object",
            "quad_text", "quad_bool", "quad_not_a_list"])
    def test_untyped_values_refused_with_file_line(self, tmp_path, row, message):
        # int() and float() would read each of these as a number
        p = tmp_path / "boxes.jsonl"
        p.write_text('{"id":0,"rect":[0,0,1,1]}\n' + row + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"boxes\.jsonl:2: .*{re.escape(message)}"):
            read_boxes(p)

    def test_truth_from_boxes(self):
        recs = [
            BoxRecord(box=TextBox(id=0, left=0, top=0, right=1, bottom=1, word="w")),
            BoxRecord(box=TextBox(id=1, left=2, top=0, right=3, bottom=1)),
        ]
        assert truth_from_boxes(recs) == {0: "w"}


class TestFrames:
    def test_round_trip(self, tmp_path):
        spec = SynthSpec(seed=30, temperature=0.5)
        doc = gen_document(spec)
        alpha, frames = gen_frames(doc, spec)
        p = tmp_path / "frames.jsonl"
        write_frames(p, alpha, frames)
        alpha2, back = read_frames(p)
        assert alpha2.chars == alpha.chars
        assert set(back) == set(frames)
        for i in frames:
            assert np.allclose(back[i], frames[i], atol=0)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        for first in ('{"box_id":0,"frames":[[0.5,0.5]]}', "5"):
            p.write_text(first + "\n", encoding="utf-8")
            with pytest.raises(FormatError, match="alphabet header"):
                read_frames(p)

    def test_wrong_column_count_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a","b"]}\n{"box_id":0,"frames":[[0.5,0.5]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: expected 3 probability columns"):
            read_frames(p)

    def test_ragged_frames_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a"]}\n{"box_id":0,"frames":[[0.5,0.5],[1.0]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: frame probabilities must be a 2-D array"):
            read_frames(p)

    def test_non_stochastic_rows_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a"]}\n{"box_id":0,"frames":[[0.9,0.9]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: every frame row must sum to 1"):
            read_frames(p)

    def test_duplicate_box_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text(
            '{"alphabet":["a"]}\n'
            '{"box_id":0,"frames":[[0.5,0.5]]}\n'
            '{"box_id":0,"frames":[[0.5,0.5]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"frames\.jsonl:3: duplicate frames for box 0"):
            read_frames(p)

    @pytest.mark.parametrize("bid", ["true", "1.9", '"1"'], ids=["bool", "fraction", "text"])
    def test_box_id_must_be_an_integer(self, tmp_path, bid):
        # int() would read each of these as box 1
        p = tmp_path / "frames.jsonl"
        p.write_text(f'{{"alphabet":["a"]}}\n{{"box_id":{bid},"frames":[[0.5,0.5]]}}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: bad frame record"):
            read_frames(p)

    def test_record_without_frames_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a"]}\n{"box_id":0}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: frame record needs 'box_id' and 'frames'"):
            read_frames(p)

    def test_error_names_the_file_line(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text(
            '\n{"alphabet":["a"]}\n\n{"box_id":0,"frames":[[0.9,0.9]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"frames\.jsonl:4: every frame row must sum to 1"):
            read_frames(p)


class TestCorpus:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        pairs = [("helo", "hello"), ("wrld", "world")]
        write_corpus(p, pairs)
        assert read_corpus(p) == pairs

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"noisy":"x"}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            read_corpus(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("", encoding="utf-8")
        with pytest.raises(InputError):
            read_corpus(p)

    def test_error_names_the_file_line(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"noisy":"a","clean":"a"}\n\n\n{"noisy":"x"}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"corpus\.jsonl:4: corpus record needs"):
            read_corpus(p)

    def test_non_string_fields_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"noisy":1,"clean":"x"}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            read_corpus(p)


class TestWords:
    @settings(max_examples=60, deadline=None)
    @example({2: "straße", 0: "naïve", -1: ""})
    @given(st.dictionaries(st.integers(-(2**40), 2**40), st.text(max_size=12), max_size=12))
    def test_round_trip(self, tmp_path_factory, words):
        # non-ASCII words, empty words and negative ids come back as written
        p = tmp_path_factory.mktemp("words") / "words.jsonl"
        write_words(p, words)
        assert read_words(p) == words

    def test_integral_float_id_is_an_integer(self, tmp_path):
        p = tmp_path / "words.jsonl"
        p.write_text('{"box_id":3.0,"word":"a"}\n', encoding="utf-8")
        assert read_words(p) == {3: "a"}

    @pytest.mark.parametrize("rows, line, message", [
        ('{"box_id":1,"word":null}', 1, "expected a str"),
        ('{"box_id":1,"word":7}', 1, "expected a str"),
        ('{"box_id":true,"word":"a"}', 1, "expected a number"),
        ('{"box_id":1.9,"word":"a"}', 1, "expected an integer"),
        ('{"box_id":"1","word":"a"}', 1, "expected a number"),
        ('{"box_id":1,"word":"a"}\n\n{"box_id":1,"word":"b"}', 3, "duplicate box id 1"),
        ('{"box_id":1}', 1, "needs 'box_id' and 'word'"),
        ('[1,"a"]', 1, "needs 'box_id' and 'word'"),
    ], ids=["word_null", "word_number", "id_bool", "id_fraction", "id_text", "id_repeated",
            "word_missing", "not_an_object"])
    def test_refusal_names_the_file_line(self, tmp_path, rows, line, message):
        p = tmp_path / "words.jsonl"
        p.write_text(rows + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"words\.jsonl:{line}: .*{re.escape(message)}"):
            read_words(p)


@pytest.mark.parametrize("reader, name", [
    (read_json_file, "x.json"),
    (read_jsonl, "x.jsonl"),
    (read_boxes, "x.jsonl"),
    (read_frames, "x.jsonl"),
    (read_corpus, "x.jsonl"),
    (read_words, "x.jsonl"),
    (load_params, "x.json"),
    (load_params, "x.toml"),
    (load_model, "x.json"),
    (load_report, "x.json"),
], ids=["json_file", "jsonl", "boxes", "frames", "corpus", "words", "params_json",
        "params_toml", "model", "report"])
def test_non_utf8_file_names_the_file(tmp_path, reader, name):
    # a UTF-16 byte-order mark is not UTF-8
    p = tmp_path / name
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(FormatError, match=rf"{re.escape(str(p))} is not UTF-8 text"):
        reader(p)
