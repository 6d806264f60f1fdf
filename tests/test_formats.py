"""Tests for the JSON/JSONL file formats."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctext.cli import load_params
from doctext.ctc import Alphabet, validate_frame_probs
from doctext.corrector.model import Hyper, load_model
from doctext.errors import FormatError, InputError
from doctext.formats import (
    BoxRecord,
    _fields,
    _numbered_records,
    canonical_dumps,
    from_json_value,
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
from doctext.layout import LayoutParams, TextBox
from doctext.synth import SynthSpec, gen_document, gen_frames


def numbered_reference(path) -> list[tuple[int, object]]:
    """``json.loads`` of each non-blank line of ``path``, with its line
    number; the oracle for the line parser."""
    records = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if line.strip():
            try:
                records.append((n, json.loads(line)))
            except ValueError as exc:
                raise FormatError(f"{path}:{n}: bad JSON line: {exc}") from exc
    return records


def _numbers_reference(values, where, what):
    if type(values) is not list or not {int, float}.issuperset(map(type, values)):
        raise FormatError(f"{where}: malformed geometry: {what} must be a list of numbers")
    return values


def _box_reference(rec, where) -> BoxRecord:
    """One box record, checked and built through ``TextBox`` alone."""
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: box record must be an object")
    if "id" not in rec:
        raise FormatError(f"{where}: box record needs an 'id'")
    bid = rec["id"]
    if type(bid) is float and bid.is_integer():
        bid = int(bid)
    if type(bid) is not int:
        raise FormatError(f"{where}: box id must be an integer")
    word = rec.get("word")
    if word is not None and not isinstance(word, str):
        raise FormatError(f"{where}: 'word' must be a string")
    has_rect = "rect" in rec
    has_quad = "quad" in rec
    if has_rect == has_quad:
        raise FormatError(f"{where}: box record needs exactly one of 'rect' or 'quad'")
    if has_rect:
        coords = _numbers_reference(rec["rect"], where, "'rect'")
    elif type(rec["quad"]) is list:
        coords = [_numbers_reference(c, where, "a 'quad' corner") for c in rec["quad"]]
    else:
        raise FormatError(f"{where}: malformed geometry: 'quad' must be a list of corners")
    try:
        if has_rect:
            left, top, right, bottom = coords
            quad = None
        else:
            quad = Quad.from_points(coords)
            xs = [p.x for p in quad.corners]
            ys = [p.y for p in quad.corners]
            left, top, right, bottom = min(xs), min(ys), max(xs), max(ys)
        box = TextBox(id=bid, left=left, top=top, right=right, bottom=bottom, word=word)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: malformed geometry: {exc}") from exc
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return BoxRecord(box=box, quad=quad)


def read_boxes_reference(path) -> list[BoxRecord]:
    """The box reader record by record: ``json.loads`` per line, each
    record checked and built alone, then the duplicate check; the oracle
    for :func:`read_boxes`."""
    records, seen = [], set()
    for n, rec in numbered_reference(path):
        record = _box_reference(rec, f"{path}:{n}")
        if record.box.id in seen:
            raise FormatError(f"{path}:{n}: duplicate box id {record.box.id}")
        seen.add(record.box.id)
        records.append(record)
    return records


def read_outcome(reader, path):
    """What ``reader`` makes of ``path``: its records, whose box ids are
    ``int`` and coordinates ``float``, or the text of its refusal."""
    try:
        records = reader(path)
    except FormatError as exc:
        return "refused", str(exc)
    for r in records:
        assert type(r.box.id) is int
        assert {float} == set(map(type, (r.box.left, r.box.top, r.box.right, r.box.bottom)))
    return "read", records


_ODD_IDS = [3.0, 1.9, True, False, "7", None, -1, -4.0, float("nan"), 2**70, 1e300, [1]]
_ODD_COORDS = [float("nan"), float("inf"), -float("inf"), True, False, "3", None, [1], -0.0,
               2**63 + 1, 10**400, 2**1024 - 2**970 - 1, 2**1024 - 2**970]
_ODD_LINES = ["", "  ", "\t", "{", '{"id":0,', "[1, 2]", "7", '"box"', "null", '{"id":1} x',
              "\ufeff{}", '{"id":0,"rect":[0,0,' + "1" * 5000 + ",1]}"]
_ABSENT = object()


@st.composite
def box_lines(draw):
    """The lines of a boxes file: rect and quad records, each with at most
    one oddity (an odd id, coordinate or word, a repeated id, an inverted
    or too narrow box, a malformed or degenerate geometry, both or neither
    geometry), extra keys, blank lines and malformed JSON."""
    place, size = st.integers(-100, 1000) | st.floats(-100, 1000), st.integers(1, 300) | st.floats(0.01, 300)
    lines = []
    for k in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["rect"] * 5 + ["quad"] * 2 + ["line"]))
        if kind == "line":
            lines.append(draw(st.sampled_from(_ODD_LINES)))
            continue
        oddity = draw(st.integers(0, 39))
        left, top, width, height = draw(place), draw(place), draw(size), draw(size)
        rec = {"id": draw(st.sampled_from(_ODD_IDS)) if oddity == 0 else k - 1 if oddity == 1 else k}
        if kind == "rect":
            rect = [left, top, left + width, top + height]
            if oddity == 2:  # inverted
                rect = [rect[2], rect[1], rect[0], rect[3]]
            elif oddity == 3:  # its centre rounds to its left edge
                rect = [1e16, top, 10**16 + 2, top + height]
            elif oddity == 4:
                rect[draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD_COORDS))
            elif oddity == 5:
                rect = rect[:draw(st.integers(0, 3))] + [1] * draw(st.integers(0, 2)) or {"left": left}
            rec["rect"] = rect
        else:
            skew = draw(st.floats(-0.2, 0.2))
            quad = [[left, top], [left + width, top + skew * height],
                    [left + width, top + height], [left, top + height]]
            if oddity == 2:  # collinear
                quad[1] = [left + width / 2, top + height / 2]
            elif oddity == 3:
                quad = quad[:3]
            elif oddity == 4:
                quad[draw(st.integers(0, 3))][draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_COORDS))
            elif oddity == 5:
                quad[draw(st.integers(0, 3))].append(1)
            elif oddity == 6:
                quad = "square"
            rec["quad"] = quad
        if oddity == 7:
            rec["rect" if "quad" in rec else "quad"] = [0, 0, 1, 1]
        elif oddity == 8:
            del rec[kind]
        word = draw(st.sampled_from([7, None, ["w"]] if oddity == 9 else [_ABSENT, "word", "", "straße"]))
        if word is not _ABSENT:
            rec["word"] = word
        if draw(st.integers(0, 5)) == 0:
            rec["score"] = 0.5
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + json.dumps(rec))
    return lines


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


class TestFromJsonValue:
    @pytest.mark.parametrize("tp, value", [(Hyper, []), (LayoutParams, [1, 2]), (Hyper, "emb_dim")],
                             ids=["empty_list", "list", "string"])
    def test_dataclass_only_from_an_object(self, tp, value):
        with pytest.raises(TypeError, match=f"expected an object for {tp.__name__}"):
            from_json_value(tp, value)

    def test_unknown_key_refused(self):
        with pytest.raises(TypeError, match="Hyper has no field 'bogus'"):
            from_json_value(Hyper, {"emb_dim": 4, "bogus": 1})
        assert from_json_value(Hyper, {"emb_dim": 4}) == Hyper(emb_dim=4)


_SPACES = st.text(st.sampled_from(" \t\r\x0c\xa0\u2028\ufeff"), max_size=2)
_JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
).map(json.dumps)
_ODD_TEXTS = st.sampled_from(["NaN", "-Infinity", "Infinity", "1" * 4301, "[" + "9" * 5000 + "]",
                              "tru", "{", "}", '{"a":1', "1 2", "[1,]", "'x'"])
_LINES = st.tuples(_SPACES, _JSON_TEXTS | _ODD_TEXTS, _SPACES, st.sampled_from(["", "", "", "x", "]", "{}"]))


class TestJsonl:
    @settings(max_examples=300, deadline=None)
    @example(["\ufeff{}"])
    @example(['{"a":1} \t', '{"a":1}\xa0'])
    @example(["\xa0", "\u2028", "\x0c", "", '{"a":' + "7" * 4301 + "}"])
    @given(st.lists(_LINES.map("".join) | st.just(""), max_size=6))
    def test_parser_equals_json_loads(self, tmp_path_factory, lines):
        # the same records on the same line numbers, or the same refusal
        p = tmp_path_factory.mktemp("jsonl") / "r.jsonl"
        p.write_text("\n".join(lines), encoding="utf-8")
        try:
            expected = repr(numbered_reference(p))  # repr: NaN is not equal to itself
        except FormatError as exc:
            with pytest.raises(FormatError) as caught:
                _numbered_records(p)
            assert str(caught.value) == str(exc)
        else:
            assert repr(_numbered_records(p)) == expected

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
        with pytest.raises(FormatError, match=r"boxes\.jsonl:1: box 0 right must be a finite real number, not 10+$"):
            read_boxes(p)
        p.write_text('{"id":0,"rect":[0,0,1]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"boxes\.jsonl:1: malformed geometry: not enough values"):
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

    @settings(max_examples=400, deadline=None)
    @example(['{"id":0,"rect":[0,-Infinity,1,1]}'])
    @example(['{"id":0,"rect":[0,0,Infinity,1]}'])
    @example(['{"id":3,"rect":[1e16,0,10000000000000002,10]}'])
    @example(['{"id":0,"rect":[0,0,1,1]}', '{"id":0.0,"quad":[[0,0],[1,0],[1,1],[0,1]]}'])
    @example(['{"id":true,"rect":[0,0,1,1]}'])
    @example(['{"id":2,"rect":[0,0,1.5,1],"word":"a"}', "", '{"id":1,"quad":[[0,0],[3,1],[3,2],[0,2]]}'])
    @given(box_lines())
    def test_equals_record_by_record_reader(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("boxes") / "boxes.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_outcome(read_boxes, p) == read_outcome(read_boxes_reference, p)

    def test_no_check_runs(self, tmp_path, monkeypatch):
        spec = SynthSpec(seed=3)
        p = tmp_path / "boxes.jsonl"
        write_boxes(p, [BoxRecord(box=b) for b in gen_document(spec).boxes])
        expected = read_boxes(p)

        def refuse(self):
            raise AssertionError("TextBox check ran")

        monkeypatch.setattr(TextBox, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="check ran"):
            TextBox(id=0, left=0, top=0, right=1, bottom=1)
        assert read_boxes(p) == expected and len(expected) > 1

    def test_truth_from_boxes(self):
        recs = [
            BoxRecord(box=TextBox(id=0, left=0, top=0, right=1, bottom=1, word="w")),
            BoxRecord(box=TextBox(id=1, left=2, top=0, right=3, bottom=1)),
        ]
        assert truth_from_boxes(recs) == {0: "w"}


def read_frames_reference(path):
    """:func:`read_frames` as it was when it checked each box line on its
    own, kept unchanged as an oracle."""
    records = _numbered_records(path)
    header = records[0][1] if records else {}
    if not isinstance(header, dict) or "alphabet" not in header:
        raise FormatError(f"{path}: first line must be an alphabet header")
    try:
        alphabet = Alphabet(from_json_value(tuple[str, ...], header["alphabet"]))
    except (TypeError, InputError) as exc:
        raise FormatError(f"{path}: bad alphabet header: {exc}") from exc
    frames = {}
    for n, rec in records[1:]:
        bid, probs = _fields(rec, f"{path}:{n}", "frame record", box_id=int, frames=None)
        if bid in frames:
            raise FormatError(f"{path}:{n}: duplicate frames for box {bid}")
        try:
            mat = validate_frame_probs(probs, n_columns=alphabet.size)
        except InputError as exc:
            raise FormatError(f"{path}:{n}: {exc}") from exc
        frames[bid] = mat
    return alphabet, frames


def frames_outcome(path):
    """The alphabet and the id, dtype, shape and bytes of each matrix that
    both readers give for ``path``, or the class and message they raise."""
    out = []
    for reader in (read_frames, read_frames_reference):
        try:
            alphabet, frames = reader(path)
        except Exception as exc:  # the class is what is compared
            out.append((type(exc), str(exc)))
            continue
        out.append((alphabet.chars, [(bid, m.dtype, m.shape, m.tobytes()) for bid, m in frames.items()]))
    return out


# one frame record per kind: good (two of them), rows that do not sum to 1,
# a wrong column count, ragged rows, no frames, an integer beyond the float
# range, a bad box id and a missing field
FRAME_LINES = {
    "good": '{{"box_id":{k},"frames":[[0.5,0.25,0.25],[0.0,0.0,1.0]]}}',
    "good2": '{{"box_id":{k},"frames":[[0.125,0.375,0.5]]}}',
    "sum": '{{"box_id":{k},"frames":[[0.9,0.9,0.9]]}}',
    "columns": '{{"box_id":{k},"frames":[[0.5,0.5]]}}',
    "ragged": '{{"box_id":{k},"frames":[[0.5,0.5,0.0],[1.0]]}}',
    "empty": '{{"box_id":{k},"frames":[]}}',
    "huge": '{{"box_id":{k},"frames":[[1' + "0" * 400 + ',0,0]]}}',
    "id": '{{"box_id":"{k}","frames":[[0.5,0.25,0.25]]}}',
    "field": '{{"box":{k}}}',
}


class TestFrames:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(FRAME_LINES)), st.integers(0, 5)), max_size=8))
    @example([("good", 0), ("good", 1), ("sum", 2), ("good", 3), ("good", 1)])
    def test_file_check_equals_line_check(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("frames") / "frames.jsonl"
        body = "".join(FRAME_LINES[kind].format(k=k) + "\n" for kind, k in lines)
        p.write_text('{"alphabet":["a","b"]}\n' + body, encoding="utf-8")
        mine, oracle = frames_outcome(p)
        assert mine == oracle

    def test_bad_frames_before_a_duplicate_id_are_named(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text(
            '{"alphabet":["a"]}\n'
            '{"box_id":0,"frames":[[0.5,0.5]]}\n'
            '{"box_id":1,"frames":[[0.9,0.9]]}\n'
            '{"box_id":2,"frames":[[0.5,0.5]]}\n'
            '{"box_id":0,"frames":[[0.5,0.5]]}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"frames\.jsonl:3: every frame row must sum to 1"):
            read_frames(p)

    @pytest.mark.parametrize("seed", [7, 3, 30])
    def test_arrays_equal_the_line_by_line_check(self, tmp_path, seed):
        spec = SynthSpec(seed=seed, temperature=0.515)
        alpha, frames = gen_frames(gen_document(spec), spec)
        p = tmp_path / "frames.jsonl"
        write_frames(p, alpha, frames)
        mine, oracle = frames_outcome(p)
        assert mine == oracle and len(mine[1]) == len(frames)

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

    @pytest.mark.parametrize("alphabet, message", [
        ('"ab"', "expected a list, not str"),
        ('{"a": 0, "b": 1}', "expected a list, not dict"),
        ('["a", 1]', "expected a str, not int"),
    ], ids=["string", "object", "number"])
    def test_alphabet_must_be_a_list_of_strings(self, tmp_path, alphabet, message):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":' + alphabet + '}\n{"box_id":0,"frames":[[0.5,0.25,0.25]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: bad alphabet header: {message}"):
            read_frames(p)

    def test_wrong_column_count_rejected(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a","b"]}\n{"box_id":0,"frames":[[0.5,0.5]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: expected 3 probability columns"):
            read_frames(p)

    def test_wrong_width_non_stochastic_row_reports_the_width(self, tmp_path):
        p = tmp_path / "frames.jsonl"
        p.write_text('{"alphabet":["a","b"]}\n{"box_id":0,"frames":[[0.9,0.9]]}\n', encoding="utf-8")
        with pytest.raises(FormatError, match=r"frames\.jsonl:2: expected 3 probability columns, got 2"):
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


_OVERLONG = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize("reader, name, text, where", [
    (read_json_file, "x.json", f'{{"a": {_OVERLONG}}}', " is not valid JSON"),
    (read_jsonl, "x.jsonl", f'{{}}\n{{"a": {_OVERLONG}}}\n', ":2: bad JSON line"),
    (read_boxes, "x.jsonl", f'{{"id":0,"rect":[0,0,1,1]}}\n\n{{"id":1,"rect":[0,0,{_OVERLONG},1]}}\n',
     ":3: bad JSON line"),
    (read_frames, "x.jsonl", f'{{"alphabet":["a"]}}\n{{"box_id":{_OVERLONG},"frames":[[0.5,0.5]]}}\n',
     ":2: bad JSON line"),
    (read_corpus, "x.jsonl", f'{{"noisy":"a","clean":{_OVERLONG}}}\n', ":1: bad JSON line"),
    (read_words, "x.jsonl", f'{{"box_id":{_OVERLONG},"word":"a"}}\n', ":1: bad JSON line"),
    (load_params, "x.json", f'{{"beam_width": {_OVERLONG}}}', " is not valid JSON"),
    (load_params, "x.toml", f"beam_width = {_OVERLONG}\n", " is not valid TOML"),
    (load_model, "x.json", f'{{"format": {_OVERLONG}}}', " is not valid JSON"),
    (load_report, "x.json", f'{{"version": {_OVERLONG}}}', " is not valid JSON"),
], ids=["json_file", "jsonl", "boxes", "frames", "corpus", "words", "params_json", "params_toml",
        "model", "report"])
def test_overlong_integer_names_the_file(tmp_path, reader, name, text, where):
    # int() refuses it with a bare ValueError
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(p) + where)}: Exceeds the limit"):
        reader(p)


_DEEP = "[" * 100_000  # nested past the interpreter's recursion limit


@pytest.mark.parametrize("reader, name, text, where", [
    (read_json_file, "x.json", _DEEP, " is not valid JSON"),
    (read_jsonl, "x.jsonl", f"{{}}\n{_DEEP}\n", ":2: bad JSON line"),
    (read_boxes, "x.jsonl", f'{{"id":0,"rect":[0,0,1,1]}}\n\n{{"id":1,"rect":{_DEEP}\n', ":3: bad JSON line"),
    (read_frames, "x.jsonl", f'{{"alphabet":["a"]}}\n{{"box_id":1,"frames":{_DEEP}\n', ":2: bad JSON line"),
    (read_corpus, "x.jsonl", f'{{"noisy":"a","clean":{_DEEP}\n', ":1: bad JSON line"),
    (read_words, "x.jsonl", f"{_DEEP}\n", ":1: bad JSON line"),
    (load_params, "x.json", f'{{"beam_width": {_DEEP}', " is not valid JSON"),
    (load_params, "x.toml", f"beam_width = {_DEEP}\n", " is not valid TOML"),
    (load_model, "x.json", _DEEP, " is not valid JSON"),
    (load_report, "x.json", _DEEP, " is not valid JSON"),
], ids=["json_file", "jsonl", "boxes", "frames", "corpus", "words", "params_json", "params_toml",
        "model", "report"])
def test_deep_nesting_names_the_file(tmp_path, reader, name, text, where):
    # the JSON scanner and tomllib recurse once per level and raise RecursionError
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(p) + where)}: maximum recursion depth exceeded"):
        reader(p)
