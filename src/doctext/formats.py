"""On-disk formats: JSONL box and frame bundles, word rows, corpora,
canonical JSON.

Documents move between tools as two JSONL files: a boxes file (one
detected region per line, axis-aligned or quadrilateral, with optional
ground-truth word) and a frames file (a header line naming the
alphabet, then one per-frame probability matrix per box).  Decoded
words are JSONL word rows, one ``{"box_id", "word"}`` object per box.
Corpora for corrector training are JSONL (noisy, clean) phrase pairs.
Every reader's refusal names the file, and ``path:line`` for a JSONL
record.

Reports and checkpoints are single canonical-JSON documents: keys
sorted, separators fixed, floats carried at full repr precision, one
trailing newline.  Two equal payloads therefore serialize to identical
bytes, which makes reproducibility checks a file compare.
"""

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .ctc import Alphabet, _as_frames, validate_frame_probs
from .errors import FormatError, InputError
from .geometry import Quad
from .layout import TextBox, _trusted_boxes

__all__ = [
    "BoxRecord",
    "canonical_dumps",
    "to_json_value",
    "from_json_value",
    "write_json_file",
    "read_json_file",
    "read_jsonl",
    "write_jsonl",
    "read_boxes",
    "write_boxes",
    "read_frames",
    "write_frames",
    "read_words",
    "write_words",
    "read_corpus",
    "write_corpus",
    "truth_from_boxes",
    "read_truth",
]


def canonical_dumps(payload) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline end.

    NaN and infinities have no JSON spelling, so they are refused.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise FormatError(f"cannot serialize as JSON: {exc}") from exc


def to_json_value(obj):
    """``obj`` as JSON values: a dataclass becomes an object of its
    fields and tuples and lists become lists, recursively; anything
    else is returned as it is."""
    if is_dataclass(obj):
        return {f.name: to_json_value(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_json_value(v) for v in obj]
    return obj


def from_json_value(tp, value):
    """A value of type ``tp`` from JSON values, inverting :func:`to_json_value`.

    A dataclass is built only from an object whose keys are among its
    fields, and a field with a default may be absent (``KeyError``
    otherwise); a tuple converts each item of a list to its first
    element type; ``X | None`` is None or X.  Scalars are taken as JSON typed them: a ``bool`` only
    from true or false, a ``str`` only from a string, an ``int`` from an
    integral number and a ``float`` from any number, but neither from a
    bool.  Anything else raises ``TypeError`` or ``ValueError``.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise TypeError(f"expected an object for {tp.__name__}, not {type(value).__name__}")
        unknown = value.keys() - {f.name for f in fields(tp)}
        if unknown:
            raise TypeError(f"{tp.__name__} has no field {', '.join(map(repr, sorted(unknown)))}")
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = from_json_value(f.type, value[f.name])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f"{tp.__name__} needs {f.name!r}")
        return tp(**kwargs)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, not {type(value).__name__}")
        return tuple(from_json_value(get_args(tp)[0], v) for v in value)
    if isinstance(tp, UnionType):
        if value is None:
            return None
        return from_json_value(get_args(tp)[0], value)
    if tp in (bool, str):
        if not isinstance(value, tp):
            raise TypeError(f"expected a {tp.__name__}, not {type(value).__name__}")
        return value
    if tp not in (int, float):
        raise TypeError(f"cannot read a {tp} from JSON")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    if tp is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, not {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{type(value).__name__} out of float range") from exc


def write_json_file(path, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def _read_text(path) -> str:
    """The UTF-8 text of the file ``path``: ``InputError`` when it cannot
    be read, ``FormatError`` when it is not UTF-8; both name the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json_file(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, or too deep
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


_JSON_WHITESPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode


def _numbered_records(path) -> list[tuple[int, object]]:
    """Each record of a JSONL file with its line number; blank lines count.

    A line holds what ``json.loads`` reads from it.  The scanner reads
    the line between its JSON whitespace, once; a line that it does not
    read to the end (a bad value, a byte-order mark, trailing data) or
    that makes it raise goes to ``json.loads``, whose error names it.
    """
    records = []
    for n, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        text = line.strip(_JSON_WHITESPACE)
        try:
            value, end = _raw_decode(text)
        except (ValueError, RecursionError):
            end = None
        if end != len(text):
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, or too deep
                raise FormatError(f"{path}:{n}: bad JSON line: {exc}") from exc
        records.append((n, value))
    return records


def _fields(rec, where: str, what: str, **types) -> list:
    """The values of the keys of ``types`` in the JSONL record ``rec``,
    each read by :func:`from_json_value` as its type, or as it is for
    type None; anything else is a ``FormatError`` at ``where``."""
    if not isinstance(rec, dict) or not types.keys() <= rec.keys():
        raise FormatError(f"{where}: {what} needs {' and '.join(map(repr, types))}")
    try:
        return [rec[k] if tp is None else from_json_value(tp, rec[k]) for k, tp in types.items()]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: bad {what}: {exc}") from exc


def read_jsonl(path) -> list:
    return [rec for _, rec in _numbered_records(path)]


def write_jsonl(path, records) -> None:
    Path(path).write_text("".join(canonical_dumps(r) for r in records), encoding="utf-8")


@dataclass(frozen=True)
class BoxRecord:
    """A detected region: its axis-aligned box, plus the original quad
    when the detector supplied one."""

    box: TextBox
    quad: Quad | None = None


_NUMBER_TYPES = frozenset((int, float))  # JSON numbers; bool is not among them


def _numbers(values, where: str, what: str) -> list:
    """``values`` if it is a JSON list of numbers, neither bools nor
    strings, and ``FormatError`` otherwise.  It checks types directly,
    which costs a box far less than :func:`from_json_value` does."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise FormatError(f"{where}: malformed geometry: {what} must be a list of numbers")
    return values


def _quad_of(rec: dict, where: str) -> Quad:
    """The quad of a box record that has a 'quad', or ``FormatError``."""
    if type(rec["quad"]) is not list:
        raise FormatError(f"{where}: malformed geometry: 'quad' must be a list of corners")
    coords = [_numbers(c, where, "a 'quad' corner") for c in rec["quad"]]
    try:
        return Quad.from_points(coords)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: malformed geometry: {exc}") from exc
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _bounds(quad: Quad) -> list[float]:
    """The left, top, right and bottom edges of the box around ``quad``."""
    xs = [p.x for p in quad.corners]
    ys = [p.y for p in quad.corners]
    return [min(xs), min(ys), max(xs), max(ys)]


def _box_from_record(rec: dict, where: str) -> BoxRecord:
    """One box record, checked field by field; a refusal names ``where``."""
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
    if has_rect == ("quad" in rec):
        raise FormatError(f"{where}: box record needs exactly one of 'rect' or 'quad'")
    if has_rect:
        quad = None
        try:
            left, top, right, bottom = _numbers(rec["rect"], where, "'rect'")
        except ValueError as exc:  # not four numbers
            raise FormatError(f"{where}: malformed geometry: {exc}") from exc
    else:
        quad = _quad_of(rec, where)
        left, top, right, bottom = _bounds(quad)
    try:
        box = TextBox(id=bid, left=left, top=top, right=right, bottom=bottom, word=word)
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return BoxRecord(box=box, quad=quad)


def _boxes_by_column(recs: list) -> list[BoxRecord] | None:
    """The box records of the parsed lines ``recs``, or None when one of
    them would fail :func:`_box_from_record` or repeat an id.

    Types are checked a column at a time, and the ``TextBox`` checks run
    on one float64 array of every box's edges; each box is then built
    once, from that array's values, without checking it again.
    """
    if not {dict}.issuperset(map(type, recs)):
        return None
    try:
        ids = [rec["id"] for rec in recs]
    except KeyError:
        return None
    if not {int}.issuperset(map(type, ids)):
        ids = [int(i) if type(i) is float and i.is_integer() else i for i in ids]
        if not {int}.issuperset(map(type, ids)):
            return None
    if min(ids, default=0) < 0 or len(set(ids)) != len(ids):
        return None
    words = [rec.get("word") for rec in recs]
    if not {str, type(None)}.issuperset(map(type, words)):
        return None
    # a record without 'rect' has None here, unless it has a 'quad'
    edges = [rec.get("rect") for rec in recs]
    quads: list[Quad | None] = [None] * len(recs)
    for k in [k for k, rec in enumerate(recs) if "quad" in rec]:
        if "rect" in recs[k]:
            return None
        try:
            quads[k] = _quad_of(recs[k], "")
        except FormatError:
            return None
        edges[k] = _bounds(quads[k])
    if not {list}.issuperset(map(type, edges)) or not {4}.issuperset(map(len, edges)):
        return None
    flat = list(chain.from_iterable(edges))
    if not _NUMBER_TYPES.issuperset(map(type, flat)):
        return None
    try:
        box_edges = np.array(flat, dtype=np.float64).reshape(-1, 4)
    except OverflowError:  # an integer beyond the float range, as float() refuses it
        return None
    left, top, right, bottom = box_edges.T
    with np.errstate(over="ignore"):  # as in Python floats, a sum that overflows is inf
        if not (np.isfinite(box_edges).all() and (left < right).all() and (top < bottom).all()
                and (0.5 * (left + right) > left).all()):
            return None
    return list(map(BoxRecord, _trusted_boxes(ids, box_edges.tolist(), words), quads))


def read_boxes(path) -> list[BoxRecord]:
    """Load a boxes JSONL file; ids must be unique (``FormatError``).

    The records are checked column by column and each box is built once
    (:func:`_boxes_by_column`).  When that check fails, the records are
    checked again one by one, to name the first refusal with its
    ``path:line``.
    """
    return _boxes_of(path, _numbered_records(path))


def _boxes_of(path, numbered: list) -> list[BoxRecord]:
    """The box records of the numbered lines of the boxes file ``path``."""
    records = _boxes_by_column([rec for _, rec in numbered])
    if records is not None:
        return records
    seen: set[int] = set()
    for n, rec in numbered:
        record = _box_from_record(rec, f"{path}:{n}")
        if record.box.id in seen:
            raise FormatError(f"{path}:{n}: duplicate box id {record.box.id}")
        seen.add(record.box.id)
    raise AssertionError(f"{path}: the column check refused box records that the record check accepts")


def write_boxes(path, records) -> None:
    rows = []
    for r in records:
        row: dict = {"id": r.box.id}
        if r.quad is not None:
            row["quad"] = [[p.x, p.y] for p in r.quad.corners]
        else:
            row["rect"] = [r.box.left, r.box.top, r.box.right, r.box.bottom]
        if r.box.word is not None:
            row["word"] = r.box.word
        rows.append(row)
    write_jsonl(path, rows)


def read_frames(path) -> tuple[Alphabet, dict[int, np.ndarray]]:
    """Load a frames JSONL file: alphabet header, then one record per box.

    Every frame matrix must have alphabet-size + 1 columns of
    row-stochastic probabilities, and box ids must be unique integers,
    as :func:`from_json_value` types them; anything else raises
    ``FormatError`` naming ``path:line``.  The frames of the whole file
    are checked in one call of the frame rule; when anything is refused,
    the records are checked again one by one, to name the first refusal.
    """
    records = _numbered_records(path)
    header = records[0][1] if records else {}
    if not isinstance(header, dict) or "alphabet" not in header:
        raise FormatError(f"{path}: first line must be an alphabet header")
    try:
        alphabet = Alphabet(from_json_value(tuple[str, ...], header["alphabet"]))
    except (TypeError, InputError) as exc:
        raise FormatError(f"{path}: bad alphabet header: {exc}") from exc
    numbered = records[1:]
    try:
        fields = [_fields(rec, f"{path}:{n}", "frame record", box_id=int, frames=None) for n, rec in numbered]
        mats = _as_frames([probs for _, probs in fields], n_columns=alphabet.size)
        frames = {bid: mat for (bid, _), mat in zip(fields, mats)}
        if len(frames) == len(mats) and all(len(mat) for mat in mats):
            return alphabet, frames
    except (InputError, OverflowError):  # OverflowError: an integer beyond the float range
        pass
    frames = {}
    for n, rec in numbered:
        bid, probs = _fields(rec, f"{path}:{n}", "frame record", box_id=int, frames=None)
        if bid in frames:
            raise FormatError(f"{path}:{n}: duplicate frames for box {bid}")
        try:
            mat = validate_frame_probs(probs, n_columns=alphabet.size)
        except InputError as exc:
            raise FormatError(f"{path}:{n}: {exc}") from exc
        frames[bid] = mat
    raise AssertionError(f"{path}: the file's frame check refused frame records that the record check accepts")


def write_frames(path, alphabet: Alphabet, frames_by_id: dict[int, np.ndarray]) -> None:
    rows: list[dict] = [{"alphabet": list(alphabet.chars)}]
    for bid in sorted(frames_by_id):
        rows.append({"box_id": int(bid), "frames": np.asarray(frames_by_id[bid]).tolist()})
    write_jsonl(path, rows)


def read_words(path) -> dict[int, str]:
    """Load a word-rows JSONL file: one ``{"box_id", "word"}`` object per box.

    ``box_id`` must be an integer and ``word`` a string, as
    :func:`from_json_value` types them, and box ids must be unique;
    anything else raises ``FormatError`` naming ``path:line``.
    """
    return _words_of(path, _numbered_records(path))


def _words_of(path, numbered: list) -> dict[int, str]:
    """The words by box id of the numbered lines of the word-rows file ``path``."""
    words: dict[int, str] = {}
    for n, rec in numbered:
        bid, word = _fields(rec, f"{path}:{n}", "word row", box_id=int, word=str)
        if bid in words:
            raise FormatError(f"{path}:{n}: duplicate box id {bid}")
        words[bid] = word
    return words


def write_words(path, words: dict[int, str]) -> None:
    write_jsonl(path, [{"box_id": int(i), "word": words[i]} for i in sorted(words)])


def read_corpus(path) -> list[tuple[str, str]]:
    """Load a (noisy, clean) phrase-pair corpus."""
    pairs = []
    for n, rec in _numbered_records(path):
        pairs.append(tuple(_fields(rec, f"{path}:{n}", "corpus record", noisy=str, clean=str)))
    if not pairs:
        raise InputError(f"{path}: corpus is empty")
    return pairs


def write_corpus(path, pairs) -> None:
    write_jsonl(path, [{"noisy": n, "clean": c} for n, c in pairs])


def truth_from_boxes(records) -> dict[int, str]:
    """Ground-truth words keyed by box id, for boxes that carry one."""
    return {r.box.id: r.box.word for r in records if r.box.word is not None}


def read_truth(path) -> dict[int, str]:
    """Ground-truth words by box id from a boxes file or a word-rows file,
    read once: it is a boxes file when its first record has a ``rect`` or
    a ``quad``.  Refusals are those of :func:`read_boxes` or
    :func:`read_words`, naming ``path:line``."""
    numbered = _numbered_records(path)
    first = numbered[0][1] if numbered else None
    if isinstance(first, dict) and ("rect" in first or "quad" in first):
        return truth_from_boxes(_boxes_of(path, numbered))
    return _words_of(path, numbered)
