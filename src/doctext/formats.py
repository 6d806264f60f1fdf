"""On-disk formats: JSONL box and frame bundles, word rows, corpora,
canonical JSON.

Documents move between tools as two JSONL files: a boxes file (one
detected region per line, axis-aligned or quadrilateral, with optional
ground-truth word) and a frames file (a header line naming the
alphabet, then one per-frame probability matrix per box).  Decoded
words are JSONL word rows, one ``{"box_id", "word"}`` object per box.
Corpora for corrector training are JSONL (noisy, clean) phrase pairs.
Every reader's refusal names the file, and ``path:line`` for a JSONL
record.  A boxes file is read in one loop that checks each record once,
in line order; ``TextBox`` states the rule for a box's values.

Reports and checkpoints are single canonical-JSON documents: keys
sorted, separators fixed, floats carried at full repr precision, one
trailing newline.  Two equal payloads therefore serialize to identical
bytes, which makes reproducibility checks a file compare.
"""

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .ctc import Alphabet, _as_frames
from .errors import FormatError, InputError
from .geometry import Quad
from .layout import TextBox

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
_INF = float("inf")
_set_field = object.__setattr__


def _numbers(values, where: str, what: str) -> list:
    """``values`` if it is a JSON list of numbers, neither bools nor
    strings, and ``FormatError`` otherwise.  It checks types directly,
    which costs a box far less than :func:`from_json_value` does."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        raise FormatError(f"{where}: malformed geometry: {what} must be a list of numbers")
    return values


def _box_from_record(rec, path, n: int) -> BoxRecord:
    """The box record on line ``n`` of the boxes file ``path``.

    A rect record with an ``int`` id, a string or no word and four JSON
    numbers for a finite, ordered box whose centre lies right of its
    left edge passes one fast test, and its box is built without the
    check of ``TextBox``.  Any other record is checked field by field
    and its box built by ``TextBox``, which states the box rule; a
    refusal names ``path:n``.
    """
    if type(rec) is dict and "quad" not in rec:
        bid, rect, word = rec.get("id"), rec.get("rect"), rec.get("word")
        if (type(bid) is int and bid >= 0 and (word is None or type(word) is str)
                and type(rect) is list and len(rect) == 4 and _NUMBER_TYPES.issuperset(map(type, rect))):
            try:
                left, top, right, bottom = map(float, rect)
            except OverflowError:  # an integer beyond the float range, which TextBox names
                pass
            else:
                # NaN fails every comparison; a left edge of -inf fails the last
                if -_INF < top < bottom < _INF > right > left < 0.5 * (left + right):
                    # field by field, as the frozen dataclass's __init__ does: writing box.__dict__
                    # gives each box a dict of its own, which slowed layout-dense (ROADMAP, Settled)
                    box = object.__new__(TextBox)
                    _set_field(box, "id", bid)
                    _set_field(box, "left", left)
                    _set_field(box, "top", top)
                    _set_field(box, "right", right)
                    _set_field(box, "bottom", bottom)
                    _set_field(box, "word", word)
                    return BoxRecord(box)
    where = f"{path}:{n}"
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
        coords = _numbers(rec["rect"], where, "'rect'")
    elif type(rec["quad"]) is list:
        coords = [_numbers(c, where, "a 'quad' corner") for c in rec["quad"]]
    else:
        raise FormatError(f"{where}: malformed geometry: 'quad' must be a list of corners")
    quad = None
    try:
        if has_rect:
            left, top, right, bottom = coords
        else:
            quad = Quad.from_points(coords)
            xs, ys = [p.x for p in quad.corners], [p.y for p in quad.corners]
            left, top, right, bottom = min(xs), min(ys), max(xs), max(ys)
        box = TextBox(id=bid, left=left, top=top, right=right, bottom=bottom, word=word)
    except (TypeError, ValueError) as exc:  # not four numbers, or not four corners of two
        raise FormatError(f"{where}: malformed geometry: {exc}") from exc
    except InputError as exc:  # the rule of Quad or of TextBox
        raise FormatError(f"{where}: {exc}") from exc
    return BoxRecord(box=box, quad=quad)


def read_boxes(path) -> list[BoxRecord]:
    """Load a boxes JSONL file; ids must be unique (``FormatError``).

    Each record is checked once, in line order, by
    :func:`_box_from_record`, so the first refusal names its
    ``path:line``.
    """
    return _boxes_of(path, _numbered_records(path))


def _boxes_of(path, numbered: list) -> list[BoxRecord]:
    """The box records of the numbered lines of the boxes file ``path``:
    each record checked and its box built, then its id tested against
    the ids of the lines before it."""
    records, seen = [], set()
    for n, rec in numbered:
        record = _box_from_record(rec, path, n)
        bid = record.box.id
        if bid in seen:
            raise FormatError(f"{path}:{n}: duplicate box id {bid}")
        seen.add(bid)
        records.append(record)
    return records


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

    Every frame matrix must pass :func:`doctext.ctc.validate_frame_probs`
    for the alphabet, and box ids must be unique integers, as
    :func:`from_json_value` types them; anything else raises
    ``FormatError`` naming ``path:line``.  The records are read in one
    loop up to the first bad field or duplicate id, and the frames
    before it are checked in one call of the frame rule, so the first
    refusal in line order is the one raised.
    """
    records = _numbered_records(path)
    header = records[0][1] if records else {}
    if not isinstance(header, dict) or "alphabet" not in header:
        raise FormatError(f"{path}: first line must be an alphabet header")
    try:
        alphabet = Alphabet(from_json_value(tuple[str, ...], header["alphabet"]))
    except (TypeError, InputError) as exc:
        raise FormatError(f"{path}: bad alphabet header: {exc}") from exc
    probs_by_id, lines, refusal = {}, [], None
    for n, rec in records[1:]:
        try:
            bid, probs = _fields(rec, f"{path}:{n}", "frame record", box_id=int, frames=None)
        except FormatError as exc:
            refusal = exc
            break
        if bid in probs_by_id:
            refusal = FormatError(f"{path}:{n}: duplicate frames for box {bid}")
            break
        probs_by_id[bid] = probs
        lines.append(n)
    try:
        mats = _as_frames(probs_by_id.values(), n_columns=alphabet.size, nonempty=True)
    except InputError as exc:
        raise FormatError(f"{path}:{lines[exc.index]}: {exc}") from exc
    if refusal is not None:
        raise refusal
    return alphabet, dict(zip(probs_by_id, mats))


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
