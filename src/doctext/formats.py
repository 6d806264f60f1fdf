"""On-disk formats: JSONL box and frame bundles, corpora, canonical JSON.

Documents move between tools as two JSONL files: a boxes file (one
detected region per line, axis-aligned or quadrilateral, with optional
ground-truth word) and a frames file (a header line naming the
alphabet, then one per-frame probability matrix per box).  Corpora for
corrector training are JSONL (noisy, clean) phrase pairs.

Reports and checkpoints are single canonical-JSON documents: keys
sorted, separators fixed, floats carried at full repr precision, one
trailing newline.  Two equal payloads therefore serialize to identical
bytes, which makes reproducibility checks a file compare.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ctc import Alphabet, validate_frame_probs
from .errors import FormatError, InputError
from .geometry import Quad
from .layout import TextBox

__all__ = [
    "BoxRecord",
    "canonical_dumps",
    "write_json_file",
    "read_json_file",
    "read_jsonl",
    "write_jsonl",
    "read_boxes",
    "write_boxes",
    "read_frames",
    "write_frames",
    "read_corpus",
    "write_corpus",
    "truth_from_boxes",
]


def canonical_dumps(payload) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline end.

    NaN and infinities have no JSON spelling, so they are refused.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        raise FormatError(f"cannot serialize as JSON: {exc}") from exc


def write_json_file(path, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def read_json_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _numbered_records(path) -> list[tuple[int, object]]:
    """Each record of a JSONL file with its line number; blank lines count."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    records = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append((n, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{n}: bad JSON line: {exc}") from exc
    return records


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


def _box_from_record(rec: dict, where: str) -> BoxRecord:
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: box record must be an object")
    if "id" not in rec:
        raise FormatError(f"{where}: box record needs an 'id'")
    try:
        bid = int(rec["id"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: box id must be an integer") from exc
    word = rec.get("word")
    if word is not None and not isinstance(word, str):
        raise FormatError(f"{where}: 'word' must be a string")
    has_rect = "rect" in rec
    has_quad = "quad" in rec
    if has_rect == has_quad:
        raise FormatError(f"{where}: box record needs exactly one of 'rect' or 'quad'")
    try:
        if has_rect:
            left, top, right, bottom = (float(v) for v in rec["rect"])
            quad = None
        else:
            quad = Quad.from_points(rec["quad"])
            xs = [p.x for p in quad.corners]
            ys = [p.y for p in quad.corners]
            left, top, right, bottom = min(xs), min(ys), max(xs), max(ys)
        box = TextBox(id=bid, left=left, top=top, right=right, bottom=bottom, word=word)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: malformed geometry: {exc}") from exc
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return BoxRecord(box=box, quad=quad)


def read_boxes(path) -> list[BoxRecord]:
    """Load a boxes JSONL file; ids must be unique (``FormatError``)."""
    records = []
    seen: set[int] = set()
    for n, rec in _numbered_records(path):
        record = _box_from_record(rec, f"{path}:{n}")
        if record.box.id in seen:
            raise FormatError(f"{path}:{n}: duplicate box id {record.box.id}")
        seen.add(record.box.id)
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

    Every frame matrix must have alphabet-size + 1 columns of
    row-stochastic probabilities, and box ids must be unique; anything
    else raises ``FormatError`` naming ``path:line``.
    """
    records = _numbered_records(path)
    header = records[0][1] if records else {}
    if not isinstance(header, dict) or "alphabet" not in header:
        raise FormatError(f"{path}: first line must be an alphabet header")
    try:
        alphabet = Alphabet(tuple(header["alphabet"]))
    except (TypeError, InputError) as exc:
        raise FormatError(f"{path}: bad alphabet header: {exc}") from exc
    frames: dict[int, np.ndarray] = {}
    for n, rec in records[1:]:
        if not isinstance(rec, dict) or "box_id" not in rec or "frames" not in rec:
            raise FormatError(f"{path}:{n}: frame record needs 'box_id' and 'frames'")
        try:
            bid = int(rec["box_id"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{n}: box_id must be an integer") from exc
        if bid in frames:
            raise FormatError(f"{path}:{n}: duplicate frames for box {bid}")
        try:
            mat = validate_frame_probs(rec["frames"], n_columns=alphabet.size)
        except InputError as exc:
            raise FormatError(f"{path}:{n}: {exc}") from exc
        frames[bid] = mat
    return alphabet, frames


def write_frames(path, alphabet: Alphabet, frames_by_id: dict[int, np.ndarray]) -> None:
    rows: list[dict] = [{"alphabet": list(alphabet.chars)}]
    for bid in sorted(frames_by_id):
        rows.append({"box_id": int(bid), "frames": np.asarray(frames_by_id[bid]).tolist()})
    write_jsonl(path, rows)


def read_corpus(path) -> list[tuple[str, str]]:
    """Load a (noisy, clean) phrase-pair corpus."""
    pairs = []
    for n, rec in _numbered_records(path):
        if not isinstance(rec, dict) or "noisy" not in rec or "clean" not in rec:
            raise FormatError(f"{path}:{n}: corpus record needs 'noisy' and 'clean'")
        noisy, clean = rec["noisy"], rec["clean"]
        if not isinstance(noisy, str) or not isinstance(clean, str):
            raise FormatError(f"{path}:{n}: corpus fields must be strings")
        pairs.append((noisy, clean))
    if not pairs:
        raise InputError(f"{path}: corpus is empty")
    return pairs


def write_corpus(path, pairs) -> None:
    write_jsonl(path, [{"noisy": n, "clean": c} for n, c in pairs])


def truth_from_boxes(records) -> dict[int, str]:
    """Ground-truth words keyed by box id, for boxes that carry one."""
    return {r.box.id: r.box.word for r in records if r.box.word is not None}
