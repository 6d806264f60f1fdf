"""End-to-end document processing and accuracy reporting.

One document comes in as detected boxes plus per-box recognition
frames (and optionally the page image).  The pipeline rectifies quads
when pixels are available, groups boxes and orders them for reading,
decodes every box's frames, joins each group into a phrase, runs the
spelling corrector over all the phrases of the document in one batch,
and maps each group's corrected words back onto its boxes.  When ground
truth is present the result carries word accuracy before and after
correction.

Corrected text realigns to boxes only when the corrector preserved the
word count; otherwise the group keeps its baseline words and is
flagged, so correction can never lose a box.
"""

import math
import unicodedata
from dataclasses import dataclass, field

import numpy as np

# ``beam_decode`` is not called here; perfbench/tracing.py looks it up in this module
from .ctc import Alphabet, _as_frames, _beam_search, beam_decode  # noqa: F401
from .errors import FormatError, InputError, VersionError, check_int
from .formats import BoxRecord, from_json_value, read_json_file, to_json_value, truth_from_boxes, write_json_file
from .geometry import GrayImage, Quad, _crop_maps, _rect_corners, rectify
from .layout import DocumentLayout, LayoutParams, arrange_document
from .corrector.model import CorrectorModel
# ``correct`` is not called here; perfbench/tracing.py looks it up in this module
from .corrector.network import correct, correct_batch  # noqa: F401

__all__ = [
    "PipelineParams",
    "GroupReport",
    "EvalReport",
    "RunResult",
    "decode_words",
    "evaluate",
    "rectify_boxes",
    "format_percent",
    "run",
    "save_report",
    "load_report",
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "MAX_CROP_PIXELS",
]

REPORT_FORMAT = "doctext-report"
REPORT_VERSION = 1
MAX_CROP_PIXELS = 2**24  # the most pixels one rectified crop may hold (128 MiB of float64)


@dataclass(frozen=True)
class PipelineParams:
    """Pipeline knobs: layout thresholds, decoder beam, corrector beam,
    and the height of rectified crops."""

    layout: LayoutParams = field(default_factory=LayoutParams)
    beam_width: int = 8
    correct_beam: int = 1
    rect_height: int = 32

    def __post_init__(self):
        if not isinstance(self.layout, LayoutParams):
            raise InputError(f"layout must be a LayoutParams, not {self.layout!r}")
        for name in ("beam_width", "correct_beam", "rect_height"):
            check_int(getattr(self, name), name, 1)


@dataclass(frozen=True)
class GroupReport:
    label: int
    box_ids: tuple[int, ...]
    baseline_text: str
    corrected_text: str
    realigned: bool


@dataclass(frozen=True)
class EvalReport:
    """Document-level outcome: texts per group and word-accuracy counts.

    ``n_truth`` counts boxes carrying ground truth; accuracy fields are
    None when there is no truth or no corrector ran.
    """

    n_boxes: int
    n_readable: int
    n_unreadable: int
    n_truth: int
    baseline_correct: int | None
    corrected_correct: int | None
    groups: tuple[GroupReport, ...]
    notes: tuple[str, ...] = ()

    @property
    def baseline_accuracy(self) -> float | None:
        if self.baseline_correct is None or self.n_truth == 0:
            return None
        return self.baseline_correct / self.n_truth

    @property
    def corrected_accuracy(self) -> float | None:
        if self.corrected_correct is None or self.n_truth == 0:
            return None
        return self.corrected_correct / self.n_truth

    @property
    def delta(self) -> float | None:
        b, c = self.baseline_accuracy, self.corrected_accuracy
        if b is None or c is None:
            return None
        return c - b

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            **to_json_value(self),
            "baseline_accuracy": self.baseline_accuracy,
            "corrected_accuracy": self.corrected_accuracy,
            "delta": self.delta,
        }

    def summary(self) -> str:
        lines = [
            f"boxes: {self.n_boxes} ({self.n_readable} readable, "
            f"{self.n_unreadable} unreadable)",
        ]
        if self.baseline_accuracy is not None:
            lines.append(
                f"baseline accuracy: {format_percent(self.baseline_accuracy)} "
                f"({self.baseline_correct}/{self.n_truth})"
            )
        if self.corrected_accuracy is not None:
            lines.append(
                f"corrected accuracy: {format_percent(self.corrected_accuracy)} "
                f"({self.corrected_correct}/{self.n_truth})"
            )
        if self.delta is not None:
            lines.append(f"delta: {self.delta * 100.0:+.2f}pp")
        for g in self.groups:
            lines.append(f"group {g.label}: {g.baseline_text!r} -> {g.corrected_text!r}")
        lines.extend(self.notes)
        return "\n".join(lines)


def format_percent(fraction: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. 90.04%."""
    return f"{fraction * 100.0:.2f}%"


@dataclass
class RunResult:
    report: EvalReport
    layout: DocumentLayout
    baseline_by_id: dict[int, str]
    corrected_by_id: dict[int, str]
    crops: dict[int, GrayImage]


def rectify_boxes(image: GrayImage, records: list[BoxRecord], height: int) -> dict[int, GrayImage]:
    """Each box of ``records`` rectified out of ``image`` from its own ``quad``, else its rectangle,
    by box id: ``height`` pixels tall, keeping its width to height ratio, rounded, at least 1 wide,
    and at most ``MAX_CROP_PIXELS`` pixels in all.

    The maps of all boxes onto the page come from one batched solve (:func:`_crop_maps`), and each
    crop is one ``rectify`` call given its map.  When that refuses a box, the boxes go one by one
    from their quads instead, so the first box refused in record order raises what it raises alone.
    """
    if not records:
        return {}
    check_int(height, "destination height", 1)
    try:
        widths = [_crop_width(rec.box, height) for rec in records]
        maps = _crop_maps(np.array([_corners(rec) for rec in records]), widths, height)
    except InputError:  # a bad crop width
        maps = None
    if maps is None:
        # lazily, so that each box's quad and width are made, and may be
        # refused, only after the crops of the boxes before it
        sources = ((rec.quad if rec.quad is not None else Quad.from_points(_corners(rec)),
                    _crop_width(rec.box, height)) for rec in records)
    else:
        sources = zip(maps, widths)
    return {rec.box.id: rectify(image, src, width, height) for rec, (src, width) in zip(records, sources)}


def _corners(rec: BoxRecord) -> list[tuple]:
    """The corners a box is rectified from: its own quad's, else its rectangle's."""
    if rec.quad is not None:
        return [(p.x, p.y) for p in rec.quad.corners]
    b = rec.box
    return _rect_corners(b.left, b.top, b.right, b.bottom)


def _crop_width(box, height: int) -> int:
    """The width of ``box``'s crop ``height`` pixels tall: its width to height ratio kept,
    rounded, at least 1; ``InputError`` naming the box when that width is not finite or the
    crop would hold more than ``MAX_CROP_PIXELS`` pixels, so before anything is allocated."""
    width = box.width / box.height * height
    if not math.isfinite(width):  # inf or NaN, which round() cannot take
        raise InputError(f"box {box.id} has no finite crop width at height {height}")
    width = max(1, round(width))
    if width * height > MAX_CROP_PIXELS:
        raise InputError(
            f"box {box.id} crop of {width} x {height} pixels is over the {MAX_CROP_PIXELS} pixel limit")
    return width


def decode_words(
    alphabet: Alphabet, frames_by_id: dict, beam_width: int = PipelineParams.beam_width
) -> dict[int, str]:
    """Beam-decode every box's frames into a word, all boxes in one batch.

    Every frame matrix must hold one distribution per row over the
    alphabet plus blank, as :func:`doctext.ctc.validate_frame_probs`
    checks; anything else raises ``InputError`` naming the first bad
    box, ``frames of box N``, with the message of that check.  The
    frames are checked once, by one call of the frame rule, before the
    beam width.
    """
    try:
        mats = _as_frames(frames_by_id.values(), n_columns=alphabet.size, nonempty=True)
    except InputError as exc:
        raise InputError(f"frames of box {list(frames_by_id)[exc.index]}: {exc}") from exc
    check_int(beam_width, "beam width", 1)
    labels = _beam_search(mats, beam_width)
    return {int(bid): alphabet.decode(label) for bid, label in zip(frames_by_id, labels)}


def _norm(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def evaluate(pred: dict[int, str], truth: dict[int, str]) -> float:
    """Exact-match word accuracy over aligned box ids.

    Comparison is case-sensitive on NFC-normalized text.  The id sets
    must match; an empty truth set is an error.
    """
    if not truth:
        raise InputError("cannot evaluate against an empty truth set")
    if set(pred) != set(truth):
        raise InputError("prediction and truth box ids do not align")
    return _count_matches(pred, truth) / len(truth)


def _count_matches(pred: dict[int, str], truth: dict[int, str]) -> int:
    return sum(1 for i in truth if _norm(pred.get(i, "")) == _norm(truth[i]))


def run(
    records: list[BoxRecord],
    alphabet: Alphabet,
    frames_by_id: dict,
    model: CorrectorModel | None = None,
    params: PipelineParams | None = None,
    image: GrayImage | None = None,
) -> RunResult:
    """Process one document end to end.

    Every input box appears in the result exactly once: boxes without
    frames are reported as unreadable and keep empty text, the rest are
    decoded, grouped, ordered, and (when a corrector is given) spell
    corrected, the phrases of all groups in one batch.  Box ids present
    in the frames but not among the boxes are an error.

    When ``image`` is given, every box is rectified into an axis-aligned
    crop at ``params.rect_height`` by :func:`rectify_boxes`; recognition
    still consumes the supplied frames, the crops are returned for inspection.
    """
    params = params or PipelineParams()
    boxes = [r.box for r in records]
    if not boxes:
        raise InputError("document has no boxes")
    ids = {b.id for b in boxes}
    stray = set(frames_by_id) - ids
    if stray:
        raise InputError(f"frames reference unknown box ids: {sorted(stray)}")

    notes: list[str] = []
    crops: dict[int, GrayImage] = {}
    if image is not None:
        crops = rectify_boxes(image, records, params.rect_height)
        notes.append(f"rectified {len(crops)} boxes")
    else:
        notes.append("rectification skipped: no page image supplied")

    layout = arrange_document(boxes, params.layout)
    baseline_by_id = decode_words(alphabet, frames_by_id, params.beam_width)
    n_unreadable = len(ids - set(frames_by_id))
    if n_unreadable:
        notes.append(f"{n_unreadable} boxes had no frames and were skipped by decoding")

    corrected_by_id = dict(baseline_by_id)
    # each group's boxes that decoded to a word, in reading order; the
    # groups go in label order
    present = {
        label: [i for i in order if baseline_by_id.get(i)] for label, order in sorted(layout.order.items())
    }
    phrases = {label: " ".join(baseline_by_id[i] for i in ids) for label, ids in present.items()}
    results = {}
    if model is not None:
        batch = [label for label, phrase in phrases.items() if phrase]
        corrected = correct_batch(model, [phrases[label] for label in batch], params.correct_beam)
        results = dict(zip(batch, corrected))
    groups: list[GroupReport] = []
    for label, phrase in phrases.items():
        corrected_text = phrase
        realigned = False
        result = results.get(label)
        if result is not None:
            corrected_text = result.text
            out_words = corrected_text.split()
            # map words back onto boxes only when the count is preserved;
            # boxes that decoded to nothing never reached the corrector
            if len(out_words) == len(present[label]):
                corrected_by_id.update(zip(present[label], out_words))
                realigned = True
            if result.hit_cap:
                notes.append(f"group {label}: correction hit the output length cap")
            if result.degraded:
                notes.append(f"group {label}: input characters unknown to the corrector")
        groups.append(
            GroupReport(
                label=label,
                box_ids=tuple(layout.order[label]),
                baseline_text=phrase,
                corrected_text=corrected_text,
                realigned=realigned,
            )
        )
    if model is None:
        notes.append("correction skipped: no corrector model supplied")

    truth = truth_from_boxes(records)
    baseline_correct = None
    corrected_correct = None
    if truth:
        baseline_correct = _count_matches(baseline_by_id, truth)
        if model is not None:
            corrected_correct = _count_matches(corrected_by_id, truth)

    report = EvalReport(
        n_boxes=len(boxes),
        n_readable=len(frames_by_id),
        n_unreadable=n_unreadable,
        n_truth=len(truth),
        baseline_correct=baseline_correct,
        corrected_correct=corrected_correct,
        groups=tuple(groups),
        notes=tuple(notes),
    )
    return RunResult(
        report=report,
        layout=layout,
        baseline_by_id=baseline_by_id,
        corrected_by_id=corrected_by_id,
        crops=crops,
    )


def save_report(report: EvalReport, path) -> None:
    """Write a report as canonical JSON; equal reports give equal bytes."""
    write_json_file(path, report.to_dict())


def load_report(path) -> EvalReport:
    """Read a report written by :func:`save_report`.

    Each field of :class:`EvalReport` and :class:`GroupReport` is
    converted to its annotated type by
    :func:`doctext.formats.from_json_value`.  A missing field, a key
    that is neither a field nor one that :meth:`EvalReport.to_dict`
    adds, a value that does not convert or a file of another format
    raises ``FormatError``; another version raises ``VersionError``.
    """
    payload = read_json_file(path)
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise FormatError(f"{path} is not a report file")
    if payload.get("version") != REPORT_VERSION:
        raise VersionError(
            f"{path}: unsupported report version {payload.get('version')!r}, "
            f"expected {REPORT_VERSION}"
        )
    # the keys that to_dict adds to the fields
    derived = ("format", "version", "baseline_accuracy", "corrected_accuracy", "delta")
    try:
        return from_json_value(EvalReport, {k: v for k, v in payload.items() if k not in derived})
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed report {path}: {exc}") from exc
