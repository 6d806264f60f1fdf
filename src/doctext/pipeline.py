"""End-to-end document processing and accuracy reporting.

One document comes in as detected boxes plus per-box recognition
frames (and optionally the page image).  The pipeline rectifies quads
when pixels are available, groups boxes and orders them for reading,
decodes every box's frames, joins each group into a phrase, runs the
spelling corrector over the phrase, and maps corrected words back onto
boxes.  When ground truth is present the result carries word accuracy
before and after correction.

Corrected text realigns to boxes only when the corrector preserved the
word count; otherwise the group keeps its baseline words and is
flagged, so correction can never lose a box.
"""

import unicodedata
from dataclasses import dataclass, field

from .ctc import Alphabet, beam_decode, validate_frame_probs
from .errors import FormatError, InputError, VersionError
from .formats import BoxRecord, read_json_file, write_json_file
from .geometry import GrayImage, crop_region, rectify
from .layout import DocumentLayout, LayoutParams, arrange_document
from .corrector.model import CorrectorModel
from .corrector.network import correct

__all__ = [
    "PipelineParams",
    "GroupReport",
    "EvalReport",
    "RunResult",
    "decode_words",
    "evaluate",
    "format_percent",
    "run",
    "save_report",
    "load_report",
    "REPORT_FORMAT",
    "REPORT_VERSION",
]

REPORT_FORMAT = "doctext-report"
REPORT_VERSION = 1


@dataclass(frozen=True)
class PipelineParams:
    """Pipeline knobs: layout thresholds, decoder beam, corrector beam,
    and the height of rectified crops."""

    layout: LayoutParams = field(default_factory=LayoutParams)
    beam_width: int = 8
    correct_beam: int = 1
    rect_height: int = 32

    def __post_init__(self):
        if self.beam_width < 1 or self.correct_beam < 1:
            raise InputError("beam widths must be >= 1")
        if self.rect_height < 1:
            raise InputError("rect_height must be >= 1")


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
            "n_boxes": self.n_boxes,
            "n_readable": self.n_readable,
            "n_unreadable": self.n_unreadable,
            "n_truth": self.n_truth,
            "baseline_correct": self.baseline_correct,
            "corrected_correct": self.corrected_correct,
            "baseline_accuracy": self.baseline_accuracy,
            "corrected_accuracy": self.corrected_accuracy,
            "delta": self.delta,
            "groups": [
                {
                    "label": g.label,
                    "box_ids": list(g.box_ids),
                    "baseline_text": g.baseline_text,
                    "corrected_text": g.corrected_text,
                    "realigned": g.realigned,
                }
                for g in self.groups
            ],
            "notes": list(self.notes),
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


def decode_words(alphabet: Alphabet, frames_by_id: dict, beam_width: int = 8) -> dict[int, str]:
    """Beam-decode every box's frames into a word.

    Every frame matrix must hold one distribution per row over the
    alphabet plus blank, as :func:`doctext.ctc.validate_frame_probs`
    checks; anything else raises ``InputError``.
    """
    words = {}
    for bid, frames in frames_by_id.items():
        try:
            mat = validate_frame_probs(frames, n_columns=alphabet.size)
        except InputError as exc:
            raise InputError(f"frames of box {bid}: {exc}") from exc
        words[int(bid)] = alphabet.decode(beam_decode(mat, beam_width))
    return words


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
    hits = sum(1 for i in truth if _norm(pred[i]) == _norm(truth[i]))
    return hits / len(truth)


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
    corrected per group.  Box ids present in the frames but not among
    the boxes are an error.

    When ``image`` is given, quad boxes are rectified into axis-aligned
    crops at ``params.rect_height``; recognition still consumes the
    supplied frames, the crops are returned for inspection.
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
        for rec in records:
            b = rec.box
            rect = (b.left, b.top, b.right, b.bottom)
            crops[b.id] = rectify(image, *crop_region(rec.quad, rect, params.rect_height))
        notes.append(f"rectified {len(crops)} boxes")
    else:
        notes.append("rectification skipped: no page image supplied")

    layout = arrange_document(boxes, params.layout)
    baseline_by_id = decode_words(alphabet, frames_by_id, params.beam_width)
    n_unreadable = len(ids - set(frames_by_id))
    if n_unreadable:
        notes.append(f"{n_unreadable} boxes had no frames and were skipped by decoding")

    corrected_by_id = dict(baseline_by_id)
    groups: list[GroupReport] = []
    for label in sorted(layout.order):
        order = layout.order[label]
        readable = [i for i in order if i in baseline_by_id]
        words = [baseline_by_id[i] for i in readable]
        present = [w for w in words if w]
        baseline_text = " ".join(present)
        corrected_text = baseline_text
        realigned = False
        if model is not None and baseline_text:
            result = correct(model, baseline_text, beam_width=params.correct_beam)
            corrected_text = result.text
            out_words = corrected_text.split()
            # map words back onto boxes only when the count is preserved,
            # counting the empty decodes the corrector never saw
            if len(out_words) == len(present):
                it = iter(out_words)
                for i in readable:
                    if baseline_by_id[i]:
                        corrected_by_id[i] = next(it)
                realigned = True
            if result.hit_cap:
                notes.append(f"group {label}: correction hit the output length cap")
            if result.degraded:
                notes.append(f"group {label}: input characters unknown to the corrector")
        groups.append(
            GroupReport(
                label=label,
                box_ids=tuple(order),
                baseline_text=baseline_text,
                corrected_text=corrected_text,
                realigned=realigned,
            )
        )
    if model is None:
        notes.append("correction skipped: no corrector model supplied")

    truth = {b.id: b.word for b in boxes if b.word is not None}
    baseline_correct = None
    corrected_correct = None
    if truth:
        base_pred = {i: baseline_by_id.get(i, "") for i in truth}
        baseline_correct = _count_matches(base_pred, truth)
        if model is not None:
            corr_pred = {i: corrected_by_id.get(i, "") for i in truth}
            corrected_correct = _count_matches(corr_pred, truth)

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
    payload = read_json_file(path)
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise FormatError(f"{path} is not a report file")
    if payload.get("version") != REPORT_VERSION:
        raise VersionError(
            f"unsupported report version {payload.get('version')!r}, expected {REPORT_VERSION}"
        )
    try:
        groups = tuple(
            GroupReport(
                label=int(g["label"]),
                box_ids=tuple(int(i) for i in g["box_ids"]),
                baseline_text=g["baseline_text"],
                corrected_text=g["corrected_text"],
                realigned=bool(g["realigned"]),
            )
            for g in payload["groups"]
        )
        return EvalReport(
            n_boxes=int(payload["n_boxes"]),
            n_readable=int(payload["n_readable"]),
            n_unreadable=int(payload["n_unreadable"]),
            n_truth=int(payload["n_truth"]),
            baseline_correct=payload["baseline_correct"],
            corrected_correct=payload["corrected_correct"],
            groups=groups,
            notes=tuple(payload.get("notes", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed report {path}: {exc}") from exc
