"""Grouping detected text boxes into blocks and ordering them for reading.

Box detectors return an unordered bag of axis-aligned boxes.  Two
passes turn that bag into readable text: a flood fill joins boxes whose
expanded extents overlap into paragraph-like groups, and a chaining
pass inside each group strings boxes into lines and stacks the lines
top to bottom.

All distance thresholds scale with the median box height of the
document, so the same parameters work across resolutions.
"""

import statistics
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import GrayImage

__all__ = [
    "TextBox",
    "LayoutParams",
    "DocumentLayout",
    "median_height",
    "same_group",
    "group",
    "find_next_text",
    "arrange",
    "arrange_document",
    "render_group_overlay",
]


@dataclass(frozen=True)
class TextBox:
    """An axis-aligned text region with a document-unique id.

    ``word`` carries ground truth or recognized text when known.
    """

    id: int
    left: float
    top: float
    right: float
    bottom: float
    word: str | None = None

    def __post_init__(self):
        if self.id < 0:
            raise InputError("box id must be non-negative")
        for v in (self.left, self.top, self.right, self.bottom):
            if not np.isfinite(v):
                raise InputError("box coordinates must be finite")
        if not (self.left < self.right and self.top < self.bottom):
            raise InputError(
                f"box {self.id} must have left < right and top < bottom"
            )

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def hcenter(self) -> float:
        return 0.5 * (self.left + self.right)

    @property
    def vcenter(self) -> float:
        return 0.5 * (self.top + self.bottom)


@dataclass(frozen=True)
class LayoutParams:
    """Thresholds for grouping and line chaining.

    ``kappa_h`` and ``kappa_v`` scale the horizontal and vertical
    expansion of each box (in units of the document's median box
    height) used by the grouping overlap test.  ``line_lambda`` scales
    the vertical-centre tolerance (in units of the smaller box height)
    used when chaining a line.
    """

    kappa_h: float = 1.0
    kappa_v: float = 0.7
    line_lambda: float = 0.5

    def __post_init__(self):
        for name in ("kappa_h", "kappa_v", "line_lambda"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise InputError(f"{name} must be positive and finite")


def _check_unique_ids(boxes) -> None:
    ids = [b.id for b in boxes]
    if len(set(ids)) != len(ids):
        raise InputError("box ids must be unique within a document")


def median_height(boxes) -> float:
    if not boxes:
        raise InputError("median height of an empty document is undefined")
    return float(statistics.median(b.height for b in boxes))


def same_group(a: TextBox, b: TextBox, median_h: float, params: LayoutParams) -> bool:
    """Whether two boxes belong to the same group.

    Each box is expanded by ``kappa_h * median_h`` horizontally and
    ``kappa_v * median_h`` vertically; the test is whether the expanded
    boxes intersect.  Symmetric in its two box arguments.
    """
    dx = params.kappa_h * median_h
    dy = params.kappa_v * median_h
    return (
        a.left - dx <= b.right + dx
        and b.left - dx <= a.right + dx
        and a.top - dy <= b.bottom + dy
        and b.top - dy <= a.bottom + dy
    )


def group(boxes, params: LayoutParams | None = None) -> dict[int, int]:
    """Partition boxes into groups by flood fill over ``same_group``.

    Boxes are visited in ascending id order; each not-yet-labelled box
    seeds a new group, which then absorbs every pending box judged
    same-group with any box already absorbed.  Labels are dense,
    starting at 0 in order of seeding, so the grouping of a document
    is deterministic.

    Returns a map from box id to group label; empty input gives an
    empty map.
    """
    params = params or LayoutParams()
    boxes = list(boxes)
    _check_unique_ids(boxes)
    if not boxes:
        return {}
    med = median_height(boxes)
    pending = sorted(boxes, key=lambda b: b.id)
    labels: dict[int, int] = {}
    label = -1
    while pending:
        label += 1
        seed = pending.pop(0)
        labels[seed.id] = label
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            still = []
            for b in pending:
                if same_group(cur, b, med, params):
                    labels[b.id] = label
                    queue.append(b)
                else:
                    still.append(b)
            pending = still
    return labels


def find_next_text(current: TextBox, boxes, params: LayoutParams | None = None) -> TextBox | None:
    """The box that follows ``current`` on the same line, if any.

    A candidate must sit on the current line, meaning its vertical
    centre differs from the current box's by strictly less than
    ``line_lambda`` times the smaller of the two heights, and must
    start at or past the current box's horizontal centre.  Among
    candidates the one with the smallest left edge wins; ties fall to
    the smaller vertical centre and then the smaller id.
    """
    params = params or LayoutParams()
    best = None
    best_key = None
    for b in boxes:
        if abs(b.vcenter - current.vcenter) >= params.line_lambda * min(
            current.height, b.height
        ):
            continue
        if b.left < current.hcenter:
            continue
        key = (b.left, b.vcenter, b.id)
        if best_key is None or key < best_key:
            best, best_key = b, key
    return best


def arrange(boxes, params: LayoutParams | None = None) -> list[int]:
    """Reading order for the boxes of one group.

    Every box points to its successor, :func:`find_next_text`, computed
    once per box.  A chain starts at each root, a box that no other box
    points to, and follows the pointers to the end of its line; a chain
    from any other box would be a proper suffix of the chain through
    its predecessor, a partial line.  The chains are sorted by mean
    vertical centre (ties by root id) and concatenated.  Two roots can
    share a tail, so a box is kept at its first occurrence and the
    result is a permutation of the input ids.
    """
    params = params or LayoutParams()
    boxes = sorted(boxes, key=lambda t: t.id)
    _check_unique_ids(boxes)
    if not boxes:
        return []

    nxt = {b.id: find_next_text(b, boxes, params) for b in boxes}
    pointed = {s.id for s in nxt.values() if s is not None}
    chains: list[list[TextBox]] = []
    for b in boxes:
        if b.id in pointed:
            continue
        chain, cur = [b], nxt[b.id]
        # A successor starts at or past the current horizontal centre,
        # so centres strictly increase and chains cannot loop.
        while cur is not None:
            chain.append(cur)
            cur = nxt[cur.id]
        chains.append(chain)
    chains.sort(key=lambda c: (sum(b.vcenter for b in c) / len(c), c[0].id))
    return list(dict.fromkeys(b.id for c in chains for b in c))


@dataclass(frozen=True)
class DocumentLayout:
    """Grouping and per-group reading order for one document's boxes.

    ``labels`` maps box id to group label; ``order`` maps group label
    to box ids in reading order.  Together they cover every box exactly
    once.
    """

    boxes: tuple[TextBox, ...]
    labels: dict[int, int] = field(compare=False)
    order: dict[int, list[int]] = field(compare=False)

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        _check_unique_ids(boxes)
        ids = {b.id for b in boxes}
        if set(self.labels) != ids:
            raise InputError("layout labels must cover exactly the document's box ids")
        covered: list[int] = []
        for lab, seq in self.order.items():
            for i in seq:
                covered.append(i)
            if any(self.labels[i] != lab for i in seq):
                raise InputError(f"group {lab} order lists a box with a different label")
        if sorted(covered) != sorted(ids):
            raise InputError("group orders must cover every box exactly once")

    def ordered_boxes(self, label: int) -> list[TextBox]:
        by_id = {b.id: b for b in self.boxes}
        return [by_id[i] for i in self.order[label]]

    def to_dict(self) -> dict:
        return {
            "labels": {str(i): lab for i, lab in sorted(self.labels.items())},
            "order": {str(lab): list(seq) for lab, seq in sorted(self.order.items())},
        }


def arrange_document(boxes, params: LayoutParams | None = None) -> DocumentLayout:
    """Group the document's boxes and order every group for reading."""
    params = params or LayoutParams()
    boxes = tuple(boxes)
    labels = group(boxes, params)
    order: dict[int, list[int]] = {}
    for lab in sorted(set(labels.values())):
        members = [b for b in boxes if labels[b.id] == lab]
        order[lab] = arrange(members, params)
    return DocumentLayout(boxes=boxes, labels=labels, order=order)


def render_group_overlay(boxes, labels: dict[int, int], width: int, height: int) -> GrayImage:
    """Debug raster: each box filled with a gray level cycling by group."""
    if width < 1 or height < 1:
        raise InputError("overlay size must be positive")
    px = np.ones((height, width), dtype=np.float64)
    shades = [0.0, 0.25, 0.45, 0.6, 0.75, 0.85]
    for b in boxes:
        shade = shades[labels[b.id] % len(shades)]
        r0 = max(0, int(np.floor(b.top)))
        r1 = min(height, int(np.ceil(b.bottom)))
        c0 = max(0, int(np.floor(b.left)))
        c1 = min(width, int(np.ceil(b.right)))
        if r0 < r1 and c0 < c1:
            px[r0:r1, c0:c1] = shade
    return GrayImage(px)
