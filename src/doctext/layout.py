"""Grouping detected text boxes into blocks and ordering them for reading.

Box detectors return an unordered bag of axis-aligned boxes.  Two
passes turn that bag into readable text: the connected components of
the "expanded extents overlap" relation become paragraph-like groups,
labelled in order of their smallest box id, and a chaining pass inside
each group strings boxes into lines and stacks the lines top to bottom.
Both passes run as array programs over the whole document or group;
:func:`same_group` and :func:`find_next_text` state, box by box, what
they compute.

All distance thresholds scale with the median box height of the
document, so the same parameters work across resolutions.
"""

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import GrayImage, _paint_boxes

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
        try:
            if self.id < 0:
                raise InputError("box id must be non-negative")
            if not all(map(math.isfinite, (self.left, self.top, self.right, self.bottom))):
                raise InputError("box coordinates must be finite")
        except (TypeError, OverflowError) as exc:
            raise InputError(f"box id and coordinates must be numbers: {exc}") from exc
        if not (self.left < self.right and self.top < self.bottom):
            raise InputError(
                f"box {self.id} must have left < right and top < bottom"
            )
        # arrange relies on it: see the comment on its chain walk
        if not self.hcenter > self.left:
            raise InputError(
                f"box {self.id} is too narrow for its position: its centre rounds to its left edge"
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
            try:
                ok = math.isfinite(v) and v > 0.0
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise InputError(f"{name} must be positive and finite")


# Rows per block in the overlap and successor kernels: their temporaries
# are block x n, so even a group of thousands of boxes needs a few MB.
_ROW_BLOCK = 256


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
    """Partition boxes into the connected components of :func:`same_group`.

    Labels are dense, starting at 0 in ascending order of each
    component's smallest box id, so the grouping of a document is
    deterministic: box 0, when present, is in group 0.

    Every box is expanded once, with the offsets ``same_group`` uses,
    so the overlap tests compare the same floats.  A sweep over the
    boxes sorted by expanded top edge pairs each box only with the
    later boxes whose expanded top edge is at or above its expanded
    bottom edge, and keeps the pairs whose horizontal extents meet.
    The sweep runs down the page because text lines are wide and
    short: a box's vertical reach takes in a few lines, its horizontal
    reach every line of its column.

    Returns a map from box id to group label; empty input gives an
    empty map.
    """
    params = params or LayoutParams()
    boxes = sorted(boxes, key=lambda b: b.id)
    _check_unique_ids(boxes)
    if not boxes:
        return {}
    med = median_height(boxes)
    dx = params.kappa_h * med
    dy = params.kappa_v * med
    edges = np.array([(b.left, b.top, b.right, b.bottom) for b in boxes], dtype=float)
    with np.errstate(over="ignore"):  # as in Python floats, overflow gives inf
        lo = edges[:, :2] - (dx, dy)
        hi = edges[:, 2:] + (dx, dy)
    # In top order an earlier box p starts at or above a later box q, and
    # q starts at or above its own bottom, so p's top never passes q's
    # bottom; they meet vertically exactly when q < reach[p].
    by_top = np.argsort(lo[:, 1])
    lo, hi = lo[by_top], hi[by_top]
    reach = np.searchsorted(lo[:, 1], hi[:, 1], side="right")
    us, vs = [], []
    for s in range(0, len(boxes), _ROW_BLOCK):
        rows = np.arange(s, min(s + _ROW_BLOCK, len(boxes)))
        cols = np.arange(s + 1, reach[rows].max())
        near = (
            (cols > rows[:, None])
            & (cols < reach[rows, None])
            & (lo[cols, 0] <= hi[rows, None, 0])
            & (lo[rows, None, 0] <= hi[cols, 0])
        )
        r, c = np.nonzero(near)
        us.append(by_top[rows[r]])
        vs.append(by_top[cols[c]])
    # positions follow ids, so a component's smallest position is its smallest id
    smallest = _smallest_member(len(boxes), np.concatenate(us), np.concatenate(vs))
    is_first = smallest == np.arange(len(boxes))
    labels = (np.cumsum(is_first) - 1)[smallest]
    return dict(zip([b.id for b in boxes], labels.tolist()))


def _smallest_member(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each of nodes ``0..n-1``, the smallest node of its connected
    component in the undirected graph with edges ``(u[k], v[k])``.

    Every node points at a smaller node of its component or at itself.
    Each round hooks the larger root of every edge whose ends have
    different roots under the smaller root, then jumps pointers until
    every node points at a root; it ends when no edge joins two roots,
    and then each component's root is its smallest node.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


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


def _successors(boxes, params: LayoutParams) -> np.ndarray:
    """:func:`find_next_text` of every box of ``boxes``, sorted by id, as
    an index into ``boxes`` (-1 for none), computed for all boxes at once.

    The candidates are sorted once by ``(left, vcenter, id)``, and a
    box's successor is the first candidate that passes both tests of
    ``find_next_text``, written with the same float expressions.  Rows
    go in blocks of ``_ROW_BLOCK``, so the temporaries stay block x n.
    """
    geo = np.array([(b.left, b.hcenter, b.vcenter, b.height) for b in boxes], dtype=float)
    left, hc, vc, h = geo.T
    # lexsort is stable and the boxes are in id order, so ties fall to the id
    by_key = np.lexsort((vc, left))
    c_left, c_vc, c_h = left[by_key], vc[by_key], h[by_key]
    nxt = np.empty(len(boxes), dtype=np.intp)
    for s in range(0, len(boxes), _ROW_BLOCK):
        r = slice(s, s + _ROW_BLOCK)
        # Python floats overflow to inf and subtract inf from inf to nan
        # silently; "not >=" keeps find_next_text's verdict on a nan.
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (c_left >= hc[r, None]) & ~(
                np.abs(c_vc - vc[r, None]) >= params.line_lambda * np.minimum(h[r, None], c_h)
            )
        nxt[r] = np.where(ok.any(axis=1), by_key[ok.argmax(axis=1)], -1)
    return nxt


def arrange(boxes, params: LayoutParams | None = None) -> list[int]:
    """Reading order for the boxes of one group.

    Every box points to its successor, :func:`find_next_text`, all of
    them computed in one array program.  A chain starts at each root, a
    box that no other box points to, and follows the pointers to the
    end of its line; a chain from any other box would be a proper
    suffix of the chain through its predecessor, a partial line.  The
    chains are sorted by mean vertical centre (ties by root id) and
    concatenated.  Two roots can share a tail, so a box is kept at its
    first occurrence and the result is a permutation of the input ids.
    """
    params = params or LayoutParams()
    boxes = sorted(boxes, key=lambda t: t.id)
    _check_unique_ids(boxes)
    if not boxes:
        return []

    nxt = _successors(boxes, params).tolist()
    pointed = set(nxt)
    vc = [b.vcenter for b in boxes]
    chains: list[list[int]] = []
    for i in range(len(boxes)):
        if i in pointed:
            continue
        chain, cur = [i], nxt[i]
        # A successor starts at or past the current box's horizontal
        # centre, and every box's centre lies strictly right of its left
        # edge (TextBox refuses any other), so centres strictly increase
        # along a chain and chains cannot loop.
        while cur >= 0:
            chain.append(cur)
            cur = nxt[cur]
        chains.append(chain)
    # indices follow ids, so the root index breaks ties as the root id does
    chains.sort(key=lambda c: (sum(vc[i] for i in c) / len(c), c[0]))
    return list(dict.fromkeys(boxes[i].id for c in chains for i in c))


@dataclass(frozen=True)
class DocumentLayout:
    """Grouping and per-group reading order for one document's boxes.

    ``order`` maps group label to box ids in reading order; the orders
    list every box exactly once.  ``labels`` maps box id to group label
    and is derived from ``order``.
    """

    boxes: tuple[TextBox, ...]
    order: dict[int, list[int]] = field(compare=False)

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        _check_unique_ids(boxes)
        covered = [i for seq in self.order.values() for i in seq]
        if sorted(covered) != sorted(b.id for b in boxes):
            raise InputError("group orders must cover every box exactly once")

    @property
    def labels(self) -> dict[int, int]:
        return {i: lab for lab, seq in self.order.items() for i in seq}

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
    members: dict[int, list[TextBox]] = {}
    for b in boxes:
        members.setdefault(labels[b.id], []).append(b)
    order = {lab: arrange(members[lab], params) for lab in sorted(members)}
    return DocumentLayout(boxes=boxes, order=order)


def render_group_overlay(boxes, labels: dict[int, int], width: int, height: int) -> GrayImage:
    """Debug raster: each box filled with a gray level cycling by group."""
    if width < 1 or height < 1:
        raise InputError("overlay size must be positive")
    shades = [0.0, 0.25, 0.45, 0.6, 0.75, 0.85]
    return _paint_boxes(boxes, [shades[labels[b.id] % len(shades)] for b in boxes], width, height)
