"""Tests for box grouping and reading-order recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doctext.layout
from doctext.errors import InputError
from doctext.layout import (
    DocumentLayout,
    LayoutParams,
    TextBox,
    arrange,
    arrange_document,
    find_next_text,
    group,
    median_height,
    render_group_overlay,
    same_group,
)
from doctext.layout import _check_unique_ids


# ---------------------------------------------------------------- helpers


class UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def group_reference(boxes, params):
    """Grouping oracle: pairwise adjacency closed with union-find.

    Produces a partition of ids; label values are arbitrary, so
    comparisons go through partition normalisation.
    """
    med = median_height(boxes)
    uf = UnionFind([b.id for b in boxes])
    for a in boxes:
        for b in boxes:
            if a.id < b.id and same_group(a, b, med, params):
                uf.union(a.id, b.id)
    parts = {}
    for b in boxes:
        parts.setdefault(uf.find(b.id), set()).add(b.id)
    return sorted((frozenset(p) for p in parts.values()), key=lambda s: min(s))


def partition_of(labels):
    parts = {}
    for i, g in labels.items():
        parts.setdefault(g, set()).add(i)
    return sorted((frozenset(p) for p in parts.values()), key=lambda s: min(s))


def random_boxes(rng, n, scale=1000.0, max_h=40.0):
    boxes = []
    for i in range(n):
        left = float(rng.uniform(0, scale))
        top = float(rng.uniform(0, scale))
        w = float(rng.uniform(5.0, 8.0 * max_h))
        h = float(rng.uniform(5.0, max_h))
        boxes.append(TextBox(id=i, left=left, top=top, right=left + w, bottom=top + h))
    return boxes


@st.composite
def box_sets(draw, max_boxes=25):
    """Boxes with distinct, shuffled ids, possibly none.

    Quantized boxes sit on a coarse integer grid with two heights, so
    many share a left edge, a vertical centre or a whole geometry, and
    the tie-breaks of the chaining decide the order.
    """
    n = draw(st.integers(0, max_boxes))
    ids = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        coords = st.tuples(
            st.integers(0, 12).map(lambda v: 5.0 * v),
            st.integers(0, 8).map(lambda v: 4.0 * v),
            st.integers(1, 4).map(lambda v: 10.0 * v),
            st.sampled_from([8.0, 12.0]),
        )
    else:
        coords = st.tuples(
            st.floats(0.0, 300.0),
            st.floats(0.0, 300.0),
            st.floats(1.0, 80.0),
            st.floats(1.0, 20.0),
        )
    return [
        TextBox(id=i, left=x, top=y, right=x + w, bottom=y + h)
        for i, (x, y, w, h) in zip(ids, draw(st.lists(coords, min_size=n, max_size=n)))
    ]


def _arrange_reference(boxes, params=None):
    """Reading order by growing a chain from every box.

    This was the library's ``arrange`` before it followed one pointer
    per box from the roots only: it re-walks the chain from each box,
    calling ``find_next_text`` at every hop, and then drops the chains
    that are proper suffixes of others.
    """
    params = params or LayoutParams()
    boxes = list(boxes)
    _check_unique_ids(boxes)
    if not boxes:
        return []

    chains: list[tuple[int, ...]] = []
    for b in sorted(boxes, key=lambda t: t.id):
        chain = [b.id]
        cur = b
        while True:
            nxt = find_next_text(cur, boxes, params)
            if nxt is None:
                break
            # Candidates start at or past the current horizontal centre,
            # which lies right of the candidate's own centre test going
            # forward, so centres strictly increase and chains are finite.
            chain.append(nxt.id)
            cur = nxt
        chains.append(tuple(chain))

    suffixes = set()
    for c in chains:
        for i in range(1, len(c)):
            suffixes.add(c[i:])
    kept = [c for c in chains if c not in suffixes]

    by_id = {b.id: b for b in boxes}

    def mean_vc(chain):
        return sum(by_id[i].vcenter for i in chain) / len(chain)

    kept.sort(key=lambda c: (mean_vc(c), c[0]))

    order: list[int] = []
    seen: set[int] = set()
    for c in kept:
        for i in c:
            if i not in seen:
                seen.add(i)
                order.append(i)
    return order


def make_line(ids, y=0.0, h=10.0, x0=0.0, gap=4.0, w=30.0):
    boxes = []
    x = x0
    for i in ids:
        boxes.append(TextBox(id=i, left=x, top=y, right=x + w, bottom=y + h))
        x += w + gap
    return boxes


# ----------------------------------------------------------------- basics


class TestTextBox:
    def test_centres(self):
        b = TextBox(id=0, left=2, top=4, right=6, bottom=10)
        assert b.hcenter == 4 and b.vcenter == 7
        assert b.width == 4 and b.height == 6

    def test_invalid_rejected(self):
        with pytest.raises(InputError):
            TextBox(id=0, left=5, top=0, right=5, bottom=10)
        with pytest.raises(InputError):
            TextBox(id=-1, left=0, top=0, right=1, bottom=1)
        with pytest.raises(InputError):
            TextBox(id=0, left=0, top=float("inf"), right=1, bottom=1)


class TestLayoutParams:
    def test_defaults(self):
        p = LayoutParams()
        assert p.kappa_h == 1.0 and p.kappa_v == 0.7 and p.line_lambda == 0.5

    def test_positivity_enforced(self):
        with pytest.raises(InputError):
            LayoutParams(kappa_h=0.0)
        with pytest.raises(InputError):
            LayoutParams(line_lambda=-1.0)


class TestSameGroup:
    def test_horizontal_neighbours_join(self):
        a, b = make_line([0, 1])
        assert same_group(a, b, median_height([a, b]), LayoutParams())

    def test_distant_boxes_stay_apart(self):
        a = TextBox(id=0, left=0, top=0, right=30, bottom=10)
        b = TextBox(id=1, left=500, top=500, right=530, bottom=510)
        assert not same_group(a, b, 10.0, LayoutParams())

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        boxes = random_boxes(rng, 40)
        med = median_height(boxes)
        p = LayoutParams()
        for a in boxes[:10]:
            for b in boxes[:10]:
                assert same_group(a, b, med, p) == same_group(b, a, med, p)

    def test_vertical_reach_is_softer_than_horizontal(self):
        # kappa_v < kappa_h: a gap that joins horizontally can
        # separate vertically.
        med = 10.0
        p = LayoutParams()
        a = TextBox(id=0, left=0, top=0, right=30, bottom=10)
        bh = TextBox(id=1, left=30 + 2 * p.kappa_v * med + 1, top=0, right=99, bottom=10)
        bv = TextBox(id=2, left=0, top=10 + 2 * p.kappa_v * med + 1, right=30, bottom=99)
        assert same_group(a, bh, med, p)  # within 2 * kappa_h * med
        assert not same_group(a, bv, med, p)


class TestGroup:
    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(32)
        p = LayoutParams()
        for _ in range(150):
            boxes = random_boxes(rng, int(rng.integers(1, 40)))
            got = partition_of(group(boxes, p))
            want = group_reference(boxes, p)
            assert got == want

    def test_labels_dense_from_zero(self):
        rng = np.random.default_rng(33)
        boxes = random_boxes(rng, 25)
        labels = group(boxes)
        values = set(labels.values())
        assert values == set(range(len(values)))

    def test_labels_follow_lowest_id(self):
        # Seeds flood in ascending id order, so group 0 contains box 0.
        rng = np.random.default_rng(34)
        boxes = random_boxes(rng, 25)
        labels = group(boxes)
        assert labels[0] == 0

    def test_single_box(self):
        assert group([TextBox(id=5, left=0, top=0, right=1, bottom=1)]) == {5: 0}

    def test_empty_is_vacuous(self):
        assert group([]) == {}

    def test_duplicate_ids_rejected(self):
        b = TextBox(id=1, left=0, top=0, right=1, bottom=1)
        with pytest.raises(InputError):
            group([b, b])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, n, seed):
        boxes = random_boxes(np.random.default_rng(seed), n)
        labels = group(boxes)
        assert set(labels) == {b.id for b in boxes}
        values = set(labels.values())
        assert values == set(range(len(values)))


class TestFindNext:
    def test_picks_right_neighbour_on_same_line(self):
        boxes = make_line([0, 1, 2])
        assert find_next_text(boxes[0], boxes).id == 1
        assert find_next_text(boxes[1], boxes).id == 2
        assert find_next_text(boxes[2], boxes) is None

    def test_ignores_other_lines(self):
        line1 = make_line([0, 1], y=0.0)
        line2 = make_line([2, 3], y=100.0)
        assert find_next_text(line1[0], line1 + line2).id == 1

    def test_vertical_tolerance_strict(self):
        # |vcenter delta| must be strictly below lambda * min height.
        lam = LayoutParams().line_lambda
        a = TextBox(id=0, left=0, top=0, right=30, bottom=10)
        at_limit = TextBox(id=1, left=40, top=lam * 10, right=70, bottom=10 + lam * 10)
        inside = TextBox(id=2, left=40, top=lam * 10 - 0.2, right=70, bottom=9.8 + lam * 10)
        assert find_next_text(a, [a, at_limit]) is None
        assert find_next_text(a, [a, inside]).id == 2

    def test_candidates_start_at_hcenter(self):
        # A box whose left edge is past the current centre counts as
        # "to the right", even when the boxes overlap.
        a = TextBox(id=0, left=0, top=0, right=30, bottom=10)
        overlap = TextBox(id=1, left=16, top=0, right=46, bottom=10)
        behind = TextBox(id=2, left=14, top=0, right=44, bottom=10)
        assert find_next_text(a, [a, overlap]).id == 1
        assert find_next_text(a, [a, behind]) is None

    def test_tie_breaks_on_left_then_vcenter_then_id(self):
        a = TextBox(id=0, left=0, top=0, right=30, bottom=10)
        near = TextBox(id=1, left=35, top=1, right=65, bottom=11)
        far = TextBox(id=2, left=45, top=0, right=75, bottom=10)
        assert find_next_text(a, [a, near, far]).id == 1
        # Equal lefts: the one with the smaller vcenter wins.
        level = TextBox(id=3, left=35, top=0, right=65, bottom=10)
        assert find_next_text(a, [a, near, level]).id == 3
        # Fully identical geometry: lower id wins.
        twin = TextBox(id=9, left=35, top=0, right=65, bottom=10)
        assert find_next_text(a, [a, level, twin]).id == 3


class TestArrange:
    def test_single_line_reads_left_to_right(self):
        boxes = make_line([3, 1, 2])  # ids deliberately scrambled
        assert arrange(boxes) == [3, 1, 2]

    def test_two_lines_top_to_bottom(self):
        top = make_line([10, 11], y=0.0)
        bottom = make_line([20, 21], y=30.0)
        assert arrange(bottom + top) == [10, 11, 20, 21]

    def test_is_permutation(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            boxes = random_boxes(rng, int(rng.integers(1, 30)))
            order = arrange(boxes)
            assert sorted(order) == sorted(b.id for b in boxes)

    def test_indented_continuation_line(self):
        # Second line starts further right; still read after the first.
        first = make_line([0, 1], y=0.0, x0=0.0)
        second = make_line([2], y=14.0, x0=50.0)
        assert arrange(first + second) == [0, 1, 2]

    def test_empty_is_vacuous(self):
        assert arrange([]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**31))
    def test_permutation_property(self, n, seed):
        boxes = random_boxes(np.random.default_rng(seed), n)
        order = arrange(boxes)
        assert sorted(order) == list(range(n))

    @settings(max_examples=300, deadline=None)
    @given(box_sets(), st.sampled_from([0.2, 0.5, 1.0]))
    def test_matches_reference(self, boxes, lam):
        params = LayoutParams(line_lambda=lam)
        assert arrange(boxes, params) == _arrange_reference(boxes, params)

    @settings(max_examples=100, deadline=None)
    @given(box_sets(), st.randoms(use_true_random=False))
    def test_input_order_does_not_matter(self, boxes, rnd):
        shuffled = list(boxes)
        rnd.shuffle(shuffled)
        assert arrange(shuffled) == arrange(boxes)

    @settings(max_examples=50, deadline=None)
    @given(box_sets())
    def test_one_successor_lookup_per_box(self, boxes):
        calls = []

        def counting(current, *args):
            calls.append(current.id)
            return find_next_text(current, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(doctext.layout, "find_next_text", counting)
            arrange(boxes)
        assert sorted(calls) == sorted(b.id for b in boxes)


class TestDocumentLayout:
    def test_validates_label_coverage(self):
        b = TextBox(id=0, left=0, top=0, right=1, bottom=1)
        with pytest.raises(InputError):
            DocumentLayout(boxes=(b,), labels={}, order={})

    def test_validates_order_is_permutation_per_group(self):
        b0 = TextBox(id=0, left=0, top=0, right=1, bottom=1)
        b1 = TextBox(id=1, left=2, top=0, right=3, bottom=1)
        with pytest.raises(InputError):
            DocumentLayout(
                boxes=(b0, b1), labels={0: 0, 1: 0}, order={0: [0, 0]}
            )

    def test_ordered_boxes(self):
        boxes = make_line([0, 1, 2])
        doc = arrange_document(boxes)
        got = doc.ordered_boxes(0)
        assert [b.id for b in got] == [0, 1, 2]

    def test_arrange_document_round_trip_dict(self):
        boxes = make_line([0, 1], y=0.0) + make_line([2, 3], y=200.0)
        doc = arrange_document(boxes)
        d = doc.to_dict()
        assert set(d) == {"labels", "order"}
        # Keys are stringified for JSON.
        assert set(d["labels"]) == {"0", "1", "2", "3"}

    def test_two_blocks_grouped_separately(self):
        a = make_line([0, 1], y=0.0)
        b = make_line([2, 3], y=500.0)
        doc = arrange_document(a + b)
        assert doc.labels[0] == doc.labels[1]
        assert doc.labels[2] == doc.labels[3]
        assert doc.labels[0] != doc.labels[2]
        assert doc.order[doc.labels[0]] == [0, 1]
        assert doc.order[doc.labels[2]] == [2, 3]


class TestOverlay:
    def test_overlay_dimensions_and_values(self):
        boxes = make_line([0, 1], y=2.0)
        img = render_group_overlay(boxes, group(boxes), width=120, height=40)
        assert img.width == 120 and img.height == 40
        assert img.pixels.min() < 1.0  # something was painted
