"""Tests for ``check_float``, the one check of a real-valued argument,
and for every setting and coordinate that goes through it."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from doctext.corrector.model import Hyper
from doctext.corrector.training import TrainConfig
from doctext.errors import InputError, check_float
from doctext.geometry import Quad
from doctext.layout import LayoutParams, TextBox
from doctext.synth import SynthSpec


class TestCheckFloat:
    @pytest.mark.parametrize(
        "value", [0, 7, -2.5, 0.5, np.float32(0.5), np.float64(-3.0), np.int64(4), Fraction(1, 4), 1.7e308],
        ids=repr,
    )
    def test_real_numbers_accepted_as_floats(self, value):
        got = check_float(value, "x")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), "1", None, [1.0], 1j, math.nan, math.inf, -math.inf,
         np.float32("inf"), np.float64("nan"), 10**400, -(10**400)],
        ids=repr,
    )
    def test_everything_else_refused(self, value):
        with pytest.raises(InputError, match="^the x must be a finite real number, not "):
            check_float(value, "the x")


# Each routed field: a constructor taking the field's value, the name that
# its refusal gives, and a value in its range that is a Python int.
ROUTED = {
    "lr0": (lambda v: TrainConfig(lr0=v), "lr0", 1),
    "clip_norm": (lambda v: TrainConfig(clip_norm=v), "clip_norm", 5),
    "dropout": (lambda v: Hyper(dropout=v), "dropout", 0),
    "kappa_h": (lambda v: LayoutParams(kappa_h=v), "kappa_h", 1),
    "kappa_v": (lambda v: LayoutParams(kappa_v=v), "kappa_v", 2),
    "line_lambda": (lambda v: LayoutParams(line_lambda=v), "line_lambda", 1),
    "box_height": (lambda v: SynthSpec(box_height=v), "box_height", 20),
    "jitter": (lambda v: SynthSpec(jitter=v), "jitter", 1),
    "temperature": (lambda v: SynthSpec(temperature=v), "temperature", 0),
    "p_sub": (lambda v: SynthSpec(p_sub=v), "p_sub", 1),
    "p_del": (lambda v: SynthSpec(p_del=v), "p_del", 0),
    "p_ins": (lambda v: SynthSpec(p_ins=v), "p_ins", 1),
    "quad x": (lambda v: Quad.from_points([(0, 0), (1, 0), (1, 1), (v, 1)]), "quad corner x", 0),
    "quad y": (lambda v: Quad.from_points([(0, 0), (1, 0), (1, 1), (0, v)]), "quad corner y", 1),
    "box left": (lambda v: TextBox(0, v, 0, 1, 1), "box 0 left", 0),
    "box top": (lambda v: TextBox(0, 0, v, 1, 1), "box 0 top", 0),
    "box right": (lambda v: TextBox(0, 0, 0, v, 1), "box 0 right", 1),
    "box bottom": (lambda v: TextBox(0, 0, 0, 1, v), "box 0 bottom", 1),
}


class TestRoutedFields:
    @pytest.mark.parametrize(
        "bad", [True, "1", None, math.nan, math.inf, -math.inf, 10**400],
        ids=["True", "'1'", "None", "nan", "inf", "-inf", "10**400"],
    )
    @pytest.mark.parametrize("field", ROUTED)
    def test_non_reals_refused_naming_the_field(self, field, bad):
        build, name, _ = ROUTED[field]
        with pytest.raises(InputError, match=f"^{re.escape(name)} must be a finite real number, not "):
            build(bad)

    @pytest.mark.parametrize("good", [np.float32(0.5), np.float64(0.5), 0.5], ids=repr)
    @pytest.mark.parametrize("field", ROUTED)
    def test_reals_in_range_accepted(self, field, good):
        build, _, whole = ROUTED[field]
        build(good)
        build(whole)

    def test_quad_keeps_float_corners(self):
        q = Quad.from_points([(0, 0), (1, 0), (np.float32(1.5), 1), (np.int64(0), 1)])
        assert {float} == {type(v) for p in q.corners for v in (p.x, p.y)}
        assert q.corners[2].x == 1.5

    def test_box_keeps_float_coordinates(self):
        b = TextBox(0, 0, np.float32(1.5), np.int64(3), Fraction(5, 2))
        assert (b.left, b.top, b.right, b.bottom) == (0.0, 1.5, 3.0, 2.5)
        assert {float} == {type(v) for v in (b.left, b.top, b.right, b.bottom)}

    def test_dropout_kept_as_a_float(self):
        for value in (0, np.float32(0.25), Fraction(1, 2)):
            dropout = Hyper(dropout=value).dropout
            assert type(dropout) is float and dropout == float(value)
