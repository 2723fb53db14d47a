import math
import re

import numpy as np
import pytest

from gtflow import svg


@pytest.mark.parametrize("lo, hi", [
    (-1.7e308, 1.7e308),  # hi - lo overflows
    (0.0, 5e-324),  # a fifth of the span underflows to zero
    (0.0, 2.5e-323),  # no decade step reaches the span
], ids=["overflow", "underflow", "no-step"])
def test_line_chart_of_a_span_at_the_float_limits_labels_its_ends(lo, hi):
    assert svg._ticks(lo, hi) == [lo, hi]
    text = svg.line_chart({"y": (np.array([0.0, 1.0]), np.array([lo, hi]))})
    places = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', text)
    places += re.findall(r'[-\w.+]+', " ".join(re.findall(r'points="([^"]*)"', text)))
    assert places and all(math.isfinite(float(v)) for v in places)
