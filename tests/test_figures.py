"""SVG figure generation tests."""

import math
import re

import pytest

from psitomo import bloch_grid
from psitomo.figures import _ramp_color, bloch_figure, histogram_figure


def test_ramp_color_endpoints():
    assert _ramp_color(0.0) == "#440154"
    assert _ramp_color(1.0) == "#fde725"
    mid = _ramp_color(0.5)
    assert mid.startswith("#") and len(mid) == 7


def test_bloch_figure_marker_count_and_annotation():
    states = bloch_grid(25)
    fids = [0.99 + 0.0004 * i for i in range(25)]
    svg = bloch_figure(states, fids)
    assert svg.count('class="pt"') == 25
    assert "mean F = 0.9948" in svg
    assert "color: F in [0.9900, 0.9996]</text>" in svg
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_bloch_figure_requires_matching_lengths():
    with pytest.raises(ValueError):
        bloch_figure(bloch_grid(4), [1.0])


def test_histogram_figure_bar_count():
    fids = [0.99 + 0.0005 * (i % 20) for i in range(100)]
    svg = histogram_figure(fids)
    assert svg.count('class="bar"') == 20
    assert svg.startswith("<svg")


def test_histogram_figure_labels_its_axes():
    svg = histogram_figure([0.99, 0.995, 1.0, 0.98])
    labels = re.findall(r'<text x="([^"]+)"[^>]*font-size="11"[^>]*>([^<]*)</text>', svg)
    assert labels == [("56.00", "0.9800"), ("178.00", "0.9850"), ("300.00", "0.9900"),
                      ("422.00", "0.9950"), ("544.00", "1.0000"), ("48", "1"), ("48", "0")]


def test_both_figures_carry_the_same_summary_line():
    fids = [0.0, 0.98, 0.995, 0.999]  # a failed trial counts as F = 0
    pattern = r"mean F = [0-9.]+, sd = [0-9.]+, n = [0-9]+"
    lines = [re.findall(pattern, svg) for svg in (histogram_figure(fids),
                                                   bloch_figure(bloch_grid(4), fids))]
    assert lines == [["mean F = 0.7435, sd = 0.4293, n = 4"]] * 2


def test_histogram_is_text_stable():
    fids = [0.991, 0.993, 0.997, 1.0]
    assert histogram_figure(fids) == histogram_figure(fids)



def test_histogram_figure_refuses_no_fidelities():
    with pytest.raises(ValueError, match="need at least one fidelity"):
        histogram_figure([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -0.25])
@pytest.mark.parametrize("draw", [histogram_figure, lambda fids: bloch_figure(bloch_grid(2), fids)],
                         ids=["hist", "bloch"])
def test_figures_refuse_fidelities_that_are_not_physical(draw, bad):
    with pytest.raises(ValueError, match=r"fidelities must be finite numbers in \[0, 1\]"):
        draw([0.9, bad])
