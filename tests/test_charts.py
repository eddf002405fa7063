import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import charts
from seqcast.charts import bar_chart_svg, line_chart_svg

# sha256 over the SVG text or error of both charts for every _chart_cases()
# input, as the hand-split segment code wrote them.
CHART_CASES_SHA256 = "6b0e7352ef93bcf9ebd61799761f0ebea62fa730c3862617d5a510a4a4650ba7"


def _chart_cases():
    """Inputs with NaN and infinite runs of every density, lone finite points, 1 to 3 series."""
    g = np.random.default_rng(20240)
    for _ in range(300):
        n = int(g.integers(1, 40))
        series = {}
        for j in range(int(g.integers(1, 4))):
            v = g.normal(size=n) * 10.0 ** int(g.integers(-3, 6))
            v[g.random(n) < g.random()] = math.nan
            v[g.random(n) < 0.05] = math.inf
            series[f"s{j}"] = v.tolist()
        yield [f"d{i}" for i in range(n)], series


def _outcome(chart, labels, series) -> str:
    try:
        return chart("t", labels, series)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_both_charts_keep_their_bytes():
    digest = hashlib.sha256()
    for labels, series in _chart_cases():
        for chart in (line_chart_svg, bar_chart_svg):
            digest.update(_outcome(chart, labels, series).encode())
    assert digest.hexdigest() == CHART_CASES_SHA256


def _segment_elements_reference(vs, color, lo, hi, dx) -> list[str]:
    """The string-segment splitter that line_chart_svg replaced, and what it drew."""
    fmt, x0, ypix = charts._fmt, charts._X0, charts._ypix
    segment: list[str] = []
    segments: list[list[str]] = []
    for i, v in enumerate(vs):
        if math.isfinite(v):
            segment.append(f"{fmt(x0 + i * dx)},{fmt(ypix(v, lo, hi))}")
        elif segment:
            segments.append(segment)
            segment = []
    if segment:
        segments.append(segment)
    body = []
    for seg in segments:
        if len(seg) == 1:
            cx, cy = seg[0].split(",")
            body.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
        else:
            body.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    return body


finite_or_not = st.one_of(
    st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf])
)


@given(st.lists(st.lists(finite_or_not, min_size=2, max_size=30), min_size=1, max_size=4))
@example([[1.0, math.nan, 2.0, 3.0]])  # a lone point, then a line
@example([[math.nan, 5.0, math.nan], [1.0, 2.0, math.nan]])
@settings(max_examples=200)
def test_line_segments_match_string_splitter_reference(columns):
    n = len(columns[0])
    series = {f"s{j}": (vs + [math.nan] * n)[:n] for j, vs in enumerate(columns)}
    labels = [str(i) for i in range(n)]
    try:
        lo, hi = charts._bounds(series, labels)
    except ValueError:
        return  # nothing finite to draw
    dx = (charts._X1 - charts._X0) / (n - 1)
    want = []
    for si, vs in enumerate(series.values()):
        color = charts._COLORS[si % len(charts._COLORS)]
        want += _segment_elements_reference(vs, color, lo, hi, dx)
    drawn = line_chart_svg("t", labels, series).splitlines()
    assert [e for e in drawn if e.startswith(("<polyline", "<circle"))] == want


class TestBarChart:
    def test_basic_structure(self):
        svg = bar_chart_svg("means", ["1", "2"], {"open": [1.0, 2.0], "close": [1.5, 2.5]})
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "means" in svg
        assert svg.count("<rect") >= 4  # one bar per label per series

    def test_deterministic(self):
        args = ("t", ["a", "b", "c"], {"s": [3.0, 1.0, 2.0]})
        assert bar_chart_svg(*args) == bar_chart_svg(*args)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 values for 3 labels"):
            bar_chart_svg("t", ["a", "b", "c"], {"s": [1.0, 2.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart_svg("t", [], {})


class TestLineChart:
    def test_basic_structure(self):
        svg = line_chart_svg("path", ["d1", "d2", "d3"], {"actual": [1.0, 2.0, 3.0]})
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert "path" in svg

    def test_nan_breaks_the_line(self):
        svg = line_chart_svg(
            "gap", ["a", "b", "c", "d"], {"s": [1.0, math.nan, 2.0, 3.0]}
        )
        # the NaN splits the series: a lone point plus a two-point line
        assert svg.count("<polyline") + svg.count("<circle") == 2
        assert "nan" not in svg

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            line_chart_svg("t", ["a", "b"], {"s": [math.nan, math.nan]})

    def test_multiple_series_get_distinct_colors(self):
        svg = line_chart_svg(
            "two", ["a", "b"], {"x": [1.0, 2.0], "y": [2.0, 1.0]}
        )
        strokes = {
            part.split('"')[0]
            for part in svg.split('stroke="')[1:]
            if not part.startswith("none")
        }
        assert len(strokes) >= 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            line_chart_svg("t", ["only"], {"s": [1.0]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="has 3 values"):
            line_chart_svg("t", ["a", "b"], {"s": [1.0, 2.0, 3.0]})
