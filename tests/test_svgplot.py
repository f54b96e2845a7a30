"""Gap-trace SVG rendering."""

import xml.etree.ElementTree as ET

import pytest

from spectra_svi.harness import GapRecord
from spectra_svi.svgplot import _series_from_records, render_svg


def _record(method, lam, path, iteration, gap):
    return GapRecord(method, 2, 2, 1.0, lam, path, iteration, gap, 0.0)


def test_series_group_by_method_and_lambda():
    records = [
        _record("am-smd", 0.0, 0, 100, 1.0),
        _record("am-smd", 0.0, 1, 100, 3.0),
        _record("mel", 0.5, 0, 100, 0.1),
        _record("mel", 1.0, 0, 100, 0.1),
    ]
    series = _series_from_records(records)
    labels = [label for label, _ in series]
    assert labels == ["am-smd", "mel lambda=0.5", "mel lambda=1"]


def test_series_average_over_paths_log10():
    records = [
        _record("m-smd", 0.0, 0, 50, 1.0),
        _record("m-smd", 0.0, 1, 50, 100.0),
    ]
    (_, pts), = _series_from_records(records)
    assert pts == [(50, pytest.approx(1.7033, abs=1e-3))]  # log10(50.5)


def test_series_clamps_tiny_gaps():
    (_, pts), = _series_from_records([_record("m-smd", 0.0, 0, 10, 0.0)])
    assert pts[0][1] == pytest.approx(-16.0)


def test_series_clamps_overflowing_means():
    # 1e308 + 1e308 overflows; the mean stays at the largest float
    records = [_record("m-smd", 0.0, path, 10, 1e308) for path in (0, 1)]
    (_, pts), = _series_from_records(records)
    assert pts[0][1] == pytest.approx(308.2547, abs=1e-4)


def test_render_svg_single_iteration_beyond_float_precision(tmp_path):
    # 2**60 - 1.0 == 2**60 + 1.0 in floats: a zero-width axis
    out = tmp_path / "far.svg"
    render_svg([_record("am-smd", 0.0, 0, 2**60, 0.5)], out)
    assert ET.fromstring(out.read_text()).tag.endswith("svg")


def test_render_svg_well_formed_and_labelled(tmp_path):
    records = [
        _record("am-smd", 0.0, 0, it, 10.0 / it) for it in (100, 200, 300)
    ] + [
        _record("mel", 0.5, 0, it, 20.0 / it) for it in (100, 200, 300)
    ]
    out = tmp_path / "plot.svg"
    render_svg(records, out, title="demo gaps")
    text = out.read_text()
    root = ET.fromstring(text)  # must be parseable XML
    assert root.tag.endswith("svg")
    assert "demo gaps" in text
    assert "mel lambda=0.5" in text
    assert text.count("<polyline") == 2


def test_render_svg_escapes_legend_labels(tmp_path):
    # A method name read from a CSV may hold XML markup characters.
    out = tmp_path / "markup.svg"
    render_svg([_record("a<b&c", 0.0, 0, it, 1.0 / it) for it in (1, 2)],
               out)
    root = ET.parse(out).getroot()
    texts = root.iter("{http://www.w3.org/2000/svg}text")
    assert "a<b&c" in [t.text for t in texts]


def test_render_svg_single_point_uses_marker(tmp_path):
    out = tmp_path / "single.svg"
    render_svg([_record("am-smd", 0.0, 0, 100, 0.5)], out)
    text = out.read_text()
    assert "<circle" in text


def test_render_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        render_svg([], tmp_path / "empty.svg")
