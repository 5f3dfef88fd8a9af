"""RNG streams, sample matrices, SVG plotting, experiment helpers, exports."""

import ast
import importlib
import os
import pkgutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from otpost.experiments import marginal_ci, point_in_polygon
from otpost.plots import svg_overlay
from otpost.rng import stream
from otpost.samples import SampleMatrix
from tests.conftest import peak_traced_bytes


def test_stream_deterministic_and_path_separated():
    a = stream(1, 2, 3).standard_normal(5)
    b = stream(1, 2, 3).standard_normal(5)
    c = stream(1, 2, 4).standard_normal(5)
    d = stream(2, 2, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_matrix_csv_round_trip(tmp_path):
    s = SampleMatrix.mixed(
        np.array([[0.0, 2.0], [1.0, 1.0]]), np.array([[0.5, -0.25], [1.5, 2.25]])
    )
    path = os.path.join(tmp_path, "s.csv")
    s.to_csv(path)
    s2 = SampleMatrix.from_csv(path)
    assert s2.columns == ["tau_0", "tau_1", "zeta_0", "zeta_1"]
    assert np.array_equal(s.data, s2.data)
    # integer formatting for tau columns
    with open(path) as fh:
        fh.readline()
        first = fh.readline().split(",")
    assert first[0] == "0" and first[1] == "2"


def test_sample_matrix_mixed_allocates_only_its_output():
    # labels (int) and zetas are written straight into one float matrix
    rg = stream(3, 0)
    taus = rg.integers(0, 3, (2000, 300))
    zetas = rg.standard_normal((2000, 6))
    s = SampleMatrix.mixed(taus, zetas)
    assert s.data.shape == (2000, 306)
    assert np.array_equal(s.data[:, :300], taus) and np.array_equal(s.data[:, 300:], zetas)
    assert peak_traced_bytes(SampleMatrix.mixed, taus, zetas) <= s.data.nbytes + 2**16


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix(data=np.zeros((2, 3)), columns=["a", "b"])


def test_point_in_polygon_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.2, 0.9]])
    got = point_in_polygon(pts, square)
    assert list(got) == [True, False, False, True]


def test_point_in_polygon_nonconvex():
    # L-shaped polygon
    poly = np.array(
        [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float
    )
    got = point_in_polygon(np.array([[0.5, 1.5], [1.5, 1.5], [1.5, 0.5]]), poly)
    assert list(got) == [True, False, True]


def test_marginal_ci_quantile_oracle():
    draws = np.linspace(0.0, 1.0, 10001)[:, None]
    (lo, hi), = marginal_ci(draws, level=0.9)
    assert abs(lo - 0.05) <= 1e-3
    assert abs(hi - 0.95) <= 1e-3


@pytest.mark.parametrize("level", [0.95, 0.9, 0.5])
def test_marginal_ci_equals_two_quantile_calls_bit_for_bit(level):
    draws = stream(81, 0).standard_normal((2001, 4)) * [1.0, 1e-6, 3e4, 1.0]
    draws[::7, 3] = 0.5  # ties
    alpha = (1.0 - level) / 2.0
    lo = np.quantile(draws, alpha, axis=0)
    hi = np.quantile(draws, 1.0 - alpha, axis=0)
    assert marginal_ci(draws, level) == list(zip(lo.tolist(), hi.tolist()))


def test_svg_overlay_valid_xml_and_counts(tmp_path):
    rg = stream(80, 0)
    pts = rg.standard_normal((40, 2))
    contour = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    path = os.path.join(tmp_path, "o.svg")
    svg_overlay(path, samples=pts, contours=[contour], curves=[contour[:2]],
                title="check")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}circle")) == 40
    assert len(root.findall(f".//{ns}polygon")) == 1
    assert len(root.findall(f".//{ns}polyline")) == 1


def test_svg_overlay_requires_content(tmp_path):
    with pytest.raises(ValueError):
        svg_overlay(os.path.join(tmp_path, "e.svg"))


def test_every_exported_name_resolves():
    # a stale __all__ entry would make `from otpost.<module> import *` raise
    import otpost

    for info in pkgutil.iter_modules(otpost.__path__):
        module = importlib.import_module(f"otpost.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"otpost.{info.name}.__all__ names {name}"
    with open(otpost.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, a.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported
    # each package export is a public name of the module it comes from
    for module, name in imported:
        source = importlib.import_module(f"otpost.{module}")
        assert hasattr(otpost, name) and name in source.__all__, f"otpost.{module}.{name}"
