import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abharmonic import audit
from abharmonic.boundary import (
    BoundaryFunction,
    document,
    from_fourier,
    from_samples,
    fourier_from_samples,
    load,
    lp_norm,
    parse_document,
    save_samples_csv,
)
from abharmonic._quad import circle_nodes
from abharmonic.errors import BoundaryFileError, DomainError, ParameterError


class TestConstruction:
    def test_constant(self):
        f = from_fourier({0: 1.0})
        assert f(0.0) == 1.0 and f(2.0) == 1.0
        assert f.is_constant

    def test_single_mode(self):
        f = from_fourier({1: 1.0})
        t = 0.7
        assert f(t) == pytest.approx(np.exp(1j * t))

    def test_sum_at_zero(self):
        f = from_fourier({3: 1.0, -2: 0.5})
        assert f(0.0) == pytest.approx(1.5)

    def test_needs_data(self):
        with pytest.raises(ParameterError):
            BoundaryFunction({})

    def test_sample_count_power_of_two(self):
        with pytest.raises(ParameterError):
            from_samples(np.ones(12))

    def test_consistency_enforced(self):
        t = circle_nodes(16)
        samples = np.exp(2j * t)
        BoundaryFunction({2: 1.0}, samples)  # consistent
        with pytest.raises(ParameterError):
            BoundaryFunction({2: 0.5}, samples)


class TestFourierFromSamples:
    def test_constant(self):
        coeffs = fourier_from_samples(2.0 * np.ones(16), 3)
        assert coeffs[0] == pytest.approx(2.0)
        for k in (1, -1, 2, -2, 3, -3):
            assert abs(coeffs[k]) < 1e-14

    def test_band_limited_exactness(self):
        t = circle_nodes(16)
        coeffs = fourier_from_samples(np.exp(2j * t), 5)
        assert coeffs[2] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for k, v in coeffs.items() if k != 2)

    def test_cosine_splits(self):
        t = circle_nodes(32)
        coeffs = fourier_from_samples(np.cos(t), 2)
        assert coeffs[1] == pytest.approx(0.5, abs=1e-13)
        assert coeffs[-1] == pytest.approx(0.5, abs=1e-13)

    def test_aliasing_guard(self):
        with pytest.raises(ParameterError):
            fourier_from_samples(np.ones(16), 8)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = {
            k: complex(rng.normal(), rng.normal()) / (1 + abs(k)) for k in range(-5, 6)
        }
        f = from_fourier(coeffs)
        back = fourier_from_samples(f.values_on_grid(64), 5)
        for k, v in coeffs.items():
            assert back[k] == pytest.approx(v, abs=1e-12)


class TestLpNorm:
    def test_constant_any_p(self):
        f = from_fourier({0: 2.0})
        for p in (1.0, 2.0, 4.0, math.inf):
            assert lp_norm(f, p) == pytest.approx(2.0, rel=1e-12)

    def test_unimodular(self):
        assert lp_norm(from_fourier({1: 1.0}), 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_cosine_l2(self):
        f = from_fourier({1: 0.5, -1: 0.5})
        assert lp_norm(f, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        coeffs = {k: complex(rng.normal(), rng.normal()) for k in range(-6, 7)}
        f = from_fourier(coeffs)
        parseval = math.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
        assert lp_norm(f, 2.0) == pytest.approx(parseval, rel=1e-10)

    @given(st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        f = from_fourier({k: complex(rng.normal(), rng.normal()) for k in range(-4, 5)})
        n1, n2, ninf = lp_norm(f, 1.0), lp_norm(f, 2.0), lp_norm(f, math.inf)
        assert n1 <= n2 + 1e-12 and n2 <= ninf + 1e-12

    def test_grid_max_refines_from_below(self):
        f = from_fourier({k: 1.0 / (1 + abs(k)) for k in range(-8, 9)})
        coarse = lp_norm(f, math.inf, nodes=1024)
        fine = lp_norm(f, math.inf, nodes=8192)
        assert coarse <= fine + 1e-15
        assert fine - coarse < 1e-6

    def test_p_domain(self):
        with pytest.raises(DomainError):
            lp_norm(from_fourier({0: 1.0}), 0.5)


class TestDocuments:
    def test_fourier_document_round_trip(self, tmp_path):
        f = from_fourier({0: 1.0 + 0.5j, -2: 0.25})
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(document(f)))
        g = load(path)
        assert g.fourier == f.fourier

    def test_samples_document(self):
        t = circle_nodes(16)
        vals = np.exp(1j * t)
        doc = {"samples": [[v.real, v.imag] for v in vals]}
        f = parse_document(doc)
        assert f.fourier[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"fourier": {}},
            {"fourier": {"x": [1, 0]}},
            {"fourier": {"1": [1]}},
            {"fourier": {"1": ["a", "b"]}},
            {"samples": []},
            {"samples": [[1.0]]},
            {"samples": [[1.0, 0.0]] * 3},
            {"fourier": {"0": [1.0, 0.0]}, "samples": 5},
            {"fourier": {"0": [1.0, 0.0]}, "samples": [[2.0, 0.0]] * 4},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(BoundaryFileError):
            parse_document(doc)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BoundaryFileError):
            load(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BoundaryFileError):
            load(path)

    def test_csv_export(self, tmp_path):
        f = from_fourier({1: 1.0})
        path = tmp_path / "samples.csv"
        save_samples_csv(f, path, nodes=8)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 9
        t, re, im = map(float, lines[3].split(","))
        assert re == pytest.approx(math.cos(t)) and im == pytest.approx(math.sin(t))


class TestGridSampling:
    def test_standard_suite_samples_each_boundary_once_per_grid(self, monkeypatch):
        # one 1024-node Poisson grid and one 4096-node norm grid per boundary
        calls = []
        evaluate = BoundaryFunction.evaluate

        def counted(self, t):
            calls.append(np.size(t))
            return evaluate(self, t)

        monkeypatch.setattr(BoundaryFunction, "evaluate", counted)
        audit.standard_suite(n_boundaries=2)
        assert len(calls) <= 2 * 2

    def test_grid_is_stored_read_only(self):
        f = from_fourier({1: 1.0, -2: 0.5j})
        grid = f.values_on_grid(64)
        assert f.values_on_grid(64) is grid
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_samples_document_grid_is_its_values(self):
        values = 0.5 + np.exp(1j * circle_nodes(64)) - 0.25j * np.exp(-3j * circle_nodes(64))
        f = parse_document({"samples": [[v.real, v.imag] for v in values]})
        np.testing.assert_array_equal(f.values_on_grid(64), values)
        kept = values.copy()
        g = from_samples(values)
        values[0] = 99.0
        np.testing.assert_array_equal(g.values_on_grid(64), kept)
