import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abharmonic import audit, boundary
from abharmonic.boundary import (
    BoundaryFunction,
    document,
    from_fourier,
    from_samples,
    fourier_from_samples,
    load,
    lp_norm,
    parse_document,
)
from abharmonic._quad import circle_nodes
from abharmonic.errors import BoundaryFileError, DomainError, ParameterError


class _List(list):
    """A list subclass, as a caller may pass in place of a JSON array."""


def _pairs(values):
    """A document's [re, im] sample entries."""
    return [[v.real, v.imag] for v in np.asarray(values, dtype=complex)]


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
        # samples alone made the zero function with a stored grid: u(0.5) was 0.5 on 64 nodes, 0 on 128
        with pytest.raises(ParameterError):
            BoundaryFunction({}, 0.5 * np.ones(64))

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

    def test_modes_in_order_from_one_fft(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=32) + 1j * rng.normal(size=32)
        coeffs = fourier_from_samples(samples, 3)
        assert list(coeffs) == [0, 1, -1, 2, -2, 3, -3]
        spec = np.fft.fft(samples) / 32
        assert all(coeffs[k] == spec[k % 32] for k in coeffs)

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

    @pytest.mark.parametrize("p", [700.0, 5000.0, 1e308])
    def test_constant_large_p(self, p):
        # 0.5^p underflows from p = 1075 on; the norm must not
        assert lp_norm(from_fourier({0: 0.5}), p) == pytest.approx(0.5, rel=1e-12)

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
            # Fourier data and samples must agree at every bin: a mode the data
            # leave out, an order at or above n/2, -70 against the bin of 6
            # (it folds onto -6), and the right bin off by 2e-10 in bin 0
            {"fourier": {"0": [1.0, 0.0]}, "samples": _pairs(1.0 + np.exp(1j * circle_nodes(16)))},
            {"fourier": {"40": [1.0, 0.0]}, "samples": [[0.0, 0.0]] * 64},
            {
                "fourier": {"0": [1.0, 0.0], "-70": [0.5, 0.0]},
                "samples": _pairs(1.0 + 0.5 * np.exp(6j * circle_nodes(64))),
            },
            {"fourier": {"40": [1.0, 0.0]}, "samples": _pairs(np.exp(-24j * circle_nodes(64)) + 2e-10)},
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(BoundaryFileError):
            parse_document(doc)

    # each bad entry raises the message the entry-by-entry reader gives,
    # alone and between good entries
    @pytest.mark.parametrize(
        "entry, message",
        [
            ([3, None], "non-numeric entry [3, None]"),
            ([3, "inf"], "non-finite entry [3, 'inf']"),
            ([3], "expected [re, im], got [3]"),
            ("ab", "expected [re, im], got 'ab'"),
            ([1, 2, 3], "expected [re, im], got [1, 2, 3]"),
            ([[1, 2], [3, 4]], "non-numeric entry [[1, 2], [3, 4]]"),
            ([10**400, 0], f"non-numeric entry {[10**400, 0]!r}"),
        ],
    )
    @pytest.mark.parametrize("at", [None, 1])
    def test_bad_sample_entry_message(self, entry, message, at):
        samples = [entry] if at is None else [[0.5, 0.0], entry, [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(BoundaryFileError) as info:
            parse_document({"samples": samples})
        assert str(info.value) == message

    # what the reader gives for each kind of entry, pinned before its fast
    # path changes: the same complex array, signed zeros included, or the
    # same message
    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([(1.0, 2.0), (3, 4)], [1 + 2j, 3 + 4j]),
            ([_List([1.0, 2.0]), [3.0, 4.0]], [1 + 2j, 3 + 4j]),
            ([[1.0, 2.0], [1.0, 2.0, 3.0]], "expected [re, im], got [1.0, 2.0, 3.0]"),
            ([[1.0, 2.0], [1.0]], "expected [re, im], got [1.0]"),
            ([["1.5", " 2 "], [3.0, 4.0]], [1.5 + 2j, 3 + 4j]),
            ([["x", 1]], "non-numeric entry ['x', 1]"),
            ([[True, False], [3.0, 4.0]], [1 + 0j, 3 + 4j]),
            ([[1.0, None]], "non-numeric entry [1.0, None]"),
            ([[{}, 1.0]], "non-numeric entry [{}, 1.0]"),
            ([[0.5, 0.0], [10**400, 0]], f"non-numeric entry {[10**400, 0]!r}"),
            ([[-0.0, -0.0], [1.0, -0.0]], [complex(-0.0, -0.0), complex(1.0, -0.0)]),
            ([[0.5, 0.0], [math.nan, 0.0]], "non-finite entry [nan, 0.0]"),
            ([["nan", 0.0]], "non-finite entry ['nan', 0.0]"),
            ([[math.inf, 0.0]], "non-finite entry [inf, 0.0]"),
            ([[0.0, -math.inf]], "non-finite entry [0.0, -inf]"),
        ],
        ids=[
            "tuples", "list-subclass", "three-items", "one-item", "numeric-strings", "bad-string",
            "bools", "none", "dict", "huge-int", "negative-zeros", "nan", "nan-string", "inf", "minus-inf",
        ],
    )
    def test_sample_entries(self, entries, expected):
        if isinstance(expected, str):
            with pytest.raises(BoundaryFileError) as info:
                boundary._sample_array(entries)
            assert str(info.value) == expected
            return
        got, want = boundary._sample_array(entries), np.array(expected, dtype=complex)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.signbit(got.real).tolist() == np.signbit(want.real).tolist()
        assert np.signbit(got.imag).tolist() == np.signbit(want.imag).tolist()

    @pytest.mark.parametrize("n", [1, 2, 16, 4096])
    def test_samples_document_is_from_samples_bit_for_bit(self, n):
        # random values with signed zeros in both parts, read through JSON
        rng = np.random.default_rng(n)
        pairs = rng.normal(size=(n, 2)) * (rng.random((n, 2)) < 0.7)
        pairs[rng.random((n, 2)) < 0.3] *= -1.0
        pairs[0] = (-0.0, -0.0)
        doc = json.loads(json.dumps({"samples": pairs.tolist()}))
        f = parse_document(doc)
        g = from_samples([complex(re, im) for re, im in doc["samples"]])
        assert list(f.fourier) == list(g.fourier)
        assert np.array(list(f.fourier.values())).tobytes() == np.array(list(g.fourier.values())).tobytes()
        for m in {64, n, 4096}:
            assert f.values_on_grid(m).tobytes() == g.values_on_grid(m).tobytes()
        assert np.signbit(f.values_on_grid(n)[0].real) and np.signbit(f.values_on_grid(n)[0].imag)

    def test_from_samples_keeps_modes_above_the_cut(self):
        # modes below n/2 in ascending order, those of modulus up to 1e-14
        # dropped, mode 0 kept even when it is 0; the mode n/2 is never kept
        t = circle_nodes(64)
        vals = np.exp(1j * t) + 1.1e-14 * np.exp(-3j * t) + 0.9e-14 * np.exp(5j * t)
        vals += 0.5 * np.exp(31j * t) - 0.25j * np.exp(-31j * t) + 0.125 * np.exp(32j * t)
        f = from_samples(vals)
        assert list(f.fourier) == [-31, -3, 0, 1, 31]
        assert abs(f.fourier[0]) < 1e-14
        assert f.fourier[31] == pytest.approx(0.5, abs=1e-14)
        assert f.fourier[-31] == pytest.approx(-0.25j, abs=1e-14)

    @pytest.mark.parametrize(
        "fourier", [{"40": [1.0, 0.0]}, {"0": [0.5, 0.0], "-70": [0.25, -0.5], "100": [0.0, 1.0]}]
    )
    def test_high_order_document_that_agrees_loads(self, fourier):
        # exp(i k t_j) = exp(i (k mod 64) t_j): samples from the folded data agree at every bin
        coeffs = {int(k): complex(*v) for k, v in fourier.items()}
        values = from_fourier(coeffs).values_on_grid(64)
        f = parse_document({"fourier": fourier, "samples": _pairs(values)})
        assert f.fourier == coeffs
        np.testing.assert_array_equal(f.values_on_grid(64), values)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BoundaryFileError):
            load(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BoundaryFileError):
            load(path)

    @pytest.mark.parametrize(
        "data",
        [b'{"samples": [[1.0, 0.0]], "x": "\xff"}', b'{"z": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_load_undecodable(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(BoundaryFileError, match="cannot read boundary file"):
            load(path)

    @pytest.mark.parametrize("k, n", [(1000, 4096), (70, 64), (-3, 8)])
    def test_grid_holds_mode_k_mod_n(self, k, n):
        # evaluate's exp(i k t) from the rounded product k t is off the grid
        # by 1.1e-12 at k = 1000, n = 4096; the grid is the folded FFT grid
        f = from_fourier({0: 0.25, k: 1.0 - 0.5j})
        grid = f.values_on_grid(n)
        assert np.array_equal(grid, from_fourier({0: 0.25, k % n: 1.0 - 0.5j}).values_on_grid(n))
        exact = 0.25 + (1.0 - 0.5j) * np.exp(2j * np.pi * (k * np.arange(n) % n) / n)
        assert np.max(np.abs(grid - exact)) < 4e-15

    def test_samples_document_grid_is_its_samples(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.array_equal(parse_document({"samples": _pairs(samples)}).values_on_grid(64), samples)


class TestGridSampling:
    def test_standard_suite_samples_each_boundary_once_per_grid(self, monkeypatch):
        # one 1024-node Poisson grid and one 4096-node norm grid per boundary
        calls = []
        grids = []
        evaluate = BoundaryFunction.evaluate
        values_on_grid = BoundaryFunction.values_on_grid

        def counted(self, t):
            calls.append(np.size(t))
            return evaluate(self, t)

        def kept(self, n):
            grids.append(values_on_grid(self, n))
            return grids[-1]

        monkeypatch.setattr(BoundaryFunction, "evaluate", counted)
        monkeypatch.setattr(BoundaryFunction, "values_on_grid", kept)
        audit.standard_suite(n_boundaries=2)
        assert len(calls) <= 2 * 2
        assert sorted(g.size for g in {id(g): g for g in grids}.values()) == [1024, 1024, 4096, 4096]

    def test_standard_suite_takes_each_norm_once_per_boundary(self, monkeypatch):
        # the five boundary checks share one 4096-node norm per boundary
        means = []

        def counted(vals, p, fn=boundary.p_mean):
            means.append(p)
            return fn(vals, p)

        monkeypatch.setattr(boundary, "p_mean", counted)
        audit.standard_suite(n_boundaries=2)
        assert len(means) == 2

    def test_norm_kept_per_exponent_and_nodes(self, monkeypatch):
        f = from_fourier({1: 1.0, -2: 0.5j})
        first = lp_norm(f, 3.0, nodes=256)
        monkeypatch.setattr(boundary, "p_mean", None)
        assert lp_norm(f, 3.0, nodes=256) == first
        monkeypatch.undo()
        assert lp_norm(f, 3.0, nodes=512) == pytest.approx(first, rel=1e-14)
        assert lp_norm(f, 2.0, nodes=256) != first
        assert set(f._norms) == {(3.0, 256), (3.0, 512), (2.0, 256)}

    def test_spectrum_kept_read_only(self):
        # the 64-point FFT of the 64-point grid
        f = from_fourier({1: 1.0, -2: 0.5j, 40: 0.25})
        spec = f.spectrum(64)
        assert f.spectrum(64) is spec
        assert np.array_equal(spec, np.fft.fft(f.values_on_grid(64)))
        with pytest.raises(ValueError):
            spec[0] = 0.0

    @pytest.mark.parametrize("n", [0, -1, -64])
    def test_grid_size_must_be_positive(self, n):
        f = from_fourier({1: 1.0, -2: 0.5j})
        with pytest.raises(ParameterError, match=f"n = {n}"):
            f.values_on_grid(n)
        with pytest.raises(ParameterError, match=f"n = {n}"):
            lp_norm(f, 2.0, nodes=n)

    def test_grid_is_stored_read_only(self):
        f = from_fourier({1: 1.0, -2: 0.5j})
        grid = f.values_on_grid(64)
        assert f.values_on_grid(64) is grid
        with pytest.raises(ValueError):
            grid[0] = 0.0

    @pytest.mark.parametrize(
        "coeffs, n",
        [
            ({0: 0.5, 1: 1.0 - 0.5j, -1: 0.25j, 7: -0.3, -31: 0.2 + 0.1j}, 64),
            (
                {k: complex(math.cos(k), math.sin(3 * k)) / (1 + abs(k)) for k in range(-12, 13)},
                4096,
            ),
        ],
    )
    def test_fft_grid_matches_direct_sum(self, coeffs, n):
        f = from_fourier(coeffs)
        direct = f.evaluate(circle_nodes(n))
        grid = f.values_on_grid(n)
        assert np.max(np.abs(grid - direct)) <= 1e-14 * np.max(np.abs(direct))

    def test_fft_grid_folds_aliased_orders(self):
        # exp(i k t_j) = exp(i (k mod 64) t_j) on the 64-point grid, so
        # the direct sum of the folded data (70 shares the bin of 6) is the
        # same function there; evaluate at k = +-70 itself carries about
        # 70 * 2 pi ulps of angle rounding, above the 1e-14 pin
        coeffs = {0: 0.5, 2: 0.25, 6: 0.1, 70: 0.3 - 0.1j, -70: -0.2 + 0.4j}
        folded = {0: 0.5, 2: 0.25, 6: 0.4 - 0.1j, -6: -0.2 + 0.4j}
        direct = from_fourier(folded).evaluate(circle_nodes(64))
        grid = from_fourier(coeffs).values_on_grid(64)
        assert np.max(np.abs(grid - direct)) <= 1e-14 * np.max(np.abs(direct))
        assert np.max(np.abs(grid - from_fourier(coeffs).evaluate(circle_nodes(64)))) < 1e-12

    def test_stored_samples_returned_as_they_are(self):
        # not band-limited: the grid rebuilt from the kept modes would differ
        values = 1.0 / (1.6 - np.exp(1j * circle_nodes(64)))
        f = parse_document({"samples": [[v.real, v.imag] for v in values]})
        np.testing.assert_array_equal(f.values_on_grid(64), values)
        finer = f.values_on_grid(128)
        direct = f.evaluate(circle_nodes(128))
        assert np.max(np.abs(finer - direct)) <= 1e-14 * np.max(np.abs(finer))

    def test_samples_document_grid_is_its_values(self):
        values = 0.5 + np.exp(1j * circle_nodes(64)) - 0.25j * np.exp(-3j * circle_nodes(64))
        f = parse_document({"samples": [[v.real, v.imag] for v in values]})
        np.testing.assert_array_equal(f.values_on_grid(64), values)
        kept = values.copy()
        g = from_samples(values)
        values[0] = 99.0
        np.testing.assert_array_equal(g.values_on_grid(64), kept)
