import math

import mpmath
import numpy as np
import pytest

from dtnnet import specfun
from dtnnet.errors import DomainError
from dtnnet.specfun import compute_zeta_constants, polylog_half


def zeta_eta_oracle(s: float, terms: int = 48) -> float:
    """Eta-series oracle: Euler-van-Wijngaarden transform in high precision."""
    with mpmath.workdps(40):
        row = [mpmath.mpf(n + 1) ** (-s) for n in range(terms)]
        total = mpmath.mpf(0)
        for k in range(terms):
            total += row[0] / mpmath.mpf(2) ** (k + 1)
            row = [row[m] - row[m + 1] for m in range(len(row) - 1)]
        eta = total
        return float(eta / (1 - mpmath.mpf(2) ** (1 - mpmath.mpf(s))))


def polylog_direct(x: float) -> float:
    """Brute-force Dirichlet series summed to n = ceil(40/x)."""
    n = np.arange(1, int(math.ceil(40.0 / x)) + 1, dtype=float)
    return float(np.sum(np.exp(-n * x) / np.sqrt(n)))


class TestZetaConstants:
    def test_matches_eta_oracle(self):
        zc = compute_zeta_constants()
        for j, val in enumerate(zc.zeta_half_minus_j):
            assert val == pytest.approx(zeta_eta_oracle(0.5 - j), abs=1e-12)

    def test_frozen_values(self):
        zc = compute_zeta_constants()
        assert zc.zeta_half == pytest.approx(-1.460354508809587, abs=1e-12)
        assert zc.zeta_minus_half == pytest.approx(-0.207886224977355, abs=1e-12)

    def test_signs(self):
        zc = compute_zeta_constants()
        assert zc.zeta_half < 0
        assert zc.zeta_minus_half < 0


class TestPolylogHalf:
    def test_large_argument_first_term(self):
        assert polylog_half(50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_unit_argument(self):
        # 20 terms of the direct series pin the value to ~1e-10.
        expected = sum(math.exp(-n) / math.sqrt(n) for n in range(1, 21))
        assert polylog_half(1.0) == pytest.approx(expected, abs=1e-9)

    def test_small_argument_expansion(self):
        zc = compute_zeta_constants()
        eps = 0.01
        x = 2.0 * eps
        lead = math.sqrt(math.pi / x) + zc.zeta_half - x * zc.zeta_minus_half
        assert abs(polylog_half(x) - lead) <= eps**1.5

    def test_rejects_bad_arguments(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                polylog_half(bad)

    def test_array_matches_scalar_calls(self):
        xs = np.concatenate([np.logspace(-4, math.log10(50.0), 60), [0.5 - 1e-13, 0.5, 0.5 + 1e-13]])
        vals = polylog_half(xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        scalar = np.array([polylog_half(float(x)) for x in xs])
        assert isinstance(polylog_half(float(xs[0])), float)
        assert np.all(np.abs(vals - scalar) <= 1e-15 * np.abs(scalar))
        assert np.array_equal(polylog_half(xs.reshape(7, 9)), vals.reshape(7, 9))

    @pytest.mark.parametrize("xs", [np.linspace(0.5, 40.0, 17), np.logspace(-4, -0.31, 17),
                                    np.logspace(-4, 1.6, 17), np.array(3.0), np.array(0.2)],
                             ids=["all-series", "all-expansion", "mixed", "series-0d",
                                  "expansion-0d"])
    def test_equals_the_two_branch_form(self, monkeypatch, xs):
        # Both branches evaluated, one of them on an empty array where nothing is series
        # or nothing is expansion.
        series = xs >= specfun.CROSSOVER
        expected = np.empty_like(xs)
        expected[series] = specfun._polylog_half_series(xs[series])
        expected[~series] = specfun._polylog_half_expansion(xs[~series])
        calls = []
        for name in ("_polylog_half_series", "_polylog_half_expansion"):
            real = getattr(specfun, name)
            monkeypatch.setattr(specfun, name,
                                lambda x, real=real, name=name: calls.append(name) or real(x))
        got = polylog_half(xs)
        assert np.array_equal(got, expected) and np.shape(got) == xs.shape
        assert calls == [name for name, part in (("_polylog_half_series", series),
                                                 ("_polylog_half_expansion", ~series))
                         if part.any()]

    def test_array_rejects_any_bad_element(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                polylog_half(np.array([0.1, 2.0, bad, 30.0]))

    def test_monotone_decreasing(self):
        xs = np.logspace(-4, 1.5, 200)
        vals = [polylog_half(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_crossover_continuity(self):
        gap = abs(polylog_half(0.5 - 1e-13) - polylog_half(0.5 + 1e-13))
        assert gap <= 1e-10

    def test_matches_direct_series_in_expansion_range(self):
        for x in np.logspace(-4, math.log10(0.4), 30):
            assert polylog_half(float(x)) == pytest.approx(
                polylog_direct(float(x)), abs=1e-9
            )

    def test_expansion_error_slope(self):
        zc = compute_zeta_constants()
        xs = np.logspace(-4, -1, 40)
        errs = []
        for x in xs:
            lead = math.sqrt(math.pi / x) + zc.zeta_half - x * zc.zeta_minus_half
            errs.append(abs(polylog_direct(float(x)) - lead))
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope >= 1.4
