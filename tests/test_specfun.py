import math

import mpmath
import numpy as np
import pytest

from dtnnet import specfun
from dtnnet.errors import DomainError
from dtnnet.generators import grid_packing
from dtnnet.geometry import analyze
from dtnnet.specfun import polylog_half


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
        for j, val in enumerate(specfun._zeta_table()):
            assert val == pytest.approx(zeta_eta_oracle(0.5 - j), abs=1e-12)

    def test_frozen_values(self):
        zeta = specfun._zeta_table()
        assert zeta[0] == pytest.approx(-1.460354508809587, abs=1e-12)
        assert zeta[1] == pytest.approx(-0.207886224977355, abs=1e-12)

    def test_signs(self):
        zeta = specfun._zeta_table()
        assert zeta[0] < 0
        assert zeta[1] < 0

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            specfun._zeta_table()[0] = 0.0


class TestPolylogHalf:
    def test_large_argument_first_term(self):
        assert polylog_half(50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)

    def test_unit_argument(self):
        # 20 terms of the direct series pin the value to ~1e-10.
        expected = sum(math.exp(-n) / math.sqrt(n) for n in range(1, 21))
        assert polylog_half(1.0) == pytest.approx(expected, abs=1e-9)

    def test_small_argument_expansion(self):
        zeta = specfun._zeta_table()
        eps = 0.01
        x = 2.0 * eps
        lead = math.sqrt(math.pi / x) + zeta[0] - x * zeta[1]
        assert abs(polylog_half(x) - lead) <= eps**1.5

    def test_rejects_bad_arguments(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                polylog_half(bad)

    def test_array_matches_scalar_calls(self):
        # The second batch holds the edges of the series' half-ulp argument: 0.5 sets the
        # batch's cutoff, and q = e^{-x} is subnormal at 745 and zero at 800.
        mixed = np.concatenate([np.logspace(-4, math.log10(50.0), 60),
                                [0.5 - 1e-13, 0.5, 0.5 + 1e-13]])
        for xs in (mixed, np.array([0.5, 700.0, 745.0, 800.0])):
            vals = polylog_half(xs)
            assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
            scalar = np.array([polylog_half(float(x)) for x in xs])
            assert np.array_equal(vals, scalar)
        assert isinstance(polylog_half(float(xs[0])), float)
        assert np.array_equal(polylog_half(mixed.reshape(7, 9)), polylog_half(mixed).reshape(7, 9))

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

    @pytest.mark.parametrize("grid", [(0.1, 0.02), (0.02, 0.004), (0.01, 0.002)],
                             ids=["n61", "n1789", "n7291"])
    def test_series_matches_the_per_term_exp_series(self, grid):
        # The series arguments of a 128-mode sweep table, x = 2 k delta_i / L, k = 1..128,
        # against the series with e^{-n x} from one exp per term, all summed to the cutoff
        # of the smallest x.
        a = analyze(grid_packing(*grid))
        x = (2.0 * np.arange(1.0, 129.0) * a.boundary_gaps[:, None] / a.packing.L).ravel()
        x = x[x >= specfun.CROSSOVER]
        n = np.arange(1, int(math.ceil(-math.log(specfun.SERIES_TERM_CUTOFF) / x.min())) + 2)
        expected = sum(np.exp(-k * x) / math.sqrt(k) for k in n.tolist())
        got = specfun._polylog_half_series(x)
        assert np.all(np.abs(got - expected) <= 5e-16 * expected)

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

    def test_matches_mpmath_below_the_crossover(self):
        # Where the expansion's truncation error is largest, just below x = 0.5.
        xs = np.linspace(0.3, 0.5, 41)[:-1]
        with mpmath.workdps(30):
            expected = np.array([float(mpmath.polylog(0.5, mpmath.exp(-x))) for x in xs])
        assert np.all(np.abs(polylog_half(xs) - expected) <= 2e-15 * expected)

    def test_expansion_error_slope(self):
        zeta = specfun._zeta_table()
        xs = np.logspace(-4, -1, 40)
        errs = []
        for x in xs:
            lead = math.sqrt(math.pi / x) + zeta[0] - x * zeta[1]
            errs.append(abs(polylog_direct(float(x)) - lead))
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope >= 1.4
