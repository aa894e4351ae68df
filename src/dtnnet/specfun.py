"""Polylogarithm Li_{1/2} and the Riemann zeta constants it needs.

Li_{1/2}(e^{-x}) is evaluated by the direct Dirichlet series for x >= 0.5
and by the small-argument expansion

    sqrt(pi/x) + sum_{j=0..8} zeta(1/2 - j) (-x)^j / j!

for 0 < x < 0.5. The crossover at 0.5 keeps both branches within 1e-10 of
each other. All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

EXPANSION_ORDER = 8
CROSSOVER = 0.5
SERIES_TERM_CUTOFF = 1e-17


@dataclass(frozen=True)
class ZetaConstants:
    zeta_half: float
    zeta_minus_half: float
    zeta_half_minus_j: tuple[float, ...]  # zeta(1/2 - j) for j = 0..8


def _eta_alternating(s: float, terms: int = 64) -> float:
    """Dirichlet eta via the Euler transform of the alternating series."""
    row = [(n + 1.0) ** (-s) for n in range(terms)]
    total = 0.0
    for k in range(terms):
        total += row[0] / 2.0 ** (k + 1)
        row = [row[m] - row[m + 1] for m in range(len(row) - 1)]
        if not row:
            break
    return total


def _zeta_via_eta(s: float) -> float:
    return _eta_alternating(s) / (1.0 - 2.0 ** (1.0 - s))


def _zeta_reflected(s: float) -> float:
    """zeta(s) for s < 0 from the functional equation and zeta(1-s)."""
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * math.gamma(1.0 - s)
        * _zeta_via_eta(1.0 - s)
    )


@lru_cache(maxsize=1)
def compute_zeta_constants() -> ZetaConstants:
    """zeta(1/2 - j) for j = 0..8, accurate to better than 1e-12.

    The eta relation is used directly at s = 1/2; for negative s the
    alternating series loses digits to cancellation in doubles, so those
    values go through the functional equation instead (the eta series then
    only runs at s = 1/2 + j where it is benign).
    """
    values = []
    for j in range(EXPANSION_ORDER + 1):
        s = 0.5 - j
        values.append(_zeta_via_eta(s) if s > 0 else _zeta_reflected(s))
    zc = ZetaConstants(
        zeta_half=values[0],
        zeta_minus_half=values[1],
        zeta_half_minus_j=tuple(values),
    )
    assert zc.zeta_half < 0.0
    assert zc.zeta_minus_half < 0.0
    return zc


def _polylog_half_series(x: np.ndarray) -> np.ndarray:
    """Direct series sum_{n>=1} e^{-n x} / sqrt(n), truncated at 1e-17 for the
    smallest x; past its own cutoff an element's terms are below 1e-17 e^{-x}."""
    n_max = max(8, int(math.ceil(-math.log(SERIES_TERM_CUTOFF) / x.min(initial=np.inf))) + 1)
    total = np.zeros_like(x)
    for n in range(1, n_max + 1):
        total += np.exp(-n * x) / math.sqrt(n)
    return total


def _polylog_half_expansion(x: np.ndarray) -> np.ndarray:
    zc = compute_zeta_constants()
    total = np.sqrt(math.pi / x)
    term = np.ones_like(x)  # (-x)^j / j!
    for j in range(EXPANSION_ORDER + 1):
        total += zc.zeta_half_minus_j[j] * term
        term *= -x / (j + 1)
    return total


def polylog_half(x):
    """Li_{1/2}(e^{-x}) for x > 0, elementwise; a float for scalar input."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError(f"polylog_half needs a positive finite argument, got {x!r}")
    out = np.empty_like(arr)
    series = arr >= CROSSOVER
    out[series] = _polylog_half_series(arr[series])
    out[~series] = _polylog_half_expansion(arr[~series])
    return float(out) if out.ndim == 0 else out
