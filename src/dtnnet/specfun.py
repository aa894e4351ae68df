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
import scipy.special

from .errors import DomainError

EXPANSION_ORDER = 8
CROSSOVER = 0.5
SERIES_TERM_CUTOFF = 1e-17


@dataclass(frozen=True)
class ZetaConstants:
    zeta_half: float
    zeta_minus_half: float
    zeta_half_minus_j: tuple[float, ...]  # zeta(1/2 - j) for j = 0..8


@lru_cache(maxsize=1)
def compute_zeta_constants() -> ZetaConstants:
    """zeta(1/2 - j) for j = 0..8 from ``scipy.special.zeta``, within 2e-15 relative."""
    values = scipy.special.zeta(0.5 - np.arange(EXPANSION_ORDER + 1)).tolist()
    zc = ZetaConstants(values[0], values[1], tuple(values))
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
    for part, branch in ((series, _polylog_half_series), (~series, _polylog_half_expansion)):
        if part.any():  # an empty branch would still loop over its terms
            out[part] = branch(arr[part])
    return float(out) if out.ndim == 0 else out
