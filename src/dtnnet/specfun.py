"""Polylogarithm Li_{1/2} and the Riemann zeta constants it needs.

Li_{1/2}(e^{-x}) is evaluated by the direct Dirichlet series for x >= 0.5
and by the small-argument expansion

    sqrt(pi/x) + sum_{j=0..12} zeta(1/2 - j) (-x)^j / j!

for 0 < x < 0.5. Both branches are within 2e-15 relative of Li_{1/2} on
either side of the crossover, so they agree there to a few ulps. All
arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special

from .errors import DomainError

EXPANSION_ORDER = 12
CROSSOVER = 0.5
SERIES_TERM_CUTOFF = 1e-17


@lru_cache(maxsize=1)
def _zeta_table() -> np.ndarray:
    """zeta(1/2 - j), j = 0..12, from ``scipy.special.zeta``, within 2e-15 relative; read-only."""
    zeta = scipy.special.zeta(0.5 - np.arange(EXPANSION_ORDER + 1))
    assert zeta[0] < 0.0
    assert zeta[1] < 0.0
    zeta.flags.writeable = False
    return zeta


def _polylog_half_series(x: np.ndarray) -> np.ndarray:
    """Direct series sum_{n>=1} q^n / sqrt(n), q = e^{-x}, by a running product q^n, the
    batch summed to the cutoff max(8, ceil(-ln(1e-17) / min x) + 1). Past its own x's
    cutoff an element's terms are below 1e-17 e^{-2x}, under half an ulp of its partial
    sum (5.5e-17 of it or more), so they round away: no element depends on the batch."""
    q = np.exp(-x)
    n_max = max(8, math.ceil(-math.log(SERIES_TERM_CUTOFF) / np.min(x, initial=np.inf)) + 1)
    total, power = np.zeros_like(q), q.copy()
    for n in range(1, n_max + 1):
        total += power / math.sqrt(n)
        power *= q
    return total


def _polylog_half_expansion(x: np.ndarray) -> np.ndarray:
    """The expansion at the 1-D x: its terms (-x)^j / j! by a running product and
    their sum by a running sum from sqrt(pi/x), each in the order of j."""
    terms = np.empty((EXPANSION_ORDER + 2, *x.shape))
    terms[1], terms[2:] = 1.0, -x / np.arange(1.0, EXPANSION_ORDER + 1).reshape(-1, 1)
    np.cumprod(terms[1:], axis=0, out=terms[1:])
    terms[1:] *= _zeta_table()[:, None]
    terms[0] = np.sqrt(math.pi / x)
    return np.cumsum(terms, axis=0, out=terms)[-1]


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
