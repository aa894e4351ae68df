"""Polylogarithm Li_{1/2} and the Riemann zeta constants it needs.

Li_{1/2}(e^{-x}) is evaluated by the direct Dirichlet series for x >= 0.5
and by the small-argument expansion

    sqrt(pi/x) + sum_{j=0..8} zeta(1/2 - j) (-x)^j / j!

for 0 < x < 0.5. The crossover at 0.5 keeps both branches within 1e-10 of
each other. All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special

from .errors import DomainError

EXPANSION_ORDER = 8
CROSSOVER = 0.5
SERIES_TERM_CUTOFF = 1e-17


@lru_cache(maxsize=1)
def _zeta_table() -> np.ndarray:
    """zeta(1/2 - j) for j = 0..8 from ``scipy.special.zeta``, within 2e-15 relative,
    read-only."""
    zeta = scipy.special.zeta(0.5 - np.arange(EXPANSION_ORDER + 1))
    assert zeta[0] < 0.0
    assert zeta[1] < 0.0
    zeta.flags.writeable = False
    return zeta


def _polylog_half_series(x: np.ndarray) -> np.ndarray:
    """Direct series sum_{n>=1} q^n / sqrt(n), q = e^{-x}, each element summed to its
    own cutoff max(8, ceil(-ln(1e-17) / x) + 1), past which its terms are below
    1e-17 e^{-x}. The powers q^n are a running product, and the elements run from
    the smallest x, so those still summing at term n are a prefix; an element's
    sum does not depend on the rest of the batch."""
    order = np.argsort(x, kind="stable")
    q = np.exp(-x[order])
    n_max = np.maximum(8, np.ceil(-math.log(SERIES_TERM_CUTOFF) / x[order]).astype(int) + 1)
    # The last element of each cutoff, from the smallest cutoff up (n_max does not
    # increase along order): it and the elements before it reach that cutoff.
    last = np.flatnonzero(np.diff(n_max, append=0))[::-1]
    cutoffs = n_max[last]
    del n_max  # the loop's working set is q, power and total
    total, power = np.zeros_like(q), q.copy()
    start = 1
    for stop, m in zip(cutoffs.tolist(), (last + 1).tolist()):
        t, p, q_m = total[:m], power[:m], q[:m]  # the elements that sum terms start..stop
        for n in range(start, stop + 1):
            t += p / math.sqrt(n)
            p *= q_m
        start = stop + 1
    out = np.empty_like(total)
    out[order] = total
    return out


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
