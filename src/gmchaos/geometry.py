"""Closed-form hyperbolic-area calculus for the cone regions of the
white-noise decomposition of the log-correlated field on [0, 1].

The level-j field integrates a planar white noise, controlled by the
hyperbolic measure dx dy / y^2, over a horizontal strip of the cone
{(x, y) : y > max(2|x - t|, 2^-j)}; level 0 takes everything above
height 1.  Every second-order quantity of the level fields is the
hyperbolic area of an intersection of two such strips, which reduces to
a one-dimensional slab integral with closed-form value.  A numeric
quadrature of the same slab sections is provided as an independent
cross-check of the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# The level-0 strip extends to y = infinity; the quadrature oracle stops at
# this height.  The neglected tail has hyperbolic area (1 - h) / Y_CUTOFF at
# lag h, at most 1e-4: over the 50 lags of `gmchaos verify` and acceptance
# criterion 1 it is 1.00e-04 of level 0's 1.05e-04 oracle defect (the midpoint
# rule the other 5.3e-06), while levels 1-6 read at most 1.2e-08.
Y_CUTOFF = 1.0e4


def _integer(value, name: str, low: int | None = None) -> int:
    """The integer rule: a Python or numpy integer at least `low` as int, else refused by name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {int(value)}")
    return int(value)


def _number(value, name: str) -> float:
    """The number rule: a Python or numpy real as float; a bool or string is refused by name."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_level(j: int) -> int:
    return _integer(j, "level index", 0)


def _as_lags(h):
    """A scalar lag through the number rule, or an integer or float lag array,
    as floats once none is negative (nor NaN)."""
    lags = np.asarray(_number(h, "lag") if np.ndim(h) == 0 else h)
    if lags.dtype.kind not in "iuf":
        raise ValueError(f"lags must be integers or floats, got dtype {lags.dtype}")
    if not np.all(lags >= 0):
        raise ValueError("lags must be non-negative; take |t - s| before calling")
    return lags.astype(float, copy=False)


def level_variance(j: int) -> float:
    """Pointwise variance of the level-j field: 1 for level 0, log 2 above."""
    _check_level(j)
    return 1.0 if j == 0 else LN2


def level_support(j: int) -> float:
    """Lag beyond which the level-j covariance vanishes: 1 for level 0,
    2^-(j-1) (the strip top) above."""
    j = _check_level(j)
    return 1.0 if j == 0 else 2.0 ** (-(j - 1))


def level_covariance(j: int, h):
    """Covariance of the level-j field at lag h >= 0.

    Equals the hyperbolic area of the intersection of two level-j strips
    whose apexes sit h apart.  Accepts a scalar or an array of lags.
    """
    j = _check_level(j)
    lags = _as_lags(h)
    if j == 0:
        out = np.maximum(0.0, 1.0 - lags)
    else:
        half = level_support(j)
        full = 2.0 ** (-j)  # strip bottom
        out = np.zeros_like(lags)
        low = lags <= full
        mid = (lags > full) & (lags < half)
        out[low] = LN2 - lags[low] * 2.0 ** (j - 1)
        safe = np.where(mid, lags, 1.0)
        out[mid] = np.log(half / safe[mid]) + safe[mid] * 2.0 ** (j - 1) - 1.0
    return float(out) if np.isscalar(h) or np.ndim(h) == 0 else out


def cumulative_covariance(m: int, h):
    """Covariance of the depth-m cumulative field (levels 0..m summed).

    m*log(2) + 1 - 2^m h below lag 2^-m, -log(h) out to lag 1, then 0.
    """
    m = _check_level(m)
    lags = _as_lags(h)
    out = np.zeros_like(lags)
    near = lags < 2.0 ** (-m)
    far = (lags >= 2.0 ** (-m)) & (lags <= 1.0)
    out[near] = m * LN2 + 1.0 - lags[near] * 2.0**m
    safe = np.where(far, lags, 1.0)
    out[far] = -np.log(safe[far])
    return float(out) if np.isscalar(h) or np.ndim(h) == 0 else out


def _section(center: float, y: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    # Horizontal section of the level-j strip at heights y: an interval
    # centered at the apex, of width y inside the cone (width 1 at level 0).
    half = np.full_like(y, 0.5) if j == 0 else y / 2.0
    return center - half, center + half


def overlap_quadrature(j: int, h: float, resolution: int = 2000) -> float:
    """Midpoint-rule area of the intersection of level-j strips at lag h.

    Slabs are geometrically spaced in height; each slab contributes
    (section overlap width) / y^2 * dy, the overlap width coming from
    direct interval intersection of the two cone sections.  Converges to
    level_covariance as resolution (at least 100) grows; level 0 is
    truncated at Y_CUTOFF.
    """
    j, h = _check_level(j), float(_as_lags(_number(h, "lag")))
    resolution = _integer(resolution, "resolution", 100)
    if j == 0:
        y_lo, y_hi = 1.0, Y_CUTOFF
    else:
        y_lo, y_hi = 2.0 ** (-j), 2.0 ** (-(j - 1))
    edges = np.geomspace(y_lo, y_hi, resolution + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    lo1, hi1 = _section(0.0, mids, j)
    lo2, hi2 = _section(h, mids, j)
    overlap = np.maximum(0.0, np.minimum(hi1, hi2) - np.maximum(lo1, lo2))
    return float(np.sum(overlap / mids**2 * widths))
