"""Post-process trajectories into blow-up rate reports and locality maps.

The rate model is ||n||_inf ~ A * (T* - t)^(-gamma).  T* is found by a
golden-section search over candidate times beyond the last sample, with the
inner problem an exact linear least-squares fit of log ||n||_inf against
log(T* - t).  Type I blow-up means limsup (T* - t) ||n||_inf stays finite,
i.e. at most the self-similar rate gamma = 1; anything faster is type II.

The admissible lower-bound constant for (T*-t)*||n||_inf follows from the
weight choices k3 = C3/4 and (2+sqrt(3))^2 * k3 * delta0 = 1/16:

    C_tilde = 3 * delta0^(-1/3) * c0_sup^(4/3)
            = 3 * (2*(2+sqrt(3)))^(2/3) * C3^(1/3) * c0_sup^(4/3)
    alpha   = 1 / (4 * C_tilde)

so alpha scales exactly like c0_sup^(-4/3) and C3^(-1/3).  C3 itself is an
existence-type constant with no computable value; it is a config input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import Field

NO_BLOWUP = "no_blowup"
TYPE_I = "type_I"
TYPE_II = "type_II"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_WINKLER_ROOT = 2.0 + math.sqrt(3.0)


@dataclass(frozen=True)
class RateFit:
    status: str                 # "ok" or "no_blowup"
    t_star: float = math.nan
    gamma: float = math.nan
    amplitude: float = math.nan
    residual: float = math.nan  # RMS of the log-log fit


@dataclass
class BlowupReport:
    t_star: float
    gamma: float
    amplitude: float
    fit_residual: float
    classification: str
    alpha: float
    limsup_estimate: float
    lower_bound_satisfied: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class NondegeneracyMap:
    """Per-cell sup over a late window of (t_star - t) * n(x, t)."""

    values: Field
    epsilon: float
    flagged: np.ndarray  # boolean mask of blow-up candidate cells

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.flagged))


def _loglog_fit(ts: np.ndarray, log_ns: np.ndarray, t_star: float):
    """Least squares of log n_sup = log A - gamma * log(t_star - t)."""
    x = np.log(t_star - ts)
    xm = float(np.mean(x))
    ym = float(np.mean(log_ns))
    dx = x - xm
    denom = float(np.sum(dx * dx))
    slope = float(np.sum(dx * (log_ns - ym))) / denom
    intercept = ym - slope * xm
    resid = log_ns - (intercept + slope * x)
    rms = math.sqrt(float(np.mean(resid * resid)))
    return slope, intercept, rms


def fit_rate(series: Sequence[tuple[float, float]], window_fraction: float = 0.25,
             residual_threshold: float = 0.25,
             search_tol: float = 1e-12) -> RateFit:
    """Fit (t_star, gamma, A) on the tail window of a (t, n_sup) series.

    The search bracket is (t_last, t_last + 10 * sampled span); the
    golden-section search shrinks it to search_tol relative.  Returns
    status "no_blowup" when n_sup is not increasing over the window, the
    fitted exponent is nonpositive, or the fit residual exceeds
    residual_threshold.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, n_sup) pairs")
    ts_all = arr[:, 0]
    ns_all = arr[:, 1]
    if not np.all(np.diff(ts_all) > 0.0):
        raise ValueError("series times must be strictly increasing")
    count = max(int(round(window_fraction * len(arr))), 2)
    if count < 8:
        raise ValueError(f"fit window has {count} points, need at least 8")
    ts = ts_all[-count:]
    ns = ns_all[-count:]
    if np.any(ns <= 0.0) or not np.all(np.diff(ns) > 0.0):
        return RateFit(status=NO_BLOWUP)

    log_ns = np.log(ns)
    t_last = float(ts[-1])
    span = float(ts_all[-1] - ts_all[0])
    lo = t_last + 1e-9 * max(span, abs(t_last), 1.0)
    hi = t_last + 10.0 * span

    def rms_at(t_star: float) -> float:
        return _loglog_fit(ts, log_ns, t_star)[2]

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rms_at(c), rms_at(d)
    scale = max(abs(hi), 1.0)
    while (b - a) > search_tol * scale:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rms_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rms_at(d)
    t_star = 0.5 * (a + b)
    slope, intercept, rms = _loglog_fit(ts, log_ns, t_star)
    gamma = -slope
    if gamma <= 0.0 or rms > residual_threshold:
        return RateFit(status=NO_BLOWUP)
    return RateFit(status="ok", t_star=t_star, gamma=gamma,
                   amplitude=math.exp(intercept), residual=rms)


def classify(gamma: float, tol: float = 0.05) -> str:
    """Type I iff gamma <= 1 + tol (at most the self-similar rate)."""
    return TYPE_I if gamma <= 1.0 + tol else TYPE_II


def alpha_lower_bound(c0_sup: float, C3: float) -> tuple[float, float, float, float]:
    """(alpha, C_tilde, delta0, kappa3) from the closed-form weight choices."""
    if c0_sup <= 0.0 or C3 <= 0.0:
        raise ValueError("c0_sup and C3 must be positive")
    kappa3 = C3 / 4.0
    delta0 = 1.0 / (16.0 * _WINKLER_ROOT**2 * kappa3)
    c_tilde = 3.0 * delta0 ** (-1.0 / 3.0) * c0_sup ** (4.0 / 3.0)
    alpha = 1.0 / (4.0 * c_tilde)
    return alpha, c_tilde, delta0, kappa3


def check_lower_bound(series: Sequence[tuple[float, float]], t_star: float,
                      alpha: float, window_fraction: float = 0.25
                      ) -> tuple[float, bool]:
    """Tail max of (t_star - t) * n_sup and whether it reaches alpha."""
    arr = np.asarray(series, dtype=float)
    count = max(int(round(window_fraction * len(arr))), 1)
    tail = arr[-count:]
    limsup_estimate = float(np.max((t_star - tail[:, 0]) * tail[:, 1]))
    return limsup_estimate, limsup_estimate >= alpha


def nondegeneracy_map(snapshots: Sequence[tuple[float, Field]], t_star: float,
                      epsilon: float = 0.01) -> NondegeneracyMap:
    """Per-cell max over snapshots of (t_star - t) * n; flag cells >= epsilon.

    A cell whose value stays below epsilon is certified away from the
    blow-up set; adding later snapshots never decreases any cell value.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    grid = snapshots[0][1].grid
    values = None
    for t, n in snapshots:
        if t >= t_star:
            raise ValueError(f"snapshot time {t} not before t_star {t_star}")
        scaled = (t_star - t) * n.values
        values = scaled if values is None else np.maximum(values, scaled)
    flagged = values >= epsilon
    return NondegeneracyMap(values=Field(grid, values), epsilon=epsilon,
                            flagged=flagged)

