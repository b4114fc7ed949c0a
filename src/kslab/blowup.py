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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .grid import Field

NO_BLOWUP = "no_blowup"
TYPE_I = "type_I"
TYPE_II = "type_II"

MIN_FIT_POINTS = 8  # the fewest samples a fit window may hold
_SEARCH_TOL = 1e-12  # the golden-section search's relative bracket width
_TYPE_I_TOL = 0.05  # the excess of gamma over 1 that classify calls type I
# the C3 a report accepts: delta0 and C_tilde's delta0^(-1/3) are then normal
# doubles (delta0 underflows to 0 from about C3 = 3.2e306)
C3_RANGE = (1e-300, 1e300)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_WINKLER_ROOT = 2.0 + math.sqrt(3.0)


@dataclass(frozen=True)
class RateFit:
    status: str                 # "ok" or "no_blowup"
    t_star: float = math.nan
    gamma: float = math.nan
    amplitude: float = math.nan
    residual: float = math.nan  # RMS of the log-log fit


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


def window_size(samples: int, window_fraction: float) -> int:
    """The tail a fit reads: round(window_fraction * samples), at least one."""
    return max(int(round(window_fraction * samples)), 1)


def fit_rate(series: Sequence[tuple[float, float]], window_fraction: float = 0.25,
             residual_threshold: float = 0.25) -> RateFit:
    """Fit (t_star, gamma, A) on the tail window of a (t, n_sup) series.

    The search bracket is (t_last, t_last + 10 * sampled span); the
    golden-section search shrinks it to _SEARCH_TOL relative.  Returns
    status "no_blowup" when n_sup is not increasing over the window, the
    fitted exponent is not positive, or the fit residual exceeds
    residual_threshold.  A non-finite sample, or a window_fraction outside
    (0, 1], raises ValueError naming it.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(f"window fraction must lie in (0, 1], got {window_fraction!r}")
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, n_sup) pairs")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        t, n_sup = (float(v) for v in arr[row])
        raise ValueError(f"series row {row} is not finite: t={t!r}, n_sup={n_sup!r}")
    ts_all = arr[:, 0]
    ns_all = arr[:, 1]
    if not np.all(np.diff(ts_all) > 0.0):
        raise ValueError("series times must be strictly increasing")
    count = window_size(len(arr), window_fraction)
    if count < MIN_FIT_POINTS:
        raise ValueError(f"fit window has {count} points, "
                         f"need at least {MIN_FIT_POINTS}")
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
    while (b - a) > _SEARCH_TOL * scale:
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
    if not gamma > 0.0 or rms > residual_threshold:
        return RateFit(status=NO_BLOWUP)
    return RateFit(status="ok", t_star=t_star, gamma=gamma,
                   amplitude=math.exp(intercept), residual=rms)


def classify(gamma: float) -> str:
    """Type I iff gamma <= 1 + _TYPE_I_TOL (at most the self-similar rate)."""
    return TYPE_I if gamma <= 1.0 + _TYPE_I_TOL else TYPE_II


def _lower_bound_constants(c0_sup: float, C3: float) -> tuple[float, float, float, float]:
    """(alpha, C_tilde, delta0, kappa3); alpha is inf where C_tilde is 0,
    that is for c0_sup = 0 and for c0_sup below about 1e-243, whose 4/3
    power underflows, and where 1 / (4 C_tilde) overflows.  C_tilde is inf
    where it overflows (c0_sup above about 1e231 at C3 = 1), and alpha 0."""
    kappa3 = C3 / 4.0
    delta0 = 1.0 / (16.0 * _WINKLER_ROOT**2 * kappa3)
    try:
        c_tilde = 3.0 * delta0 ** (-1.0 / 3.0) * c0_sup ** (4.0 / 3.0)
    except OverflowError:  # c0_sup^(4/3) beyond the largest double
        c_tilde = math.inf
    alpha = 1.0 / (4.0 * c_tilde) if c_tilde > 0.0 else math.inf
    return alpha, c_tilde, delta0, kappa3


def alpha_lower_bound(c0_sup: float, C3: float) -> tuple[float, float, float, float]:
    """(alpha, C_tilde, delta0, kappa3) from the closed-form weight choices;
    raises ValueError unless c0_sup is positive and C3 in C3_RANGE."""
    if not (c0_sup > 0.0 and C3_RANGE[0] <= C3 <= C3_RANGE[1]):
        raise ValueError("c0_sup must be positive and C3 in C3_RANGE")
    return _lower_bound_constants(c0_sup, C3)


def check_lower_bound(series: Sequence[tuple[float, float]], t_star: float,
                      alpha: float, window_fraction: float = 0.25
                      ) -> tuple[float, bool]:
    """Tail max of (t_star - t) * n_sup and whether it reaches alpha."""
    arr = np.asarray(series, dtype=float)
    tail = arr[-window_size(len(arr), window_fraction):]
    limsup_estimate = float(np.max((t_star - tail[:, 0]) * tail[:, 1]))
    return limsup_estimate, limsup_estimate >= alpha


def rate_report(series: Sequence[tuple[float, float]], fit: RateFit, c0_sup: float,
                C3: float, window_fraction: float, note: Optional[str] = None) -> dict:
    """The blow-up report of a rate fit on series: the fit, its type, alpha
    and the tail's limsup estimate against it, an optional note, then the
    constants.  A declined fit reads limsup_estimate 0.0 and
    lower_bound_satisfied False.  alpha grows like c0_sup^(-4/3); where it
    is not a finite number (c0_sup = 0, initial c zero everywhere, or
    below about 1e-233), or where C_tilde overflows (c0_sup above about
    1e231 at C3 = 1), the report holds alpha None, says why in the note,
    and no limsup satisfies the bound.  Raises ValueError unless c0_sup is
    nonnegative and C3 in C3_RANGE."""
    if not (c0_sup >= 0.0 and C3_RANGE[0] <= C3 <= C3_RANGE[1]):
        raise ValueError("c0_sup must be nonnegative and C3 in C3_RANGE")
    alpha, c_tilde, delta0, kappa3 = _lower_bound_constants(c0_sup, C3)
    classification, limsup_estimate, satisfied = NO_BLOWUP, 0.0, False
    if fit.status != NO_BLOWUP:
        classification = classify(fit.gamma)
        limsup_estimate, satisfied = check_lower_bound(
            series, fit.t_star, alpha, window_fraction=window_fraction)
    notes = [note] if note else []
    if math.isinf(alpha):
        alpha = None
        notes.append(f"alpha is unbounded: c0_sup = {c0_sup!r} gives "
                     f"C_tilde = {c_tilde!r}, so no finite limsup reaches it")
    elif math.isinf(c_tilde):  # alpha is 0, which any limsup would reach
        alpha, satisfied = None, False
        notes.append(f"C_tilde overflows: c0_sup = {c0_sup!r} and C3 = {C3!r} "
                     f"give C_tilde = inf, so alpha = 1/(4 C_tilde) bounds nothing")
    report = {"t_star": fit.t_star, "gamma": fit.gamma, "amplitude": fit.amplitude,
              "fit_residual": fit.residual, "classification": classification,
              "alpha": alpha, "limsup_estimate": limsup_estimate,
              "lower_bound_satisfied": satisfied}
    if notes:
        report["note"] = "; ".join(notes)
    report["constants"] = {"C_tilde": c_tilde, "delta0": delta0, "kappa3": kappa3,
                           "C3": C3, "c0_sup": c0_sup}
    return report


def nondegeneracy_map(snapshots: Iterable[tuple[float, Field]], t_star: float) -> Field:
    """Per-cell max over snapshots of (t_star - t) * n.

    snapshots may be any iterable, a generator included: each one is folded
    into the map as it arrives and no reference to it is kept, so the fold
    holds the map and one scaled copy besides the snapshot in hand.  A cell
    whose value stays below the paper's epsilon is certified away from the
    blow-up set; adding later snapshots never decreases any cell value.
    """
    grid = values = scaled = None
    for t, n in snapshots:
        if t >= t_star:
            raise ValueError(f"snapshot time {t} not before t_star {t_star}")
        if values is None:
            grid, values = n.grid, np.multiply(t_star - t, n.values)
        else:
            scaled = np.multiply(t_star - t, n.values, out=scaled)
            np.maximum(values, scaled, out=values)
    if values is None:
        raise ValueError("need at least one snapshot")
    return Field(grid, values)
