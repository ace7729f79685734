"""Analytic detection performance: Pd/Pfa, CFAR thresholds, ROC curves.

The decision rule is one-sided for every detector: declare a signal when
the statistic exceeds the threshold, so pd = 1 − cdf_H1(t) and
pfa = 1 − cdf_H0(t).  ROC curves place thresholds at H0 quantiles of an
equispaced false-alarm grid, read from one H0 quantile map per curve, and
evaluate pfa and pd exactly at each threshold.  The map is a cubic spline of
log t (t for differences) against the normal score Φ⁻¹(p), in which it is
nearly linear, through about 130 exact H0 cdf knots.  The spline is SciPy's
not-a-knot CubicSpline rebuilt in NumPy, bit for bit: the same slope system,
solved by tridiagonal elimination with LAPACK's pivoting, and PPoly's
evaluation order; importing scipy.interpolate would load scipy.linalg and
scipy.sparse, a large part of every CLI start-up.  The AUC is not taken from
those points: it is P(S₁ > S₀) = ∫ SF₁(t)·f₀(t) dt (Hanley & McNeil, 1982),
one Gauss–Legendre integral over H0's mass, in log t for positive
statistics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from ._pool import ordered_map
from .distributions import QUANTILE_TOL, ComputationError, Law, _legendre, law_quantile
from .scenario import DetectorKind, ScenarioSpec, detector_laws

__all__ = [
    "DetectorComparison",
    "RocCurve",
    "auc",
    "compare_detectors",
    "pd_pfa",
    "roc_curve",
    "threshold_for_pfa",
]

DEFAULT_GRID = 1024
#: |AUC| error targeted by the AUC integral: two successive rule sizes must
#: agree this closely, and the accepted rule must integrate f₀ to 1 as closely.
AUC_TOL = 1e-9
# The H0 quantile map spans quantile orders [_MAP_P_EDGE, 1 − _MAP_P_EDGE].
_MAP_P_EDGE = 1.0 / 16385
# Exact cdf knots of the map, evenly spaced in the law's variable.
_MAP_KNOTS = 128
# Normal-score span of a knot interval above which it is bisected.
_MAP_Z_GAP = 0.125
# Bisection rounds, at most.
_MAP_ROUNDS = 40
# The AUC integral leaves at most this much H0 mass outside each end.
_AUC_TAIL = 1e-13
# Equal panels across the map's range.
_AUC_CORE_PANELS = 4
# Tail panels beyond each end of the map's range, doubling in width, at most.
_AUC_TAIL_PANELS = 8
# Gauss–Legendre nodes per panel, tried in turn.
_AUC_RULE_SIZES = (8, 12, 16, 24, 32, 48, 64)


class _H0Map:
    """Increasing p → threshold map of an H0 law between its quantiles of
    order _MAP_P_EDGE and 1 − _MAP_P_EDGE.

    In the law's own variable x (log t for positive laws, t otherwise, as in
    _auc) against the normal score z = Φ⁻¹(p) the map is nearly linear, so
    x(z) is a cubic spline through exact cdf knots: _MAP_KNOTS evenly spaced
    in x, plus t = 0 inside a difference's range, where small-N differences
    have a kink and the spline is split in two.  Knot intervals are bisected
    while they span more than _MAP_Z_GAP in z, for at most _MAP_ROUNDS rounds.
    A spline piece that is not increasing throughout (the map is flat across
    an atom, say) is made linear, so the map increases by construction.
    """

    def __init__(self, h0: Law):
        self.law = h0
        self.t_lo = law_quantile(h0, _MAP_P_EDGE)
        self.t_hi = law_quantile(h0, 1.0 - _MAP_P_EDGE)
        positive = getattr(h0, "support_lo", -np.inf) >= 0.0
        self._to_t = np.exp if positive else np.asarray
        ends = [self.t_lo, self.t_hi]
        x = np.linspace(*(np.log(ends) if positive else ends), _MAP_KNOTS)
        kink = not positive and self.t_lo < 0.0 < self.t_hi
        if kink:
            x = np.union1d(x, [0.0])
        p = np.asarray(h0.cdf(self._to_t(x)))
        for rounds in range(_MAP_ROUNDS + 1):
            z = ndtri(p)
            # knots whose z exceeds every earlier one's
            keep = np.isfinite(z) & (z > np.maximum.accumulate(np.r_[-np.inf, z[:-1]]))
            xk, zk = x[keep], z[keep]
            wide = np.diff(zk) > _MAP_Z_GAP
            lo, hi = xk[:-1][wide], xk[1:][wide]
            mid = 0.5 * (lo + hi)
            mid = mid[(lo < mid) & (mid < hi)]
            if rounds == _MAP_ROUNDS or mid.size == 0:
                break
            order = np.argsort(np.concatenate([x, mid]), kind="stable")
            x = np.concatenate([x, mid])[order]
            p = np.concatenate([p, h0.cdf(self._to_t(mid))])[order]
        spline = _spline(zk, xk, np.flatnonzero(xk == 0.0) if kink else [])
        flat = _least_slope(spline) <= 0.0
        spline.c[:2, flat] = 0.0
        spline.c[2, flat] = (np.diff(xk) / np.diff(zk))[flat]
        self._spline = spline
        self._p_range = p[keep][0], p[keep][-1]

    def __call__(self, p):
        return self._to_t(self._spline(ndtri(np.clip(p, *self._p_range))))

    def threshold(self, target_pfa: float) -> float:
        """Threshold of false-alarm rate target_pfa: the map's value when it
        meets QUANTILE_TOL, else threshold_for_pfa's root."""
        p = 1.0 - float(target_pfa)
        t = float(self(p))
        if abs(float(self.law.cdf(t)) - p) <= QUANTILE_TOL:
            return t
        return threshold_for_pfa(self.law, target_pfa)


@dataclass(eq=False)
class _Cubic:
    """Piecewise cubic on breakpoints x: on [x[i], x[i+1]] it is
    Σₖ c[k, i]·(z − x[i])^(3−k), the layout of scipy's PPoly."""

    c: np.ndarray
    x: np.ndarray

    def __call__(self, z):
        i = np.clip(np.searchsorted(self.x, z, side="right") - 1, 0, self.x.size - 2)
        s = z - self.x[i]
        c3, c2, c1, c0 = self.c[:, i]
        # the power sum in PPoly's order of operations
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)


def _tridiagonal_solve(dl, d, du, b) -> list[float]:
    """Solution of the tridiagonal system with sub-, main and super-diagonals
    dl, d, du and right-hand side b, by Gaussian elimination with partial
    pivoting in the steps of LAPACK's dgtsv for one right-hand side."""
    dl, d, du, b = (np.asarray(v, dtype=float).tolist() for v in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i + 1; dl[i] becomes row i's second
            # super-diagonal
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _not_a_knot(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """PPoly coefficients (4, n − 1) of the not-a-knot cubic spline x(z)
    through n ≥ 2 knots, as scipy's CubicSpline builds them: the parabola
    through 3 knots, the line through 2."""
    h = np.diff(z)
    m = np.diff(x) / h
    n = z.size
    if n == 2:
        s = [m[0], m[0]]
    elif n == 3:
        s = _tridiagonal_solve(
            [h[1], 1.0],
            [1.0, 2.0 * (h[0] + h[1]), 1.0],
            [1.0, h[0]],
            [2.0 * m[0], 3.0 * (h[0] * m[1] + h[1] * m[0]), 2.0 * m[1]],
        )
    else:
        # slope s[i] at every knot: interior rows from continuous curvature,
        # end rows from a continuous third derivative at the second and the
        # last-but-one knot
        d0, d1 = z[2] - z[0], z[-1] - z[-3]
        s = _tridiagonal_solve(
            np.r_[h[1:], d1],
            np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]],
            np.r_[d0, h[:-1]],
            np.r_[
                ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0,
                3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
                (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1,
            ],
        )
    s = np.asarray(s)
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], x[:-1]])


def _spline(z: np.ndarray, x: np.ndarray, kinks) -> _Cubic:
    """Not-a-knot cubic spline x(z), split into independent splines at the
    knot indices `kinks`."""
    cuts = [0, *(int(i) for i in kinks if 0 < i < z.size - 1), z.size - 1]
    parts = [_not_a_knot(z[a : b + 1], x[a : b + 1]) for a, b in zip(cuts, cuts[1:])]
    return _Cubic(np.hstack(parts), z)


def _least_slope(spline: _Cubic) -> np.ndarray:
    """Least slope of each cubic piece over its interval."""
    c3, c2, c1 = spline.c[:3]
    h = np.diff(spline.x)
    least = np.minimum(c1, c1 + h * (2.0 * c2 + 3.0 * c3 * h))
    # where c3 > 0 the slope has its minimum at s = −c2/(3·c3), if inside
    inner = (c3 > 0.0) & (0.0 < -c2) & (-c2 < 3.0 * c3 * h)
    vertex = c1 - c2 * c2 / (3.0 * np.where(inner, c3, 1.0))
    return np.where(inner, np.minimum(least, vertex), least)


@dataclass(eq=False)
class RocCurve:
    """Sampled operating points of one detector, ordered by increasing pfa."""

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    auc: float
    detector: Optional[DetectorKind] = None
    spec: Optional[ScenarioSpec] = None
    h0_map: Optional[_H0Map] = field(default=None, repr=False)

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds.tolist(), self.pfa.tolist(), self.pd.tolist()))

    def pd_at(self, pfa: float) -> float:
        """Detection probability at a false-alarm rate, interpolated on the curve."""
        return float(np.interp(pfa, self.pfa, self.pd))


def pd_pfa(h0: Law, h1: Law, threshold) -> tuple[float, float]:
    """(pd, pfa) of the threshold test: upper-tail masses of the two laws."""
    return 1.0 - h1.cdf(threshold), 1.0 - h0.cdf(threshold)


def threshold_for_pfa(h0: Law, target_pfa: float) -> float:
    """Threshold whose false-alarm rate equals target_pfa (CFAR inversion)."""
    target_pfa = float(target_pfa)
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie strictly inside (0, 1)")
    return law_quantile(h0, 1.0 - target_pfa)


def _closed_curve(ts, pfa, pd):
    """(thresholds, pfa, pd) sorted by pfa and closed with the (0,0) and
    (1,1) limit points at infinite thresholds."""
    order = np.argsort(pfa, kind="stable")
    thresholds = np.concatenate([[np.inf], ts[order], [-np.inf]])
    pfa = np.concatenate([[0.0], pfa[order], [1.0]])
    pd = np.concatenate([[0.0], pd[order], [1.0]])
    return thresholds, pfa, pd


def _auc(h0: Law, h1: Law, t_lo: float, t_hi: float) -> float:
    """P(S₁ > S₀) = ∫ SF₁(t)·f₀(t) dt over H0's mass, given H0's quantiles
    t_lo and t_hi of order _MAP_P_EDGE and 1 − _MAP_P_EDGE.

    The variable is x = log t for positive laws (their heavy upper tails
    decay exponentially in x) and x = t otherwise, with a panel edge at 0,
    where small-N differences have a kink.  _AUC_CORE_PANELS equal panels
    cover the map's range [t_lo, t_hi]; beyond each end, panels doubling in
    width from the tail's local decay length (tail mass over density at the
    end, exact for an exponential tail) reach out to where H0 leaves at most
    _AUC_TAIL.
    The first pair of rule sizes whose results agree within AUC_TOL decides,
    and the larger rule must also integrate f₀ to 1 within AUC_TOL: two
    rules can agree on a value that both miss.
    """
    positive = getattr(h0, "support_lo", -np.inf) >= 0.0
    to_t = np.exp if positive else np.asarray
    ends = np.array([t_lo, t_hi])
    density = np.asarray(h0.pdf(ends)) * (ends if positive else 1.0)
    a, b = np.log(ends) if positive else ends
    decay = np.minimum(_MAP_P_EDGE / density, b - a)
    reach = 2.0 ** np.arange(1, _AUC_TAIL_PANELS + 1) - 1.0
    below, above = a - decay[0] * reach, b + decay[1] * reach
    # tail panels end where the float range does
    with np.errstate(over="ignore"):
        below = below[np.isfinite(to_t(below))]
        above = above[np.isfinite(to_t(above))]
    # masses beyond each map end, then beyond each tail panel
    cdf_below = np.r_[_MAP_P_EDGE, h0.cdf(to_t(below))]
    sf_above = np.r_[_MAP_P_EDGE, 1.0 - np.asarray(h0.cdf(to_t(above)))]
    tail = max(cdf_below[-1], sf_above[-1])
    if tail > _AUC_TAIL:
        raise ComputationError(
            f"H0 leaves mass {tail:.2e} beyond its tail panels (at most "
            f"{_AUC_TAIL_PANELS} a side, within the float range)",
            achieved=tail,
        )
    n_below = np.argmax(cdf_below <= _AUC_TAIL)
    n_above = np.argmax(sf_above <= _AUC_TAIL)
    edges = np.concatenate(
        [
            below[:n_below][::-1],
            np.linspace(a, b, _AUC_CORE_PANELS + 1),
            above[:n_above],
        ]
    )
    if not positive and edges[0] < 0.0 < edges[-1]:
        edges = np.union1d(edges, [0.0])
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    rad = 0.5 * np.diff(edges)[:, None]

    def rule(n):
        x, w = _legendre(n)
        t = to_t((mid + rad * x).ravel())
        w = (rad * w).ravel() * (t if positive else 1.0)
        f0 = np.asarray(h0.pdf(t)) * w
        mass = float(np.sum(f0))
        return float(np.sum(f0 * (1.0 - np.asarray(h1.cdf(t))))) / mass, mass

    prev, _ = rule(_AUC_RULE_SIZES[0])
    for n in _AUC_RULE_SIZES[1:]:
        auc, mass = rule(n)
        miss = abs(auc - prev)
        if miss <= AUC_TOL:
            if abs(mass - 1.0) > AUC_TOL:
                raise ComputationError(
                    f"AUC rule of {n} nodes per panel integrates the H0 density "
                    f"to {mass:.12f}, not 1",
                    achieved=abs(mass - 1.0),
                )
            return auc
        prev = auc
    raise ComputationError(
        f"AUC integral did not settle: rules of {_AUC_RULE_SIZES[-2]} and "
        f"{_AUC_RULE_SIZES[-1]} nodes per panel differ by {miss:.3e}",
        achieved=miss,
    )


def auc(h0: Law, h1: Law) -> float:
    """P(S₁ > S₀), accurate to AUC_TOL: the AUC of roc_curve(h0, h1), bit
    for bit, without building the curve or its H0 quantile map."""
    return _auc(h0, h1, law_quantile(h0, _MAP_P_EDGE), law_quantile(h0, 1.0 - _MAP_P_EDGE))


def roc_curve(
    h0: Law,
    h1: Law,
    grid: int = DEFAULT_GRID,
    detector: Optional[DetectorKind] = None,
    spec: Optional[ScenarioSpec] = None,
) -> RocCurve:
    """ROC curve over `grid` thresholds at H0 quantiles of equispaced pfa.

    Thresholds are read from an H0 quantile map (kept as `h0_map`), or
    found by `law_quantile` where the pfa grid reaches past the map's range
    [_MAP_P_EDGE, 1 − _MAP_P_EDGE]; pfa and pd are evaluated exactly at each
    threshold, and the limit points (0,0) and (1,1) are appended at infinite
    thresholds.  The AUC is the integral P(S₁ > S₀), accurate to AUC_TOL
    and independent of `grid`.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    h0_map = _H0Map(h0)
    targets = np.linspace(0.0, 1.0, grid + 2)[1:-1]  # pfa grid inside (0, 1)
    p = 1.0 - targets[::-1]
    ts = np.asarray(h0_map(p), dtype=float)
    # grids finer than the map's range (grid > 16384) reach past its ends
    outside = np.flatnonzero((p < _MAP_P_EDGE) | (p > 1.0 - _MAP_P_EDGE))
    ts[outside] = [law_quantile(h0, q) for q in p[outside]]
    pfa = 1.0 - np.asarray(h0.cdf(ts))
    pd = 1.0 - np.asarray(h1.cdf(ts))
    thresholds, pfa, pd = _closed_curve(ts, pfa, pd)
    return RocCurve(
        thresholds=thresholds,
        pfa=pfa,
        pd=pd,
        auc=_auc(h0, h1, h0_map.t_lo, h0_map.t_hi),
        detector=detector,
        spec=spec,
        h0_map=h0_map,
    )


@contextmanager
def _named_computation(label: str, h0: Law, h1: Law):
    """Re-raise ComputationError naming the detector and its law pair."""
    try:
        yield
    except ComputationError as exc:
        raise ComputationError(
            f"{label} failed: {exc} (h0={h0!r}, h1={h1!r})", achieved=exc.achieved
        ) from exc


@dataclass(eq=False)
class DetectorComparison:
    """One row of a gain sweep: a detector's AUC at one interference gain."""

    detector: DetectorKind
    gain: float
    auc: float
    auc_delta: float  # relative to the same detector at gain 1
    spec: ScenarioSpec = field(repr=False)  # the scenario at this gain


def compare_detectors(
    spec: ScenarioSpec,
    gains: Sequence[float],
    detectors: Sequence = (DetectorKind.F_RATIO, DetectorKind.ON_OFF),
    assumed_noise: float | None = None,
) -> list[DetectorComparison]:
    """Gain sweep of detector AUCs around the calibrated gain-1 baseline.

    For every requested gain and detector the scenario is re-solved with the
    interference gain overridden, and the AUC difference to the same
    detector at gain 1 is reported (the baseline is computed even when 1 is
    not in `gains`).  One AUC is computed per distinct (gain, detector), the
    AUCs concurrently, and no ROC curve is built; a failure names the first
    failing AUC in the order baselines, then `gains` as given.
    """
    gains = [float(g) for g in gains]
    if not gains:
        raise ValueError("gains must be non-empty")
    detectors = [DetectorKind(d) for d in detectors]

    def auc_at(task: tuple[float, DetectorKind]) -> float:
        g, kind = task
        h0, h1 = detector_laws(spec.with_gain(g), kind, assumed_noise)
        with _named_computation(f"{kind.value} law at gain {g:g}", h0, h1):
            return auc(h0, h1)

    tasks = [(1.0, kind) for kind in detectors] + [
        (g, kind) for g in dict.fromkeys(gains) if g != 1.0 for kind in detectors
    ]
    aucs = dict(zip(tasks, ordered_map(auc_at, tasks)))
    return [
        DetectorComparison(
            detector=kind,
            gain=g,
            auc=aucs[g, kind],
            auc_delta=aucs[g, kind] - aucs[1.0, kind],
            spec=spec.with_gain(g),
        )
        for g in gains
        for kind in detectors
    ]
