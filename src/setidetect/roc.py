"""Analytic detection performance: Pd/Pfa, CFAR thresholds, ROC curves.

The decision rule is one-sided for every detector: declare a signal when
the statistic exceeds the threshold, so pd = 1 − cdf_H1(t) and
pfa = 1 − cdf_H0(t).  ROC curves place thresholds at H0 quantiles of an
equispaced false-alarm grid, read from one H0 quantile map per curve, and
evaluate pfa and pd exactly at each threshold.  The map is a piecewise cubic
in log t (t for differences) against the normal score Φ⁻¹(p), in which it is
nearly linear, through about 130 exact H0 cdf knots.  Its slope at each knot
is that of the degree-5 polynomial through the six knots around it, so no
global system is solved, and each interval is the cubic Hermite on those
slopes; NumPy alone builds it (scipy.interpolate would load scipy.linalg and
scipy.sparse, a large part of every CLI start-up).  The AUC is not taken from
those points: it is P(S₁ > S₀) = ∫ SF₁(t)·f₀(t) dt (Hanley & McNeil, 1982),
one Gauss–Legendre integral over H0's mass, in log t for positive
statistics.  The map and the integral share their ends, which one vectorized
H0 cdf sweep places: the outermost sweep points inside H0's tails of mass
1/16385, with the exact mass beyond each; a scalar `law_quantile` solve places
an end only where the sweep has no such point.

A gain sweep (`compare_detectors`) integrates over another law.  For the
paired detectors S = ON ⊘ OFF, S₁ > S₀ exactly when the ON pair ON₁ ⊘ ON₀
exceeds the OFF pair OFF′ ⊘ OFF, whose law no gain changes.  One integral
over the OFF pair's mass, its nodes and H0 densities computed once, serves
every gain, each at the cost of one ON-pair cdf call.  A gain whose ON
pair's spread is under half the OFF pair's integrates over its own H0 law
instead: a law much narrower than the OFF pair's panels steps inside one of
them, where two rule sizes can agree on a wrong value.  The shared AUCs
match `auc(h0, h1)` within AUC_TOL, not bit for bit.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtri

from ._pool import ordered_map
from .distributions import (
    QUANTILE_TOL,
    ComputationError,
    FLaw,
    GammaDifference,
    Law,
    _axis,
    _legendre,
    law_quantile,
)
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
# The H0 quantile map and the AUC's core panels reach at least H0's quantiles
# of orders _MAP_P_EDGE and 1 − _MAP_P_EDGE.
_MAP_P_EDGE = 1.0 / 16385
# The ends are placed by one cdf sweep of this many points over ±_ENDS_SPREADS
# spreads around the law's centre (its bracket seeds lie 4 spreads out).
_ENDS_POINTS = 65
_ENDS_SPREADS = 8.0
# A swept 1 − cdf at or below this few ulps of 1 may be a rounding residue,
# not the upper mass; such a point is no upper end.
_ENDS_SF_FLOOR = 2.0**-49
# Exact cdf knots of the map, evenly spaced in the law's variable.
_MAP_KNOTS = 128
# Normal-score span of a knot interval above which it is bisected.
_MAP_Z_GAP = 0.125
# Bisection rounds, at most.
_MAP_ROUNDS = 40
# Knots in each slope stencil: the map's misses grow at widths 3, 4 and 5,
# and do not shrink at 7 or 8.
_SLOPE_KNOTS = 6
# The AUC integral leaves at most this much H0 mass outside each end.
_AUC_TAIL = 1e-13
# Equal panels between the ends.
_AUC_CORE_PANELS = 4
# Tail panels beyond each end, doubling in width, at most.
_AUC_TAIL_PANELS = 8
# Gauss–Legendre nodes per panel, tried in turn.
_AUC_RULE_SIZES = (8, 12, 16, 24, 32, 48, 64)
# compare_detectors integrates over H0, not the OFF pair, where the ON pair's
# spread is under this fraction of the OFF pair's.  A law much narrower than
# the OFF pair's panels steps from 0 to 1 inside one panel, and there the 8-
# and 12-node rules can agree on a wrong value (5e-6 off, with no error, for
# on_off at N = 1, rfi_power 1e4, g = 0.001).
_SIDE_SPREAD = 0.5


def _ends(h0: Law) -> tuple[float, float, float, float]:
    """(t_lo, t_hi, cdf(t_lo), 1 − cdf(t_hi)): the ends of H0's quantile map
    and of the AUC's core panels, with the H0 mass beyond each.

    One cdf call places both: _ENDS_POINTS points evenly spaced in the law's
    own variable (log t for positive laws, t otherwise; see
    distributions._Axis) over ±_ENDS_SPREADS spreads around the centre of
    its bracket seeds.  t_lo is the last point with 0 < cdf ≤ _MAP_P_EDGE,
    t_hi the first with _ENDS_SF_FLOOR < 1 − cdf ≤ _MAP_P_EDGE; points
    beyond the float range are dropped, and an end with no such point is
    law_quantile's solution of order _MAP_P_EDGE (1 − _MAP_P_EDGE).
    """
    axis = _axis(h0)
    lo, hi = axis.seeds(h0)
    sweep = np.linspace(-1.0, 1.0, _ENDS_POINTS) * (_ENDS_SPREADS / 4.0)
    # huge or infinite seeds make inf or NaN points, which are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        t = axis.to_t(0.5 * (lo + hi) + 0.5 * (hi - lo) * sweep)
    t = t[np.isfinite(t)]
    cdf = np.asarray(h0.cdf(t), dtype=float) if t.size else t
    sf = 1.0 - cdf
    below = np.flatnonzero((cdf > 0.0) & (cdf <= _MAP_P_EDGE))
    above = np.flatnonzero((sf > _ENDS_SF_FLOOR) & (sf <= _MAP_P_EDGE))
    if below.size:
        t_lo, m_lo = t[below[-1]], cdf[below[-1]]
    else:
        t_lo = law_quantile(h0, _MAP_P_EDGE)
        m_lo = float(h0.cdf(t_lo))
    if above.size:
        t_hi, m_hi = t[above[0]], sf[above[0]]
    else:
        t_hi = law_quantile(h0, 1.0 - _MAP_P_EDGE)
        m_hi = 1.0 - float(h0.cdf(t_hi))
    return float(t_lo), float(t_hi), float(m_lo), float(m_hi)


class _H0Map:
    """Increasing p → threshold map of an H0 law across the ends that _ends
    places, at or beyond its quantiles of order _MAP_P_EDGE and
    1 − _MAP_P_EDGE.

    In the law's own variable x (log t for positive laws, t otherwise; see
    distributions._Axis) against the normal score z = Φ⁻¹(p) the map is
    nearly linear, so x(z) is a piecewise cubic through exact cdf knots (see
    _spline): _MAP_KNOTS evenly spaced in x, plus t = 0 inside a difference's
    range, where small-N differences have a kink and the cubic is split.
    Knot intervals are bisected while they span more than _MAP_Z_GAP in z,
    for at most _MAP_ROUNDS rounds.  A cubic piece that is not increasing
    throughout (the map is flat across an atom, say) is made linear, so the
    map increases by construction.
    """

    def __init__(self, h0: Law):
        self.law = h0
        self.ends = _ends(h0)
        t_lo, t_hi = self.ends[:2]
        axis = _axis(h0)
        self._to_t = axis.to_t
        x = np.linspace(*axis.to_x([t_lo, t_hi]), _MAP_KNOTS)
        kink = not axis.log and t_lo < 0.0 < t_hi
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
        meets QUANTILE_TOL, else law_quantile's, through threshold_for_pfa."""
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


def _slopes(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Slope of x(z) at each of n ≥ 2 knots: the derivative there of the
    polynomial through the _SLOPE_KNOTS knots around it (all n if fewer), by
    barycentric differentiation (Berrut & Trefethen, SIAM Review 46, 2004)."""
    n = z.size
    w = min(_SLOPE_KNOTS, n)
    # each knot's stencil, centred where the ends allow
    start = np.clip(np.arange(n) - (w - 1) // 2, 0, n - w)
    stencil = start[:, None] + np.arange(w)
    zs, xs = z[stencil], x[stencil]
    gaps = zs[:, :, None] - zs[:, None, :]
    weights = 1.0 / np.prod(np.where(np.eye(w, dtype=bool), 1.0, gaps), axis=2)
    own = stencil == np.arange(n)[:, None]
    # the knot's own term is 0/0, and is dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights * (xs - x[:, None]) / (z[:, None] - zs)
    return np.sum(np.where(own, 0.0, terms), axis=1) / weights[own]


def _spline(z: np.ndarray, x: np.ndarray, kinks) -> _Cubic:
    """Cubic Hermite interpolant x(z) on the slopes of _slopes, split into
    independent pieces at the knot indices `kinks`: no stencil crosses one."""
    cuts = [0, *(int(i) for i in kinks if 0 < i < z.size - 1), z.size - 1]
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        zp, xp = z[a : b + 1], x[a : b + 1]
        s = _slopes(zp, xp)
        h = np.diff(zp)
        m = np.diff(xp) / h
        t = (s[:-1] + s[1:] - 2.0 * m) / h
        parts.append(np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], xp[:-1]]))
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


class _AucIntegral:
    """P(S₁ > S₀) = ∫ SF₁(t)·f₀(t) dt over one H0 law's mass, for any H1 law.

    It is built from H0 and the ends (t_lo, t_hi, cdf(t_lo), 1 − cdf(t_hi))
    that _ends places.  The variable is the law's own x (log t for positive
    laws, t otherwise; see distributions._Axis), with a panel edge at 0 for
    differences, where small-N ones have a kink.  _AUC_CORE_PANELS equal
    panels cover [t_lo, t_hi]; beyond each end, panels doubling in width from
    the tail's local decay length (the mass beyond the end over the density
    at it, exact for an exponential tail) reach out to where H0 leaves at
    most _AUC_TAIL.  The nodes, f₀·w and mass of each rule size are computed
    once, by the first call that needs them, and serve every later call,
    from any thread.

    Called with an H1 law, the first pair of rule sizes whose results agree
    within AUC_TOL decides, and the larger rule must also integrate f₀ to 1
    within AUC_TOL: two rules can agree on a value that both miss.
    """

    def __init__(self, h0: Law, ends: tuple[float, float, float, float]):
        self.law = h0
        axis = _axis(h0)
        to_t = self._to_t = axis.to_t
        self._log = axis.log
        masses = np.array(ends[2:])
        ends = np.array(ends[:2])
        density = np.asarray(h0.pdf(ends)) * (ends if axis.log else 1.0)
        a, b = axis.to_x(ends)
        # a density that underflowed to 0 gives the widest panels, the core's width
        with np.errstate(divide="ignore"):
            decay = np.minimum(masses / density, b - a)
        reach = 2.0 ** np.arange(1, _AUC_TAIL_PANELS + 1) - 1.0
        below, above = a - decay[0] * reach, b + decay[1] * reach
        # tail panels end where the float range does
        with np.errstate(over="ignore"):
            below = below[np.isfinite(to_t(below))]
            above = above[np.isfinite(to_t(above))]
        # masses beyond each end, then beyond each tail panel, from one cdf call
        tails = np.asarray(h0.cdf(to_t(np.concatenate([below, above]))))
        cdf_below = np.r_[masses[0], tails[: below.size]]
        sf_above = np.r_[masses[1], 1.0 - tails[below.size :]]
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
        if not axis.log and edges[0] < 0.0 < edges[-1]:
            edges = np.union1d(edges, [0.0])
        self._mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        self._rad = 0.5 * np.diff(edges)[:, None]
        self._rules = {}  # rule size → (nodes t, f₀·w, mass)
        self._lock = threading.Lock()
        # every call runs the first two rules, so they share one h0.pdf call
        self._f0(*_AUC_RULE_SIZES[:2])

    def _f0(self, *sizes):
        """(t, f₀·w, mass) of each rule size.  Those not yet cached come from
        one h0.pdf call over all their nodes, under the lock, so that none is
        computed twice; cached ones are read without waiting for it."""
        if any(n not in self._rules for n in sizes):
            with self._lock:
                new = [n for n in sizes if n not in self._rules]
                if new:
                    nodes = []
                    for n in new:
                        x, w = _legendre(n)
                        t = self._to_t((self._mid + self._rad * x).ravel())
                        nodes.append((t, (self._rad * w).ravel() * (t if self._log else 1.0)))
                    pdf0 = np.asarray(self.law.pdf(np.concatenate([t for t, _ in nodes])))
                    start = 0
                    for n, (t, w) in zip(new, nodes):
                        f0 = pdf0[start : start + t.size] * w
                        self._rules[n] = t, f0, float(np.sum(f0))
                        start += t.size
        return [self._rules[n] for n in sizes]

    def _rules_at(self, h1: Law, *sizes):
        """(auc, mass) of each rule size, from one h1.cdf call over all their nodes."""
        rules = self._f0(*sizes)
        sf1 = 1.0 - np.asarray(h1.cdf(np.concatenate([t for t, _, _ in rules])))
        out, start = [], 0
        for t, f0, mass in rules:
            out.append((float(np.sum(f0 * sf1[start : start + t.size])) / mass, mass))
            start += t.size
        return out

    def __call__(self, h1: Law) -> float:
        (prev, _), second = self._rules_at(h1, *_AUC_RULE_SIZES[:2])
        for n in _AUC_RULE_SIZES[1:]:
            auc, mass = second if n == _AUC_RULE_SIZES[1] else self._rules_at(h1, n)[0]
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
    return _AucIntegral(h0, _ends(h0))(h1)


def roc_curve(h0: Law, h1: Law, grid: int = DEFAULT_GRID) -> RocCurve:
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
        auc=_AucIntegral(h0, h0_map.ends)(h1),
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


class _NoLaw(ValueError):
    """The scenario has no sampling law at `gain` (the law's ValueError)."""

    def __init__(self, gain: float, exc: ValueError):
        super().__init__(str(exc))
        self.gain = gain


def _within_float_range(on, off, ratio: bool) -> bool:
    """Whether S₀ = ON ⊘ OFF passes the largest float M with probability
    _AUC_TAIL at most, by a union bound: a ratio beyond M needs ON > c·√M or
    OFF < c/√M, c² the product of their means; a difference, ON or OFF > M."""
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        if ratio:
            c = np.sqrt(on.mean) * np.sqrt(off.mean)
            beyond = on._sf(np.array([c * np.sqrt(big)])) + off._cdf(np.array([c / np.sqrt(big)]))
        else:
            beyond = on._sf(np.array([big])) + off._sf(np.array([big]))
    return float(beyond[0]) <= _AUC_TAIL


def _auc_sides(h0: Law, h1: Law) -> tuple[Law, Law]:
    """(X, Y) with P(S₁ > S₀) = P(Y > X), to be integrated over X's mass.

    For paired laws S = ON ⊘ OFF (FLaw or GammaDifference, h0 and h1 sharing
    their OFF side), S₁ > S₀ exactly when the ON pair Δ = ON₁ ⊘ ON₀ exceeds
    the OFF pair D = OFF′ ⊘ OFF, OFF and OFF′ being i.i.d.: X is D, the same
    law at every gain, and Y is Δ.  Any other pair of laws gives (h0, h1),
    and so do paired laws whose Δ has a spread under _SIDE_SPREAD of D's,
    whose spreads overflow, or whose S₀ may pass the largest float: there
    the integral over h0 names what fails.
    """
    if isinstance(h0, FLaw) and isinstance(h1, FLaw) and h0.den == h1.den:
        on0, on1, off = h0.num, h1.num, h0.den
    elif (
        isinstance(h0, GammaDifference)
        and isinstance(h1, GammaDifference)
        and h0.neg == h1.neg
    ):
        on0, on1, off = h0.pos, h1.pos, h0.neg
    else:
        return h0, h1
    pair = type(h0)
    on_pair, off_pair = pair(on1, on0), pair(off, off)
    spread_on, spread_off = on_pair._conditioned.spread, off_pair._conditioned.spread
    if not (math.isfinite(spread_on) and math.isfinite(spread_off)):
        return h0, h1
    if spread_on < _SIDE_SPREAD * spread_off:
        return h0, h1
    try:
        inside = _within_float_range(on0, off, pair is FLaw)
    except ComputationError:
        inside = False
    return (off_pair, on_pair) if inside else (h0, h1)


def compare_detectors(
    spec: ScenarioSpec,
    gains: Sequence[float],
    detectors: Sequence = (DetectorKind.F_RATIO, DetectorKind.ON_OFF),
) -> list[DetectorComparison]:
    """Gain sweep of detector AUCs around the calibrated gain-1 baseline.

    For every requested gain and detector the scenario is re-solved with the
    interference gain overridden, and the AUC difference to the same
    detector at gain 1 is reported (the baseline is computed even when 1 is
    not in `gains`).  Every distinct (gain, detector)'s laws are built once,
    before any AUC; then one AUC is computed per pair, the AUCs
    concurrently, and no ROC curve is built.

    A paired detector S = ON ⊘ OFF (⊘ the ratio or the difference) has
    S₁ > S₀ exactly when the ON pair ON₁ ⊘ ON₀ exceeds the OFF pair
    OFF′ ⊘ OFF, two i.i.d. OFF estimates whose law no gain changes.  So each
    (gain, detector) task integrates over the law _auc_sides gives it: its
    detector's OFF pair, or its own H0 for the energy detector, a gain whose
    ON pair's spread is under half the OFF pair's and a gain whose S₀ may
    pass the largest float.  One integral is built per distinct law, before
    any AUC, and a task then costs one cdf call of its other law at those
    nodes per rule size tried; a row depends only on its own gain and
    detector.  Each AUC is accurate to AUC_TOL and matches `auc(h0, h1)`
    within it, not bit for bit; `auc_delta` is exactly `auc` less the same
    detector's gain-1 `auc`.  A failure names the first failing law or AUC
    in the order baselines, then `gains` as given; a failed integral fails
    each task that uses it, so it is named like the first of them.
    """
    gains = [float(g) for g in gains]
    if not gains:
        raise ValueError("gains must be non-empty")
    detectors = [DetectorKind(d) for d in detectors]
    laws = {}
    for g in dict.fromkeys([1.0, *gains]):
        for kind in detectors:
            try:
                laws[g, kind] = detector_laws(spec.with_gain(g), kind)
            except ValueError as exc:
                raise _NoLaw(g, exc) from exc

    sides = {task: _auc_sides(h0, h1) for task, (h0, h1) in laws.items()}
    xs = list(dict.fromkeys(x for x, _ in sides.values()))

    def build(x):
        try:
            return _AucIntegral(x, _ends(x))
        except Exception as exc:  # raised by each task that uses it
            return exc

    integrals = dict(zip(xs, ordered_map(build, xs)))

    def auc_at(task) -> float:
        (g, kind), (h0, h1) = task
        x, y = sides[g, kind]
        integral = integrals[x]
        with _named_computation(f"{kind.value} law at gain {g:g}", h0, h1):
            if isinstance(integral, Exception):
                raise integral
            return integral(y)

    aucs = dict(zip(laws, ordered_map(auc_at, list(laws.items()))))
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
