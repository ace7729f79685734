"""Analytic detection performance: Pd/Pfa, CFAR thresholds, ROC curves.

The decision rule is one-sided for every detector: declare a signal when
the statistic exceeds the threshold, so pd = 1 − cdf_H1(t) and
pfa = 1 − cdf_H0(t).  ROC curves place thresholds at H0 quantiles of an
equispaced false-alarm grid, read from one interpolated H0 quantile map per
curve, and evaluate pfa and pd exactly at each threshold.  The AUC is not
taken from those points: it is P(S₁ > S₀) = ∫ SF₁(t)·f₀(t) dt (Hanley &
McNeil, 1982), one Gauss–Legendre integral over H0's mass, in log t for
positive statistics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import PchipInterpolator

from ._pool import ordered_map
from .distributions import QUANTILE_TOL, ComputationError, Law, law_quantile
from .scenario import DetectorKind, ScenarioSpec, detector_laws

__all__ = [
    "DetectorComparison",
    "RocCurve",
    "compare_detectors",
    "pd_pfa",
    "roc_curve",
    "threshold_for_pfa",
]

DEFAULT_GRID = 1024
#: |AUC| error targeted by the AUC integral: two successive rule sizes must
#: agree this closely, and the accepted rule must integrate f₀ to 1 as closely.
AUC_TOL = 1e-9
# The H0 quantile map spans quantile orders [_MAP_P_EDGE, 1 − _MAP_P_EDGE] with
# _MAP_NODES exact cdf nodes.
_MAP_P_EDGE = 1.0 / 16385
_MAP_NODES = 2048
# The AUC integral leaves at most this much H0 mass outside each end.
_AUC_TAIL = 1e-13
# Equal panels across the map's range.
_AUC_CORE_PANELS = 4
# Tail panels beyond each end of the map's range, doubling in width, at most.
_AUC_TAIL_PANELS = 8
# Gauss–Legendre nodes per panel, tried in turn.
_AUC_RULE_SIZES = (8, 12, 16, 24, 32, 48, 64)


class _H0Map:
    """Monotone p → threshold map of an H0 law, interpolated on a dense exact
    cdf grid between its quantiles of order _MAP_P_EDGE and 1 − _MAP_P_EDGE."""

    def __init__(self, h0: Law):
        self.law = h0
        self.t_lo = law_quantile(h0, _MAP_P_EDGE)
        self.t_hi = law_quantile(h0, 1.0 - _MAP_P_EDGE)
        ts = np.linspace(self.t_lo, self.t_hi, _MAP_NODES)
        ps = np.asarray(h0.cdf(ts))
        keep = np.concatenate([[True], np.diff(ps) > 0])
        self._interp = PchipInterpolator(ps[keep], ts[keep], extrapolate=False)
        self._p_range = ps[keep][0], ps[keep][-1]

    def __call__(self, p):
        return self._interp(np.clip(p, *self._p_range))

    def threshold(self, target_pfa: float) -> float:
        """Threshold of false-alarm rate target_pfa: the map's value when it
        meets QUANTILE_TOL, else threshold_for_pfa's root."""
        p = 1.0 - float(target_pfa)
        t = float(self(p))
        if abs(float(self.law.cdf(t)) - p) <= QUANTILE_TOL:
            return t
        return threshold_for_pfa(self.law, target_pfa)


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
    cdf_below = np.asarray(h0.cdf(to_t(below)))
    sf_above = 1.0 - np.asarray(h0.cdf(to_t(above)))
    tail = max(cdf_below[-1], sf_above[-1])
    if tail > _AUC_TAIL:
        raise ComputationError(
            f"H0 leaves mass {tail:.2e} beyond {_AUC_TAIL_PANELS} tail panels",
            achieved=tail,
        )
    n_below = np.argmax(cdf_below <= _AUC_TAIL) + 1
    n_above = np.argmax(sf_above <= _AUC_TAIL) + 1
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
        x, w = leggauss(n)
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


def roc_curve(
    h0: Law,
    h1: Law,
    grid: int = DEFAULT_GRID,
    detector: Optional[DetectorKind] = None,
    spec: Optional[ScenarioSpec] = None,
) -> RocCurve:
    """ROC curve over `grid` thresholds at H0 quantiles of equispaced pfa.

    Thresholds are read from an H0 quantile map (kept as `h0_map`); pfa and
    pd are evaluated exactly at each threshold, and the limit points (0,0)
    and (1,1) are appended at infinite thresholds.  The AUC is the integral
    P(S₁ > S₀), accurate to AUC_TOL and independent of `grid`.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    h0_map = _H0Map(h0)
    targets = np.linspace(0.0, 1.0, grid + 2)[1:-1]  # pfa grid inside (0, 1)
    ts = np.asarray(h0_map(1.0 - targets[::-1]), dtype=float)
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
    """One row of a gain sweep: a detector's ROC at one interference gain."""

    detector: DetectorKind
    gain: float
    auc: float
    auc_delta: float  # relative to the same detector at gain 1
    curve: RocCurve = field(repr=False)


def compare_detectors(
    spec: ScenarioSpec,
    gains: Sequence[float],
    grid: int = 512,
    detectors: Sequence = (DetectorKind.F_RATIO, DetectorKind.ON_OFF),
    assumed_noise: float | None = None,
) -> list[DetectorComparison]:
    """Gain sweep of detector AUCs around the calibrated gain-1 baseline.

    For every requested gain and detector the scenario is re-solved with the
    interference gain overridden, and the AUC difference to the same
    detector at gain 1 is reported (the baseline is computed even when 1 is
    not in `gains`).  One curve is built per distinct (gain, detector), the
    curves concurrently; a failure names the first failing curve in the
    order baselines, then `gains` as given.
    """
    gains = [float(g) for g in gains]
    if not gains:
        raise ValueError("gains must be non-empty")
    detectors = [DetectorKind(d) for d in detectors]

    def curve_at(task: tuple[float, DetectorKind]) -> RocCurve:
        g, kind = task
        at_g = spec.with_gain(g)
        h0, h1 = detector_laws(at_g, kind, assumed_noise)
        with _named_computation(f"{kind.value} law at gain {g:g}", h0, h1):
            return roc_curve(h0, h1, grid=grid, detector=kind, spec=at_g)

    tasks = [(1.0, kind) for kind in detectors] + [
        (g, kind) for g in dict.fromkeys(gains) if g != 1.0 for kind in detectors
    ]
    curves = dict(zip(tasks, ordered_map(curve_at, tasks)))
    rows = []
    for g in gains:
        for kind in detectors:
            curve = curves[g, kind]
            rows.append(
                DetectorComparison(
                    detector=kind,
                    gain=g,
                    auc=curve.auc,
                    auc_delta=curve.auc - curves[1.0, kind].auc,
                    curve=curve,
                )
            )
    return rows
