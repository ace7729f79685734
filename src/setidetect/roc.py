"""Analytic detection performance: Pd/Pfa, CFAR thresholds, ROC curves.

The decision rule is one-sided for every detector: declare a signal when
the statistic exceeds the threshold, so pd = 1 − cdf_H1(t) and
pfa = 1 − cdf_H0(t).  ROC curves place thresholds at H0 quantiles of an
equispaced false-alarm grid, which covers the curve uniformly in pfa and
keeps the trapezoid AUC stable under refinement.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .distributions import ComputationError, Law, law_quantile
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
_CACHE_NODES = 2048
_CACHE_P_LO = 1e-9
#: Successive trapezoid AUC estimates must agree this closely (half the
#: documented 1e-4 bound, so the Richardson error estimate has headroom).
AUC_REFINE_TOL = 5e-5
_AUC_MAX_GRID = 16384


@dataclass(eq=False)
class RocCurve:
    """Sampled operating points of one detector, ordered by increasing pfa."""

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    auc: float
    detector: Optional[DetectorKind] = None
    spec: Optional[ScenarioSpec] = None

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


def _h0_quantile_map(h0: Law, p_lo: float, p_hi: float):
    """Monotone p → threshold interpolator from a dense exact cdf grid."""
    t_lo = law_quantile(h0, p_lo)
    t_hi = law_quantile(h0, p_hi)
    ts = np.linspace(t_lo, t_hi, _CACHE_NODES)
    ps = np.asarray(h0.cdf(ts))
    keep = np.concatenate([[True], np.diff(ps) > 0])
    ip = PchipInterpolator(ps[keep], ts[keep], extrapolate=False)
    lo, hi = ps[keep][0], ps[keep][-1]
    return lambda p: ip(np.clip(p, lo, hi))


def _exact_points(h0: Law, h1: Law, qmap, grid: int):
    """(thresholds, pfa, pd) at H0 quantiles of an equispaced pfa grid,
    pfa-sorted and closed with the (0,0)/(1,1) limit points."""
    targets = np.linspace(0.0, 1.0, grid + 2)[1:-1]  # pfa grid inside (0, 1)
    ps = 1.0 - targets[::-1]  # increasing quantile orders
    ts = np.asarray(qmap(ps), dtype=float)
    pfa = 1.0 - np.asarray(h0.cdf(ts))
    pd = 1.0 - np.asarray(h1.cdf(ts))
    order = np.argsort(pfa, kind="stable")
    thresholds = np.concatenate([[np.inf], ts[order], [-np.inf]])
    pfa = np.concatenate([[0.0], pfa[order], [1.0]])
    pd = np.concatenate([[0.0], pd[order], [1.0]])
    return thresholds, pfa, pd


def _trapezoid(pfa: np.ndarray, pd: np.ndarray) -> float:
    return float(np.sum(0.5 * (pd[1:] + pd[:-1]) * np.diff(pfa)))


def roc_curve(
    h0: Law,
    h1: Law,
    grid: int = DEFAULT_GRID,
    detector: Optional[DetectorKind] = None,
    spec: Optional[ScenarioSpec] = None,
) -> RocCurve:
    """ROC curve over `grid` thresholds at H0 quantiles of equispaced pfa.

    The stored pfa/pd are re-evaluated exactly at each threshold and the
    limit points (0,0) and (1,1) are appended at infinite thresholds.  The
    AUC is the trapezoid over the pfa-sorted curve, refined on internally
    doubled grids until successive estimates agree within AUC_REFINE_TOL
    (the returned points always stay at the requested resolution).
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    # One quantile cache spanning the finest refinement level serves every
    # grid size; realized pfa/pd are recomputed exactly at each threshold,
    # so cache resolution only nudges where the points land.
    p_edge = 1.0 / (_AUC_MAX_GRID + 1)
    qmap = _h0_quantile_map(h0, p_edge, 1.0 - p_edge)
    thresholds, pfa, pd = _exact_points(h0, h1, qmap, grid)
    auc = _trapezoid(pfa, pd)
    m, converged, delta = grid, False, np.inf
    while m < _AUC_MAX_GRID and not converged:
        m *= 2
        _, pfa_m, pd_m = _exact_points(h0, h1, qmap, m)
        auc_fine = _trapezoid(pfa_m, pd_m)
        delta = abs(auc_fine - auc)
        converged = delta < AUC_REFINE_TOL
        auc = auc_fine
    if m > grid and not converged:
        raise ComputationError(
            f"trapezoid AUC did not stabilize within {AUC_REFINE_TOL:g} "
            f"by grid {m}",
            achieved=delta,
        )
    return RocCurve(
        thresholds=thresholds, pfa=pfa, pd=pd, auc=auc, detector=detector, spec=spec
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
    not in `gains`).
    """
    gains = [float(g) for g in gains]
    if not gains:
        raise ValueError("gains must be non-empty")
    detectors = [DetectorKind(d) for d in detectors]

    def curve_at(g: float, kind: DetectorKind) -> RocCurve:
        at_g = spec.with_gain(g)
        h0, h1 = detector_laws(at_g, kind, assumed_noise)
        with _named_computation(f"{kind.value} law at gain {g:g}", h0, h1):
            return roc_curve(h0, h1, grid=grid, detector=kind, spec=at_g)

    baseline_curves = {kind: curve_at(1.0, kind) for kind in detectors}
    baseline = {kind: c.auc for kind, c in baseline_curves.items()}
    rows = []
    for g in gains:
        for kind in detectors:
            curve = baseline_curves[kind] if g == 1.0 else curve_at(g, kind)
            rows.append(
                DetectorComparison(
                    detector=kind,
                    gain=g,
                    auc=curve.auc,
                    auc_delta=curve.auc - baseline[kind],
                    curve=curve,
                )
            )
    return rows
