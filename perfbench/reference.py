"""Exact detector laws from scipy alone, for checking setidetect's outputs.

Nothing here imports setidetect.  The laws are rebuilt from the physics of
the ON/OFF measurement: the mean power (1/N)·Σ|x[k]|² of N complex samples
with Gaussian power p and deterministic energy E is c·χ²_{2N}(λ) with
c = p/(2N) and λ = 2E/p.  The ON stream sees noise, the interference at
gain g and, under H1, the signal; the OFF stream sees noise and the
interference at unit gain.  Wideband parts add Gaussian power, narrowband
parts add energy.

Paired statistics (ON/OFF ratio, ON − OFF difference) are evaluated by
conditioning on the narrower of the two power estimates,

    P(X/Y ≤ t) = E_Y[F_X(t·Y)]        P(X − Y ≤ t) = E_Y[F_X(t + Y)],

with Gauss–Legendre quadrature (`scipy.integrate.fixed_quad`) over that
estimate's 1e-15 quantile range.  The AUC is P(S₁ > S₀) = ∫ SF₁(t) f₀(t) dt
by the same quadrature in t.  Thresholds are found with `scipy.optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, optimize, stats

_EDGE = 1e-15  # mass left outside each integration range, per side
_NODES = 96  # Gauss–Legendre nodes per integral (per panel in t)
_PANELS = 4


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


@dataclass(frozen=True)
class Estimate:
    """Mean-power estimate of n complex samples: power p, energy e."""

    n: int
    power: float
    energy: float = 0.0

    @cached_property
    def dist(self):
        k, c = 2 * self.n, self.power / (2 * self.n)
        lam = 2.0 * self.energy / self.power
        return stats.ncx2(k, lam, scale=c) if lam > 0 else stats.chi2(k, scale=c)

    @property
    def mean(self) -> float:
        return self.power + self.energy / self.n

    @property
    def sd(self) -> float:
        c = self.power / (2 * self.n)
        return c * np.sqrt(2.0 * (2 * self.n + 4.0 * self.energy / self.power))

    @cached_property
    def span(self) -> tuple[float, float]:
        d = self.dist
        return float(d.ppf(_EDGE)), float(d.isf(_EDGE))


def estimates(scenario: dict, hyp: str) -> tuple[Estimate, Estimate]:
    """(ON, OFF) estimates of a config's scenario block under "H0" or "H1"."""
    n = scenario["n_samples"]
    noise = scenario.get("noise_power", 1.0)
    g = scenario.get("gain", 1.0)
    if "inr_db" in scenario:
        rfi = noise * _db(scenario["inr_db"])
    else:
        rfi = scenario.get("rfi_power", scenario.get("rfi_energy", 0.0) / n)
    sig = noise * _db(scenario["snr_db"]) if hyp == "H1" else 0.0
    on_p, on_e, off_p, off_e = noise, 0.0, noise, 0.0
    if scenario["rfi_kind"] == "wideband":
        on_p, off_p = on_p + g * rfi, off_p + rfi
    elif scenario["rfi_kind"] == "narrowband":
        on_e, off_e = g * n * rfi, n * rfi
    if scenario["et_kind"] == "wideband":
        on_p += sig
    else:
        on_e += n * sig
    return Estimate(n, on_p, on_e), Estimate(n, off_p, off_e)


class StatLaw:
    """Law of one detector statistic: X/a (energy), X/Y (f_ratio) or X − Y (on_off)."""

    def __init__(self, kind: str, x: Estimate, y: Estimate | None = None, a: float = 1.0):
        self.kind, self.x, self.y, self.a = kind, x, y, a
        if kind != "energy":
            if kind == "f_ratio":
                narrow_y = y.sd / y.mean < x.sd / x.mean
            else:
                narrow_y = y.sd < x.sd
            self._on_y = narrow_y
            z = y if narrow_y else x
            self._z_lo, self._z_hi = z.span
            self._z = z.dist
        (xl, xh), (yl, yh) = x.span, (y.span if y is not None else (a, a))
        if kind == "energy":
            self.span = (xl / a, xh / a)
        elif kind == "f_ratio":
            self.span = (xl / yh, xh / yl)
        else:
            self.span = (xl - yh, xh - yl)

    def _mix(self, t: np.ndarray, density: bool) -> np.ndarray:
        X, Y = self.x.dist, self.y.dist
        t = t[:, None]
        if self._on_y:
            if self.kind == "f_ratio":
                g = (lambda z: z * X.pdf(t * z)) if density else (lambda z: X.cdf(t * z))
            else:
                g = (lambda z: X.pdf(t + z)) if density else (lambda z: X.cdf(t + z))
        elif self.kind == "f_ratio":
            g = (lambda z: z / t**2 * Y.pdf(z / t)) if density else (lambda z: Y.sf(z / t))
        else:
            g = (lambda z: Y.pdf(z - t)) if density else (lambda z: Y.sf(z - t))
        return integrate.fixed_quad(
            lambda z: g(z[None, :]) * self._z.pdf(z)[None, :],
            self._z_lo, self._z_hi, n=_NODES,
        )[0]

    def cdf(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "energy":
            return self.x.dist.cdf(t * self.a)
        out = np.zeros_like(t)
        inside = t > 0 if self.kind == "f_ratio" else np.ones(t.shape, bool)
        out[inside] = np.clip(self._mix(t[inside], False), 0.0, 1.0)
        return out

    def pdf(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "energy":
            return self.a * self.x.dist.pdf(t * self.a)
        out = np.zeros_like(t)
        inside = t > 0 if self.kind == "f_ratio" else np.ones(t.shape, bool)
        out[inside] = self._mix(t[inside], True)
        return out

    def sf(self, t) -> np.ndarray:
        return 1.0 - self.cdf(t)

    @cached_property
    def mass_range(self) -> tuple[float, float]:
        """A range holding all but about 2e-14 of the mass, narrowed from `span`."""
        lo, hi = self.span
        grid = np.linspace(lo, hi, 129)
        c = self.cdf(grid)
        i = max(int(np.searchsorted(c, 1e-14)) - 1, 0)
        j = min(int(np.searchsorted(c, 1.0 - 1e-14)) + 1, grid.size - 1)
        return float(grid[i]), float(grid[j])

    def threshold(self, pfa: float) -> float:
        """t with P(S > t) = pfa."""
        if self.kind == "energy":
            return float(self.x.dist.isf(pfa) / self.a)
        lo, hi = self.mass_range
        return float(
            optimize.brentq(lambda t: self.sf(t)[0] - pfa, lo, hi, xtol=1e-15, rtol=1e-15)
        )


def detector_law(scenario: dict, kind: str, hyp: str) -> StatLaw:
    on, off = estimates(scenario, hyp)
    if kind == "energy":
        on0, _ = estimates(scenario, "H0")
        return StatLaw("energy", on, a=on0.mean)
    return StatLaw(kind, on, off)


def auc(h0: StatLaw, h1: StatLaw) -> float:
    """P(S₁ > S₀) = ∫ SF₁(t) f₀(t) dt over the mass range of S₀."""
    lo, hi = h0.mass_range
    edges = np.linspace(lo, hi, _PANELS + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.fixed_quad(lambda t: h1.sf(t) * h0.pdf(t), a, b, n=_NODES)[0]
    return float(total)


def pd_at(h0: StatLaw, h1: StatLaw, pfa: float) -> float:
    return float(h1.sf(h0.threshold(pfa))[0])


def f_ratio_auc_central(n: int, c0, c1) -> np.ndarray:
    """AUCs P(c₁F₁ > c₀F₀) = ∫₀¹ SF(c₀/c₁ · Q(u)) du of scaled central
    F(2n, 2n) pairs, one adaptive 1-D quadrature (`scipy.integrate.quad_vec`)
    for all (c₀, c₁) at once.  Integrating in u = cdf(F₀) keeps the integrand
    bounded even for the heavy-tailed F(2, 2)."""
    f = stats.f(2 * n, 2 * n)
    r = np.asarray(c0, dtype=float) / np.asarray(c1, dtype=float)
    val, _ = integrate.quad_vec(
        lambda u: f.sf(r * f.ppf(u)), 0.0, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    return np.asarray(val)
