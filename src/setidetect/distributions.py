"""Sampling laws for mean-power detection statistics.

Everything here lives on the scale of the power estimate (1/N)Σ|x[k]|² of N
complex circular Gaussian samples.  Four law families cover all cases that
arise for the ON/OFF detectors:

* :class:`ScaledGamma` — the estimate under pure Gaussian input.
* :class:`NoncentralChi2C` — Gaussian input plus a deterministic component
  of energy E (sinusoid/chirp), a scaled non-central χ².
* :class:`FLaw` — the ratio of two independent power estimates, a scaled,
  possibly doubly non-central F.
* :class:`GammaDifference` — the difference of two independent power
  estimates.

The two component laws are evaluated by `scipy.special` directly: the
regularized incomplete gamma functions and their inverse, and Boost's
non-central χ² (`chndtr`/`chndtrix`, its density `_ncx2_pdf` and survival
function `_ncx2_sf`, the private ufuncs behind `scipy.stats.ncx2`).  Both
paired laws (FLaw, except in the central case, which has closed forms, and
GammaDifference) are evaluated by one mechanism, conditioning on one
component: with B the component of smaller (relative, for the ratio) spread
and A the other,

    cdf(t) = E_B[F_A(h(t, B))] ≈ Σᵢ wᵢ·F_A(h(t, yᵢ)),
    pdf(t) = Σᵢ wᵢ·f_A(h(t, yᵢ))·∂h/∂t,

with h = t + y for the difference and h = t·y for the ratio; where B is the
first component, the cdf sums A's survival function in place of F_A, so that
the lower tail is a sum of small terms.  The nodes yᵢ and weights wᵢ are
a Gauss–Hermite rule in B's normal score when both components have shape
≥ 16, and otherwise Gauss–Legendre panels over B's range split where F_A has
its support edge or its mean: at small shapes the edge is a kink of the
integrand, on which Gauss–Hermite converges slowly.  Each law picks the
smallest rule that agrees with the next larger one to a tenth of
QUADRATURE_TOL at probe points spanning the law, and raises
ComputationError with the disagreement it reached when the largest rule
still misses.

Conventions:  a complex sample CN(0, σ²) contributes two real Gaussian
degrees of freedom of variance σ²/2 each, so N complex samples give a real
χ² with 2N degrees of freedom, and a deterministic component of total energy
E = Σ|μ[k]|² gives non-centrality λ = 2E/σ².  Classes expose the complex
sample count N.

All evaluation functions are pure; sampling takes an explicit
`numpy.random.Generator` (or a seed), never global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Union

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.special._ufuncs import _ncx2_pdf, _ncx2_sf

__all__ = [
    "ComputationError",
    "FLaw",
    "GammaDifference",
    "NoncentralChi2C",
    "ScaledGamma",
    "law_quantile",
    "law_sample",
]

# ---------------------------------------------------------------------------
# module tolerances
# ---------------------------------------------------------------------------

#: |cdf| error targeted by a paired law's quadrature rule, which must agree
#: with the next larger rule to a tenth of it at the law's probe points.
QUADRATURE_TOL = 1e-9
#: |cdf(quantile(p)) − p| required of quantile inversion.
QUANTILE_TOL = 1e-10
#: |cdf(quantile(p)) − p| / p required of quantile inversion on positive
#: support.  Above p = 1e-4 QUANTILE_TOL implies it; below, it keeps
#: lower-tail quantiles from being accepted however far off they are.
QUANTILE_RTOL = 1e-6
# On positive support a low bracket seed clamped at 0 stands for this
# fraction of the high one, so that it has a logarithm.
_LOW_SEED = 1.0 / 16385

# Rule sizes tried in turn: Gauss–Hermite nodes, or Gauss–Legendre nodes per panel.
_RULE_SIZES = (16, 20, 24, 32, 48, 64, 96, 128)
# Below this component shape the kink of F_A at its support edge can make a
# Gauss–Hermite rule look settled at the probes while missing between them
# (seen at shape 5); from 16 up it settles within the sizes above.
_HERMITE_MIN_SHAPE = 16
# Mass of B left outside each end of the Gauss–Legendre panels.
_PANEL_TAIL = 1e-15
# Probe points, in standard deviations (log-scale ones for the ratio) of the
# conditioned law around its centre.
_PROBES = np.linspace(-6.0, 6.0, 25)


class ComputationError(RuntimeError):
    """A special function or quadrature rule failed to reach its error target.

    The bound that was actually achieved is kept in :attr:`achieved` so
    callers can report how far off the computation ended up.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# law classes
# ---------------------------------------------------------------------------


def _as_generator(rng_state) -> np.random.Generator:
    if isinstance(rng_state, np.random.Generator):
        return rng_state
    return np.random.default_rng(rng_state)


def _square(x: float) -> float:
    """x**2, or inf beyond the float range, where Python floats raise."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _eval_1d(fn, t):
    """Apply a 1-d array evaluator to scalar or array input, preserving kind."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    out = fn(arr.ravel()).reshape(arr.shape)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def _spread_seeds(law):
    """Bracket seeds 4 spreads either side of the mean, the low one clamped
    at the support's edge; refined by expansion in law_quantile."""
    sd = np.sqrt(law.variance)
    return max(law.mean - 4.0 * sd, law.support_lo), law.mean + 4.0 * sd


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_error(x: float) -> float:
    """log Γ(x) − ((x − ½)·log x − x + ½·log 2π): from gammaln below 16,
    where the difference loses under 1e-14, else by its asymptotic series."""
    if x < 16.0:
        return float(special.gammaln(x)) - ((x - 0.5) * math.log(x) - x + _HALF_LOG_2PI)
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def _betaln(a: float, b: float) -> float:
    """log B(a, b) within a few ulps of its magnitude.  `special.betaln`
    differences log-gammas once a + b passes about 171 and then misses by up
    to 1e-9 relative (8e-13 absolute already at a = b = 512)."""
    n = a + b
    tails = (a - 0.5) * math.log1p(b / a) + (b - 0.5) * math.log1p(a / b)
    corrections = _stirling_error(a) + _stirling_error(b) - _stirling_error(n)
    return _HALF_LOG_2PI - 0.5 * math.log(n) - tails + corrections


@dataclass(frozen=True)
class ScaledGamma:
    """Law of the mean-power estimate of N complex Gaussian samples.

    The estimate (1/N)Σ|x[k]|² of N i.i.d. CN(0, σ²) samples is
    ScaledGamma(shape=N, scale=σ²/N): mean = shape·scale = σ² and
    variance = shape·scale² = σ⁴/N.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError("shape must be a positive real")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive real")

    support_lo = 0.0

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * _square(self.scale)

    @property
    def rel_variance(self) -> float:
        """variance/mean², free of the scale."""
        return 1.0 / self.shape

    _bracket_seeds = _spread_seeds

    def _pdf(self, x):
        # About the mean, y = x/θ = a·(1 + e), with δ the Stirling error of
        # log Γ(a): f = exp(a·(log(1 + e) − e) − log(1 + e) − δ(a))/(√(2πa)·θ),
        # free of the cancelling terms of (a − 1)·log y − y − log Γ(a)
        a = self.shape
        out = np.zeros_like(x)
        # y, and the density of a subnormal scale, are inf past the float range
        with np.errstate(over="ignore"):
            y = x / self.scale
            inside = (y > 0.0) & (y < np.inf)
            y = y[inside]
            e = y / a - 1.0
            # far below the mean e rounds away y's digits; log y keeps them
            far = e < -0.5
            log1pe = np.log1p(np.maximum(e, -0.5))
            log1pe[far] = np.log(y[far]) - math.log(a)
            log_dens = a * (log1pe - e) - log1pe - _stirling_error(a)
            out[inside] = np.exp(log_dens) / (math.sqrt(2.0 * math.pi * a) * self.scale)
        return out

    def _cdf(self, x):
        return special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale)

    def _sf(self, x):
        return special.gammaincc(self.shape, np.maximum(x, 0.0) / self.scale)

    def _ppf(self, p):
        # inf past the float range
        with np.errstate(over="ignore"):
            return special.gammaincinv(self.shape, p) * self.scale

    def pdf(self, t):
        return _eval_1d(self._pdf, t)

    def cdf(self, t):
        return _eval_1d(self._cdf, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        return _as_generator(rng_state).gamma(self.shape, self.scale, int(count))


@dataclass(frozen=True)
class NoncentralChi2C:
    """Mean-power estimate of N complex Gaussian samples plus a deterministic part.

    With samples x[k] = μ[k] + n[k], n[k] ~ CN(0, power) i.i.d. and total
    deterministic energy E = Σ|μ[k]|², the estimate (1/N)Σ|x[k]|² equals
    (power/(2N))·χ²_{2N}(λ) with λ = 2E/power.  Mean = power + E/N; the
    un-normalized sum therefore has mean N·power + E.
    """

    shape: float
    power: float
    noncentrality_energy: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError("shape must be a positive real")
        if not (np.isfinite(self.power) and self.power > 0):
            raise ValueError("power must be a positive real")
        energy = self.noncentrality_energy
        if not np.isfinite(energy):
            raise ValueError(f"noncentrality_energy must be finite (got {energy})")
        if energy < 0:
            raise ValueError("noncentrality_energy must be non-negative")

    support_lo = 0.0

    @property
    def noncentrality(self) -> float:
        """λ of the underlying real χ²_{2N}."""
        return 2.0 * self.noncentrality_energy / self.power

    @property
    def mean(self) -> float:
        return self.power + self.noncentrality_energy / self.shape

    @property
    def variance(self) -> float:
        return (
            _square(self.power) / self.shape
            + 2.0 * self.noncentrality_energy * self.power / _square(self.shape)
        )

    @property
    def rel_variance(self) -> float:
        """variance/mean², free of the power: 2(k + 2λ)/(k + λ)² of χ²_k(λ)."""
        k, lam = 2.0 * self.shape, self.noncentrality
        return 2.0 * (k + 2.0 * lam) / _square(k + lam)

    _bracket_seeds = _spread_seeds

    def _checked(self, out):
        # NaN where Boost's series fails (λ ≳ 5e10, or λ ≳ 5e6 far out in the
        # tails), and at 0 where 2N/power overflows (see _chi2)
        if np.any(np.isnan(out)):
            with np.errstate(over="ignore"):
                rate = 2.0 * self.shape / self.power
            why = "" if np.isfinite(rate) else ": 2N/power overflows the float range"
            raise ComputationError(
                f"non-central χ² with 2N = {2.0 * self.shape:g}, "
                f"λ = {self.noncentrality:g} could not be evaluated{why}"
            )
        return out

    def _chi2(self, x):
        """χ²_{2N} argument of the estimate value x (clamped at 0; inf past the
        float range).  Where 2N/power overflows it is inf at every x > 0 and
        NaN at 0, which _checked reports."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.maximum(x, 0.0) * (2.0 * self.shape / self.power)

    def _cdf(self, x):
        return self._checked(
            special.chndtr(self._chi2(x), 2.0 * self.shape, self.noncentrality)
        )

    def _sf(self, x):
        u = self._chi2(x)
        # Boost gives −0 at u = 0 and NaN at u = inf, where the sf is 1 and 0
        sf = np.where(u == 0.0, 1.0, 0.0)
        inside = (u > 0.0) & np.isfinite(u)
        sf[inside] = self._checked(_ncx2_sf(u[inside], 2.0 * self.shape, self.noncentrality))
        return sf

    def _pdf(self, x):
        out = np.zeros_like(x)
        u = self._chi2(x)
        # Boost gives NaN at u = inf, where the density is 0
        pos = (x > 0) & np.isfinite(u)
        dens = self._checked(_ncx2_pdf(u[pos], 2.0 * self.shape, self.noncentrality))
        out[pos] = np.maximum(dens, 0.0) * (2.0 * self.shape / self.power)
        return out

    def _ppf(self, p):
        # inf past the float range
        with np.errstate(over="ignore"):
            x = special.chndtrix(p, 2.0 * self.shape, self.noncentrality)
            return self._checked(x * (self.power / (2.0 * self.shape)))

    def cdf(self, t):
        return _eval_1d(self._cdf, t)

    def pdf(self, t):
        return _eval_1d(self._pdf, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        c = self.power / (2.0 * self.shape)
        rng = _as_generator(rng_state)
        return c * rng.noncentral_chisquare(2.0 * self.shape, self.noncentrality, int(count))


LawSide = Union[ScaledGamma, NoncentralChi2C]


def _estimate(shape: float, power: float, energy: float) -> LawSide:
    """Law of the mean-power estimate of `shape` complex samples of Gaussian
    power `power` plus a deterministic part of energy `energy`."""
    if power == 0:
        raise ValueError("a pointing without Gaussian power has no mean-power law")
    if energy == 0:
        return ScaledGamma(shape, power / shape)
    return NoncentralChi2C(shape, power, energy)


@cache
def _hermite(n: int):
    """Nodes and weights of E[g(Z)], Z ~ N(0, 1), by n-point Gauss–Hermite."""
    x, w = hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


@cache
def _legendre(n: int):
    """Nodes and weights of the n-point Gauss–Legendre rule on [−1, 1],
    read-only: every caller shares them."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class _Conditioned:
    """cdf and pdf of A − B (or A/B when `ratio`) by conditioning on B.

    cdf(u) = E_B[F_A(h(u, B))] with h = u + y (difference) or u·y (ratio).
    With `mirror` set the law is that of B − A (or B/A), whose cdf at t is
    E_B[1 − F_A(h(u, B))] at u = −t (or 1/t).  B should be the narrower
    component.
    """

    a: LawSide
    b: LawSide
    ratio: bool
    mirror: bool
    # Gauss–Hermite nodes by rule size, computed once per law
    _hermite_nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _nodes(self, u, n: int):
        """Nodes y and weights w of an n-point rule over B, one row per u
        (or one row shared by all)."""
        if min(self.a.shape, self.b.shape) >= _HERMITE_MIN_SHAPE:
            if n not in self._hermite_nodes:
                z, w = _hermite(n)
                # Φ(z) rounds to 1 beyond z ≈ 8.3; those nodes carry weight < 1e-16
                p = np.minimum(special.ndtr(z), 1.0 - np.finfo(float).epsneg)
                self._hermite_nodes[n] = self._placed(self.b._ppf(p))[None, :], w[None, :]
            return self._hermite_nodes[n]
        # Panels split where h crosses A's support edge (a kink of F_A) and
        # A's mean; the ratio's panels are uniform in log y.
        x, w = _legendre(n)
        lo, hi = self._panel_range
        # a ratio's cut past the float range is inf, and clipped to hi
        with np.errstate(over="ignore"):
            cuts = [self.a.mean / u] if self.ratio else [-u, self.a.mean - u]
        edges = np.sort(np.clip([np.full_like(u, lo), *cuts, np.full_like(u, hi)], lo, hi), 0).T
        if self.ratio:
            edges = np.log(edges)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        shape = (u.size, half.shape[1] * n)
        v = (0.5 * (edges[:, 1:] + edges[:, :-1])[..., None] + half * x).reshape(shape)
        y = np.exp(v) if self.ratio else v
        # B's density is inf, or 0 at every node, where its scale leaves the
        # float range; an empty panel times inf is NaN
        with np.errstate(invalid="ignore"):
            w = (half * w).reshape(shape) * self.b._pdf(y)
        if self.ratio:
            w *= y
        total = np.sum(w, axis=1, keepdims=True)
        if not np.all((0.0 < total) & (total < np.inf)):
            raise self._unplaced("its weights leave the float range")
        # unit total weight makes Σw·F_A = 1 − Σw·(1 − F_A) exactly, so the
        # upper tail is as accurate as the lower one
        return y, w / total

    @cached_property
    def _panel_range(self):
        """B's range covered by the Gauss–Legendre panels."""
        return self._placed(self.b._ppf(np.array([_PANEL_TAIL, 1.0 - _PANEL_TAIL])))

    def _placed(self, y):
        """B's quantiles y, checked to lie inside the float range: finite, and
        for the ratio, whose panels are uniform in log y, positive."""
        inside = np.isfinite(y) & (y > 0) if self.ratio else np.isfinite(y)
        if not np.all(inside):
            raise self._unplaced("its nodes leave the float range")
        return y

    def _unplaced(self, reason: str) -> ComputationError:
        return ComputationError(
            f"conditional quadrature over {self.b!r} cannot be placed: {reason}"
        )

    def _h(self, u, y):
        if not self.ratio:
            return u[:, None] + y
        # inf past the float range, where F_A is 1 and A's sf and density 0
        with np.errstate(over="ignore"):
            return u[:, None] * y

    @property
    def _mass(self):
        """A's function whose expectation over B is the cdf."""
        return self.a._sf if self.mirror else self.a._cdf

    def _sum(self, u, n: int, density: bool):
        y, w = self._nodes(u, n)
        h = self._h(u, y)
        if not density:
            return np.sum(self._mass(h) * w, axis=1)
        # ∂h/∂u is y for the ratio and 1 for the difference
        return np.sum(self.a._pdf(h) * (y * w if self.ratio else w), axis=1)

    @cached_property
    def spread(self) -> float:
        """√(var_A + var_B) for the difference, √(rv_A + rv_B) in log t for
        the ratio (rv the relative variance); inf where it overflows."""
        a, b = self.a, self.b
        with np.errstate(over="ignore"):
            if self.ratio:
                return float(np.sqrt(a.rel_variance + b.rel_variance))
            return float(np.sqrt(a.variance + b.variance))

    def _centred(self, k):
        """Points k spreads from the centre of the conditioned law."""
        a, b = self.a, self.b
        if self.ratio:
            return a.mean / b.mean * np.exp(self.spread * k)
        return a.mean - b.mean + self.spread * k

    @cached_property
    def size(self) -> int:
        """Smallest rule size that agrees with the next one at the probes."""
        if self.spread == np.inf:
            raise self._unplaced("the law's spread overflows the float range")
        u = self._centred(_PROBES)
        # the first two rules always run, so one component call serves both
        (y0, w0), (y1, w1) = (self._nodes(u, n) for n in _RULE_SIZES[:2])
        h0, h1 = self._h(u, y0), self._h(u, y1)
        f = self._mass(np.concatenate([h0.ravel(), h1.ravel()]))
        prev = np.sum(f[: h0.size].reshape(h0.shape) * w0, axis=1)
        second = np.sum(f[h0.size :].reshape(h1.shape) * w1, axis=1)
        for n, larger in zip(_RULE_SIZES, _RULE_SIZES[1:]):
            nxt = second if n == _RULE_SIZES[0] else self._sum(u, larger, False)
            miss = float(np.max(np.abs(nxt - prev)))
            # the rule error oscillates between probes, so demand a tenth
            if miss <= 0.1 * QUADRATURE_TOL:
                return n
            prev = nxt
        raise ComputationError(
            f"conditional quadrature over {self.b!r} did not settle: rules of "
            f"{_RULE_SIZES[-2]} and {_RULE_SIZES[-1]} nodes differ by {miss:.3e}",
            achieved=miss,
        )

    def _args(self, t):
        """(points inside the support, canonical arguments u); a mirrored
        ratio's u = 1/t is inf where it overflows."""
        inside = t > 0 if self.ratio else np.ones(t.shape, dtype=bool)
        ts = t[inside]
        if not self.mirror:
            return inside, ts
        if self.ratio:
            with np.errstate(over="ignore"):
                return inside, 1.0 / ts
        return inside, -ts

    def cdf(self, t):
        n = self.size
        inside, u = self._args(t)
        out = np.zeros_like(t)
        out[inside] = self._sum(u, n, False)
        return np.clip(out, 0.0, 1.0)

    def pdf(self, t):
        n = self.size
        inside, u = self._args(t)
        dens = np.maximum(self._sum(u, n, True), 0.0)
        if self.mirror and self.ratio:
            # times |du/dt| = 1/t², and 0 where that overflows
            with np.errstate(divide="ignore", over="ignore"):
                du = 1.0 / t[inside] ** 2
            du[du == np.inf] = 0.0
            dens *= du
        out = np.zeros_like(t)
        out[inside] = dens
        return out


def _check_sides(law, *sides) -> None:
    """Reject a paired law's side that is not a mean-power estimate law."""
    if not all(isinstance(side, LawSide) for side in sides):
        raise ValueError(f"{type(law).__name__} sides must be ScaledGamma or NoncentralChi2C")


@dataclass(frozen=True)
class FLaw:
    """Law of num/den for independent mean-power estimates.

    With both sides central, ScaledGamma(a, θ₁) over ScaledGamma(b, θ₂), the
    ratio is a scaled F(2a, 2b) with closed forms: y = (θ₂/θ₁)·x is
    beta-prime(a, b), of density y^(a−1)·(1 + y)^(−a−b) / B(a, b) and cdf
    I_{y/(1+y)}(a, b).  Otherwise cdf and pdf come from conditioning on the
    side of smaller relative spread (see the module docstring).
    """

    num: LawSide
    den: LawSide

    def __post_init__(self):
        _check_sides(self, self.num, self.den)

    support_lo = 0.0

    @property
    def _central(self) -> bool:
        return isinstance(self.num, ScaledGamma) and isinstance(self.den, ScaledGamma)

    @cached_property
    def _conditioned(self) -> _Conditioned:
        if self.num.rel_variance < self.den.rel_variance:
            return _Conditioned(self.den, self.num, ratio=True, mirror=True)
        return _Conditioned(self.num, self.den, ratio=True, mirror=False)

    def cdf(self, t):
        if not self._central:
            return _eval_1d(self._conditioned.cdf, t)
        a, b, c = self.num.shape, self.den.shape, self.num.scale / self.den.scale

        def eval_(x):
            # I_u(a, b) at u = y/(1 + y), or 1 − I_{1−u}(b, a) above y = 1,
            # where 1 − u = 1/(1 + y) keeps the digits that u rounds away
            y = np.maximum(x, 0.0) / c
            upper = y > 1.0
            w = np.where(upper, 1.0, y) / (1.0 + y)
            tail = special.betainc(np.where(upper, b, a), np.where(upper, a, b), w)
            return np.where(upper, 1.0 - tail, tail)

        return _eval_1d(eval_, t)

    def pdf(self, t):
        if not self._central:
            return _eval_1d(self._conditioned.pdf, t)
        a, b, c = self.num.shape, self.den.shape, self.num.scale / self.den.scale
        dy_dx = 1.0 / c

        def eval_(x):
            # xlogy keeps y⁰ = 1 at y = 0
            y = np.maximum(x, 0.0) * dy_dx
            log_dens = special.xlogy(a - 1.0, y) - (a + b) * np.log1p(y) - _betaln(a, b)
            return np.where(x > 0, np.exp(log_dens) * dy_dx, 0.0)

        return _eval_1d(eval_, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        rng = _as_generator(rng_state)
        return self.num.sample(rng, count) / self.den.sample(rng, count)

    def _bracket_seeds(self):
        # ratio of the means with a log-symmetric spread; seeds only,
        # refined by expansion in law_quantile
        centre = self.num.mean / self.den.mean
        rel = self._conditioned.spread
        # a huge centre overflows to inf, which law_quantile reports
        with np.errstate(over="ignore"):
            return centre * np.exp(-4.0 * rel), centre * np.exp(4.0 * rel)


@dataclass(frozen=True)
class GammaDifference:
    """Law of pos − neg for independent mean-power estimates.

    No closed form covers the non-central cases uniformly, so cdf and pdf
    come from conditioning on the narrower estimate (see the module
    docstring).
    """

    pos: LawSide
    neg: LawSide

    def __post_init__(self):
        _check_sides(self, self.pos, self.neg)

    support_lo = -np.inf

    @property
    def mean(self) -> float:
        return self.pos.mean - self.neg.mean

    @property
    def variance(self) -> float:
        return self.pos.variance + self.neg.variance

    _bracket_seeds = _spread_seeds

    @cached_property
    def _conditioned(self) -> _Conditioned:
        if self.pos.variance < self.neg.variance:
            return _Conditioned(self.neg, self.pos, ratio=False, mirror=True)
        return _Conditioned(self.pos, self.neg, ratio=False, mirror=False)

    def pdf(self, t):
        return _eval_1d(self._conditioned.pdf, t)

    def cdf(self, t):
        return _eval_1d(self._conditioned.cdf, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        rng = _as_generator(rng_state)
        return self.pos.sample(rng, count) - self.neg.sample(rng, count)


Law = Union[ScaledGamma, NoncentralChi2C, FLaw, GammaDifference]


# ---------------------------------------------------------------------------
# operations on any law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Axis:
    """The variable x in which a law is nearly normal: log t on positive
    support (`support_lo` ≥ 0), where heavy upper tails decay exponentially
    in x, and t otherwise."""

    log: bool

    def to_x(self, t):
        return np.log(t) if self.log else np.asarray(t)

    def to_t(self, x):
        return np.exp(x) if self.log else np.asarray(x)

    def seeds(self, law) -> tuple[float, float]:
        """The law's bracket seeds in x, a low seed clamped at 0 taken as
        _LOW_SEED times the high one."""
        lo, hi = (float(v) for v in law._bracket_seeds())
        if self.log:
            with np.errstate(divide="ignore"):
                lo, hi = np.log([lo if lo > 0.0 else hi * _LOW_SEED, hi]).tolist()
        return lo, hi


def _axis(law) -> _Axis:
    return _Axis(getattr(law, "support_lo", -np.inf) >= 0.0)


def law_quantile(law, p):
    """Value t with |cdf(t) − p| ≤ QUANTILE_TOL, and ≤ QUANTILE_RTOL·p on
    positive support.

    Solves z(x) = Φ⁻¹(cdf(t)) − Φ⁻¹(p) = 0 in the law's own variable x (see
    _Axis), where z is nearly linear, by regula falsi with the Illinois rule
    (Dowell & Jarratt, BIT 11, 1971: an end kept twice has its z halved),
    bisecting where z is infinite or a step leaves the bracket.  The bracket
    grows from the seeds by doubling steps in x; the solve stops when it is
    4 ulps wide, relative in t on positive support (x = log t) and relative
    to the law's spread otherwise.  Raises ComputationError when the bracket
    leaves the float range or does not close, or the root misses its tolerance.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile order must lie strictly inside (0, 1)")
    axis = _axis(law)
    target = float(special.ndtri(p))

    def at(x):
        """(x, z, cdf): one end of the bracket."""
        with np.errstate(over="ignore"):
            t = float(axis.to_t(x))
        if not math.isfinite(t):
            raise ComputationError(f"{law!r} has no finite quantile bracket: its spread overflows")
        c = float(law.cdf(t))
        return x, float(special.ndtri(c)) - target, c

    lo, hi = (at(x) for x in axis.seeds(law))
    step = width = max(hi[0] - lo[0], math.sqrt(np.finfo(float).eps))
    for _ in range(80):
        if lo[1] <= 0.0 <= hi[1]:
            break
        # the end left behind becomes the other end
        lo, hi = (hi, at(hi[0] + step)) if hi[1] < 0.0 else (at(lo[0] - step), lo)
        step *= 2.0
    else:
        raise ComputationError("quantile bracket expansion did not close")

    ulps = 4.0 * np.finfo(float).eps
    scale = 1.0 if axis.log else width
    f_lo, f_hi = lo[1], hi[1]
    kept = 0  # −1 after hi was kept, +1 after lo was
    for _ in range(200):
        (a, z_a, _), (b, z_b, _) = lo, hi
        if z_a == 0.0 or z_b == 0.0 or b - a <= ulps * max(-a, b, scale):
            break
        x = a - f_lo * (b - a) / (f_hi - f_lo)
        end = at(x if a < x < b else 0.5 * a + 0.5 * b)
        if end[1] < 0.0:
            lo, f_lo, f_hi = end, end[1], f_hi * (0.5 if kept < 0 else 1.0)
            kept = -1
        else:
            hi, f_hi, f_lo = end, end[1], f_lo * (0.5 if kept > 0 else 1.0)
            kept = 1
    root, _, c = min(lo, hi, key=lambda end: abs(end[2] - p))
    err = abs(c - p)
    if axis.log and not err <= QUANTILE_RTOL * p:
        raise ComputationError(
            f"quantile inversion achieved |cdf−p|/p = {err / p:.2e} > {QUANTILE_RTOL:.1e}",
            achieved=err / p,
        )
    if not err <= QUANTILE_TOL:
        raise ComputationError(
            f"quantile inversion achieved |cdf−p| = {err:.2e} > {QUANTILE_TOL:.1e}",
            achieved=err,
        )
    return float(axis.to_t(root))


def law_sample(law, rng_state, count: int) -> np.ndarray:
    """`count` i.i.d. draws of any law, using an explicit generator or seed."""
    if int(count) < 1:
        raise ValueError("count must be at least 1")
    return law.sample(_as_generator(rng_state), int(count))
