"""Sampling laws for mean-power detection statistics.

Everything here lives on the scale of the power estimate (1/N)Σ|x[k]|² of N
complex circular Gaussian samples.  Four law families cover all cases that
arise for the ON/OFF detectors:

* :class:`ScaledGamma` — the estimate under pure Gaussian input.
* :class:`NoncentralChi2C` — Gaussian input plus a deterministic component
  of energy E (sinusoid/chirp), a scaled non-central χ².
* :class:`FLaw` — a scaled, possibly doubly non-central F: the ratio of two
  independent power estimates.
* :class:`GammaDifference` — the difference of two independent power
  estimates.

The two component laws are evaluated by `scipy.special` directly: the
regularized incomplete gamma function and its inverse, and Boost's
non-central χ² (`chndtr`/`chndtrix`).  Both paired laws (FLaw, except in the
central case, which keeps its incomplete-beta closed form, and
GammaDifference) are evaluated by one mechanism, conditioning on one
component: with B the component of smaller (relative, for the ratio) spread
and A the other,

    cdf(t) = E_B[F_A(h(t, B))] ≈ Σᵢ wᵢ·F_A(h(t, yᵢ)),
    pdf(t) = Σᵢ wᵢ·f_A(h(t, yᵢ))·∂h/∂t,

with h = t + y for the difference and h = t·y for the ratio.  The nodes yᵢ
and weights wᵢ are a Gauss–Hermite rule in B's normal score when both
components have shape ≥ 16, and otherwise Gauss–Legendre panels over B's
range split where F_A has its support edge or its mean: at small shapes the
edge is a kink of the integrand, on which Gauss–Hermite converges slowly.
Each law picks the smallest rule that agrees with the next larger one to a
tenth of QUADRATURE_TOL at probe points spanning the law, and raises
ComputationError with the disagreement it reached when the largest rule
still misses.

Conventions:  a complex sample CN(0, σ²) contributes two real Gaussian
degrees of freedom of variance σ²/2 each, so N complex samples give a real
χ² with 2N degrees of freedom, and a deterministic component of total energy
E = Σ|μ[k]|² gives non-centrality λ = 2E/σ².  Classes expose the complex
sample count N; :class:`FLaw` alone speaks real degrees of freedom (2N),
matching how F tables are usually written.

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
# Brent's absolute tolerance when only its relative one should count.
_TINY = np.finfo(float).tiny

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


def _check_noncentrality(name: str, v: float) -> None:
    """Reject a non-centrality that is not a finite, non-negative real."""
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite (got {v})")
    if v < 0:
        raise ValueError(f"{name} must be non-negative")


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

    def _bracket_seeds(self):
        sd = np.sqrt(self.variance)
        return max(self.mean - 4.0 * sd, 0.0), self.mean + 4.0 * sd

    def _pdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0
        xs = x[pos] / self.scale
        out[pos] = np.exp(
            (self.shape - 1.0) * np.log(xs) - xs - special.gammaln(self.shape)
        ) / self.scale
        return out

    def _cdf(self, x):
        return special.gammainc(self.shape, np.maximum(x, 0.0) / self.scale)

    def _ppf(self, p):
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
        _check_noncentrality("noncentrality_energy", self.noncentrality_energy)

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

    def _bracket_seeds(self):
        sd = np.sqrt(self.variance)
        return max(self.mean - 4.0 * sd, 0.0), self.mean + 4.0 * sd

    def _checked(self, out):
        # Boost's series gives NaN where it cannot converge (λ ≳ 5e10)
        if np.any(np.isnan(out)):
            raise ComputationError(
                f"non-central χ² with 2N = {2.0 * self.shape:g}, "
                f"λ = {self.noncentrality:g} could not be evaluated"
            )
        return out

    def _chi2(self, x):
        """χ²_{2N} argument of the estimate value x (clamped at 0)."""
        return np.maximum(x, 0.0) * (2.0 * self.shape / self.power)

    def _cdf(self, x):
        return self._checked(
            special.chndtr(self._chi2(x), 2.0 * self.shape, self.noncentrality)
        )

    def _pdf(self, x):
        # x·f_k = k·f_{k+2} + λ·f_{k+4} and F_k − F_{k+2} = 2·f_{k+2} give the
        # density from three cdfs at any k > 0, without the Bessel function
        # (whose exponentially scaled form underflows at large k)
        out = np.zeros_like(x)
        pos = x > 0
        u = self._chi2(x[pos])
        k, lam = 2.0 * self.shape, self.noncentrality
        f0, f2, f4 = (self._checked(special.chndtr(u, k + d, lam)) for d in (0, 2, 4))
        dens = (k * (f0 - f2) + lam * (f2 - f4)) / (2.0 * u)
        out[pos] = np.maximum(dens, 0.0) * (2.0 * self.shape / self.power)
        return out

    def _ppf(self, p):
        return self._checked(
            special.chndtrix(p, 2.0 * self.shape, self.noncentrality)
            * (self.power / (2.0 * self.shape))
        )

    def cdf(self, t):
        return _eval_1d(self._cdf, t)

    def pdf(self, t):
        return _eval_1d(self._pdf, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        rng = _as_generator(rng_state)
        n = int(count)
        if self.noncentrality_energy == 0:
            return rng.gamma(self.shape, self.power / self.shape, n)
        c = self.power / (2.0 * self.shape)
        return c * rng.noncentral_chisquare(2.0 * self.shape, self.noncentrality, n)


LawSide = Union[ScaledGamma, NoncentralChi2C]


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
    With `mirror` set the law is that of −(A − B) (or B/A), evaluated as
    1 − cdf(−t) (or 1 − cdf(1/t)).  B should be the narrower component.
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
                self._hermite_nodes[n] = self.b._ppf(p)[None, :], w[None, :]
            return self._hermite_nodes[n]
        # Panels split where h crosses A's support edge (a kink of F_A) and
        # A's mean; the ratio's panels are uniform in log y.
        x, w = _legendre(n)
        lo, hi = self._panel_range
        cuts = [self.a.mean / u] if self.ratio else [-u, self.a.mean - u]
        edges = np.sort(np.clip([np.full_like(u, lo), *cuts, np.full_like(u, hi)], lo, hi), 0).T
        if self.ratio:
            edges = np.log(edges)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        shape = (u.size, half.shape[1] * n)
        v = (0.5 * (edges[:, 1:] + edges[:, :-1])[..., None] + half * x).reshape(shape)
        y = np.exp(v) if self.ratio else v
        w = (half * w).reshape(shape) * self.b._pdf(y)
        if self.ratio:
            w *= y
        # unit total weight makes Σw·F_A = 1 − Σw·(1 − F_A) exactly, so the
        # upper tail is as accurate as the lower one
        return y, w / np.sum(w, axis=1, keepdims=True)

    @cached_property
    def _panel_range(self):
        """B's range covered by the Gauss–Legendre panels."""
        return self.b._ppf(np.array([_PANEL_TAIL, 1.0 - _PANEL_TAIL]))

    def _sum(self, u, n: int, density: bool):
        y, w = self._nodes(u, n)
        h = u[:, None] * y if self.ratio else u[:, None] + y
        if not density:
            return np.sum(self.a._cdf(h) * w, axis=1)
        # ∂h/∂u is y for the ratio and 1 for the difference
        return np.sum(self.a._pdf(h) * (y * w if self.ratio else w), axis=1)

    def _centred(self, k):
        """Points k spreads from the centre of the conditioned law."""
        a, b = self.a, self.b
        if self.ratio:
            rel = np.sqrt(a.variance / _square(a.mean) + b.variance / _square(b.mean))
            return a.mean / b.mean * np.exp(rel * k)
        return a.mean - b.mean + np.sqrt(a.variance + b.variance) * k

    @cached_property
    def size(self) -> int:
        """Smallest rule size that agrees with the next one at the probes."""
        u = self._centred(_PROBES)
        prev = self._sum(u, _RULE_SIZES[0], False)
        for n, larger in zip(_RULE_SIZES, _RULE_SIZES[1:]):
            nxt = self._sum(u, larger, False)
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
        """(points inside the support, canonical arguments u, |du/dt|)."""
        inside = t > 0 if self.ratio else np.ones(t.shape, dtype=bool)
        ts = t[inside]
        if not self.mirror:
            return inside, ts, np.ones_like(ts)
        if self.ratio:
            return inside, 1.0 / ts, 1.0 / ts**2
        return inside, -ts, np.ones_like(ts)

    def cdf(self, t):
        n = self.size
        inside, u, _ = self._args(t)
        out = np.zeros_like(t)
        value = self._sum(u, n, False)
        out[inside] = 1.0 - value if self.mirror else value
        return np.clip(out, 0.0, 1.0)

    def pdf(self, t):
        n = self.size
        inside, u, du = self._args(t)
        out = np.zeros_like(t)
        out[inside] = np.maximum(self._sum(u, n, True), 0.0) * du
        return out


def _mean_power(dof: float, scale: float, lam: float) -> LawSide:
    """Law of scale·X/dof for X ~ χ²_dof(λ)."""
    if lam == 0:
        return ScaledGamma(dof / 2.0, 2.0 * scale / dof)
    return NoncentralChi2C(dof / 2.0, scale, lam * scale / 2.0)


@dataclass(frozen=True)
class FLaw:
    """Scaled, possibly doubly non-central F law.

    The variate is scale·(X₁/ν₁)/(X₂/ν₂) with independent Xᵢ ~ χ²_{νᵢ}(λᵢ).
    Degrees of freedom here are the real ones: a ratio of two mean-power
    estimates over N complex samples each has dof_num = dof_den = 2N.
    The cdf satisfies cdf(scale·t) = unit-scale cdf(t).
    """

    dof_num: float
    dof_den: float
    scale: float = 1.0
    lambda_num: float = 0.0
    lambda_den: float = 0.0

    def __post_init__(self):
        for name in ("dof_num", "dof_den", "scale"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive real")
        for name in ("lambda_num", "lambda_den"):
            _check_noncentrality(name, getattr(self, name))

    support_lo = 0.0

    @property
    def _central(self) -> bool:
        return self.lambda_num == 0 and self.lambda_den == 0

    @cached_property
    def _conditioned(self) -> _Conditioned:
        num = _mean_power(self.dof_num, self.scale, self.lambda_num)
        den = _mean_power(self.dof_den, 1.0, self.lambda_den)
        if num.variance / _square(num.mean) < den.variance / _square(den.mean):
            return _Conditioned(den, num, ratio=True, mirror=True)
        return _Conditioned(num, den, ratio=True, mirror=False)

    def cdf(self, t):
        if not self._central:
            return _eval_1d(self._conditioned.cdf, t)
        a, b = self.dof_num / 2.0, self.dof_den / 2.0

        def eval_(x):
            xs = np.maximum(x, 0.0) / self.scale
            return special.betainc(a, b, self.dof_num * xs / (self.dof_num * xs + self.dof_den))

        return _eval_1d(eval_, t)

    def pdf(self, t):
        if not self._central:
            return _eval_1d(self._conditioned.pdf, t)
        a, b = self.dof_num / 2.0, self.dof_den / 2.0
        r = self.dof_num / self.dof_den

        def eval_(x):
            out = np.zeros_like(x)
            pos = x > 0
            xs = x[pos] / self.scale
            u = r * xs / (r * xs + 1.0)
            # log(1 − u) = −log(1 + r·xs), taken so where u has rounded to 1
            log1m_u = np.log1p(-u, where=u < 1.0, out=-np.log1p(r * xs))
            dens = np.exp(
                (a - 1.0) * np.log(u)
                + (b - 1.0) * log1m_u
                + special.gammaln(a + b)
                - special.gammaln(a)
                - special.gammaln(b)
            )
            # du/dx = r / (r x + 1)², then the outer 1/scale
            out[pos] = dens * r / (r * xs + 1.0) ** 2 / self.scale
            return out

        return _eval_1d(eval_, t)

    def sample(self, rng_state, count: int) -> np.ndarray:
        rng = _as_generator(rng_state)
        n = int(count)
        if self.lambda_num > 0:
            x1 = rng.noncentral_chisquare(self.dof_num, self.lambda_num, n)
        else:
            x1 = rng.chisquare(self.dof_num, n)
        if self.lambda_den > 0:
            x2 = rng.noncentral_chisquare(self.dof_den, self.lambda_den, n)
        else:
            x2 = rng.chisquare(self.dof_den, n)
        return self.scale * (x1 / self.dof_num) / (x2 / self.dof_den)

    def _bracket_seeds(self):
        # ratio-of-means centre with a log-symmetric spread; seeds only,
        # refined by expansion in law_quantile
        centre = (
            self.scale
            * (1.0 + self.lambda_num / self.dof_num)
            / (1.0 + self.lambda_den / self.dof_den)
        )
        num, den = self.dof_num + self.lambda_num, self.dof_den + self.lambda_den
        rel = np.sqrt(
            2.0 * (self.dof_num + 2.0 * self.lambda_num) / _square(num)
            + 2.0 * (self.dof_den + 2.0 * self.lambda_den) / _square(den)
        )
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
        for side in (self.pos, self.neg):
            if not isinstance(side, (ScaledGamma, NoncentralChi2C)):
                raise ValueError(
                    "GammaDifference sides must be ScaledGamma or NoncentralChi2C"
                )

    support_lo = -np.inf

    @property
    def mean(self) -> float:
        return self.pos.mean - self.neg.mean

    @property
    def variance(self) -> float:
        return self.pos.variance + self.neg.variance

    def _bracket_seeds(self):
        sd = np.sqrt(self.variance)
        return self.mean - 4.0 * sd, self.mean + 4.0 * sd

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


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in the sign-changing bracket [xa, xb] by Brent's method.

    A step-for-step transliteration of scipy's `Zeros/brentq.c`, so each root
    is bit-identical to `scipy.optimize.brentq(f, xa, xb, xtol, rtol, maxiter,
    disp=False)`: the iterate is accepted once half the bracket is below
    delta = (xtol + rtol·|xcur|)/2, and the last iterate is returned when
    maxiter iterations do not get there.  Raises ValueError when f(xa) and
    f(xb) have the same sign or f returns NaN, as scipy does.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives ±inf or NaN here, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur


def law_quantile(law, p, tol: float = QUANTILE_TOL):
    """Value t with |cdf(t) − p| ≤ tol, by bracket expansion plus Brent root
    finding (_brentq, whose roots are bit-identical to scipy.optimize.brentq's).

    Raises ComputationError when the law's spread leaves the float range, the
    bracket does not close, or the root misses tol (on positive support,
    also when it misses QUANTILE_RTOL·p).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile order must lie strictly inside (0, 1)")
    lo_support = getattr(law, "support_lo", -np.inf)
    # Python floats, which overflow to ±inf without a warning
    lo, hi = (float(v) for v in law._bracket_seeds())
    lo = max(lo, lo_support)
    width = max(hi - lo, np.sqrt(np.finfo(float).eps))

    step = width
    for _ in range(80):
        if not math.isfinite(hi) or law.cdf(hi) >= p:
            break
        hi += step
        step *= 2.0
    else:
        raise ComputationError("quantile bracket expansion diverged above")
    step = width
    for _ in range(80):
        if lo <= lo_support or not math.isfinite(lo) or law.cdf(lo) <= p:
            break
        lo = max(lo - step, lo_support)
        step *= 2.0
    else:
        raise ComputationError("quantile bracket expansion diverged below")
    # the seeds or their expansion left the float range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ComputationError(f"{law!r} has no finite quantile bracket: its spread overflows")

    def excess(t):
        return law.cdf(t) - p

    root = _brentq(excess, lo, hi, 1e-14, 8.9e-16, 200)
    err = abs(law.cdf(root) - p)
    if lo_support >= 0.0 and err > QUANTILE_RTOL * p:
        # the absolute xtol stops short of a quantile near 0: retry with a
        # tolerance relative to the root alone
        root = _brentq(excess, lo, hi, _TINY, 8.9e-16, 200)
        err = abs(law.cdf(root) - p)
        if err > QUANTILE_RTOL * p:
            raise ComputationError(
                f"quantile inversion achieved |cdf−p|/p = {err / p:.2e} > "
                f"{QUANTILE_RTOL:.1e}",
                achieved=err / p,
            )
    if err > tol:
        raise ComputationError(
            f"quantile inversion achieved |cdf−p| = {err:.2e} > {tol:.1e}", achieved=err
        )
    return float(root)


def law_sample(law, rng_state, count: int) -> np.ndarray:
    """`count` i.i.d. draws of any law, using an explicit generator or seed."""
    if int(count) < 1:
        raise ValueError("count must be at least 1")
    return law.sample(_as_generator(rng_state), int(count))
