"""Contract tests for the sampling-law toolbox.

Frozen reference values were produced before the implementation existed:
arbitrary-precision special-function evaluations (40 significant digits,
independent of scipy) and 10⁷-draw Monte Carlo estimates from numpy's own
samplers, quoted with their ±3·standard-error bands.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate, special

from f_table import f_table
from setidetect import distributions
from setidetect.cli import _ks_bound
from setidetect.distributions import (
    QUADRATURE_TOL,
    QUANTILE_RTOL,
    QUANTILE_TOL,
    ComputationError,
    FLaw,
    GammaDifference,
    NoncentralChi2C,
    ScaledGamma,
    law_quantile,
    law_sample,
)


# --- frozen oracles (computed independently, then pinned) -------------------
LOG_GAMMA_HALF = 0.5723649429247000870717136756765293558236
LOG_GAMMA_10_5 = 13.9406252194037636331612378879718494798
INC_BETA_03_25_40 = 0.3521975859067672138766600155723980838426
INC_GAMMA_35_22 = 0.2672769164361348019239828304996870733366
SCALED_GAMMA_64_Q95 = 1.21409938165220352966669081352990040787
# Monte Carlo oracles, 10⁷ independent numpy draws each:
NCX2C_64_1_16_CDF_AT_1_2 = (0.3857785, 4.62e-4)  # (estimate, 3·SE)
DNCF_128_8_4_CDF_AT_1_1 = (0.6443349, 4.55e-4)
GDIFF_64_15_10_CDF_AT_0_4 = (0.3326276, 4.47e-4)


def law_matrix():
    """One representative configuration per law family."""
    return [
        ScaledGamma(shape=64, scale=1.0 / 64.0),
        NoncentralChi2C(shape=64, power=1.0, noncentrality_energy=16.0),
        f_table(dof_num=128, dof_den=128, scale=1.3, lambda_num=8.0, lambda_den=4.0),
        GammaDifference(
            pos=NoncentralChi2C(shape=64, power=1.2, noncentrality_energy=6.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        ),
    ]


# --- special functions, through the law methods that use them ----------------
#
# ScaledGamma(a, 1).pdf(1) = exp(−1 − ln Γ(a)) carries the log-gamma oracles;
# the central f_table(2a, 2b).cdf at x = b·u / (a·(1 − u)) is I_u(a, b); and
# ScaledGamma(s, 1).cdf(x) is the regularized lower incomplete gamma P(s, x).


def unit_gamma_pdf_at_one(a):
    return ScaledGamma(a, 1.0).pdf(1.0)


class TestLogGamma:
    def test_one_is_zero(self):
        assert unit_gamma_pdf_at_one(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_half_log_sqrt_pi(self):
        expected = np.exp(-1.0 - LOG_GAMMA_HALF)
        assert unit_gamma_pdf_at_one(0.5) == pytest.approx(expected, rel=1e-12)

    def test_frozen_oracle(self):
        expected = np.exp(-1.0 - LOG_GAMMA_10_5)
        rel = abs(LOG_GAMMA_10_5) * 1e-12
        assert unit_gamma_pdf_at_one(10.5) == pytest.approx(expected, rel=rel)

    def test_relative_error_across_range(self):
        # the functional equation ln Γ(x+1) = ln Γ(x) + ln x makes the
        # Gamma(x+1) and Gamma(x) densities agree at t = x
        for x in (1e-3, 0.37, 5.5, 123.0, 1e6):
            lhs = ScaledGamma(x + 1.0, 1.0).pdf(x)
            rhs = ScaledGamma(x, 1.0).pdf(x)
            tol = 1e-12 * max(1.0, abs(special.gammaln(x + 1.0)))
            assert lhs == pytest.approx(rhs, rel=tol)

    def test_array_input(self):
        out = ScaledGamma(2.0, 1.0).pdf(np.array([1.0, 2.0, 0.5]))
        assert out.shape == (3,)
        ts = np.array([1.0, 2.0, 0.5])
        assert np.allclose(out, ts * np.exp(-ts), atol=1e-12)


def inc_beta(u, a, b):
    u = np.asarray(u, dtype=float)
    return f_table(2.0 * a, 2.0 * b).cdf(b * u / (a * (1.0 - u)))


def gamma_pdf_mp(x, shape, scale):
    """ScaledGamma(shape, scale) density at x with 50 mpmath digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, a, s = (mpmath.mpf(v) for v in (x, shape, scale))
        return float(mpmath.exp((a - 1) * mpmath.log(x / s) - x / s - mpmath.loggamma(a)) / s)


class TestScaledGammaPdf:
    @pytest.mark.parametrize("shape", [1, 2, 5, 16, 64, 1024, 1e5])
    @pytest.mark.parametrize("scale", ["1/shape", 0.7, 3e-200])
    def test_matches_50_digit_density(self, shape, scale):
        # exp((a − 1)·log y − y − log Γ(a)) cancelled: 7.0e-14 off at shape
        # 64, 1.6e-12 at 1024 and 3.0e-10 at 1e5 over ±6 spreads.  The
        # reference takes the float scale
        scale = 1.0 / shape if scale == "1/shape" else scale
        law = ScaledGamma(shape, scale)
        xs = law.mean + np.sqrt(law.variance) * np.linspace(-6.0, 6.0, 25)
        xs = xs[xs > 0]
        expected = np.array([gamma_pdf_mp(x, shape, scale) for x in xs])
        rtol = 5e-14 if shape <= 1024 else 1e-12
        assert np.allclose(law.pdf(xs), expected, rtol=rtol, atol=0.0)

    def test_limits_without_warnings(self):
        x = np.array([1e-300, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # y⁻½·e^(−y)/(Γ(½)·θ), e^(−y)/θ, y·e^(−y)/θ and 0 as y = x/θ → 0
            half = ScaledGamma(0.5, 0.7).pdf(x)
            # a log-density of about 370 carries 370 ulps
            assert half == pytest.approx((x / 0.7) ** -0.5 / (np.sqrt(np.pi) * 0.7), rel=1e-13)
            assert ScaledGamma(1, 0.7).pdf(x) == pytest.approx(1 / 0.7, rel=1e-15)
            assert ScaledGamma(2, 0.7).pdf(1e-300) == pytest.approx(1e-300 / 0.49, rel=1e-14)
            assert np.all(ScaledGamma(1e5, 0.7).pdf(x) == 0.0)
            # x/θ beyond the float range, and x = inf
            assert ScaledGamma(2, 3e-200).pdf(1e200) == 0.0
            for shape in (0.5, 1, 2, 1e5):
                assert ScaledGamma(shape, 0.7)._pdf(np.array([np.inf]))[0] == 0.0


class TestRegIncBeta:
    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 3.7, 64.0):
            assert abs(inc_beta(0.5, a, a) - 0.5) <= 1e-12

    def test_uniform_case(self):
        us = np.linspace(0.0, 0.9, 10)
        assert np.allclose(inc_beta(us, 1.0, 1.0), us, atol=1e-12)

    def test_frozen_oracle(self):
        assert abs(f_table(5, 8).cdf(2.4 / 3.5) - INC_BETA_03_25_40) <= 1e-12

    def test_endpoints(self):
        law = f_table(4.0, 6.0)
        assert law.cdf(0.0) == 0.0
        assert law.cdf(1e300) == 1.0


class TestRegIncGammaLower:
    def test_exponential_case(self):
        xs = np.linspace(0.0, 8.0, 17)
        assert np.allclose(ScaledGamma(1.0, 1.0).cdf(xs), 1.0 - np.exp(-xs), atol=1e-12)

    def test_zero(self):
        assert ScaledGamma(3.0, 1.0).cdf(0.0) == 0.0

    def test_frozen_oracle(self):
        assert abs(ScaledGamma(3.5, 1.0).cdf(2.2) - INC_GAMMA_35_22) <= 1e-12


# --- law constructors and validation -----------------------------------------


class TestLawValidation:
    def test_scaled_gamma_requires_positive_fields(self):
        with pytest.raises(ValueError):
            ScaledGamma(shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            ScaledGamma(shape=2.0, scale=0.0)

    def test_ncx2_requires_nonnegative_energy(self):
        with pytest.raises(ValueError):
            NoncentralChi2C(shape=2.0, power=1.0, noncentrality_energy=-1.0)
        with pytest.raises(ValueError):
            NoncentralChi2C(shape=2.0, power=0.0, noncentrality_energy=1.0)

    @pytest.mark.parametrize("energy", [np.inf, np.nan])
    def test_ncx2_names_a_non_finite_energy(self, energy):
        message = rf"noncentrality_energy must be finite \(got {energy}\)"
        with pytest.raises(ValueError, match=message):
            NoncentralChi2C(shape=2.0, power=1.0, noncentrality_energy=energy)
        with pytest.raises(ValueError, match="noncentrality_energy must be non-negative"):
            NoncentralChi2C(shape=2.0, power=1.0, noncentrality_energy=-1.0)

    @pytest.mark.parametrize("law", [FLaw, GammaDifference])
    def test_paired_law_requires_estimate_sides(self, law):
        side = ScaledGamma(shape=2.0, scale=1.0)
        for other in (1.0, f_table(2.0, 2.0), GammaDifference(side, side)):
            for sides in ((side, other), (other, side)):
                with pytest.raises(
                    ValueError,
                    match=f"{law.__name__} sides must be ScaledGamma or NoncentralChi2C",
                ):
                    law(*sides)

    def test_gamma_difference_moments(self):
        pos = NoncentralChi2C(shape=64, power=1.5, noncentrality_energy=4.0)
        neg = ScaledGamma(shape=64, scale=1.0 / 64.0)
        law = GammaDifference(pos=pos, neg=neg)
        assert law.mean == pytest.approx(pos.mean - neg.mean, rel=1e-12)
        assert law.variance == pytest.approx(pos.variance + neg.variance, rel=1e-12)

    def test_scaled_gamma_moments(self):
        law = ScaledGamma(shape=64, scale=0.25)
        assert law.mean == pytest.approx(16.0, rel=1e-12)
        assert law.variance == pytest.approx(64 * 0.25**2, rel=1e-12)

    def test_ncx2_mean_matches_sum_convention(self):
        # un-normalized sum mean = shape·power + energy; the law itself is
        # the mean-power estimate (sum divided by shape)
        law = NoncentralChi2C(shape=64, power=2.0, noncentrality_energy=10.0)
        assert 64 * law.mean == pytest.approx(64 * 2.0 + 10.0, rel=1e-12)


# --- cdf operations -----------------------------------------------------------


class TestNcChi2Cdf:
    def test_central_reduction(self):
        nc = NoncentralChi2C(shape=64, power=1.3, noncentrality_energy=0.0)
        sg = ScaledGamma(shape=64, scale=1.3 / 64)
        ts = np.linspace(0.4, 3.0, 200)
        assert np.max(np.abs(nc.cdf(ts) - sg.cdf(ts))) <= 1e-10

    def test_exponential_median(self):
        law = NoncentralChi2C(shape=1, power=2.0, noncentrality_energy=0.0)
        assert abs(law.cdf(2.0 * np.log(2.0)) - 0.5) <= 1e-12

    def test_monte_carlo_oracle(self):
        law = NoncentralChi2C(shape=64, power=1.0, noncentrality_energy=16.0)
        est, band = NCX2C_64_1_16_CDF_AT_1_2
        assert abs(law.cdf(1.2) - est) <= band


    def test_unevaluable_noncentrality_raises(self):
        # 2N = 2e5, λ = 2e11: Boost's series returns NaN at and above the mean
        law = NoncentralChi2C(shape=1e5, power=1.0, noncentrality_energy=1e11)
        for evaluate in (law.cdf, law.pdf):
            with pytest.raises(ComputationError):
                evaluate(law.mean)
        pair = GammaDifference(pos=law, neg=ScaledGamma(1e5, 1e6 / 1e5))
        with pytest.raises(ComputationError):
            pair.cdf(pair.mean)


def ncx2_pdf_bessel(x, k, lam):
    """χ²_k(λ) density in the Bessel form, evaluated with 50 mpmath digits:
    f(x) = ½·exp(−(x + λ)/2)·(x/λ)^(k/4 − 1/2)·I_{k/2 − 1}(√(λx))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, k, lam = (mpmath.mpf(v) for v in (x, k, lam))
        half = mpmath.mpf(1) / 2
        return float(
            half
            * mpmath.exp(-(x + lam) / 2)
            * (x / lam) ** (k / 4 - half)
            * mpmath.besseli(k / 2 - 1, mpmath.sqrt(lam * x))
        )


def ncx2_sf_poisson(x, k, lam):
    """χ²_k(λ) survival function as its Poisson mixture of central ones,
    Σⱼ e^(−λ/2)·(λ/2)^j/j!·Q(k/2 + j, x/2), with 40 mpmath digits; Q steps
    up by Q(s + 1, z) = Q(s, z) + z^s·e^(−z)/Γ(s + 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, s, m = mpmath.mpf(x) / 2, mpmath.mpf(k) / 2, mpmath.mpf(lam) / 2
        weight, q = mpmath.exp(-m), mpmath.gammainc(s, z, mpmath.inf, regularized=True)
        step = mpmath.exp(s * mpmath.log(z) - z - mpmath.loggamma(s + 1))
        total, j = weight * q, 0
        # past the Poisson mode the weights fall geometrically and Q ≤ 1
        while j <= m or weight > total * mpmath.mpf(10) ** -45:
            j += 1
            weight *= m / j
            q += step
            step *= z / (s + j)
            total += weight * q
        return float(total)


class TestNcChi2Sf:
    @pytest.mark.parametrize(
        "dof, lam", [(2, 1.8), (8, 7.2), (32, 28.8), (2048, 40.0), (2, 200.0)]
    )
    def test_private_boost_sf_matches_poisson_mixture(self, dof, lam):
        # pins scipy.special._ufuncs._ncx2_sf, which NoncentralChi2C._sf
        # calls, out to 25 spreads, where 1 − chndtr is 0
        spread = np.sqrt(2.0 * (dof + 2.0 * lam))
        xs = dof + lam + spread * np.arange(-3.0, 26.0)
        xs = xs[xs > 0]
        expected = np.array([ncx2_sf_poisson(x, dof, lam) for x in xs])
        assert np.all(expected > 0.0)
        got = distributions._ncx2_sf(xs, float(dof), lam)
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)


class TestNcChi2Pdf:
    @pytest.mark.parametrize(
        "dof, lam", [(2, 1.8), (8, 7.2), (32, 28.8), (2048, 40.0), (2, 200.0)]
    )
    def test_matches_bessel_form(self, dof, lam):
        # power = 2N makes the estimate the χ² variate itself.  The upper-tail
        # points are where a density formed from differences of cdfs cancels:
        # 3.2e-3 off at (2048, 40) and 8 spreads, 0 at (32, 28.8) and 15
        law = NoncentralChi2C(shape=dof / 2, power=dof, noncentrality_energy=lam * dof / 2)
        assert law.noncentrality == lam
        spread = np.sqrt(2.0 * (dof + 2.0 * lam))
        xs = dof + lam + spread * np.array([-3.0, 0.0, 3.0, 8.0, 15.0])
        xs = xs[xs > 0]
        expected = np.array([ncx2_pdf_bessel(x, dof, lam) for x in xs])
        assert np.allclose(law.pdf(xs), expected, rtol=1e-12, atol=0.0)

    def test_overflowed_argument_has_zero_density(self):
        # 2N/power = 2e300 carries x = 1e10 beyond the float range; the
        # density there is 0, reached without an overflow warning
        law = NoncentralChi2C(shape=1, power=1e-300, noncentrality_energy=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = law.pdf(np.array([law.mean, 1e10]))
            assert law.pdf(1e10) == 0.0
            assert law.cdf(1e10) == 1.0
        assert dens[0] > 0.0 and dens[1] == 0.0

    def test_densities_call_no_cdf(self, monkeypatch):
        # a non-central density is one Boost density call, not a difference
        # of chndtr values; the paired law's rule size is settled (by cdf
        # calls) before chndtr is taken away
        pair = GammaDifference(
            pos=NoncentralChi2C(shape=4, power=1.1, noncentrality_energy=3.0),
            neg=NoncentralChi2C(shape=4, power=1.0, noncentrality_energy=2.0),
        )
        pair.cdf(pair.mean)

        def chndtr(*args):
            raise AssertionError("a density called chndtr")

        monkeypatch.setattr(distributions.special, "chndtr", chndtr)
        assert pair.pos.pdf(pair.pos.mean) > 0
        ts = pair.mean + np.sqrt(pair.variance) * np.linspace(-4.0, 4.0, 9)
        assert np.all(pair.pdf(ts) > 0)


class TestFLawCdf:
    def test_equal_dof_median(self):
        law = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        assert abs(law.cdf(1.0) - 0.5) <= 1e-12

    def test_scale_identity(self):
        unit = f_table(dof_num=64, dof_den=80, scale=1.0, lambda_num=3.0, lambda_den=1.0)
        scaled = f_table(dof_num=64, dof_den=80, scale=2.7, lambda_num=3.0, lambda_den=1.0)
        for t in (0.2, 0.8, 1.0, 1.7, 4.0):
            assert scaled.cdf(2.7 * t) == pytest.approx(
                unit.cdf(t), abs=1e-13
            )

    @pytest.mark.parametrize("signal_first", [True, False])
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_common_scale_of_both_sides_cancels(self, n, signal_first):
        # the conditioned law reads only scale-free spreads of its sides;
        # variance/mean² overflows to NaN at powers of 1e250, and the cdf
        # raised there
        def law(c):
            signal, noise = NoncentralChi2C(n, 1.2 * c, 4.0 * n * c), ScaledGamma(n, c / n)
            return FLaw(signal, noise) if signal_first else FLaw(noise, signal)

        unit = law(1.0)
        # the narrower signal side is conditioned on; first, it mirrors
        assert unit._conditioned.mirror is signal_first
        q = law_quantile(unit, 1e-6)
        ts = q * np.geomspace(1.0, 1e3, 30)
        for c in (1e-150, 1e150, 1e250, 1e300):
            scaled = law(c)
            k = (scaled.num.mean / scaled.den.mean) / (unit.num.mean / unit.den.mean)
            assert np.max(np.abs(scaled.cdf(k * ts) - unit.cdf(ts))) <= 1e-13
            assert law_quantile(scaled, 1e-6) / k == pytest.approx(q, rel=2e-14, abs=0.0)

    def test_monte_carlo_oracle(self):
        law = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=8.0, lambda_den=4.0)
        est, band = DNCF_128_8_4_CDF_AT_1_1
        assert abs(law.cdf(1.1) - est) <= band

    def test_central_reduction_to_simple_f(self):
        # lambda_num = lambda_den = 0 must agree with the incomplete-beta
        # closed form of the central F law
        law = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        ts = np.linspace(0.3, 2.5, 100)
        u = 128 * ts / (128 * ts + 128)
        expected = special.betainc(64.0, 64.0, u)
        assert np.max(np.abs(law.cdf(ts) - expected)) <= 1e-12

    def test_singly_noncentral_reduction(self):
        lam0 = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=9.0, lambda_den=0.0)
        ts = np.linspace(0.3, 2.5, 50)
        # denominator non-centrality of zero must match the one-sided mixture
        # built by shrinking lambda_den continuously to zero
        eps = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=9.0, lambda_den=1e-14)
        assert np.max(np.abs(lam0.cdf(ts) - eps.cdf(ts))) <= 1e-10

    def test_negative_argument_is_zero(self):
        law = f_table(dof_num=4, dof_den=4, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(0.0) == 0.0


    def test_two_dof_density_stays_finite_far_out(self):
        # F(2, 2) has density (1/s)/(1 + t/s)²; beyond t/s ≈ 1e16 the beta
        # argument t/(t + s) rounds to 1 and its log1p form gave NaN
        law = f_table(dof_num=2, dof_den=2, scale=1.1e-3)
        ts = 1.1e-3 * np.array([1e2, 1e15, 1e17, 1e20])
        expected = (1.0 / 1.1e-3) / (1.0 + ts / 1.1e-3) ** 2
        assert np.allclose(law.pdf(ts), expected, rtol=1e-12, atol=0.0)


def beta_prime_pdf(x, dof_num, dof_den, scale):
    """Density of the central FLaw at x with 50 mpmath digits: y = (ν₁/ν₂)·x/scale
    is beta-prime(ν₁/2, ν₂/2), of density y^(a−1)·(1 + y)^(−a−b) / B(a, b)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, n1, n2, s = (mpmath.mpf(v) for v in (x, dof_num, dof_den, scale))
        a, b = n1 / 2, n2 / 2
        dy_dx = n1 / (n2 * s)
        y = dy_dx * x
        return float(dy_dx * y ** (a - 1) * (1 + y) ** (-a - b) / mpmath.beta(a, b))


class TestMirroredRatioAtTinyT:
    @pytest.mark.parametrize(
        "law",
        [
            f_table(32, 32, 1, lambda_num=10),
            FLaw(NoncentralChi2C(2, 1.0, 40.0), ScaledGamma(2, 0.5)),
        ],
        ids=["hermite", "legendre"],
    )
    def test_cdf_and_pdf_are_zero_without_warnings(self, law):
        # 1/t² overflows below t ≈ 1e-154, 1/t below 5.6e-309
        assert law._conditioned.mirror
        t = np.array([1e-160, 1e-300, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(law.cdf(t) == 0.0)
            assert np.all(law.pdf(t) == 0.0)


class TestFLawCentralPdf:
    @pytest.mark.parametrize(
        "dof_num, dof_den", [(2, 2), (8, 8), (128, 128), (2048, 2048), (5, 8)]
    )
    def test_matches_beta_prime_density(self, dof_num, dof_den):
        # the incomplete-beta substitution it replaced missed by 1.5e-10 at
        # ν = 8 and 5.5e-10 at ν = 128; below the smallest normal float a
        # density keeps too few digits to compare
        scale = 0.7
        xs = np.geomspace(1e-6, 1e6, 1201) * scale
        expected = np.array([beta_prime_pdf(x, dof_num, dof_den, scale) for x in xs])
        got = f_table(dof_num, dof_den, scale).pdf(xs)
        normal = expected >= np.finfo(float).tiny
        assert np.allclose(got[normal], expected[normal], rtol=1e-12, atol=0.0)
        assert np.all(got[~normal] < np.finfo(float).tiny)

    def test_extreme_arguments_stay_finite(self):
        # F(2, 2) has density 1/(1 + x)²: 1 at a subnormal x, and 0 where
        # (1 + x)² overflows
        law = f_table(2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = law.pdf(np.array([1e-320, 1.7e308]))
        assert dens[0] == pytest.approx(1.0, rel=1e-15)
        assert dens[1] == 0.0

    @pytest.mark.parametrize(
        "a, b", [(1.0, 1.0), (2.5, 4.0), (64.0, 64.0), (512.0, 512.0), (0.5, 3000.0), (1e5, 1e5)]
    )
    def test_log_beta_within_a_few_ulps(self, a, b):
        # special.betaln differences log-gammas past a + b ≈ 171: 7.7e-13 off
        # at (512, 512) and 4.8e-12 at (0.5, 3000)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            expected = float(mpmath.log(mpmath.beta(a, b)))
        assert abs(distributions._betaln(a, b) - expected) <= 4e-16 * max(1.0, abs(expected))


class TestGammaDiffPdfCdf:
    def test_symmetric_case(self):
        part = ScaledGamma(shape=64, scale=1.0 / 64.0)
        law = GammaDifference(pos=part, neg=part)
        cdf0 = law.cdf(0.0)
        assert abs(cdf0 - 0.5) <= 1e-6
        ts = np.linspace(0.01, 0.5, 25)
        pdf_pos = np.array([law.pdf(t) for t in ts])
        pdf_neg = np.array([law.pdf(-t) for t in ts])
        assert np.max(np.abs(pdf_pos - pdf_neg)) <= 1e-6 * np.max(pdf_pos)

    def test_integrated_mean_matches_moments(self):
        law = GammaDifference(
            pos=ScaledGamma(shape=64, scale=1.5 / 64.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        )
        spread = np.sqrt(law.variance)
        ts = np.linspace(law.mean - 14 * spread, law.mean + 14 * spread, 20001)
        pdf = np.asarray(law.pdf(ts))
        dt = ts[1] - ts[0]
        mean_num = float(np.sum(ts * pdf) * dt)
        assert mean_num == pytest.approx(law.mean, rel=1e-6)

    def test_monte_carlo_oracle(self):
        law = GammaDifference(
            pos=ScaledGamma(shape=64, scale=1.5 / 64.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        )
        est, band = GDIFF_64_15_10_CDF_AT_0_4
        density, cdf = law.pdf(0.4), law.cdf(0.4)
        assert abs(cdf - est) <= band
        assert density > 0

    def test_normalization(self):
        law = GammaDifference(
            pos=NoncentralChi2C(shape=64, power=1.2, noncentrality_energy=8.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        )
        spread = np.sqrt(law.variance)
        ts = np.linspace(law.mean - 14 * spread, law.mean + 14 * spread, 20001)
        pdf = np.asarray(law.pdf(ts))
        dt = ts[1] - ts[0]
        assert float(np.sum(pdf) * dt) == pytest.approx(1.0, abs=1e-6)

    def test_variance_integration(self):
        # numerically integrated variance vs var(pos) + var(neg)
        law = GammaDifference(
            pos=NoncentralChi2C(shape=64, power=1.2, noncentrality_energy=8.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        )
        spread = np.sqrt(law.variance)
        ts = np.linspace(law.mean - 14 * spread, law.mean + 14 * spread, 40001)
        pdf = np.asarray(law.pdf(ts))
        dt = ts[1] - ts[0]
        mean_num = float(np.sum(ts * pdf) * dt)
        var_num = float(np.sum((ts - mean_num) ** 2 * pdf) * dt)
        assert var_num == pytest.approx(law.variance, rel=1e-5)


    @pytest.mark.parametrize("gain", [0.001, 0.01])
    def test_single_sample_matches_exponential_closed_form(self, gain):
        # on_off at N = 1 with interference power 1e4: a difference of two
        # exponentials, whose cdf kinks at t = 0 in each conditional term.
        # P(A − B ≤ t) = b/(a+b)·e^{t/b} (t < 0), 1 − a/(a+b)·e^{−t/a} (t ≥ 0)
        for a in (1.0 + gain * 1e4, 1.0 + gain * 1e4 + 0.1):
            b = 1.0 + 1e4
            law = GammaDifference(pos=ScaledGamma(1, a), neg=ScaledGamma(1, b))
            ts = np.concatenate([-np.geomspace(1e-3, 40 * b, 400), np.geomspace(1e-3, 40 * a, 400)])
            lower = b / (a + b) * np.exp(np.minimum(ts, 0.0) / b)
            upper = 1.0 - a / (a + b) * np.exp(-np.maximum(ts, 0.0) / a)
            exact = np.where(ts < 0, lower, upper)
            assert np.max(np.abs(law.cdf(ts) - exact)) <= QUADRATURE_TOL
            density = np.where(ts < 0, lower / b, (1.0 - upper) / a)
            assert np.max(np.abs(law.pdf(ts) - density)) <= QUADRATURE_TOL / a

    def test_unequal_widths_match_quadrature_through_zero(self):
        # on_off H0 at N = 2, g = 0.001 and INR 20 dB: the sides differ
        # ninety-fold in width, which a rule conditioning on the wider side
        # for t ≥ 0 gets wrong near t = 0
        a, b = 0.55, 50.5
        law = GammaDifference(pos=ScaledGamma(2, a), neg=ScaledGamma(2, b))

        def reference(t):
            # P(A − B ≤ t) = E_A[P(B ≥ A − t)], integrated over the narrow A
            def integrand(x):
                return x * np.exp(-x / a) / a**2 * special.gammaincc(2, max(x - t, 0.0) / b)

            return integrate.quad(
                integrand, 0.0, 80 * a, points=[t] if 0 < t < 80 * a else None,
                epsabs=1e-14, epsrel=1e-13, limit=200,
            )[0]

        ts = np.concatenate([-np.geomspace(1e-3, 400.0, 30), [0.0], np.geomspace(1e-3, 12.0, 30)])
        exact = np.array([reference(t) for t in ts])
        assert np.max(np.abs(law.cdf(ts) - exact)) <= QUADRATURE_TOL


# --- quantiles and sampling ---------------------------------------------------


class TestLawQuantile:
    def test_central_f_median_is_scale(self):
        law = f_table(dof_num=128, dof_den=128, scale=2.5, lambda_num=0.0, lambda_den=0.0)
        assert law_quantile(law, 0.5) == pytest.approx(2.5, abs=1e-9)

    def test_round_trip_all_families(self):
        ps = np.arange(0.01, 1.0, 0.07)
        for law in law_matrix():
            for p in ps:
                t = law_quantile(law, float(p))
                assert abs(float(law.cdf(t)) - p) <= 1e-9

    def test_frozen_oracle(self):
        law = ScaledGamma(shape=64, scale=1.0 / 64.0)
        assert law_quantile(law, 0.95) == pytest.approx(SCALED_GAMMA_64_Q95, abs=1e-10)

    def test_domain_error(self):
        law = ScaledGamma(shape=4, scale=1.0)
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                law_quantile(law, p)

    @pytest.mark.parametrize("p", [1e-8, 1e-13, 1e-30, 1e-100])
    def test_far_lower_tail_of_positive_law(self, p):
        # F(2, 2) at scale s has cdf t/(t + s), so its quantile is p·s/(1 − p);
        # far below any absolute tolerance on t
        s = 1.1e-3
        assert law_quantile(f_table(2, 2, s), p) == pytest.approx(
            p * s / (1.0 - p), rel=QUANTILE_RTOL
        )

    @pytest.mark.parametrize("scale", [1e306, 5e305])
    def test_bracket_beyond_float_range_raises(self, scale):
        # F(2, 2)'s upper quantile of order 1 − 1/16385 is 16384·scale; the
        # bracket seeds overflow at 1e306, their expansion at 5e305
        with pytest.raises(ComputationError, match="no finite quantile bracket"):
            law_quantile(f_table(2.0, 2.0, scale), 1.0 - 1.0 / 16385)

    @pytest.mark.parametrize("p", [1e-100, 1e-30, 1e-13])
    def test_mirrored_lower_tail_resolves(self, p):
        # the narrower numerator is conditioned on, so the cdf sums the
        # denominator's survival function; taken as 1 − (upper-tail sum) it
        # floored near 1e-16 and could not resolve these orders
        law = f_table(32, 32, 1.0, lambda_num=10.0)
        assert law._conditioned.mirror
        assert abs(float(law.cdf(law_quantile(law, p))) - p) <= QUANTILE_RTOL * p


class _StepLaw:
    """A stub law whose cdf is `below` left of 1 and `above` from 1 on, on
    positive support (solved in log t) or the whole line (solved in t)."""

    def __init__(self, below, above, positive):
        self.below, self.above = below, above
        self.support_lo = 0.0 if positive else -np.inf

    def _bracket_seeds(self):
        return 0.5, 2.0

    def cdf(self, t):
        return np.where(np.asarray(t) < 1.0, self.below, self.above)


class TestQuantileFailures:
    def test_bracket_that_never_closes_raises(self):
        # a constant cdf below p: the bracket grows upward 80 times in vain
        with pytest.raises(ComputationError, match="quantile bracket expansion did not close"):
            law_quantile(_StepLaw(0.5, 0.5, positive=False), 0.9)

    def test_relative_miss_on_positive_support_raises(self):
        # the cdf jumps from 0.4 to 0.6 across p = 0.5: the closest end misses by 0.1
        with pytest.raises(ComputationError, match=r"\|cdf−p\|/p = 2\.00e-01 > 1\.0e-06") as info:
            law_quantile(_StepLaw(0.4, 0.6, positive=True), 0.5)
        assert info.value.achieved == pytest.approx(0.2)

    def test_absolute_miss_on_the_line_raises(self):
        with pytest.raises(ComputationError, match=r"\|cdf−p\| = 1\.00e-01 > 1\.0e-10") as info:
            law_quantile(_StepLaw(0.4, 0.6, positive=False), 0.5)
        assert info.value.achieved == pytest.approx(0.1)

    def test_unsettled_conditional_quadrature_raises(self, monkeypatch):
        # no two rule sizes agree exactly, so a zero tolerance exhausts them
        monkeypatch.setattr(distributions, "QUADRATURE_TOL", 0.0)
        law = GammaDifference(NoncentralChi2C(4, 1.0, 2.0), ScaledGamma(4, 0.25))
        with pytest.raises(
            ComputationError,
            match=r"conditional quadrature over .* did not settle: rules of 96 and 128 nodes",
        ) as info:
            law.cdf(1.0)
        assert info.value.achieved > 0.0


# law_quantile's problems: every family, two non-central laws whose 1e-100
# quantile lies far below their bracket seeds, and orders from 1e-100 to
# 1 − 1e-12 through the ROC quantile map's edge 1/16385
QUANTILE_LAWS = {
    "gamma-64": ScaledGamma(64.0, 1.0 / 64.0),
    "gamma-1": ScaledGamma(1.0, 11.0),
    "ncx2-16": NoncentralChi2C(16.0, 1.0, 8.0),
    "ncx2-1": NoncentralChi2C(1.0, 1.0, 30.0),
    "f-128": f_table(128.0, 128.0, 1.0),
    "f-2": f_table(2.0, 2.0, 1.1e-3),
    "ncf-32": f_table(32.0, 32.0, 1.2, lambda_num=4.0, lambda_den=2.0),
    "diff-64": GammaDifference(ScaledGamma(64.0, 1.5 / 64.0), ScaledGamma(64.0, 1.0 / 64.0)),
    "diff-1": GammaDifference(ScaledGamma(1.0, 1.0), ScaledGamma(1.0, 11.0)),
    "ncdiff-16": GammaDifference(NoncentralChi2C(16.0, 1.0, 16.0), ScaledGamma(16.0, 1.0 / 16.0)),
    "ncx2-2": NoncentralChi2C(2.0, 1.0, 1.0),
    "ncf-4": f_table(4, 4, 1, lambda_num=3.6, lambda_den=4),
}
QUANTILE_ORDERS = [1e-100, 1e-30, 1e-13, 1.0 / 16385, 0.5, 1.0 - 1e-12]
# law.cdf calls that Brent's method (xtol 1e-14, then a relative-only retry)
# made on that set
BRENT_CDF_CALLS = 2611


class _CountedCdf:
    """Delegates to a law, counting its cdf calls."""

    def __init__(self, law):
        self.law = law
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.law, name)

    def cdf(self, t):
        self.calls += 1
        return self.law.cdf(t)


class TestQuantileSolver:
    @pytest.mark.parametrize("p", QUANTILE_ORDERS)
    @pytest.mark.parametrize("name", list(QUANTILE_LAWS))
    def test_meets_its_tolerance(self, name, p):
        law = QUANTILE_LAWS[name]
        err = abs(float(law.cdf(law_quantile(law, p))) - p)
        assert err <= QUANTILE_TOL
        if law.support_lo >= 0.0:
            assert err <= QUANTILE_RTOL * p

    def test_costs_no_more_cdf_calls_than_brent(self):
        total = 0
        for law in QUANTILE_LAWS.values():
            for p in QUANTILE_ORDERS:
                counted = _CountedCdf(law)
                law_quantile(counted, p)
                total += counted.calls
        assert total <= BRENT_CDF_CALLS


class TestLawSample:
    def test_deterministic_given_seed(self):
        law = f_table(dof_num=128, dof_den=128, scale=1.3, lambda_num=8.0, lambda_den=4.0)
        a = law_sample(law, 123, 1000)
        b = law_sample(law, 123, 1000)
        assert np.array_equal(a, b)
        c = law_sample(law, 124, 1000)
        assert not np.array_equal(a, c)

    def test_scaled_gamma_mean(self):
        law = ScaledGamma(shape=64, scale=1.0 / 64.0)
        n = 1_000_000
        draws = law_sample(law, 7, n)
        se = np.sqrt(law.variance / n)
        assert abs(np.mean(draws) - law.mean) <= 5 * se

    def test_gamma_difference_symmetric_median(self):
        part = ScaledGamma(shape=64, scale=1.0 / 64.0)
        law = GammaDifference(pos=part, neg=part)
        n = 200_000
        draws = law_sample(law, 11, n)
        # binomial SE of the sign count, translated through the density at 0
        density0 = float(law.pdf(0.0))
        se_median = 1.0 / (2.0 * density0 * np.sqrt(n))
        assert abs(np.median(draws)) <= 5 * se_median

    def test_count_validation(self):
        law = ScaledGamma(shape=4, scale=1.0)
        with pytest.raises(ValueError):
            law_sample(law, 0, 0)

    @pytest.mark.slow
    def test_ks_against_cdf_all_families(self):
        # α≈1e-4 KS critical distance at 10⁵ samples is about 0.006
        for law in law_matrix():
            draws = law_sample(law, 2024, 100_000)
            assert _ks_bound(draws, law, nodes=4096) < 0.006, law


# --- cross-family invariants ---------------------------------------------------


class TestLawInvariants:
    def test_cdf_monotone_and_limits(self):
        for law in law_matrix():
            lo = law_quantile(law, 1e-7)
            hi = law_quantile(law, 1.0 - 1e-7)
            ts = np.linspace(lo, hi, 1000)
            cdf = np.asarray(law.cdf(ts))
            assert np.all(np.diff(cdf) >= -1e-12), law
            assert cdf[0] <= 2e-7, law
            assert cdf[-1] >= 1 - 2e-7, law
            if not isinstance(law, GammaDifference):
                assert float(law.cdf(0.0)) == 0.0, law

    def test_central_reductions_pointwise(self):
        ts = np.linspace(0.2, 3.0, 400)
        nc = NoncentralChi2C(shape=64, power=1.0, noncentrality_energy=0.0)
        sg = ScaledGamma(shape=64, scale=1.0 / 64.0)
        assert np.max(np.abs(nc.cdf(ts) - sg.cdf(ts))) <= 1e-10
        dncf0 = f_table(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        u = 128 * ts / (128 * ts + 128)
        assert np.max(np.abs(dncf0.cdf(ts) - special.betainc(64.0, 64.0, u))) <= 1e-10

    def test_computation_error_carries_achieved_bound(self):
        err = ComputationError("did not converge", achieved=3e-9)
        assert err.achieved == 3e-9
        assert "converge" in str(err)
