"""Contract tests for the sampling-law toolbox.

Frozen reference values were produced before the implementation existed:
arbitrary-precision special-function evaluations (40 significant digits,
independent of scipy) and 10⁷-draw Monte Carlo estimates from numpy's own
samplers, quoted with their ±3·standard-error bands.
"""

import numpy as np
import pytest
from scipy import optimize, special

from setidetect import distributions
from setidetect.cli import _ks_bound
from setidetect.distributions import (
    QUADRATURE_TOL,
    QUANTILE_RTOL,
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
        FLaw(dof_num=128, dof_den=128, scale=1.3, lambda_num=8.0, lambda_den=4.0),
        GammaDifference(
            pos=NoncentralChi2C(shape=64, power=1.2, noncentrality_energy=6.0),
            neg=ScaledGamma(shape=64, scale=1.0 / 64.0),
        ),
    ]


# --- special functions, through the law methods that use them ----------------
#
# ScaledGamma(a, 1).pdf(1) = exp(−1 − ln Γ(a)) carries the log-gamma oracles;
# the central FLaw(2a, 2b).cdf at x = b·u / (a·(1 − u)) is I_u(a, b); and
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
    return FLaw(2.0 * a, 2.0 * b).cdf(b * u / (a * (1.0 - u)))


class TestRegIncBeta:
    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 3.7, 64.0):
            assert abs(inc_beta(0.5, a, a) - 0.5) <= 1e-12

    def test_uniform_case(self):
        us = np.linspace(0.0, 0.9, 10)
        assert np.allclose(inc_beta(us, 1.0, 1.0), us, atol=1e-12)

    def test_frozen_oracle(self):
        assert abs(FLaw(5, 8).cdf(2.4 / 3.5) - INC_BETA_03_25_40) <= 1e-12

    def test_endpoints(self):
        law = FLaw(4.0, 6.0)
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

    @pytest.mark.parametrize("name", ["lambda_num", "lambda_den"])
    def test_flaw_names_a_non_finite_noncentrality(self, name):
        with pytest.raises(ValueError, match=rf"{name} must be finite \(got inf\)"):
            FLaw(dof_num=2.0, dof_den=2.0, scale=1.0, **{name: np.inf})
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            FLaw(dof_num=2.0, dof_den=2.0, scale=1.0, **{name: -1.0})

    def test_flaw_requires_positive_dofs(self):
        with pytest.raises(ValueError):
            FLaw(dof_num=0.0, dof_den=2.0, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        with pytest.raises(ValueError):
            FLaw(dof_num=2.0, dof_den=2.0, scale=-1.0, lambda_num=0.0, lambda_den=0.0)

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


class TestFLawCdf:
    def test_equal_dof_median(self):
        law = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        assert abs(law.cdf(1.0) - 0.5) <= 1e-12

    def test_scale_identity(self):
        unit = FLaw(dof_num=64, dof_den=80, scale=1.0, lambda_num=3.0, lambda_den=1.0)
        scaled = FLaw(dof_num=64, dof_den=80, scale=2.7, lambda_num=3.0, lambda_den=1.0)
        for t in (0.2, 0.8, 1.0, 1.7, 4.0):
            assert scaled.cdf(2.7 * t) == pytest.approx(
                unit.cdf(t), abs=1e-13
            )

    def test_monte_carlo_oracle(self):
        law = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=8.0, lambda_den=4.0)
        est, band = DNCF_128_8_4_CDF_AT_1_1
        assert abs(law.cdf(1.1) - est) <= band

    def test_central_reduction_to_simple_f(self):
        # lambda_num = lambda_den = 0 must agree with the incomplete-beta
        # closed form of the central F law
        law = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        ts = np.linspace(0.3, 2.5, 100)
        u = 128 * ts / (128 * ts + 128)
        expected = special.betainc(64.0, 64.0, u)
        assert np.max(np.abs(law.cdf(ts) - expected)) <= 1e-12

    def test_singly_noncentral_reduction(self):
        lam0 = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=9.0, lambda_den=0.0)
        ts = np.linspace(0.3, 2.5, 50)
        # denominator non-centrality of zero must match the one-sided mixture
        # built by shrinking lambda_den continuously to zero
        eps = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=9.0, lambda_den=1e-14)
        assert np.max(np.abs(lam0.cdf(ts) - eps.cdf(ts))) <= 1e-10

    def test_negative_argument_is_zero(self):
        law = FLaw(dof_num=4, dof_den=4, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(0.0) == 0.0


    def test_two_dof_density_stays_finite_far_out(self):
        # F(2, 2) has density (1/s)/(1 + t/s)²; beyond t/s ≈ 1e16 the beta
        # argument t/(t + s) rounds to 1 and its log1p form gave NaN
        law = FLaw(dof_num=2, dof_den=2, scale=1.1e-3)
        ts = 1.1e-3 * np.array([1e2, 1e15, 1e17, 1e20])
        expected = (1.0 / 1.1e-3) / (1.0 + ts / 1.1e-3) ** 2
        assert np.allclose(law.pdf(ts), expected, rtol=1e-12, atol=0.0)


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


# --- quantiles and sampling ---------------------------------------------------


class TestLawQuantile:
    def test_central_f_median_is_scale(self):
        law = FLaw(dof_num=128, dof_den=128, scale=2.5, lambda_num=0.0, lambda_den=0.0)
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
        # far below the root finder's absolute tolerance of 1e-14
        s = 1.1e-3
        assert law_quantile(FLaw(2, 2, s), p) == pytest.approx(
            p * s / (1.0 - p), rel=QUANTILE_RTOL
        )

    @pytest.mark.parametrize("scale", [1e306, 5e305])
    def test_bracket_beyond_float_range_raises(self, scale):
        # F(2, 2)'s upper quantile of order 1 − 1/16385 is 16384·scale; the
        # bracket seeds overflow at 1e306, their expansion at 5e305
        with pytest.raises(ComputationError, match="no finite quantile bracket"):
            law_quantile(FLaw(2.0, 2.0, scale), 1.0 - 1.0 / 16385)

    def test_unresolvable_lower_tail_raises(self):
        # the narrower numerator is conditioned on and its cdf taken as
        # 1 − (upper tail), which cannot resolve a mass of 1e-13 to 1e-6
        law = FLaw(32, 32, 1.0, lambda_num=10.0)
        with pytest.raises(ComputationError) as info:
            law_quantile(law, 1e-13)
        assert info.value.achieved > QUANTILE_RTOL


# law_quantile's problems: every family, orders down to 1e-13 and the ROC
# quantile map's edges 1/16385 and 1 − 1/16385
BRENT_LAWS = [
    ScaledGamma(64.0, 1.0 / 64.0),
    ScaledGamma(1.0, 11.0),
    NoncentralChi2C(16.0, 1.0, 8.0),
    NoncentralChi2C(1.0, 1.0, 30.0),
    FLaw(128.0, 128.0, 1.0),
    FLaw(2.0, 2.0, 1.1e-3),
    FLaw(32.0, 32.0, 1.2, lambda_num=4.0, lambda_den=2.0),
    GammaDifference(ScaledGamma(64.0, 1.5 / 64.0), ScaledGamma(64.0, 1.0 / 64.0)),
    GammaDifference(ScaledGamma(1.0, 1.0), ScaledGamma(1.0, 11.0)),
    GammaDifference(NoncentralChi2C(16.0, 1.0, 16.0), ScaledGamma(16.0, 1.0 / 16.0)),
]
BRENT_ORDERS = [1e-13, 1e-8, 1.0 / 16385, 0.1, 0.5, 0.9, 1.0 - 1.0 / 16385]


@pytest.fixture(scope="module")
def brent_problems():
    """(f, lo, hi) of every root law_quantile asks for on BRENT_LAWS × BRENT_ORDERS."""
    problems = []
    real = distributions._brentq

    def spy(f, lo, hi, *args):
        problems.append((f, lo, hi))
        return real(f, lo, hi, *args)

    distributions._brentq = spy
    try:
        for law in BRENT_LAWS:
            for p in BRENT_ORDERS:
                try:
                    law_quantile(law, p)
                except ComputationError:
                    pass  # the root was still found
    finally:
        distributions._brentq = real
    return problems


class TestBrent:
    """_brentq transliterates scipy's Brent routine, so roots keep their bits."""

    @pytest.mark.parametrize("xtol", [1e-14, distributions._TINY], ids=["1e-14", "tiny"])
    def test_matches_scipy_bit_for_bit(self, brent_problems, xtol):
        assert len(brent_problems) >= len(BRENT_LAWS) * len(BRENT_ORDERS)
        for f, lo, hi in brent_problems:
            ours = distributions._brentq(f, lo, hi, xtol, 8.9e-16, 200)
            theirs = optimize.brentq(f, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=200, disp=False)
            assert ours.hex() == float(theirs).hex()

    @pytest.mark.parametrize("maxiter", [1, 2, 3, 5])
    def test_unconverged_returns_the_last_iterate(self, brent_problems, maxiter):
        for f, lo, hi in brent_problems[::7]:
            ours = distributions._brentq(f, lo, hi, 1e-14, 8.9e-16, maxiter)
            theirs = optimize.brentq(
                f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=maxiter, disp=False
            )
            assert ours.hex() == float(theirs).hex()

    def test_same_signs_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            distributions._brentq(lambda x: x - 3.0, 1.0, 2.0, 1e-14, 8.9e-16, 200)
        with pytest.raises(ValueError, match="different signs"):
            optimize.brentq(lambda x: x - 3.0, 1.0, 2.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            distributions._brentq(lambda x: np.nan, 1.0, 2.0, 1e-14, 8.9e-16, 200)


class TestLawSample:
    def test_deterministic_given_seed(self):
        law = FLaw(dof_num=128, dof_den=128, scale=1.3, lambda_num=8.0, lambda_den=4.0)
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
        dncf0 = FLaw(dof_num=128, dof_den=128, scale=1.0, lambda_num=0.0, lambda_den=0.0)
        u = 128 * ts / (128 * ts + 128)
        assert np.max(np.abs(dncf0.cdf(ts) - special.betainc(64.0, 64.0, u))) <= 1e-10

    def test_computation_error_carries_achieved_bound(self):
        err = ComputationError("did not converge", achieved=3e-9)
        assert err.achieved == 3e-9
        assert "converge" in str(err)
