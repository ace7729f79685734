"""Tests for analytic detection performance: pd/pfa, thresholds, ROC, AUC."""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PPoly

from setidetect import (
    ComputationError,
    DetectorKind,
    FLaw,
    GammaDifference,
    NoncentralChi2C,
    RocCurve,
    ScaledGamma,
    ScenarioSpec,
    auc,
    compare_detectors,
    detector_laws,
    law_quantile,
    pd_pfa,
    roc_curve,
    threshold_for_pfa,
)
from f_table import f_table
from single_sample import exact_single_sample_auc
from setidetect import roc as roc_module
from setidetect.roc import AUC_TOL

# Frozen oracles (independent computations, checked once and pinned):
# - 0.99 quantile of the N=1024 mean-power law, 50-digit arithmetic
SG_1024_Q99 = 1.074131275674165122129143470158223432899
# - threshold and pd of the equal-power wide/wide scenario at N=64: the
#   pfa=0.1 threshold of the central equal-DOF ratio law and the detection
#   probability there, cross-checked against 10⁶ paired synthesized draws
#   (binomial SE 3.7e-4)
F_128_THRESHOLD_PFA_01 = 1.2551243060509598
PD_AT_PFA_01_SNR0 = 0.8426943579058676
# - AUC of the ratio detector at SNR +2.51 dB (adaptive quadrature over the
#   exact pd(pfa) map, cross-checked against 10⁶-trial Monte Carlo)
AUC_F_SNR_2P51 = 0.9943941294455841
# - AUC = P(S1 > S0) of paired-law cells, from scipy.stats component laws
#   (gamma, and ncx2 scaled by power/2N) and nested scipy.integrate.quad
#   (epsabs 1e-13, epsrel 1e-11): the outer integral of f_S0(t)·SF_S1(t) over
#   t (log t for the ratio, split at 0 for the difference), each factor an
#   inner quad over the OFF estimate, which H0 and H1 share
AUC_ON_OFF_WIDE_N1 = 0.5584700965025494  # rfi_power 2, et_power 1, g 0.9
# narrowband, INR = SNR = 0 dB, g 0.9, N = 2, with ON's H1 energy taken as
# g·E_rfi + E_et (`additive_narrow_n2_laws`)
AUC_F_NARROW_N2 = 0.6391722828981216
AUC_ON_OFF_NARROW_N2 = 0.6512442630890621
# the same scenario with the default chirps' cross term 2√g·Re C in ON's H1
# energy, Re C = √(E_rfi·E_et)/N · (1 + cos(π/4)) summed from the waveforms
AUC_F_NARROW_N2_CROSS = 0.7745662780974171
AUC_ON_OFF_NARROW_N2_CROSS = 0.8224511547707806
AUC_F_NARROW_N16 = 0.8423683755435503
AUC_ON_OFF_NARROW_N16 = 0.8620238518878695
AUC_ON_OFF_WIDE_N1024 = 0.563106432388747  # rfi_power 10, et_power 0.1, g 0.8


def wide_wide(et_power=1.0, gain=1.0, n_samples=64, rfi_power=2.0):
    return ScenarioSpec(
        rfi_kind="wideband",
        et_kind="wideband",
        noise_power=1.0,
        rfi_power=rfi_power,
        et_power=et_power,
        gain=gain,
        n_samples=n_samples,
    )


def narrow_narrow(n_samples, gain=0.9):
    return ScenarioSpec(
        rfi_kind="narrowband",
        et_kind="narrowband",
        noise_power=1.0,
        rfi_energy=float(n_samples),
        et_energy=float(n_samples),
        gain=gain,
        n_samples=n_samples,
    )


def additive_narrow_n2_laws(kind):
    """(H0, H1) laws of narrow_narrow(2) with ON's energies g·E_rfi and
    g·E_rfi + E_et, as if the chirps' cross term were 0."""
    e_off, e_on = 2.0, (0.9 * 2.0, 0.9 * 2.0 + 2.0)
    off = NoncentralChi2C(2, 1.0, e_off)
    law = FLaw if kind == "f_ratio" else GammaDifference
    return tuple(law(NoncentralChi2C(2, 1.0, e), off) for e in e_on)


def central_ratio_auc(n, s0, s1):
    """P(s1·F' > s0·F) for independent F, F' ~ F(2n, 2n), by one quad in log y."""
    law = stats.f(2 * n, 2 * n)
    lo, hi = np.log(law.ppf(1e-15)), np.log(law.isf(1e-15))

    def integrand(v):
        y = np.exp(v)
        return law.pdf(y) * y * law.sf(y * s0 / s1)

    return quad(integrand, lo, hi, points=[0.0], epsabs=1e-13, epsrel=1e-11, limit=400)[0]


class _MixtureLaw:
    """Weighted mixture of scipy.stats laws with the interface roc_curve uses."""

    support_lo = -np.inf

    def __init__(self, *parts):
        self.parts = parts  # (weight, frozen scipy law) pairs

    def _bracket_seeds(self):
        return -4.0, 4.0

    def cdf(self, t):
        return sum(w * law.cdf(t) for w, law in self.parts)

    def pdf(self, t):
        return sum(w * law.pdf(t) for w, law in self.parts)


class _OscillatingLaw(_MixtureLaw):
    """A cdf with a ripple far finer than any AUC panel."""

    def cdf(self, t):
        return super().cdf(t) + 1e-4 * np.cos(1e4 * np.asarray(t))


class _AtomLaw(_MixtureLaw):
    """A mixture whose remaining mass sits at the point 1.3."""

    def cdf(self, t):
        rest = 1.0 - sum(w for w, _ in self.parts)
        return super().cdf(t) + rest * (np.asarray(t) >= 1.3)


class _CountedLaw:
    """Delegates to a law, counting the points its cdf and pdf evaluate."""

    def __init__(self, law):
        self.law = law
        self.points = 0

    def __getattr__(self, name):
        return getattr(self.law, name)

    def cdf(self, t):
        self.points += np.size(t)
        return self.law.cdf(t)

    def pdf(self, t):
        self.points += np.size(t)
        return self.law.pdf(t)


class TestPdPfa:
    def test_h0_median_gives_half_pfa(self):
        h0 = f_table(128, 128, 1.0, 0.0, 0.0)
        h1 = f_table(128, 128, 1.5, 0.0, 0.0)
        t = law_quantile(h0, 0.5)
        pd, pfa = pd_pfa(h0, h1, t)
        assert pfa == pytest.approx(0.5, abs=1e-10)
        assert 0.5 < pd < 1.0

    def test_identical_laws_sit_on_chance_line(self):
        law = ScaledGamma(64, 1 / 64)
        for t in (0.5, 0.8, 1.0, 1.3, 2.0):
            pd, pfa = pd_pfa(law, law, t)
            assert pd == pytest.approx(pfa, abs=1e-15)

    def test_equal_power_scenario_matches_frozen_oracle(self):
        spec = wide_wide(et_power=1.0, rfi_power=1.0)
        h0, h1 = detector_laws(spec, "f_ratio")
        t = threshold_for_pfa(h0, 0.1)
        assert t == pytest.approx(F_128_THRESHOLD_PFA_01, abs=1e-9)
        pd, pfa = pd_pfa(h0, h1, t)
        assert pfa == pytest.approx(0.1, abs=1e-9)
        assert pd == pytest.approx(PD_AT_PFA_01_SNR0, abs=1.2e-3)


class TestThresholdForPfa:
    def test_symmetric_difference_law_crosses_zero(self):
        spec = wide_wide(gain=1.0)
        law = detector_laws(spec, "on_off")[0]
        assert threshold_for_pfa(law, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_central_equal_dof_ratio_crosses_scale(self):
        assert threshold_for_pfa(f_table(128, 128, 1.0, 0, 0), 0.5) == pytest.approx(
            1.0, abs=1e-10
        )
        assert threshold_for_pfa(f_table(128, 128, 1.7, 0, 0), 0.5) == pytest.approx(
            1.7, abs=1e-9
        )

    def test_large_window_quantile_matches_frozen_oracle(self):
        law = ScaledGamma(1024, 1.0 / 1024)
        assert threshold_for_pfa(law, 0.01) == pytest.approx(SG_1024_Q99, abs=1e-10)

    def test_realized_pfa_hits_target(self):
        laws = [
            ScaledGamma(64, 1 / 64),
            NoncentralChi2C(64, 1.0, 16.0),
            f_table(128, 128, 1.3, 8.0, 4.0),
            GammaDifference(NoncentralChi2C(64, 1.2, 6.0), ScaledGamma(64, 1 / 64)),
        ]
        for law in laws:
            for target in (0.01, 0.1, 0.5, 0.9):
                t = threshold_for_pfa(law, target)
                assert 1.0 - float(law.cdf(t)) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_out_of_range_targets(self, bad):
        with pytest.raises(ValueError):
            threshold_for_pfa(ScaledGamma(64, 1 / 64), bad)


class TestRocCurve:
    def test_identical_laws_give_chance_auc(self):
        law = f_table(128, 128, 1.0, 0, 0)
        curve = roc_curve(law, law, grid=256)
        assert curve.auc == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(curve.pd, curve.pfa, atol=1e-9)

    def test_far_separated_laws_give_near_perfect_auc(self):
        h0 = ScaledGamma(64, 1 / 64)
        h1 = NoncentralChi2C(64, 1.0, 200.0)
        assert roc_curve(h0, h1, grid=256).auc >= 1.0 - 1e-9

    def test_auc_matches_frozen_oracle(self):
        spec = wide_wide(et_power=10 ** (2.51 / 10), rfi_power=1.0)
        h0, h1 = detector_laws(spec, "f_ratio")
        curve = roc_curve(h0, h1)
        assert curve.auc == pytest.approx(AUC_F_SNR_2P51, abs=1e-9)

    def test_curve_shape_invariants(self):
        spec = wide_wide()
        h0, h1 = detector_laws(spec, "f_ratio")
        curve = roc_curve(h0, h1, grid=512)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.all(np.diff(curve.pfa) > 0)
        assert np.all(np.diff(curve.pd) >= 0)
        assert curve.pfa[0] <= 1e-6 and curve.pd[0] <= 1e-6
        assert curve.pfa[-1] >= 1 - 1e-6 and curve.pd[-1] >= 1 - 1e-6
        assert 0.5 - 1e-9 <= curve.auc <= 1.0

    def test_auc_stable_across_requested_grids(self):
        h0, h1 = detector_laws(wide_wide(), "f_ratio")
        coarse = roc_curve(h0, h1, grid=64)
        fine = roc_curve(h0, h1, grid=4096)
        assert coarse.auc == pytest.approx(fine.auc, abs=1e-4)
        # the stored points stay at the requested resolution
        assert coarse.pfa.size == 64 + 2
        assert fine.pfa.size == 4096 + 2

    def test_points_and_interpolation(self):
        h0, h1 = detector_laws(wide_wide(), "on_off")
        curve = roc_curve(h0, h1, grid=128)
        assert len(curve.points) == curve.pfa.size
        t = threshold_for_pfa(h0, 0.1)
        pd_exact, _ = pd_pfa(h0, h1, t)
        assert curve.pd_at(0.1) == pytest.approx(pd_exact, abs=1e-3)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            roc_curve(ScaledGamma(64, 1 / 64), ScaledGamma(64, 1 / 64), grid=1)

    def test_isinstance_of_public_type(self):
        h0, h1 = detector_laws(wide_wide(), "f_ratio")
        assert isinstance(roc_curve(h0, h1, grid=16), RocCurve)


def single_sample(gain):
    return wide_wide(et_power=0.1, gain=gain, n_samples=1, rfi_power=1e4)


class TestH0Map:
    @pytest.mark.parametrize(
        "spec, kind, tol",
        [
            (single_sample(0.001), "f_ratio", 1e-6),
            (single_sample(1.0), "f_ratio", 1e-6),
            (single_sample(0.001), "on_off", 1e-6),
            (single_sample(0.5), "on_off", 1e-6),
            *(
                (narrow_narrow(n), kind, 1e-10)
                for n in (16, 32, 64)
                for kind in ("f_ratio", "on_off", "energy")
            ),
            (wide_wide(0.1, 0.5, n_samples=2, rfi_power=1e4), "on_off", 2e-6),
            (wide_wide(0.1, 0.5, n_samples=16, rfi_power=1e4), "on_off", 4e-10),
        ],
        ids=["f_ratio-N1-g0.001", "f_ratio-N1-g1", "on_off-N1-g0.001",
             "on_off-N1-g0.5",
             *(f"{kind}-narrow-N{n}" for n in (16, 32, 64)
               for kind in ("f_ratio", "on_off", "energy")),
             "on_off-wide-N2-g0.5", "on_off-wide-N16-g0.5"],
    )
    def test_points_sit_at_requested_pfa(self, spec, kind, tol):
        # N = 1 covers the heavy-tailed ratio and the difference's kink at 0;
        # the narrowband laws are the README's 1e-10 (at most 8.4e-11 seen);
        # the wideband differences with strong interference are the least
        # accurate laws seen at N = 2 and N = 16 (1.1e-6 and 3.0e-10)
        h0, h1 = detector_laws(spec, kind)
        curve = roc_curve(h0, h1, grid=512)
        targets = np.linspace(0.0, 1.0, 512 + 2)[1:-1]
        assert np.max(np.abs(curve.pfa[1:-1] - targets)) <= tol
        assert np.all(np.diff(curve.thresholds) < 0)
        counted = _CountedLaw(h0)
        roc_module._H0Map(counted)
        assert counted.points <= 300

    def test_grid_finer_than_the_map_gets_exact_thresholds(self):
        # at grid 40000 the outermost targets lie beyond the map's range
        # [1/16385, 1 − 1/16385]; clipping them repeated thresholds
        h0, h1 = detector_laws(wide_wide(), "f_ratio")
        curve = roc_curve(h0, h1, grid=40000)
        targets = np.linspace(0.0, 1.0, 40000 + 2)[1:-1]
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.max(np.abs(curve.pfa[1:-1] - targets)) <= 1e-9

    def test_map_stays_increasing_across_an_atom(self):
        # the quantile map is flat across the atom's normal-score span, where
        # no cubic through the knots stays increasing
        h0_map = roc_module._H0Map(_AtomLaw((0.5, stats.norm(0.0, 1.0))))
        t = h0_map(np.linspace(0.0, 1.0, 100001))
        assert np.all(np.diff(t) >= 0.0)
        assert h0_map(0.4) < 1.3 < h0_map(0.9)


def scipy_spline(z, x, kinks) -> PPoly:
    """roc._spline's reference: scipy's cubic Hermite splines on the slopes
    of roc._slopes, split at `kinks`."""
    cuts = [0, *(int(i) for i in kinks if 0 < i < z.size - 1), z.size - 1]
    parts = [
        CubicHermiteSpline(zp, xp, roc_module._slopes(zp, xp))
        for zp, xp in ((z[a : b + 1], x[a : b + 1]) for a, b in zip(cuts, cuts[1:]))
    ]
    return PPoly(np.hstack([s.c for s in parts]), z)


def random_knots(rng, n):
    z = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3, 1)
    x = np.cumsum(rng.normal(0.5, 1.0, size=n))
    return z, x


def map_knots(law):
    """The (z, x, kinks) knots an H0 map of `law` builds its cubic on."""
    calls = []
    real = roc_module._spline

    def spy(z, x, kinks):
        calls.append((z, x, kinks))
        return real(z, x, kinks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roc_module, "_spline", spy)
        roc_module._H0Map(law)
    (knots,) = calls
    return knots


class TestSpline:
    """roc's NumPy cubic against scipy.interpolate.CubicHermiteSpline."""

    def assert_matches(self, z, x, kinks=()):
        ours, ref = roc_module._spline(z, x, kinks), scipy_spline(z, x, kinks)
        span = np.ptp(x)
        grid = np.union1d(z, np.linspace(z[0], z[-1], 2001))
        np.testing.assert_allclose(ours(grid), ref(grid), rtol=0.0, atol=1e-13 * span)
        np.testing.assert_array_equal(
            roc_module._least_slope(ours) <= 0.0, roc_module._least_slope(ref) <= 0.0
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 200])
    def test_random_increasing_knots(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            self.assert_matches(*random_knots(rng, n))

    def test_kink_split_difference_map(self):
        # the N = 1 on_off H0 law has its kink inside the map's range
        z, x, kinks = map_knots(detector_laws(single_sample(0.5), "on_off")[0])
        assert len(kinks) == 1 and 0 < kinks[0] < z.size - 1
        self.assert_matches(z, x, kinks)

    def test_three_and_two_knot_parts(self):
        # kinks that leave a parabola on the left and a line on the right
        z = np.array([-2.0, -1.2, 0.1, 0.3, 0.9, 1.7, 2.2, 3.0])
        x = np.array([-3.0, -2.1, -0.4, 0.0, 0.5, 1.8, 2.0, 2.6])
        self.assert_matches(z, x, [2, 6])


def exact_slopes(z, x):
    """Slope at each knot of the Lagrange polynomial through its stencil of
    roc._SLOPE_KNOTS knots (all of them if fewer), in exact rationals."""
    n = z.size
    w = min(roc_module._SLOPE_KNOTS, n)
    z, x = [Fraction(v) for v in z.tolist()], [Fraction(v) for v in x.tolist()]
    slopes = []
    for i in range(n):
        lo = min(max(i - (w - 1) // 2, 0), n - w)
        stencil = range(lo, lo + w)
        slope = Fraction(0)
        for j in stencil:
            # L_j'(z_i) by the product rule, one dropped factor at a time
            for k in stencil:
                if k == j:
                    continue
                term = 1 / (z[j] - z[k])
                for m in stencil:
                    if m not in (j, k):
                        term *= (z[i] - z[m]) / (z[j] - z[m])
                slope += x[j] * term
        slopes.append(float(slope))
    return np.array(slopes)


class TestSlopes:
    def assert_exact(self, z, x):
        exact = exact_slopes(z, x)
        miss = np.max(np.abs(roc_module._slopes(z, x) - exact))
        assert miss <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 30])
    def test_random_knots_match_rational_derivatives(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            self.assert_exact(*random_knots(rng, n))

    def test_map_knots_match_rational_derivatives(self):
        z, x, _ = map_knots(detector_laws(narrow_narrow(16), "on_off")[0])
        self.assert_exact(z, x)


class TestAucIntegral:
    def test_heavy_tailed_single_sample_ratio_matches_reference(self):
        # N = 1, g = 0.001: H0 is F(2, 2) at scale 11/10001, whose tails
        # decay like 1/t, and H1 the same law at scale 11.1/10001
        spec = wide_wide(et_power=0.1, gain=0.001, n_samples=1, rfi_power=1e4)
        h0, h1 = detector_laws(spec, "f_ratio")
        reference = central_ratio_auc(1, 11.0 / 10001.0, 11.1 / 10001.0)
        assert roc_curve(h0, h1, grid=64).auc == pytest.approx(reference, abs=1e-8)

    def test_large_window_ratio_matches_reference(self):
        spec = wide_wide(et_power=0.1, gain=0.8, n_samples=1024, rfi_power=10.0)
        h0, h1 = detector_laws(spec, "f_ratio")
        reference = central_ratio_auc(1024, 9.0 / 11.0, 9.1 / 11.0)
        assert roc_curve(h0, h1, grid=64).auc == pytest.approx(reference, abs=1e-8)

    @pytest.mark.parametrize(
        "laws, reference",
        [
            (
                detector_laws(wide_wide(et_power=1.0, gain=0.9, n_samples=1), "on_off"),
                AUC_ON_OFF_WIDE_N1,
            ),
            (additive_narrow_n2_laws("f_ratio"), AUC_F_NARROW_N2),
            (additive_narrow_n2_laws("on_off"), AUC_ON_OFF_NARROW_N2),
            (detector_laws(narrow_narrow(2), "f_ratio"), AUC_F_NARROW_N2_CROSS),
            (detector_laws(narrow_narrow(2), "on_off"), AUC_ON_OFF_NARROW_N2_CROSS),
            (detector_laws(narrow_narrow(16), "f_ratio"), AUC_F_NARROW_N16),
            (detector_laws(narrow_narrow(16), "on_off"), AUC_ON_OFF_NARROW_N16),
            (
                detector_laws(
                    wide_wide(et_power=0.1, gain=0.8, n_samples=1024, rfi_power=10.0),
                    "on_off",
                ),
                AUC_ON_OFF_WIDE_N1024,
            ),
        ],
        ids=["on_off-wide-N1", "f_ratio-narrow-N2", "on_off-narrow-N2",
             "f_ratio-narrow-N2-cross", "on_off-narrow-N2-cross",
             "f_ratio-narrow-N16", "on_off-narrow-N16", "on_off-wide-N1024"],
    )
    def test_paired_laws_match_references(self, laws, reference):
        h0, h1 = laws
        assert roc_curve(h0, h1, grid=64).auc == pytest.approx(reference, abs=1e-8)

    def test_unsettled_integral_raises_with_achieved(self):
        h0 = _MixtureLaw((1.0, stats.norm(0.0, 1.0)))
        h1 = _OscillatingLaw((1.0, stats.norm(1.0, 1.0)))
        with pytest.raises(ComputationError, match="did not settle") as info:
            roc_curve(h0, h1, grid=64)
        assert info.value.achieved > AUC_TOL

    def test_missed_mass_raises(self):
        # a spike of width 1e-7 holding 0.1% of H0 lies between every node,
        # so the rules agree with each other on an AUC that ignores it
        h0 = _MixtureLaw((0.999, stats.norm(0.0, 1.0)), (0.001, stats.norm(1.3, 1e-7)))
        h1 = _MixtureLaw((1.0, stats.norm(1.0, 1.0)))
        with pytest.raises(ComputationError, match="H0 density") as info:
            roc_curve(h0, h1, grid=64)
        assert info.value.achieved == pytest.approx(1e-3, rel=1e-3)

    def test_law_points_per_curve_point_stay_bounded(self):
        # thresholds, exact points, map and AUC integral together; the
        # doubling refinement this integral replaced needed 26 per point
        h0, h1 = (_CountedLaw(law) for law in detector_laws(narrow_narrow(64), "f_ratio"))
        curve = roc_curve(h0, h1, grid=512)
        assert (h0.points + h1.points) / curve.pfa.size <= 4.0


class TestDominance:
    @pytest.mark.parametrize("kind", ["f_ratio", "on_off"])
    def test_auc_never_decreases_with_signal_power(self, kind):
        aucs = []
        for et_power in (0.0, 0.25, 0.5, 1.0, 2.0):
            h0, h1 = detector_laws(wide_wide(et_power=et_power), kind)
            aucs.append(roc_curve(h0, h1, grid=256).auc)
        assert np.all(np.diff(aucs) >= -1e-9)
        assert aucs[0] == pytest.approx(0.5, abs=1e-6)
        assert aucs[-1] > aucs[0]


class TestAuc:
    """auc(h0, h1) is the AUC of roc_curve(h0, h1), bit for bit."""

    @pytest.mark.parametrize(
        "spec, kinds",
        [
            (
                wide_wide(et_power=0.1, gain=0.001, n_samples=1, rfi_power=1e4),
                ("f_ratio", "on_off"),
            ),
            (
                wide_wide(et_power=0.1, gain=1.0, n_samples=1, rfi_power=1e4),
                ("f_ratio", "on_off"),
            ),
            (narrow_narrow(16), ("f_ratio", "on_off", "energy")),
            (
                wide_wide(et_power=0.1, gain=0.8, n_samples=1024, rfi_power=10.0),
                ("f_ratio", "on_off"),
            ),
        ],
        ids=["wide-N1-g0.001", "wide-N1-g1", "narrow-N16", "wide-N1024"],
    )
    def test_equals_the_curve_auc(self, spec, kinds):
        for kind in kinds:
            h0, h1 = detector_laws(spec, kind)
            assert auc(h0, h1) == roc_curve(h0, h1, grid=64).auc

    @pytest.mark.parametrize(
        "spec, kinds",
        [
            (
                wide_wide(et_power=0.1, gain=0.8, n_samples=1024, rfi_power=10.0),
                ("f_ratio", "on_off"),
            ),
            (narrow_narrow(16), ("f_ratio", "on_off", "energy")),
        ],
        ids=["wide-N1024", "narrow-N16"],
    )
    def test_ends_cost_no_scalar_solves(self, monkeypatch, spec, kinds):
        def no_solve(law, p):
            raise AssertionError("the ends took a scalar quantile solve")

        monkeypatch.setattr(roc_module, "law_quantile", no_solve)
        for kind in kinds:
            h0, h1 = detector_laws(spec, kind)
            curve = roc_curve(h0, h1, grid=64)
            assert auc(h0, h1) == curve.auc
            assert 0.5 < curve.auc < 1.0


def _quantile_orders(monkeypatch) -> list:
    """Orders of the law_quantile calls roc makes from now on."""
    orders = []
    real = roc_module.law_quantile

    def recorded(law, p):
        orders.append(p)
        return real(law, p)

    monkeypatch.setattr(roc_module, "law_quantile", recorded)
    return orders


class TestEnds:
    """roc._ends: the map's and the AUC's ends from one cdf sweep."""

    edge = roc_module._MAP_P_EDGE

    @pytest.mark.parametrize(
        "law",
        [
            detector_laws(wide_wide(gain=0.9, n_samples=1024, rfi_power=10.0), "f_ratio")[0],
            detector_laws(wide_wide(gain=0.9, n_samples=1024, rfi_power=10.0), "on_off")[0],
            detector_laws(narrow_narrow(16), "f_ratio")[0],
            detector_laws(narrow_narrow(16), "on_off")[0],
            detector_laws(single_sample(1.0), "f_ratio")[0],
            # components whose low bracket seed is clamped at 0
            ScaledGamma(1.0, 1.0),
            ScaledGamma(4.0, 0.25),
            NoncentralChi2C(1.0, 1.0, 2.0),
            NoncentralChi2C(3.0, 2.0, 0.5),
        ],
        ids=["f_ratio-wide-N1024", "on_off-wide-N1024", "f_ratio-narrow-N16",
             "on_off-narrow-N16", "f_ratio-wide-N1", "gamma-1", "gamma-4",
             "ncx2-1", "ncx2-3"],
    )
    def test_ends_leave_little_mass_beyond_the_edge_quantiles(self, monkeypatch, law):
        q_lo, q_hi = law_quantile(law, self.edge), law_quantile(law, 1.0 - self.edge)
        orders = _quantile_orders(monkeypatch)
        t_lo, t_hi, m_lo, m_hi = roc_module._ends(law)
        assert orders == []
        assert 0.0 < m_lo <= self.edge and 0.0 < m_hi <= self.edge
        assert m_lo == law.cdf(t_lo) and m_hi == 1.0 - law.cdf(t_hi)
        assert t_lo <= q_lo < q_hi <= t_hi

    def test_clamped_low_seed_is_swept_in_log_scale(self):
        # mean − 4 sd < 0: the low seed is 0, yet the sweep finds the low end
        law = ScaledGamma(1.0, 1.0)
        assert law._bracket_seeds()[0] == 0.0
        t_lo, _, m_lo, _ = roc_module._ends(law)
        assert 0.0 < t_lo and m_lo == pytest.approx(t_lo, rel=1e-4)

    @pytest.mark.parametrize(
        "law, fallbacks",
        [
            # the lower quantile of order 1/16385, about 4e-43, lies far below the sweep
            (ScaledGamma(0.1, 1.0), ["lo"]),
            # the exponential tail of −Exp(10001) reaches beyond 8 spreads below; above,
            # 1 − cdf past the edge is no more than a rounding residue
            (detector_laws(single_sample(0.001), "on_off")[0], ["lo", "hi"]),
        ],
        ids=["gamma-0.1", "on_off-N1"],
    )
    def test_sweep_without_a_crossing_falls_back_to_brent(self, monkeypatch, law, fallbacks):
        orders = _quantile_orders(monkeypatch)
        t_lo, t_hi, m_lo, m_hi = roc_module._ends(law)
        order = {"lo": self.edge, "hi": 1.0 - self.edge}
        assert orders == [order[end] for end in fallbacks]
        if "lo" in fallbacks:
            assert t_lo == law_quantile(law, self.edge)
            assert m_lo == law.cdf(t_lo) == pytest.approx(self.edge, rel=1e-6)
        if "hi" in fallbacks:
            assert t_hi == law_quantile(law, 1.0 - self.edge)
            assert m_hi == pytest.approx(self.edge, abs=1e-10)
        assert 0.0 < m_lo and 0.0 < m_hi

    @pytest.mark.parametrize("gain, swept", [(0.001, False), (0.01, True)])
    def test_upper_mass_is_the_laws_not_a_rounding_residue(self, monkeypatch, gain, swept):
        # H0 of on_off at N = 1 is Exp(a) − Exp(b), whose mass above t > 0 is
        # a/(a + b)·exp(−t/a).  At g = 0.001 the sweep's 1 − cdf reads one
        # ulp where that mass is 7.8e-103, so the end is solved for; at
        # g = 0.01 the swept 6.5e-14 stands, within 1 − cdf's rounding
        law = detector_laws(single_sample(gain), "on_off")[0]
        a, b = law.pos.scale, law.neg.scale
        orders = _quantile_orders(monkeypatch)
        _, t_hi, _, m_hi = roc_module._ends(law)
        assert (1.0 - self.edge not in orders) == swept
        assert t_hi > 0.0
        tol = {"abs": 2.0**-52} if swept else {"rel": 1e-6, "abs": 0.0}
        assert m_hi == pytest.approx(a / (a + b) * np.exp(-t_hi / a), **tol)

    def test_overflowing_sweep_is_a_computation_error(self):
        # at scale 5e305 the sweep's upper points leave the float range and
        # are dropped; the fallback finds no finite bracket either
        with pytest.raises(ComputationError, match="no finite quantile bracket"):
            roc_module._ends(f_table(2.0, 2.0, 5e305))

    def test_overflowing_sweep_points_are_dropped(self):
        # at scale 5e300 the sweep's top points overflow, its crossings do not
        law = f_table(2.0, 2.0, 5e300)
        t_lo, t_hi, m_lo, m_hi = roc_module._ends(law)
        assert np.isfinite(t_hi) and 0.0 < m_lo <= self.edge and 0.0 < m_hi <= self.edge


class TestCompareDetectors:
    def test_single_gain_structure(self):
        rows = compare_detectors(wide_wide(), [1.0])
        assert len(rows) == 2
        assert {r.detector for r in rows} == {DetectorKind.F_RATIO, DetectorKind.ON_OFF}
        for r in rows:
            assert r.gain == 1.0
            assert r.auc_delta == 0.0
            assert 0.5 < r.auc < 1.0
            assert r.spec == wide_wide().with_gain(1.0)

    def test_deltas_are_relative_to_unit_gain(self):
        rows = compare_detectors(wide_wide(), [0.9, 1.0, 1.1])
        assert len(rows) == 6
        base = {r.detector: r.auc for r in rows if r.gain == 1.0}
        for r in rows:
            assert r.auc_delta == pytest.approx(r.auc - base[r.detector], abs=1e-15)

    def test_rows_match_curve_aucs(self):
        # the OFF-pair integral is not the curve's H0 integral, so the AUCs
        # agree to rounding, not bit for bit; the deltas are exact
        spec = wide_wide()
        rows = compare_detectors(spec, [0.8, 0.9, 1.0, 1.1, 1.25])
        assert len(rows) == 10
        base = {r.detector: r.auc for r in rows if r.gain == 1.0}
        for r in rows:
            curve = roc_curve(*detector_laws(spec.with_gain(r.gain), r.detector), grid=64)
            assert r.auc == pytest.approx(curve.auc, abs=1e-12, rel=0.0)
            assert r.auc_delta == r.auc - base[r.detector]
            if r.gain == 1.0:
                assert r.auc_delta == 0.0
            assert r.spec == spec.with_gain(r.gain)

    def test_difference_detector_is_less_gain_sensitive(self):
        rows = compare_detectors(wide_wide(), [0.9, 1.1])
        worst = {}
        for r in rows:
            worst[r.detector] = max(worst.get(r.detector, 0.0), abs(r.auc_delta))
        assert worst[DetectorKind.ON_OFF] < worst[DetectorKind.F_RATIO]

    @pytest.mark.parametrize("gains", [[0.9, 1.1, 0.9], [1.0, 0.9, 1.0, 1.1]])
    def test_one_on_pair_evaluation_per_distinct_gain_and_detector(self, monkeypatch, gains):
        spec = wide_wide()
        kinds = (DetectorKind.F_RATIO, DetectorKind.ON_OFF)
        task_of = {}
        for g in {1.0, *gains}:
            for k in kinds:
                _, on_pair = roc_module._auc_sides(*detector_laws(spec.with_gain(g), k))
                task_of[on_pair] = g, k
        integrated, evaluated = [], []

        class Counted(roc_module._AucIntegral):
            def __init__(self, h0, ends):
                integrated.append(h0)
                super().__init__(h0, ends)

            def __call__(self, h1):
                evaluated.append(task_of[h1])
                return super().__call__(h1)

        def no_map(h0):
            raise AssertionError("compare_detectors built an H0 quantile map")

        monkeypatch.setattr(roc_module, "_AucIntegral", Counted)
        # every ROC curve builds a map, so this also shows that none is built
        monkeypatch.setattr(roc_module, "_H0Map", no_map)
        rows = compare_detectors(spec, gains)
        # one OFF-pair integral per detector (the OFF pair is H0's law at
        # gain 1), one ON-pair evaluation per task
        off = spec.with_gain(1.0)
        assert sorted(integrated, key=repr) == sorted(
            (detector_laws(off, k)[0] for k in kinds), key=repr
        )
        assert sorted(evaluated) == sorted((g, k) for g in {1.0, 0.9, 1.1} for k in kinds)
        assert [(r.gain, r.detector) for r in rows] == [(g, k) for g in gains for k in kinds]

    def test_single_sample_rows_match_the_exact_auc(self):
        # N = 1: every side is exponential and the AUC has a closed form; at
        # gain 1e300 the ON means round to one value and the AUC is ½
        spec = ScenarioSpec(
            rfi_kind="wideband", et_kind="wideband", noise_power=1.0, rfi_power=1e4,
            et_power=0.1, n_samples=1,
        )
        gains = [0.0, 0.001, 0.01, 0.5, 1.0, 3.0, 1e300]
        rows = compare_detectors(spec, gains, detectors=["f_ratio"])
        assert [r.gain for r in rows] == gains
        for r in rows:
            exact = exact_single_sample_auc(*detector_laws(r.spec, "f_ratio"))
            assert abs(r.auc - exact) <= AUC_TOL, r.gain

    def test_rejects_empty_gains(self):
        with pytest.raises(ValueError):
            compare_detectors(wide_wide(), [])
