"""Tests for analytic detection performance: pd/pfa, thresholds, ROC, AUC."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from setidetect import (
    ComputationError,
    DetectorKind,
    FLaw,
    GammaDifference,
    NoncentralChi2C,
    RocCurve,
    ScaledGamma,
    ScenarioSpec,
    compare_detectors,
    detector_laws,
    f_ratio_law,
    law_quantile,
    onoff_law,
    pd_pfa,
    roc_curve,
    threshold_for_pfa,
)
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
AUC_F_NARROW_N2 = 0.6391722828981216  # narrowband, INR = SNR = 0 dB, g 0.9
AUC_ON_OFF_NARROW_N2 = 0.6512442630890621
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
        h0 = FLaw(128, 128, 1.0, 0.0, 0.0)
        h1 = FLaw(128, 128, 1.5, 0.0, 0.0)
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
        h0 = f_ratio_law(spec, "H0")
        h1 = f_ratio_law(spec, "H1")
        t = threshold_for_pfa(h0, 0.1)
        assert t == pytest.approx(F_128_THRESHOLD_PFA_01, abs=1e-9)
        pd, pfa = pd_pfa(h0, h1, t)
        assert pfa == pytest.approx(0.1, abs=1e-9)
        assert pd == pytest.approx(PD_AT_PFA_01_SNR0, abs=1.2e-3)


class TestThresholdForPfa:
    def test_symmetric_difference_law_crosses_zero(self):
        spec = wide_wide(gain=1.0)
        law = onoff_law(spec, "H0")
        assert threshold_for_pfa(law, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_central_equal_dof_ratio_crosses_scale(self):
        assert threshold_for_pfa(FLaw(128, 128, 1.0, 0, 0), 0.5) == pytest.approx(
            1.0, abs=1e-10
        )
        assert threshold_for_pfa(FLaw(128, 128, 1.7, 0, 0), 0.5) == pytest.approx(
            1.7, abs=1e-9
        )

    def test_large_window_quantile_matches_frozen_oracle(self):
        law = ScaledGamma(1024, 1.0 / 1024)
        assert threshold_for_pfa(law, 0.01) == pytest.approx(SG_1024_Q99, abs=1e-10)

    def test_realized_pfa_hits_target(self):
        laws = [
            ScaledGamma(64, 1 / 64),
            NoncentralChi2C(64, 1.0, 16.0),
            FLaw(128, 128, 1.3, 8.0, 4.0),
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
        law = FLaw(128, 128, 1.0, 0, 0)
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

    def test_metadata_and_interpolation(self):
        spec = wide_wide()
        h0, h1 = detector_laws(spec, "on_off")
        curve = roc_curve(h0, h1, grid=128, detector=DetectorKind.ON_OFF, spec=spec)
        assert curve.detector is DetectorKind.ON_OFF
        assert curve.spec == spec
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
        "spec, kind, reference",
        [
            (wide_wide(et_power=1.0, gain=0.9, n_samples=1), "on_off", AUC_ON_OFF_WIDE_N1),
            (narrow_narrow(2), "f_ratio", AUC_F_NARROW_N2),
            (narrow_narrow(2), "on_off", AUC_ON_OFF_NARROW_N2),
            (narrow_narrow(16), "f_ratio", AUC_F_NARROW_N16),
            (narrow_narrow(16), "on_off", AUC_ON_OFF_NARROW_N16),
            (
                wide_wide(et_power=0.1, gain=0.8, n_samples=1024, rfi_power=10.0),
                "on_off",
                AUC_ON_OFF_WIDE_N1024,
            ),
        ],
        ids=["on_off-wide-N1", "f_ratio-narrow-N2", "on_off-narrow-N2",
             "f_ratio-narrow-N16", "on_off-narrow-N16", "on_off-wide-N1024"],
    )
    def test_paired_laws_match_references(self, spec, kind, reference):
        h0, h1 = detector_laws(spec, kind)
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
        assert (h0.points + h1.points) / curve.pfa.size <= 8.0


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


class TestCompareDetectors:
    def test_single_gain_structure(self):
        rows = compare_detectors(wide_wide(), [1.0], grid=128)
        assert len(rows) == 2
        assert {r.detector for r in rows} == {DetectorKind.F_RATIO, DetectorKind.ON_OFF}
        for r in rows:
            assert r.gain == 1.0
            assert r.auc_delta == 0.0
            assert 0.5 < r.auc < 1.0
            assert isinstance(r.curve, RocCurve)

    def test_deltas_are_relative_to_unit_gain(self):
        rows = compare_detectors(wide_wide(), [0.9, 1.0, 1.1], grid=128)
        assert len(rows) == 6
        base = {r.detector: r.auc for r in rows if r.gain == 1.0}
        for r in rows:
            assert r.auc_delta == pytest.approx(r.auc - base[r.detector], abs=1e-15)

    def test_difference_detector_is_less_gain_sensitive(self):
        rows = compare_detectors(wide_wide(), [0.9, 1.1], grid=256)
        worst = {}
        for r in rows:
            worst[r.detector] = max(worst.get(r.detector, 0.0), abs(r.auc_delta))
        assert worst[DetectorKind.ON_OFF] < worst[DetectorKind.F_RATIO]

    @pytest.mark.parametrize("gains", [[0.9, 1.1, 0.9], [1.0, 0.9, 1.0, 1.1]])
    def test_one_curve_per_distinct_gain_and_detector(self, monkeypatch, gains):
        real_curve = roc_module.roc_curve
        built = []

        def counted(h0, h1, grid, detector, spec):
            built.append((spec.gain, detector))
            return real_curve(h0, h1, grid=grid, detector=detector, spec=spec)

        monkeypatch.setattr(roc_module, "roc_curve", counted)
        rows = compare_detectors(wide_wide(), gains, grid=64)
        kinds = (DetectorKind.F_RATIO, DetectorKind.ON_OFF)
        assert sorted(built) == sorted((g, k) for g in {1.0, 0.9, 1.1} for k in kinds)
        assert [(r.gain, r.detector) for r in rows] == [(g, k) for g in gains for k in kinds]

    def test_rejects_empty_gains(self):
        with pytest.raises(ValueError):
            compare_detectors(wide_wide(), [])
