"""Tests for the scenario -> sampling-law mapping."""

import numpy as np
import pytest

from setidetect import (
    DetectorKind,
    EtKind,
    FLaw,
    GammaDifference,
    Hypothesis,
    NoncentralChi2C,
    RfiKind,
    ScaledGamma,
    ScenarioSpec,
    default_assumed_noise,
    detector_laws,
    energy_law,
    f_ratio_law,
    off_distribution,
    on_distribution,
    default_chirps,
    detector_stat,
    onoff_law,
    run_paired_estimates,
)
from setidetect import roc
from setidetect.cli import _ks_bound
from setidetect.scenario import _pointing_components

MC_TRIALS = 1_000_000
MC_SEED = 20260816


def wide_wide(**kw):
    base = dict(
        rfi_kind=RfiKind.WIDEBAND,
        et_kind=EtKind.WIDEBAND,
        noise_power=1.0,
        rfi_power=2.0,
        et_power=1.5,
        gain=1.0,
        n_samples=64,
    )
    base.update(kw)
    return ScenarioSpec(**base)


def narrow_narrow(**kw):
    base = dict(
        rfi_kind=RfiKind.NARROWBAND,
        et_kind=EtKind.NARROWBAND,
        noise_power=1.0,
        rfi_energy=4.0,
        et_energy=9.0,
        gain=1.0,
        n_samples=64,
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_accepts_plain_strings_for_kinds(self):
        spec = ScenarioSpec(
            rfi_kind="narrowband", et_kind="wideband", noise_power=1.0, rfi_energy=2.0
        )
        assert spec.rfi_kind is RfiKind.NARROWBAND
        assert spec.et_kind is EtKind.WIDEBAND

    @pytest.mark.parametrize(
        "kw",
        [
            dict(noise_power=-1.0),
            dict(noise_power=float("nan")),
            dict(rfi_power=-0.5),
            dict(et_power=-2.0),
            dict(gain=-0.1),
            dict(n_samples=0),
            dict(n_samples=2.5),
        ],
    )
    def test_rejects_bad_numbers(self, kw):
        base = dict(rfi_kind="wideband", et_kind="wideband", noise_power=1.0, rfi_power=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            ScenarioSpec(**base)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(rfi_kind="wideband", rfi_energy=1.0),
            dict(rfi_kind="narrowband", rfi_power=1.0),
            dict(rfi_kind="none", rfi_power=1.0),
            dict(rfi_kind="none", rfi_energy=1.0),
            dict(rfi_kind="none", et_kind="narrowband", et_power=1.0),
            dict(rfi_kind="none", et_kind="wideband", et_energy=1.0),
        ],
    )
    def test_rejects_fields_inconsistent_with_kind(self, kw):
        base = dict(rfi_kind="none", et_kind="wideband", noise_power=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            ScenarioSpec(**base)

    def test_snr_wideband_is_power_ratio(self):
        spec = wide_wide(noise_power=0.5, et_power=1.5)
        assert spec.snr() == pytest.approx(3.0, rel=1e-15)

    def test_snr_narrowband_counts_energy_per_sample(self):
        spec = narrow_narrow(noise_power=0.5, et_energy=9.0, n_samples=64)
        assert spec.snr() == pytest.approx(9.0 / 64 / 0.5, rel=1e-15)

    def test_inr_by_kind(self):
        assert wide_wide(rfi_power=2.0).inr() == pytest.approx(2.0)
        assert narrow_narrow(rfi_energy=4.0, n_samples=64).inr() == pytest.approx(4.0 / 64)
        none_spec = ScenarioSpec(rfi_kind="none", et_kind="wideband", noise_power=1.0)
        assert none_spec.inr() == 0.0

    def test_zero_noise_ratios_do_not_divide_by_zero(self):
        silent = ScenarioSpec(
            rfi_kind="none", et_kind="wideband", noise_power=0.0, et_power=1.0
        )
        assert silent.snr() == float("inf")
        assert silent.inr() == 0.0
        dark = ScenarioSpec(rfi_kind="none", et_kind="wideband", noise_power=0.0)
        assert dark.snr() == 0.0

    def test_scenario_id(self):
        assert wide_wide().scenario_id == "rfi-wideband_et-wideband"
        assert narrow_narrow().scenario_id == "rfi-narrowband_et-narrowband"

    def test_with_gain_returns_new_spec(self):
        spec = wide_wide(gain=1.0)
        other = spec.with_gain(0.5)
        assert other.gain == 0.5
        assert spec.gain == 1.0
        assert other.rfi_power == spec.rfi_power


class TestOnDistribution:
    def test_wide_wide_h1_mean_is_power_sum(self):
        spec = wide_wide(noise_power=1.0, rfi_power=2.0, et_power=1.5, gain=1.0)
        law = on_distribution(spec, Hypothesis.H1)
        assert isinstance(law, ScaledGamma)
        assert law.mean == pytest.approx(1.5 + 2.0 + 1.0, rel=1e-15)

    def test_four_case_family_mapping(self):
        g = 0.7
        n = 64
        wide_narrow = ScenarioSpec(
            rfi_kind="wideband",
            et_kind="narrowband",
            noise_power=1.0,
            rfi_power=2.0,
            et_energy=9.0,
            gain=g,
            n_samples=n,
        )
        law = on_distribution(wide_narrow, "H1")
        assert isinstance(law, NoncentralChi2C)
        assert law.power == pytest.approx(1.0 + g * 2.0)
        assert law.noncentrality_energy == pytest.approx(9.0)

        narrow_wide = ScenarioSpec(
            rfi_kind="narrowband",
            et_kind="wideband",
            noise_power=1.0,
            rfi_energy=4.0,
            et_power=1.5,
            gain=g,
            n_samples=n,
        )
        law = on_distribution(narrow_wide, "H1")
        assert isinstance(law, NoncentralChi2C)
        assert law.power == pytest.approx(1.0 + 1.5)
        assert law.noncentrality_energy == pytest.approx(g * 4.0)

        law = on_distribution(narrow_narrow(gain=g), "H1")
        assert isinstance(law, NoncentralChi2C)
        assert law.power == pytest.approx(1.0)
        assert law.noncentrality_energy == pytest.approx(9.0 + g * 4.0)

        law = on_distribution(wide_wide(gain=g), "H1")
        assert isinstance(law, ScaledGamma)
        assert law.mean == pytest.approx(1.5 + g * 2.0 + 1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            wide_wide(et_power=0.0),
            narrow_narrow(et_energy=0.0),
            ScenarioSpec(rfi_kind="none", et_kind="wideband", noise_power=2.0),
        ],
    )
    def test_h1_with_zero_signal_equals_h0(self, spec):
        h0 = on_distribution(spec, "H0")
        h1 = on_distribution(spec, "H1")
        assert h0 == h1
        ts = np.linspace(0.0, 5.0 * h0.mean, 257)
        assert np.max(np.abs(np.asarray(h1.cdf(ts)) - np.asarray(h0.cdf(ts)))) <= 1e-12

    def test_narrow_narrow_h0_half_gain(self):
        spec = narrow_narrow(rfi_energy=10.0, et_energy=9.0, gain=0.5)
        law = on_distribution(spec, "H0")
        assert law == NoncentralChi2C(shape=64, power=1.0, noncentrality_energy=5.0)

        on_est, _ = run_paired_estimates(spec, "H0", MC_TRIALS, MC_SEED)
        sem = on_est.std() / np.sqrt(on_est.size)
        assert abs(on_est.mean() - law.mean) < 5 * sem


class TestOffDistribution:
    def test_wideband_mean(self):
        law = off_distribution(wide_wide(noise_power=1.0, rfi_power=2.0, gain=0.3))
        assert isinstance(law, ScaledGamma)
        assert law.mean == pytest.approx(3.0, rel=1e-15)

    def test_no_rfi_mean_is_noise(self):
        spec = ScenarioSpec(rfi_kind="none", et_kind="wideband", noise_power=0.7, et_power=1.0)
        law = off_distribution(spec)
        assert isinstance(law, ScaledGamma)
        assert law.mean == pytest.approx(0.7, rel=1e-15)

    def test_gain_and_signal_do_not_reach_off(self):
        a = off_distribution(wide_wide(gain=0.25, et_power=3.0))
        b = off_distribution(wide_wide(gain=2.0, et_power=0.0))
        assert a == b

    def test_narrowband_matches_monte_carlo(self):
        spec = narrow_narrow(rfi_energy=10.0, et_energy=0.0, gain=0.5)
        law = off_distribution(spec)
        assert law == NoncentralChi2C(shape=64, power=1.0, noncentrality_energy=10.0)

        _, off_est = run_paired_estimates(spec, "H0", MC_TRIALS, MC_SEED + 1)
        sem = off_est.std() / np.sqrt(off_est.size)
        assert abs(off_est.mean() - law.mean) < 5 * sem
        probes = np.asarray([0.9, 1.1, 1.3])
        emp = np.searchsorted(np.sort(off_est), probes, side="right") / off_est.size
        ana = np.asarray(law.cdf(probes))
        se = np.sqrt(ana * (1 - ana) / off_est.size)
        assert np.all(np.abs(emp - ana) < 5 * se)


class TestFRatioLaw:
    def test_h0_unit_gain_is_central_scale_one(self):
        for rfi_power in (0.5, 3.0, 10.0):
            spec = wide_wide(rfi_power=rfi_power, gain=1.0)
            law = f_ratio_law(spec, "H0")
            assert isinstance(law, FLaw)
            assert law.num == on_distribution(spec, "H0")
            assert law.den == off_distribution(spec)
            # equal central sides of N = 64 samples: F(128, 128) at scale 1
            assert law.num == law.den == ScaledGamma(64, (1.0 + rfi_power) / 64)

    def test_wide_wide_h1_scale(self):
        for g in (0.6, 1.0, 1.4):
            spec = wide_wide(noise_power=1.0, rfi_power=2.0, et_power=1.5, gain=g)
            law = f_ratio_law(spec, "H1")
            assert law.num == on_distribution(spec, "H1")
            assert law.den == off_distribution(spec)
            assert isinstance(law.num, ScaledGamma) and isinstance(law.den, ScaledGamma)
            scale = law.num.mean / law.den.mean
            assert scale == pytest.approx((1.5 + g * 2.0 + 1.0) / (2.0 + 1.0), rel=1e-15)

    def test_narrow_narrow_h1_noncentralities(self):
        spec = narrow_narrow(rfi_energy=4.0, et_energy=9.0, gain=1.0)
        law = f_ratio_law(spec, "H1")
        assert law.num == on_distribution(spec, "H1")
        assert law.den == off_distribution(spec)
        assert law.num.power == law.den.power == 1.0
        # numerator energy 9 + 4 = 13, denominator energy 4, unit powers
        assert law.num.noncentrality == pytest.approx(26.0, rel=1e-15)
        assert law.den.noncentrality == pytest.approx(8.0, rel=1e-15)

    def test_narrow_narrow_h1_matches_pipeline_monte_carlo(self):
        spec = narrow_narrow(rfi_energy=4.0, et_energy=9.0, gain=1.0)
        law = f_ratio_law(spec, "H1")
        on, off = run_paired_estimates(spec, "H1", MC_TRIALS, MC_SEED + 2)
        stats = np.sort(detector_stat(DetectorKind.F_RATIO, on, off))
        probes = np.asarray([0.9, 1.1, 1.3, 1.6])
        emp = np.searchsorted(stats, probes, side="right") / stats.size
        ana = np.asarray(law.cdf(probes))
        se = np.sqrt(ana * (1 - ana) / stats.size)
        assert np.all(np.abs(emp - ana) < 5 * se)


class TestOnoffLaw:
    def test_h0_unit_gain_is_symmetric(self):
        law = onoff_law(wide_wide(gain=1.0), "H0")
        assert isinstance(law, GammaDifference)
        assert law.mean == pytest.approx(0.0, abs=1e-15)
        assert float(law.cdf(0.0)) == pytest.approx(0.5, abs=1e-6)

    def test_wide_wide_h1_mean(self):
        for g in (0.6, 1.0, 1.4):
            spec = wide_wide(noise_power=1.0, rfi_power=2.0, et_power=1.5, gain=g)
            law = onoff_law(spec, "H1")
            assert law.mean == pytest.approx(1.5 + (g - 1.0) * 2.0, abs=1e-12)

    @pytest.mark.parametrize("gain", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("narrow_et", [False, True])
    def test_h1_mean_shift_is_signal_level(self, gain, narrow_et):
        if narrow_et:
            spec = narrow_narrow(gain=gain, et_energy=9.0)
            shift = 9.0 / 64
        else:
            spec = wide_wide(gain=gain, et_power=1.5)
            shift = 1.5
        h0 = onoff_law(spec, "H0")
        h1 = onoff_law(spec, "H1")
        assert h1.mean - h0.mean == pytest.approx(shift, abs=1e-12)

    def test_narrow_rfi_wide_et_h1_matches_pipeline_monte_carlo(self):
        spec = ScenarioSpec(
            rfi_kind="narrowband",
            et_kind="wideband",
            noise_power=1.0,
            rfi_energy=4.0,
            et_power=1.5,
            gain=0.8,
            n_samples=64,
        )
        law = onoff_law(spec, "H1")
        on, off = run_paired_estimates(spec, "H1", MC_TRIALS, MC_SEED + 3)
        stats = np.sort(detector_stat("on_off", on, off))
        probes = np.asarray([1.0, 1.4, 1.8])
        emp = np.searchsorted(stats, probes, side="right") / stats.size
        ana = np.asarray(law.cdf(probes))
        se = np.sqrt(ana * (1 - ana) / stats.size)
        assert np.all(np.abs(emp - ana) < 5 * se)


class TestEnergyLaw:
    def test_default_assumed_noise_is_h0_on_mean(self):
        spec = wide_wide(noise_power=1.0, rfi_power=2.0, gain=0.5)
        assert default_assumed_noise(spec) == pytest.approx(1.0 + 0.5 * 2.0, rel=1e-15)

    def test_default_calibration_normalizes_h0_mean(self):
        law = energy_law(wide_wide(gain=0.5), "H0")
        assert law.mean == pytest.approx(1.0, rel=1e-15)

    def test_scaling_identity_against_on_distribution(self):
        c = 1.1
        for spec in (wide_wide(gain=0.9), narrow_narrow(gain=0.9)):
            for hyp in ("H0", "H1"):
                scaled = energy_law(spec, hyp, assumed_noise=c)
                raw = on_distribution(spec, hyp)
                ts = np.linspace(0.05, 4.0, 301)
                assert np.max(
                    np.abs(np.asarray(scaled.cdf(ts)) - np.asarray(raw.cdf(c * ts)))
                ) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_assumed_noise(self, bad):
        with pytest.raises(ValueError, match="assumed_noise"):
            energy_law(wide_wide(), "H0", assumed_noise=bad)


class TestDetectorLaws:
    def test_matches_individual_constructors(self):
        spec = narrow_narrow(gain=0.8)
        h0, h1 = detector_laws(spec, "f_ratio")
        assert (h0, h1) == (f_ratio_law(spec, "H0"), f_ratio_law(spec, "H1"))
        h0, h1 = detector_laws(spec, DetectorKind.ON_OFF)
        assert (h0.pos, h1.pos) == (
            on_distribution(spec, "H0"),
            on_distribution(spec, "H1"),
        )
        h0, h1 = detector_laws(spec, "energy", assumed_noise=2.0)
        assert (h0, h1) == (
            energy_law(spec, "H0", 2.0),
            energy_law(spec, "H1", 2.0),
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            detector_laws(wide_wide(), "matched_filter")


def inr_10_snr_0(rfi_kind, et_kind, n, gain):
    """INR 10 dB and SNR 0 dB per sample, of the given kinds."""
    strength = {"wideband": ("power", 10.0), "narrowband": ("energy", 10.0 * n)}
    fields = {}
    if rfi_kind != "none":
        suffix, level = strength[rfi_kind]
        fields[f"rfi_{suffix}"] = level
    suffix, level = strength[et_kind]
    fields[f"et_{suffix}"] = level / 10.0
    return ScenarioSpec(rfi_kind, et_kind, 1.0, gain=gain, n_samples=n, **fields)


class TestLimitIdentities:
    KINDS = [(r, e) for r in ("wideband", "narrowband", "none") for e in ("wideband", "narrowband")]
    SIZES = [1, 2, 3, 16, 1024]

    @pytest.mark.parametrize("rfi_kind, et_kind", KINDS)
    def test_each_law_against_itself_has_auc_one_half(self, rfi_kind, et_kind):
        # and its cdf between the AUC's ends is non-decreasing within [0, 1]
        for n in self.SIZES:
            for kind in DetectorKind:
                for law in detector_laws(inr_10_snr_0(rfi_kind, et_kind, n, 0.9), kind):
                    case = (n, kind.value, law)
                    assert abs(roc.auc(law, law) - 0.5) <= roc.AUC_TOL, case
                    t_lo, t_hi = roc._ends(law)[:2]
                    cdf = law.cdf(np.linspace(t_lo, t_hi, 257))
                    assert np.all((cdf >= 0.0) & (cdf <= 1.0)), case
                    assert np.all(np.diff(cdf) >= 0.0), case

    @pytest.mark.parametrize("rfi_kind, et_kind", KINDS)
    def test_unit_gain_f_ratio_has_median_one(self, rfi_kind, et_kind):
        # at g = 1, ON and OFF have one law under H0, so their ratio's median is 1
        for n in self.SIZES:
            law = f_ratio_law(inr_10_snr_0(rfi_kind, et_kind, n, 1.0), Hypothesis.H0)
            assert abs(float(law.cdf(1.0)) - 0.5) <= 1e-12, (n, law)


class TestPointingComponents:
    @pytest.mark.parametrize("n", [*range(1, 25), 64, 65, 1023])
    def test_energies_match_the_default_chirps(self, n):
        # ON's H1 energy is Σ|√g·c_rfi + c_et|² of the default chirps'
        # waveforms, cross term included; OFF's is Σ|c_rfi|²
        spec = narrow_narrow(rfi_energy=3.0 * n, et_energy=5.0 * n, gain=0.9, n_samples=n)
        chirp_et, chirp_rfi = default_chirps(spec)
        c_et, c_rfi = chirp_et.waveform(n), chirp_rfi.waveform(n)
        (p_on, e_on), (p_off, e_off) = _pointing_components(spec, Hypothesis.H1)
        assert p_on == p_off == spec.noise_power
        on = np.sqrt(spec.gain) * c_rfi + c_et
        assert e_on == pytest.approx(np.vdot(on, on).real, rel=1e-12)
        assert e_off == spec.rfi_energy
        if n % 8 in (0, 5):
            # the chirps' cross sum has no real part: the energies add
            assert e_on == spec.gain * spec.rfi_energy + spec.et_energy

    def test_overflowed_on_energy_stays_inf(self):
        # g·E_rfi overflows; the negative cross term at N = 7 must not turn
        # the sum into inf − inf
        spec = narrow_narrow(rfi_energy=28.0, et_energy=28.0, gain=1e308, n_samples=7)
        (_, e_on), _ = _pointing_components(spec, Hypothesis.H1)
        assert e_on == np.inf

    @pytest.mark.parametrize("hyp", list(Hypothesis))
    def test_laws_read_the_same_components(self, hyp):
        spec = narrow_narrow(gain=0.9, n_samples=7)
        (p_on, e_on), (p_off, e_off) = _pointing_components(spec, hyp)
        on, off = on_distribution(spec, hyp), off_distribution(spec)
        assert (on.power, on.noncentrality_energy) == (p_on, e_on)
        assert (off.power, off.noncentrality_energy) == (p_off, e_off)
        law = f_ratio_law(spec, hyp)
        assert law.num == on
        assert law.den == off


def narrowband_pair_6db(n):
    """Narrowband interference and signal at INR = SNR = 6 dB, g = 0.9."""
    level = 10.0**0.6 * n
    return narrow_narrow(rfi_energy=level, et_energy=level, gain=0.9, n_samples=n)


class TestLawsMatchDraws:
    """Each detector's H0 and H1 law against `run_paired_estimates` draws
    where both chirps overlap: Re C is nonzero at N = 1, 2, 3, 7 and 65 and
    zero at N = 5."""

    TRIALS = 20_000

    @pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 65])
    def test_narrowband_pair(self, n, kind):
        spec = narrowband_pair_6db(n)
        laws = detector_laws(spec, kind)
        assumed = default_assumed_noise(spec)
        # DKW radius at level 1e-6, plus room for the bound's node-gap term
        # (about 1/1024)
        critical = np.sqrt(np.log(2 / 1e-6) / (2 * self.TRIALS)) + 3e-3
        for i, (hyp, law) in enumerate(zip(Hypothesis, laws)):
            on, off = run_paired_estimates(spec, hyp, self.TRIALS, MC_SEED + 10 + i)
            stats = detector_stat(kind, on, off, assumed_noise=assumed)
            assert _ks_bound(stats, law, nodes=1024) < critical, hyp
