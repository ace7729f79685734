"""Tests for stream synthesis, power estimation, and Monte Carlo batching."""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

from setidetect import (
    ChirpParams,
    DetectorKind,
    EtKind,
    NoncentralChi2C,
    RfiKind,
    ScaledGamma,
    ScenarioSpec,
    Steering,
    TrialBatch,
    detector_stat,
    f_ratio_law,
    law_quantile,
    power_estimate,
    run_paired_estimates,
    run_trials,
    spectrogram,
    synth_stream,
)
from setidetect import _pool, simulator
from setidetect.cli import _ks_bound
from setidetect.simulator import TRIAL_CHUNK, _cgauss, default_chirps

SEED = 424242


def gaussian_only(noise_power=1.0, n_samples=64, **kw):
    base = dict(
        rfi_kind="none",
        et_kind="wideband",
        noise_power=noise_power,
        n_samples=n_samples,
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestChirpParams:
    def test_energy_over_window(self):
        chirp = ChirpParams(amplitude=0.7, start_freq=0.11, drift_rate=0.003)
        wave = chirp.waveform(128)
        assert np.sum(np.abs(wave) ** 2) == pytest.approx(128 * 0.7**2, rel=1e-12)

    def test_instantaneous_frequency_track(self):
        chirp = ChirpParams(amplitude=1.0, start_freq=0.01, drift_rate=1e-4)
        wave = chirp.waveform(256)
        freq = np.diff(np.unwrap(np.angle(wave))) / (2 * np.pi)
        k = np.arange(255)
        # the phase increment over [n, n+1] is the frequency at midsample
        assert np.allclose(freq, 0.01 + 1e-4 * (k + 0.5), atol=1e-12)

    def test_zero_drift_is_pure_tone(self):
        wave = ChirpParams(amplitude=1.0, start_freq=8 / 64).waveform(64)
        mags = np.abs(np.fft.fft(wave))
        assert np.argmax(mags) == 8
        assert mags[8] == pytest.approx(64.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(amplitude=-0.1, start_freq=0.1),
            dict(amplitude=float("nan"), start_freq=0.1),
            dict(amplitude=1.0, start_freq=float("inf")),
            dict(amplitude=1.0, start_freq=0.1, drift_rate=float("nan")),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            ChirpParams(**kw)


class TestSynthStream:
    def test_all_powers_zero_gives_zero_stream(self):
        spec = gaussian_only(noise_power=0.0, n_samples=128)
        stream = synth_stream(spec, Steering.ON, "H1", rng_state=SEED)
        assert stream.shape == (128,)
        assert np.all(stream == 0)

    def test_noise_only_mean_power(self):
        spec = gaussian_only(noise_power=2.0, n_samples=1_000_000)
        stream = synth_stream(spec, "on", "H0", rng_state=SEED)
        powers = np.abs(stream) ** 2
        sem = powers.std() / np.sqrt(powers.size)
        assert abs(powers.mean() - 2.0) < 5 * sem

    def test_pure_tone_peaks_at_start_freq_bin(self):
        spec = ScenarioSpec(
            rfi_kind="none",
            et_kind="narrowband",
            noise_power=0.0,
            et_energy=64.0,
            n_samples=64,
        )
        chirp = ChirpParams(amplitude=1.0, start_freq=8 / 64)
        stream = synth_stream(spec, "on", "H1", chirp_et=chirp, rng_state=SEED)
        assert np.argmax(np.abs(np.fft.fft(stream))) == 8

    def test_signal_reaches_on_stream_only(self):
        spec = ScenarioSpec(
            rfi_kind="none",
            et_kind="narrowband",
            noise_power=0.0,
            et_energy=16.0,
            n_samples=64,
        )
        chirp = ChirpParams(amplitude=0.5, start_freq=0.25)
        on = synth_stream(spec, "on", "H1", chirp_et=chirp, rng_state=SEED)
        off = synth_stream(spec, "off", "H1", chirp_et=chirp, rng_state=SEED)
        h0 = synth_stream(spec, "on", "H0", chirp_et=chirp, rng_state=SEED)
        assert power_estimate(on) == pytest.approx(16.0 / 64, rel=1e-12)
        assert np.all(off == 0)
        assert np.all(h0 == 0)

    def test_interference_gain_scales_on_stream(self):
        g = 0.25
        spec = ScenarioSpec(
            rfi_kind="narrowband",
            et_kind="wideband",
            noise_power=0.0,
            rfi_energy=16.0,
            gain=g,
            n_samples=64,
        )
        chirp = ChirpParams(amplitude=0.5, start_freq=0.125)
        on = synth_stream(spec, "on", "H0", chirp_rfi=chirp, rng_state=SEED)
        off = synth_stream(spec, "off", "H0", chirp_rfi=chirp, rng_state=SEED)
        assert power_estimate(on) == pytest.approx(g * 16.0 / 64, rel=1e-12)
        assert power_estimate(off) == pytest.approx(16.0 / 64, rel=1e-12)

    def test_chirp_presence_must_match_kinds(self):
        narrow = ScenarioSpec(
            rfi_kind="none", et_kind="narrowband", noise_power=1.0, et_energy=4.0
        )
        with pytest.raises(ValueError, match="chirp_et"):
            synth_stream(narrow, "on", "H1", rng_state=SEED)
        wide = gaussian_only()
        with pytest.raises(ValueError, match="chirp_et"):
            synth_stream(
                wide, "on", "H1", chirp_et=ChirpParams(1.0, 0.1), rng_state=SEED
            )

    def test_same_seed_same_stream(self):
        spec = gaussian_only(noise_power=1.3)
        a = synth_stream(spec, "on", "H0", rng_state=SEED)
        b = synth_stream(spec, "on", "H0", rng_state=SEED)
        assert np.array_equal(a, b)


class TestPowerEstimate:
    def test_zero_stream(self):
        assert power_estimate(np.zeros(16, dtype=complex)) == 0.0

    def test_constant_one(self):
        assert power_estimate(np.ones(37, dtype=complex)) == 1.0

    def test_unimodular_chirp(self):
        wave = ChirpParams(amplitude=1.0, start_freq=0.11, drift_rate=0.004).waveform(128)
        assert power_estimate(wave) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [[], np.zeros((4, 4)), np.empty(0)])
    def test_rejects_bad_streams(self, bad):
        with pytest.raises(ValueError):
            power_estimate(bad)


class TestDetectorStat:
    def test_scalar_examples(self):
        assert detector_stat("f_ratio", 2.0, 1.0) == 2.0
        assert detector_stat("on_off", 2.0, 1.0) == 1.0
        assert detector_stat("energy", 3.0, None, assumed_noise=1.5) == 2.0

    def test_vectorized(self):
        on = np.array([1.0, 2.0, 3.0])
        off = np.array([2.0, 2.0, 2.0])
        assert np.allclose(detector_stat("f_ratio", on, off), on / off)
        assert np.allclose(detector_stat("on_off", on, off), on - off)
        assert np.allclose(detector_stat("energy", on, None, 2.0), on / 2.0)

    def test_scalar_in_float_out(self):
        out = detector_stat(DetectorKind.F_RATIO, 2.0, 4.0)
        assert isinstance(out, float) and out == 0.5

    def test_rejects_nonpositive_off_for_f_ratio(self):
        with pytest.raises(ValueError, match="OFF"):
            detector_stat("f_ratio", 1.0, 0.0)
        with pytest.raises(ValueError):
            detector_stat("f_ratio", np.ones(3), np.array([1.0, -0.5, 2.0]))

    def test_rejects_missing_inputs(self):
        with pytest.raises(ValueError):
            detector_stat("f_ratio", 1.0, None)
        with pytest.raises(ValueError):
            detector_stat("energy", 1.0, 1.0, assumed_noise=None)
        with pytest.raises(ValueError):
            detector_stat("energy", 1.0, 1.0, assumed_noise=-2.0)
        with pytest.raises(ValueError):
            detector_stat("on_off", -1.0, 1.0)


class TestEstimatorMoments:
    def test_mean_and_variance_of_power_estimate(self):
        power, n, trials = 1.7, 64, 100_000
        spec = gaussian_only(noise_power=power, n_samples=n)
        on_est, _ = run_paired_estimates(spec, "H0", trials, SEED)
        sem = on_est.std() / np.sqrt(trials)
        assert abs(on_est.mean() - power) < 5 * sem
        target_var = power**2 / n
        # gamma(N) fourth moment gives Var(s²) ≈ σ⁴(2 + 6/N)/n
        se_var = target_var * np.sqrt((2 + 6 / n) / trials)
        assert abs(on_est.var(ddof=1) - target_var) < 5 * se_var

    def test_on_off_streams_independent(self):
        spec = ScenarioSpec(
            rfi_kind="wideband",
            et_kind="wideband",
            noise_power=1.0,
            rfi_power=2.0,
            gain=1.0,
            n_samples=64,
        )
        on_est, off_est = run_paired_estimates(spec, "H0", 100_000, SEED + 1)
        corr = np.corrcoef(on_est, off_est)[0, 1]
        assert abs(corr) < 5 / np.sqrt(on_est.size)


class TestFoldedWidebandDraw:
    @pytest.mark.parametrize(
        "gain, hyp",
        [(0.7, "H0"), (0.7, "H1"), (0.0, "H1")],
        ids=["g0.7-H0", "g0.7-H1", "g0-H1"],
    )
    def test_single_sample_estimates_are_exponential(self, gain, hyp):
        # at N = 1 each estimate is |x|² of one CN(0, p) sample: exponential
        # with mean p, where p sums the powers of every wideband component
        noise, rfi, et, trials = 1.0, 2.0, 0.5, 100_000
        spec = ScenarioSpec(
            rfi_kind="wideband",
            et_kind="wideband",
            noise_power=noise,
            rfi_power=rfi,
            et_power=et,
            gain=gain,
            n_samples=1,
        )
        on_est, off_est = run_paired_estimates(spec, hyp, trials, SEED + 6)
        p_on = noise + gain * rfi + (et if hyp == "H1" else 0.0)
        p_off = noise + rfi
        # DKW radius at level 1e-6, plus room for the bound's node-gap term
        eps = np.sqrt(np.log(2 / 1e-6) / (2 * trials)) + 1e-3
        assert _ks_bound(on_est, ScaledGamma(1, p_on), nodes=4096) < eps
        assert _ks_bound(off_est, ScaledGamma(1, p_off), nodes=4096) < eps


    @pytest.mark.parametrize("n", [1, 4])
    def test_mixed_pointings_match_their_laws(self, n):
        # wideband interference with a narrowband signal under H1: ON carries
        # the chirp and keeps the complex draw, OFF takes exponential powers
        trials = 100_000
        spec = dataclasses.replace(WIDE_RFI_NARROW_ET, n_samples=n)
        on_est, off_est = run_paired_estimates(
            spec, "H1", trials, SEED + 7, random_phase=True
        )
        p_on = spec.noise_power + spec.gain * spec.rfi_power
        p_off = spec.noise_power + spec.rfi_power
        eps = np.sqrt(np.log(2 / 1e-6) / (2 * trials)) + 1e-3
        on_law = NoncentralChi2C(n, p_on, spec.et_energy)
        assert _ks_bound(on_est, on_law, nodes=4096) < eps
        assert _ks_bound(off_est, ScaledGamma(n, p_off / n), nodes=4096) < eps


class TestRunTrials:
    def test_batch_fields_and_determinism(self):
        spec = gaussian_only()
        a = run_trials(spec, "f_ratio", "H0", 5000, SEED)
        b = run_trials(spec, DetectorKind.F_RATIO, "H0", 5000, SEED)
        assert isinstance(a, TrialBatch)
        assert a.detector is DetectorKind.F_RATIO
        assert a.hyp.value == "H0"
        assert a.seed == SEED and a.spec == spec
        assert a.stats.shape == (5000,)
        assert np.array_equal(a.stats, b.stats)

    def test_single_trial_reproducible(self):
        spec = gaussian_only()
        a = run_trials(spec, "on_off", "H1", 1, SEED)
        b = run_trials(spec, "on_off", "H1", 1, SEED)
        assert a.stats[0] == b.stats[0]

    def test_shorter_runs_are_prefixes(self):
        spec = gaussian_only()
        short = run_trials(spec, "f_ratio", "H0", 3000, SEED)
        long = run_trials(spec, "f_ratio", "H0", 5000, SEED)
        assert np.array_equal(short.stats, long.stats[:3000])

    def test_equal_dof_median_is_one(self):
        spec = ScenarioSpec(
            rfi_kind="wideband",
            et_kind="wideband",
            noise_power=1.0,
            rfi_power=2.0,
            gain=1.0,
            n_samples=64,
        )
        batch = run_trials(spec, "f_ratio", "H0", 100_000, SEED + 2)
        law = f_ratio_law(spec, "H0")
        h = 1e-4
        density_at_one = (float(law.cdf(1 + h)) - float(law.cdf(1 - h))) / (2 * h)
        se_median = 1.0 / (2 * density_at_one * np.sqrt(batch.stats.size))
        assert abs(np.median(batch.stats) - 1.0) < 5 * se_median

    def test_stats_match_analytic_law(self):
        spec = ScenarioSpec(
            rfi_kind="wideband",
            et_kind="wideband",
            noise_power=1.0,
            rfi_power=2.0,
            et_power=1.0,
            gain=0.9,
            n_samples=64,
        )
        batch = run_trials(spec, "f_ratio", "H1", 100_000, SEED + 3)
        law = f_ratio_law(spec, "H1")
        assert _ks_bound(batch.stats, law, nodes=4096) < 0.01

    def test_energy_defaults_to_calibrated_reference(self):
        spec = gaussian_only(noise_power=0.8)
        batch = run_trials(spec, "energy", "H0", 20_000, SEED + 4)
        sem = batch.stats.std() / np.sqrt(batch.stats.size)
        assert abs(batch.stats.mean() - 1.0) < 5 * sem

    def test_rejects_bad_trial_count(self):
        with pytest.raises(ValueError):
            run_trials(gaussian_only(), "f_ratio", "H0", 0, SEED)


def sequential_estimates(spec, hyp, trials, seed, random_phase):
    """The chunk contract written out serially: chunks in order, each from
    its spawned generator, full-size draws in the documented order (ON at
    noise + g·interference + signal power and OFF at noise + interference
    power, counting only the wideband components, then the chirp phases).
    A pointing without a chirp draws its per-sample powers as
    p·Exp(1) in its slot; one with a chirp draws the complex stream."""
    chirp_et, chirp_rfi = default_chirps(spec)
    n, m = spec.n_samples, TRIAL_CHUNK
    sqrt_g = np.sqrt(spec.gain)
    signal_on = hyp == "H1"
    wide_rfi = spec.rfi_power if spec.rfi_kind is RfiKind.WIDEBAND else 0.0
    wide_et = spec.et_power if signal_on and spec.et_kind is EtKind.WIDEBAND else 0.0
    p_on = spec.noise_power + spec.gain * wide_rfi + wide_et
    p_off = spec.noise_power + wide_rfi
    narrow_rfi = spec.rfi_kind is RfiKind.NARROWBAND
    narrow_et = signal_on and spec.et_kind is EtKind.NARROWBAND
    n_chunks = -(-trials // TRIAL_CHUNK)
    on_est, off_est = [], []
    for child in np.random.SeedSequence(seed).spawn(n_chunks):
        rng = np.random.default_rng(child)
        if narrow_rfi or narrow_et:
            on = _cgauss(rng, m, n, p_on)
        else:
            on = p_on * rng.standard_exponential((m, n))
        if narrow_rfi:
            off = _cgauss(rng, m, n, p_off)
        else:
            off = p_off * rng.standard_exponential((m, n))
        if narrow_rfi:
            wave = chirp_rfi.waveform(n)[None, :]
            if random_phase:
                wave = wave * np.exp(2j * np.pi * rng.random((m, 1)))
            on = on + sqrt_g * wave
            off = off + wave
        if narrow_et:
            wave = chirp_et.waveform(n)[None, :]
            if random_phase:
                wave = wave * np.exp(2j * np.pi * rng.random((m, 1)))
            on = on + wave
        if np.iscomplexobj(on):
            on = np.abs(on) ** 2
        if np.iscomplexobj(off):
            off = np.abs(off) ** 2
        on_est.append(np.mean(on, axis=1))
        off_est.append(np.mean(off, axis=1))
    return np.concatenate(on_est)[:trials], np.concatenate(off_est)[:trials]


WIDEBAND_PAIR = ScenarioSpec(
    rfi_kind="wideband",
    et_kind="wideband",
    noise_power=1.0,
    rfi_power=2.0,
    et_power=0.5,
    gain=0.7,
    n_samples=24,
)
NARROWBAND_PAIR = ScenarioSpec(
    rfi_kind="narrowband",
    et_kind="narrowband",
    noise_power=1.0,
    rfi_energy=48.0,
    et_energy=12.0,
    gain=0.7,
    n_samples=24,
)

WIDE_RFI_NARROW_ET = ScenarioSpec(
    rfi_kind="wideband",
    et_kind="narrowband",
    noise_power=1.0,
    rfi_power=2.0,
    et_energy=12.0,
    gain=0.7,
    n_samples=24,
)
NARROW_RFI_WIDE_ET = ScenarioSpec(
    rfi_kind="narrowband",
    et_kind="wideband",
    noise_power=1.0,
    rfi_energy=48.0,
    et_power=0.5,
    gain=0.7,
    n_samples=24,
)


class TestConcurrentChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("hyp", ["H0", "H1"])
    @pytest.mark.parametrize(
        "spec, random_phase",
        [
            (WIDEBAND_PAIR, False),
            (NARROWBAND_PAIR, False),
            (NARROWBAND_PAIR, True),
            (WIDE_RFI_NARROW_ET, True),
            (NARROW_RFI_WIDE_ET, True),
        ],
        ids=[
            "wideband",
            "narrowband",
            "narrowband-random-phase",
            "wideband-rfi-narrowband-et",
            "narrowband-rfi-wideband-et",
        ],
    )
    def test_bit_identical_to_sequential_reference(
        self, monkeypatch, spec, random_phase, hyp, workers
    ):
        trials = 2 * TRIAL_CHUNK + 17
        monkeypatch.setattr(_pool, "worker_count", lambda: workers)
        on, off = run_paired_estimates(
            spec, hyp, trials, SEED, random_phase=random_phase
        )
        ref_on, ref_off = sequential_estimates(spec, hyp, trials, SEED, random_phase)
        assert on.tobytes() == ref_on.tobytes()
        assert off.tobytes() == ref_off.tobytes()

    def test_more_workers_than_cores_with_fast_thread_switching(self, monkeypatch):
        trials = 8 * TRIAL_CHUNK + 5
        spec = WIDEBAND_PAIR
        monkeypatch.setattr(_pool, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            on, off = run_paired_estimates(spec, "H1", trials, SEED + 9)
        finally:
            sys.setswitchinterval(interval)
        ref_on, ref_off = sequential_estimates(spec, "H1", trials, SEED + 9, False)
        assert on.tobytes() == ref_on.tobytes()
        assert off.tobytes() == ref_off.tobytes()

    def test_worker_failure_propagates_and_pool_shuts_down(self, monkeypatch):
        calls = itertools.count(1)
        failure = RuntimeError("third chunk failed")
        synth = simulator._synth_pair

        def failing_third(*args, **kwargs):
            if next(calls) == 3:
                raise failure
            return synth(*args, **kwargs)

        monkeypatch.setattr(simulator, "_synth_pair", failing_third)
        monkeypatch.setattr(_pool, "worker_count", lambda: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_paired_estimates(gaussian_only(n_samples=8), "H0", 6 * TRIAL_CHUNK, SEED)
        assert info.value is failure
        assert threading.active_count() == before


class TestExponentialPowerDraw:
    @pytest.mark.parametrize(
        "spec, hyp",
        [(WIDEBAND_PAIR, "H0"), (WIDEBAND_PAIR, "H1"), (WIDE_RFI_NARROW_ET, "H0")],
        ids=["wideband-H0", "wideband-H1", "wideband-rfi-narrowband-et-H0"],
    )
    def test_chirp_free_pointings_draw_no_complex_stream(
        self, monkeypatch, spec, hyp
    ):
        def no_complex(*args, **kwargs):
            raise AssertionError("a chirp-free pointing drew a complex stream")

        monkeypatch.setattr(simulator, "_cgauss", no_complex)
        trials = TRIAL_CHUNK + 9
        on, off = run_paired_estimates(spec, hyp, trials, SEED, random_phase=True)
        assert on.shape == off.shape == (trials,)
        assert np.all(on > 0) and np.all(off > 0)

    def test_chirp_pointing_still_draws_complex_stream(self, monkeypatch):
        def no_complex(*args, **kwargs):
            raise AssertionError("complex draw")

        monkeypatch.setattr(simulator, "_cgauss", no_complex)
        with pytest.raises(AssertionError, match="complex draw"):
            run_paired_estimates(WIDE_RFI_NARROW_ET, "H1", 10, SEED)

    @pytest.mark.parametrize("steering, power", [("on", 2.9), ("off", 3.0)])
    def test_synth_stream_stays_complex(self, steering, power):
        spec = dataclasses.replace(WIDEBAND_PAIR, n_samples=200_000)
        stream = synth_stream(spec, steering, "H1", rng_state=SEED)
        assert stream.dtype == np.complex128 and stream.shape == (200_000,)
        powers = np.abs(stream) ** 2
        sem = powers.std() / np.sqrt(powers.size)
        assert abs(powers.mean() - power) < 5 * sem
        # circular: the real and imaginary parts carry half the power each
        assert abs(np.mean(stream.real**2) - power / 2) < 5 * sem


class TestMiscalibrationWall:
    def test_only_energy_detector_loses_false_alarm_control(self):
        """True noise 10% above the calibrated level at N=1024: the energy
        detector's realized false-alarm rate blows past 10× nominal while the
        two relative detectors stay within ±20%."""
        n, assumed, trials, target = 1024, 1.0, 100_000, 0.01
        truth = gaussian_only(noise_power=1.1 * assumed, n_samples=n)
        believed = gaussian_only(noise_power=assumed, n_samples=n)
        on_est, off_est = run_paired_estimates(truth, "H0", trials, SEED + 5)

        # energy threshold fixed by the assumed noise level
        t_energy = law_quantile(ScaledGamma(n, assumed / n), 1 - target)
        realized_energy = np.mean(on_est / assumed > t_energy)
        assert realized_energy > 10 * target

        # the relative detectors calibrate from their own H0 laws, which do
        # not involve the assumed level
        from setidetect import onoff_law

        t_f = law_quantile(f_ratio_law(believed, "H0"), 1 - target)
        realized_f = np.mean(on_est / off_est > t_f)
        t_oo = law_quantile(onoff_law(truth, "H0"), 1 - target)
        realized_oo = np.mean(on_est - off_est > t_oo)
        assert 0.8 * target < realized_f < 1.2 * target
        assert 0.8 * target < realized_oo < 1.2 * target


class TestSpectrogram:
    def test_zero_stream_gives_zero_matrix(self):
        out = spectrogram(np.zeros(256, dtype=complex), fft_len=64, hop=32)
        assert out.shape == (7, 64)
        assert np.all(out == 0)

    def test_pure_tone_single_constant_bin(self):
        wave = ChirpParams(amplitude=1.0, start_freq=16 / 64).waveform(192)
        out = spectrogram(wave, fft_len=64, hop=32)
        assert out.shape[0] == 5
        assert np.all(np.argmax(out, axis=1) == 16)
        assert np.allclose(out[:, 16], 64.0, rtol=1e-12)
        off_peak = np.delete(out, 16, axis=1)
        assert np.max(off_peak) < 1e-18

    def test_drifting_chirp_track(self):
        fft_len, hop, drift = 64, 16, 0.001
        wave = ChirpParams(amplitude=1.0, start_freq=0.0, drift_rate=drift).waveform(208)
        out = spectrogram(wave, fft_len=fft_len, hop=hop)
        peaks = np.argmax(out, axis=1)
        slope = drift * hop * fft_len
        # per-frame advance and the whole track stay within one bin
        assert np.all(np.abs(np.diff(peaks) - slope) <= 1.0 + 1e-9)
        predicted = peaks[0] + slope * np.arange(peaks.size)
        assert np.all(np.abs(peaks - predicted) <= 1.0 + 1e-9)

    def test_noise_bin_level_matches_power(self):
        spec = gaussian_only(noise_power=2.0, n_samples=4096)
        stream = synth_stream(spec, "on", "H0", rng_state=SEED)
        out = spectrogram(stream, fft_len=64, hop=64)
        mean_level = out.mean()
        se = 2.0 / np.sqrt(out.size)
        assert abs(mean_level - 2.0) < 5 * se

    def test_window_parameter(self):
        wave = ChirpParams(amplitude=1.0, start_freq=0.25).waveform(128)
        taper = np.hanning(64)
        out = spectrogram(wave, fft_len=64, hop=64, window=taper)
        assert out.shape == (2, 64)
        assert np.all(np.isfinite(out))
        with pytest.raises(ValueError, match="window"):
            spectrogram(wave, fft_len=64, hop=64, window=np.ones(32))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(fft_len=256, hop=16),
            dict(fft_len=0, hop=16),
            dict(fft_len=64, hop=0),
        ],
    )
    def test_rejects_bad_sizes(self, kw):
        with pytest.raises(ValueError):
            spectrogram(np.ones(128, dtype=complex), **kw)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            spectrogram(np.empty(0, dtype=complex), fft_len=4, hop=2)
