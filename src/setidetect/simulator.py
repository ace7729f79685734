"""Complex-baseband synthesis and seeded Monte Carlo trials.

Streams are built per scenario: circular Gaussian noise, plus wideband
components as independent Gaussians of the configured powers and narrowband
components as deterministic chirps.  A sum of independent circular
Gaussians is one circular Gaussian of the summed power, so each pointing's
noise and wideband components are drawn as a single CN(0, total power)
stream: noise + g·interference (+ signal under H1) on ON, noise +
interference on OFF.  The narrowband interference waveform is common to both
pointings (scaled by √g on the ON stream); the Gaussian draws are
independent between ON and OFF.

The Monte Carlo trials need only each sample's power |x[k]|².  For a
CN(0, p) sample that is exactly p·Exp(1), so a pointing that carries no
chirp draws its N per-sample powers directly as scaled standard
exponentials, half the variates of the complex stream and no complex
buffer.  A pointing that carries a chirp draws the complex stream, adds the
waveform and takes |x|², because there the chirp's frequency, drift and
phase shape the sum.  `synth_stream` always returns the complex stream.

Trials are chunked: trial i belongs to chunk i // TRIAL_CHUNK, and chunk c
draws from its own generator spawned from the seed, so results are fully
determined by (seed, spec, hypothesis) and independent of scheduling or the
requested trial count (a shorter run is a prefix of a longer one).  Chunks
are synthesized concurrently on a thread pool, one thread per available
CPU (NumPy's generators and ufuncs release the GIL); each writes only its
own slice of the estimates, so the output is also independent of the
number of workers and of how the trial count splits into chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._pool import ordered_map
from .distributions import _as_generator
from .scenario import (
    DetectorKind,
    EtKind,
    Hypothesis,
    RfiKind,
    ScenarioSpec,
    default_assumed_noise,
)

__all__ = [
    "ChirpParams",
    "Steering",
    "TrialBatch",
    "default_chirps",
    "detector_stat",
    "power_estimate",
    "run_paired_estimates",
    "run_trials",
    "spectrogram",
    "synth_stream",
]

#: Trials per RNG chunk; fixed so that results never depend on scheduling.
TRIAL_CHUNK = 2048

# Default carriers sit 1/8 cycle/sample apart, so the two tones are exactly
# orthogonal over any frame length divisible by 8 and their energies add
# with no cross term -- the additivity the analytic laws assume.
_DEFAULT_RFI_FREQ = 0.125
_DEFAULT_ET_FREQ = 0.25


class Steering(str, Enum):
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class ChirpParams:
    """Deterministic complex exponential with linear frequency drift.

    Instantaneous frequency at sample n is start_freq + drift_rate·n
    (cycles/sample), so the energy over N samples is N·amplitude².
    """

    amplitude: float
    start_freq: float
    drift_rate: float = 0.0
    phase0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError("amplitude must be non-negative")
        for name in ("start_freq", "drift_rate", "phase0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def waveform(self, n_samples: int) -> np.ndarray:
        k = np.arange(int(n_samples))
        phase = self.phase0 + 2.0 * np.pi * (
            self.start_freq * k + 0.5 * self.drift_rate * k**2
        )
        return self.amplitude * np.exp(1j * phase)


@dataclass(eq=False)
class TrialBatch:
    """Detector statistics from `trials` synthesized ON/OFF stream pairs."""

    detector: DetectorKind
    hyp: Hypothesis
    stats: np.ndarray
    seed: int
    spec: ScenarioSpec


def default_chirps(spec: ScenarioSpec) -> tuple[ChirpParams | None, ChirpParams | None]:
    """(signal chirp, interference chirp) with amplitudes matching the
    scenario energies; None for each non-narrowband kind."""
    chirp_et = None
    chirp_rfi = None
    if spec.et_kind is EtKind.NARROWBAND:
        chirp_et = ChirpParams(
            amplitude=float(np.sqrt(spec.et_energy / spec.n_samples)),
            start_freq=_DEFAULT_ET_FREQ,
        )
    if spec.rfi_kind is RfiKind.NARROWBAND:
        chirp_rfi = ChirpParams(
            amplitude=float(np.sqrt(spec.rfi_energy / spec.n_samples)),
            start_freq=_DEFAULT_RFI_FREQ,
        )
    return chirp_et, chirp_rfi


def _check_chirps(spec: ScenarioSpec, chirp_et, chirp_rfi):
    if (spec.et_kind is EtKind.NARROWBAND) != (chirp_et is not None):
        raise ValueError("chirp_et is required iff the signal kind is narrowband")
    if (spec.rfi_kind is RfiKind.NARROWBAND) != (chirp_rfi is not None):
        raise ValueError("chirp_rfi is required iff the interference kind is narrowband")


def _cgauss(rng: np.random.Generator, m: int, n: int, power: float) -> np.ndarray:
    """(m, n) i.i.d. CN(0, power) samples: variance power/2 per real part."""
    z = rng.standard_normal((m, 2 * n)).view(np.complex128)
    z *= np.sqrt(power / 2.0)
    return z


def _gaussian_powers(spec: ScenarioSpec, hyp: Hypothesis) -> tuple[float, float]:
    """(ON, OFF) power of each pointing's circular Gaussian part: noise +
    g·interference (+ signal under H1) on ON, noise + interference on OFF,
    counting only the wideband components."""
    p_on = p_off = spec.noise_power
    if spec.rfi_kind is RfiKind.WIDEBAND:
        p_on += spec.gain * spec.rfi_power
        p_off += spec.rfi_power
    if hyp is Hypothesis.H1 and spec.et_kind is EtKind.WIDEBAND:
        p_on += spec.et_power
    return p_on, p_off


def _add_chirps(spec, hyp, on, off, rng, chirp_et, chirp_rfi, random_phase):
    """Add the narrowband components to the (m, N) complex streams in place,
    drawing the random phases in order: interference, then signal.  OFF is
    touched only when the interference is narrowband."""
    n = spec.n_samples
    m = on.shape[0]
    if spec.rfi_kind is RfiKind.NARROWBAND:
        wave = chirp_rfi.waveform(n)[None, :]
        if random_phase:
            # one transmitter: the same phase reaches both pointings
            wave = wave * np.exp(2j * np.pi * rng.random((m, 1)))
        off += wave
        wave *= np.sqrt(spec.gain)
        on += wave
    if hyp is Hypothesis.H1 and spec.et_kind is EtKind.NARROWBAND:
        wave = chirp_et.waveform(n)[None, :]
        if random_phase:
            wave = wave * np.exp(2j * np.pi * rng.random((m, 1)))
        on += wave


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|² with one float temporary."""
    p = np.abs(x)
    np.square(p, out=p)
    return p


def _exp_powers(rng: np.random.Generator, m: int, n: int, power: float) -> np.ndarray:
    """(m, n) i.i.d. powers |x|² of CN(0, power) samples: power·Exp(1)."""
    e = rng.standard_exponential((m, n))
    # huge powers overflow to inf; run_experiment rejects such estimates
    with np.errstate(over="ignore"):
        e *= power
    return e


def _synth_pair(
    spec: ScenarioSpec,
    hyp: Hypothesis,
    m: int,
    rng: np.random.Generator,
    chirp_et,
    chirp_rfi,
    random_phase: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(m, N) ON and OFF per-sample powers |x[k]|²; fixed draw order for
    reproducibility: ON, OFF, then the interference and signal chirp phases.

    Each pointing's Gaussian part is one CN(0, p) draw (`_gaussian_powers`).
    A pointing without a chirp takes its powers as p·Exp(1) in its slot,
    the exact law of |x|² of such a sample.  A pointing with one (OFF when
    the interference is narrowband; ON then, or under H1 with a narrowband
    signal) takes the complex draw in its slot, gets the waveform added and
    returns |x|²."""
    n = spec.n_samples
    p_on, p_off = _gaussian_powers(spec, hyp)
    chirp_off = spec.rfi_kind is RfiKind.NARROWBAND
    chirp_on = chirp_off or (
        hyp is Hypothesis.H1 and spec.et_kind is EtKind.NARROWBAND
    )
    on = _cgauss(rng, m, n, p_on) if chirp_on else _exp_powers(rng, m, n, p_on)
    off = _cgauss(rng, m, n, p_off) if chirp_off else _exp_powers(rng, m, n, p_off)
    if chirp_on:
        _add_chirps(spec, hyp, on, off, rng, chirp_et, chirp_rfi, random_phase)
        on = _abs2(on)
        if chirp_off:
            off = _abs2(off)
    return on, off


def synth_stream(
    spec: ScenarioSpec,
    steering,
    hyp,
    chirp_et: ChirpParams | None = None,
    chirp_rfi: ChirpParams | None = None,
    rng_state=None,
) -> np.ndarray:
    """One length-N complex stream for the given pointing and hypothesis.

    Narrowband kinds require their chirp parameters; the signal appears only
    on the ON stream under H1, and interference amplitude is scaled by √g on
    the ON stream.
    """
    steering = Steering(steering)
    hyp = Hypothesis(hyp)
    _check_chirps(spec, chirp_et, chirp_rfi)
    rng = _as_generator(rng_state)
    n = spec.n_samples
    p_on, p_off = _gaussian_powers(spec, hyp)
    on, off = _cgauss(rng, 1, n, p_on), _cgauss(rng, 1, n, p_off)
    _add_chirps(spec, hyp, on, off, rng, chirp_et, chirp_rfi, random_phase=False)
    return on[0] if steering is Steering.ON else off[0]


def power_estimate(stream) -> float:
    """Mean power (1/N)Σ|x[k]|² of a non-empty sample stream."""
    arr = np.asarray(stream)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("power_estimate expects a non-empty 1-d stream")
    return float(np.mean(np.abs(arr) ** 2))


def detector_stat(kind, on_est, off_est=None, assumed_noise=None):
    """One detector statistic from paired power estimates.

    f_ratio → on/off (off must be positive); on_off → on − off;
    energy → on/assumed_noise (the OFF estimate is unused).
    Accepts scalars or arrays.
    """
    kind = DetectorKind(kind)
    on_arr = np.asarray(on_est, dtype=float)
    if np.any(on_arr < 0):
        raise ValueError("on_est must be non-negative")
    if kind is DetectorKind.ENERGY:
        if assumed_noise is None or not (
            np.isfinite(assumed_noise) and assumed_noise > 0
        ):
            raise ValueError("the energy detector needs a positive assumed_noise")
        out = on_arr / float(assumed_noise)
    else:
        if off_est is None:
            raise ValueError(f"{kind.value} needs an OFF estimate")
        off_arr = np.asarray(off_est, dtype=float)
        if kind is DetectorKind.F_RATIO:
            if np.any(off_arr <= 0):
                raise ValueError("f_ratio is undefined for a non-positive OFF estimate")
            with np.errstate(over="ignore"):  # a ratio beyond the float range is inf
                out = on_arr / off_arr
        else:
            out = on_arr - off_arr
    if np.ndim(on_est) == 0 and np.ndim(out) == 0:
        return float(out)
    return out


def run_paired_estimates(
    spec: ScenarioSpec,
    hyp,
    trials: int,
    seed: int,
    chirp_et: ChirpParams | None = None,
    chirp_rfi: ChirpParams | None = None,
    random_phase: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(ON, OFF) mean-power estimates over `trials` independent stream pairs.

    Each estimate averages the N per-sample powers of one pointing
    (`_synth_pair`): scaled exponentials for a chirp-free pointing, |x|² of
    the complex stream for one with a chirp.  Chirps default to the scenario
    energies (see `default_chirps`); passing explicit ones overrides
    frequency and drift without touching the law.  H0 and H1 runs with one
    seed start from the same generator states, so their estimates are
    coupled; give each hypothesis its own seed for independent samples.
    """
    hyp = Hypothesis(hyp)
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    d_et, d_rfi = default_chirps(spec)
    chirp_et = chirp_et if chirp_et is not None else d_et
    chirp_rfi = chirp_rfi if chirp_rfi is not None else d_rfi
    _check_chirps(spec, chirp_et, chirp_rfi)

    n_chunks = (trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    on_est = np.empty(trials)
    off_est = np.empty(trials)

    def chunk(c: int) -> None:
        lo = c * TRIAL_CHUNK
        m = min(TRIAL_CHUNK, trials - lo)
        rng = np.random.default_rng(children[c])
        # always synthesize the full chunk so shorter runs are prefixes
        on, off = _synth_pair(
            spec, hyp, TRIAL_CHUNK, rng, chirp_et, chirp_rfi, random_phase
        )
        # huge powers overflow to inf; run_experiment rejects such estimates
        with np.errstate(over="ignore"):
            on_est[lo : lo + m] = on[:m].mean(axis=1)
            off_est[lo : lo + m] = off[:m].mean(axis=1)

    ordered_map(chunk, range(n_chunks))
    return on_est, off_est


def run_trials(
    spec: ScenarioSpec,
    kind,
    hyp,
    trials: int,
    seed: int,
    assumed_noise: float | None = None,
    chirp_et: ChirpParams | None = None,
    chirp_rfi: ChirpParams | None = None,
    random_phase: bool = False,
) -> TrialBatch:
    """Monte Carlo detector statistics over freshly synthesized stream pairs.

    Deterministic in (seed, spec, kind, hyp): statistics for the same seed
    are identical run to run, and the energy detector's reference level
    defaults to the calibrated H0 mean of the scenario.
    """
    kind = DetectorKind(kind)
    hyp = Hypothesis(hyp)
    on_est, off_est = run_paired_estimates(
        spec, hyp, trials, seed, chirp_et, chirp_rfi, random_phase
    )
    if kind is DetectorKind.ENERGY and assumed_noise is None:
        assumed_noise = default_assumed_noise(spec)
    stats = detector_stat(kind, on_est, off_est, assumed_noise)
    return TrialBatch(detector=kind, hyp=hyp, stats=stats, seed=int(seed), spec=spec)


def spectrogram(stream, fft_len: int, hop: int, window=None) -> np.ndarray:
    """Magnitude-squared short-time Fourier transform, frames × bins.

    Rectangular window by default; pass an `fft_len`-long taper to change
    it.  Power is normalized by fft_len so that white noise of per-sample
    power σ² averages to σ² in every bin and a unimodular tone of amplitude
    a peaks at fft_len·a².
    """
    arr = np.asarray(stream)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("spectrogram expects a non-empty 1-d stream")
    fft_len = int(fft_len)
    hop = int(hop)
    if fft_len < 1 or fft_len > arr.size:
        raise ValueError("fft_len must satisfy 1 <= fft_len <= len(stream)")
    if hop < 1:
        raise ValueError("hop must be a positive integer")
    frames = np.lib.stride_tricks.sliding_window_view(arr, fft_len)[::hop]
    if window is not None:
        window = np.asarray(window, dtype=float)
        if window.shape != (fft_len,):
            raise ValueError("window must have length fft_len")
        frames = frames * window
    return np.abs(np.fft.fft(frames, axis=1)) ** 2 / fft_len
