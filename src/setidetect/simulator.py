"""Complex-baseband synthesis and seeded Monte Carlo trials.

Streams are built per scenario: circular Gaussian noise, plus wideband
components as independent Gaussians of the configured powers and narrowband
components as deterministic chirps.  A sum of independent circular
Gaussians is one circular Gaussian of the summed power, so each pointing's
noise and wideband components form a single CN(0, p) stream: p is noise +
g·interference (+ signal under H1) on ON, noise + interference on OFF.  The
narrowband interference waveform is common to both pointings (scaled by √g
on the ON stream); the Gaussian parts are independent between ON and OFF.
`synth_stream` returns such a complex stream, for any chirps.

The Monte Carlo trials need only each pointing's mean power
(1/N)Σ|x[k] + s[k]|², where x[k] ~ CN(0, p) and s is the pointing's chirp
sum of energy E = Σ|s[k]|².  That mean is exactly p/(2N)·χ²_{2N}(2E/p), so
every pointing draws it as one noncentral χ² variate per trial and no
stream is synthesized.  p and E come from `scenario._pointing_components`,
the function the laws read too, for the default chirps (`default_chirps`);
ON's E includes the interference–signal cross term.

Trials are chunked: trial i belongs to chunk i // TRIAL_CHUNK, and chunk c
draws from its own generator spawned from the seed, so results are fully
determined by (seed, spec, hypothesis) and independent of the requested
trial count (a shorter run is a prefix of a longer one).  Chunks are
drawn one after another on the calling thread: one variate per pointing
and trial costs too little to pay for threads, and callers that run many
points side by side (the CLI) keep their own pool unnested.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import _as_generator
from .scenario import (
    _DEFAULT_ET_FREQ,
    _DEFAULT_RFI_FREQ,
    DetectorKind,
    EtKind,
    Hypothesis,
    RfiKind,
    ScenarioSpec,
    _pointing_components,
)

__all__ = [
    "ChirpParams",
    "Steering",
    "default_chirps",
    "detector_stat",
    "power_estimate",
    "run_paired_estimates",
    "spectrogram",
    "synth_stream",
]

#: Trials per RNG chunk; fixed so that results never depend on scheduling.
TRIAL_CHUNK = 2048


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


def default_chirps(spec: ScenarioSpec) -> tuple[ChirpParams | None, ChirpParams | None]:
    """(signal chirp, interference chirp) with amplitudes matching the
    scenario energies; None for each non-narrowband kind.  These are the
    chirps the laws and the Monte Carlo draws model."""
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


def _cgauss(rng: np.random.Generator, n: int, power: float) -> np.ndarray:
    """n i.i.d. CN(0, power) samples: variance power/2 per real part."""
    z = rng.standard_normal(2 * n).view(np.complex128)
    z *= np.sqrt(power / 2.0)
    return z


def _mean_powers(rng: np.random.Generator, m: int, n: int, power: float, energy: float):
    """(m,) means of n powers |x[k] + s[k]|², x[k] ~ CN(0, power) and s a
    deterministic part of energy `energy`: exactly
    power/(2n)·χ²_{2n}(2·energy/power).  Where 2·energy/power is infinite
    (no Gaussian power, or too little to register) the mean is energy/n; the
    variate is drawn all the same, to keep the draw order."""
    nonc = 2.0 * energy / power if power > 0 else np.inf
    if not np.isfinite(nonc):
        rng.noncentral_chisquare(2 * n, 0.0, m)
        return np.full(m, energy / n)
    x = rng.noncentral_chisquare(2 * n, nonc, m)
    x *= power / (2 * n)
    return x


def _synth_pair(
    spec: ScenarioSpec, hyp: Hypothesis, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(m,) ON and OFF mean powers (1/N)Σ|x[k]|², each one
    p/(2N)·χ²_{2N}(2E/p) variate per trial (`_mean_powers`), with p and E
    from `_pointing_components`.  ON draws first, then OFF."""
    n = spec.n_samples
    # huge gains, energies or powers overflow to inf; run_experiment rejects
    # such estimates
    with np.errstate(over="ignore"):
        (p_on, e_on), (p_off, e_off) = _pointing_components(spec, hyp)
        on = _mean_powers(rng, m, n, p_on, e_on)
        off = _mean_powers(rng, m, n, p_off, e_off)
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
    the ON stream.  Any chirps are accepted here, but the laws model only
    those of `default_chirps`.
    """
    steering = Steering(steering)
    hyp = Hypothesis(hyp)
    _check_chirps(spec, chirp_et, chirp_rfi)
    rng = _as_generator(rng_state)
    n = spec.n_samples
    (p_on, _), (p_off, _) = _pointing_components(spec, hyp)
    on, off = _cgauss(rng, n, p_on), _cgauss(rng, n, p_off)
    if spec.rfi_kind is RfiKind.NARROWBAND:
        wave = chirp_rfi.waveform(n)
        off += wave
        on += np.sqrt(spec.gain) * wave
    if hyp is Hypothesis.H1 and spec.et_kind is EtKind.NARROWBAND:
        on += chirp_et.waveform(n)
    return on if steering is Steering.ON else off


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
    spec: ScenarioSpec, hyp, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ON, OFF) mean-power estimates over `trials` independent stream pairs.

    Each estimate is the mean of one pointing's N per-sample powers, drawn
    whole as one p/(2N)·χ²_{2N}(2E/p) variate (`_synth_pair`): p is the
    pointing's Gaussian power and E the energy of its default chirps
    (`default_chirps`), with the interference–signal cross term on ON; the
    laws of `scenario` are built from the same p and E.  H0 and H1 runs
    with one seed start from the same generator states, so their estimates
    are coupled; give each hypothesis its own seed for independent samples.
    """
    hyp = Hypothesis(hyp)
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")

    n_chunks = (trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK
    on_est = np.empty(trials)
    off_est = np.empty(trials)
    for c, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        lo = c * TRIAL_CHUNK
        m = min(TRIAL_CHUNK, trials - lo)
        rng = np.random.default_rng(child)
        # always synthesize the full chunk so shorter runs are prefixes
        on, off = _synth_pair(spec, hyp, TRIAL_CHUNK, rng)
        on_est[lo : lo + m] = on[:m]
        off_est[lo : lo + m] = off[:m]
    return on_est, off_est


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
