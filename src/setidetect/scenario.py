"""Data-model parameterization and the map from scenarios to sampling laws.

A scenario pairs one interference model (wideband Gaussian, narrowband
deterministic, or none) with one signal model (wideband Gaussian or
narrowband chirp) over a window of N complex samples.  The ON stream sees
interference through a power gain g relative to the OFF stream and, under
H1, also the signal; the OFF stream never carries signal.

Wideband components raise a pointing's Gaussian power p; narrowband
components, the default chirps of the two carriers below, make up its
deterministic energy E.  Each pointing's mean power is then exactly
p/(2N)·χ²_{2N}(2E/p).  `_pointing_components` keeps that bookkeeping for
ON and OFF, for the laws here and for the simulator's draws alike.  ON's E
includes the interference–signal cross term 2√g·Re C, where C is the sum
of the interference chirp times the conjugate signal chirp.

`detector_laws` turns those components into one ON/OFF pair of estimate
laws per hypothesis; the OFF law is the same object under H0 and H1.  Every
detector law follows from the pair:

* F-ratio — the ratio law of the two power estimates.
* ON−OFF — the difference law of the two power estimates.
* Energy — the ON estimate divided by an assumed noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .distributions import FLaw, GammaDifference, Law, _estimate

__all__ = [
    "DetectorKind",
    "EtKind",
    "Hypothesis",
    "RfiKind",
    "ScenarioSpec",
    "default_assumed_noise",
    "detector_laws",
]


class RfiKind(str, Enum):
    WIDEBAND = "wideband"
    NARROWBAND = "narrowband"
    NONE = "none"


class EtKind(str, Enum):
    WIDEBAND = "wideband"
    NARROWBAND = "narrowband"


class Hypothesis(str, Enum):
    H0 = "H0"
    H1 = "H1"


class DetectorKind(str, Enum):
    F_RATIO = "f_ratio"
    ON_OFF = "on_off"
    ENERGY = "energy"


@dataclass(frozen=True)
class ScenarioSpec:
    """Physical parameters of one interference × signal data model.

    Powers are per-sample variances of zero-mean complex Gaussian parts;
    energies are totals over the N-sample window of deterministic parts.
    Exactly one of rfi_power/rfi_energy may be nonzero, matching rfi_kind,
    and the same for the signal fields; `gain` is the ON/OFF interference
    power ratio g = |ε|².
    """

    rfi_kind: RfiKind
    et_kind: EtKind
    noise_power: float
    rfi_power: float = 0.0
    rfi_energy: float = 0.0
    et_power: float = 0.0
    et_energy: float = 0.0
    gain: float = 1.0
    n_samples: int = 64

    def __post_init__(self):
        object.__setattr__(self, "rfi_kind", RfiKind(self.rfi_kind))
        object.__setattr__(self, "et_kind", EtKind(self.et_kind))
        # zero noise is allowed for signal-only synthesis (e.g. clean
        # spectrogram demos); the laws themselves require positive power
        # and raise when built from a degenerate scenario
        if not (np.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError("noise_power must be non-negative")
        for name in ("rfi_power", "rfi_energy", "et_power", "et_energy", "gain"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be non-negative")
        n = self.n_samples
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError("n_samples must be a positive integer")
        object.__setattr__(self, "n_samples", int(n))
        if self.rfi_kind is RfiKind.WIDEBAND and self.rfi_energy != 0:
            raise ValueError("wideband interference carries rfi_power, not rfi_energy")
        if self.rfi_kind is RfiKind.NARROWBAND and self.rfi_power != 0:
            raise ValueError("narrowband interference carries rfi_energy, not rfi_power")
        if self.rfi_kind is RfiKind.NONE and (self.rfi_power != 0 or self.rfi_energy != 0):
            raise ValueError("an interference-free scenario must have zero rfi fields")
        if self.et_kind is EtKind.WIDEBAND and self.et_energy != 0:
            raise ValueError("a wideband signal carries et_power, not et_energy")
        if self.et_kind is EtKind.NARROWBAND and self.et_power != 0:
            raise ValueError("a narrowband signal carries et_energy, not et_power")

    def snr(self) -> float:
        """Signal-to-noise power ratio; narrowband energy counts per sample."""
        if self.et_kind is EtKind.WIDEBAND:
            level = self.et_power
        else:
            level = self.et_energy / self.n_samples
        if self.noise_power == 0:
            return float("inf") if level > 0 else 0.0
        return level / self.noise_power

    def inr(self) -> float:
        """Interference-to-noise power ratio on the OFF stream (g = 1 side)."""
        if self.rfi_kind is RfiKind.WIDEBAND:
            level = self.rfi_power
        elif self.rfi_kind is RfiKind.NARROWBAND:
            level = self.rfi_energy / self.n_samples
        else:
            return 0.0
        if self.noise_power == 0:
            return float("inf") if level > 0 else 0.0
        return level / self.noise_power

    @property
    def scenario_id(self) -> str:
        return f"rfi-{self.rfi_kind.value}_et-{self.et_kind.value}"

    def with_gain(self, gain: float) -> "ScenarioSpec":
        return replace(self, gain=float(gain))


# Carriers of the default chirps, in cycles/sample (phase 0).  They sit 1/8
# cycle/sample apart, so Re C = √(E_rfi·E_et)/N · Σ_{k<N} cos(πk/4), and that
# sum repeats every 8 samples: exactly 0 at N ≡ 0 and 5 (mod 8).
_DEFAULT_RFI_FREQ = 0.125
_DEFAULT_ET_FREQ = 0.25
_SQRT_HALF = math.sqrt(0.5)
_COS_SUMS = (  # by N mod 8
    0.0, 1.0, 1.0 + _SQRT_HALF, 1.0 + _SQRT_HALF, 1.0, 0.0, -_SQRT_HALF, -_SQRT_HALF
)


def _pointing_components(
    spec: ScenarioSpec, hyp: Hypothesis
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((Gaussian power, deterministic energy) of ON, the same of OFF).

    ON sees noise + g·interference (+ the signal under H1); OFF sees noise
    + interference.  With both default chirps on ON, its energy carries the
    cross term 2√g·Re C.
    """
    p_on = p_off = spec.noise_power
    e_on = e_off = 0.0
    if spec.rfi_kind is RfiKind.WIDEBAND:
        p_on += spec.gain * spec.rfi_power
        p_off += spec.rfi_power
    elif spec.rfi_kind is RfiKind.NARROWBAND:
        e_on += spec.gain * spec.rfi_energy
        e_off += spec.rfi_energy
    if hyp is Hypothesis.H1 and spec.et_kind is EtKind.WIDEBAND:
        p_on += spec.et_power
    elif hyp is Hypothesis.H1:
        e_on += spec.et_energy
        cos_sum = _COS_SUMS[spec.n_samples % 8]
        # 2√g·Re C; a sum that has overflowed stays inf
        if spec.rfi_kind is RfiKind.NARROWBAND and cos_sum and e_on < math.inf:
            amplitudes = math.sqrt(spec.gain * spec.rfi_energy) * math.sqrt(spec.et_energy)
            # clamped at 0 against rounding
            e_on = max(e_on + 2.0 * cos_sum / spec.n_samples * amplitudes, 0.0)
    return (p_on, e_on), (p_off, e_off)


def default_assumed_noise(spec: ScenarioSpec) -> float:
    """Calibrated reference level of the energy detector: the mean ON
    estimate with no signal present."""
    (power, energy), _ = _pointing_components(spec, Hypothesis.H0)
    return _estimate(spec.n_samples, power, energy).mean


def detector_laws(
    spec: ScenarioSpec, kind, assumed_noise: float | None = None
) -> tuple[Law, Law]:
    """(H0 law, H1 law) of a detector statistic for one scenario.

    Each hypothesis pairs its ON estimate law with the one OFF law, which
    the H0 and H1 laws share: f_ratio is their ratio (`FLaw`), on_off their
    difference (`GammaDifference`).  energy is the ON estimate divided by an
    assumed noise level; scaling a mean-power law by 1/c keeps its family,
    with power and energy both divided by c.  The level defaults to the
    calibrated H0 mean (`default_assumed_noise`); pass an explicit value to
    model miscalibration.
    """
    kind = DetectorKind(kind)
    n = spec.n_samples
    (on_h0, off), (on_h1, _) = (_pointing_components(spec, hyp) for hyp in Hypothesis)
    if kind is DetectorKind.ENERGY:
        c = default_assumed_noise(spec) if assumed_noise is None else assumed_noise
        if not (np.isfinite(c) and c > 0):
            raise ValueError("assumed_noise must be a positive real")
        return tuple(_estimate(n, p / c, e / c) for p, e in (on_h0, on_h1))
    on_h0, off, on_h1 = (_estimate(n, p, e) for p, e in (on_h0, off, on_h1))
    pair = FLaw if kind is DetectorKind.F_RATIO else GammaDifference
    return pair(on_h0, off), pair(on_h1, off)
