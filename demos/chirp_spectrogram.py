"""Render a drifting chirp's spectrogram ridge in noise.

Synthesizes a unit-amplitude linear chirp embedded in complex white noise
of equal per-sample power, computes the short-time power spectrogram, and
prints the per-frame peak bin as an ASCII ridge.  The peak advances by
(drift x hop x fft length) bins per frame.  The full matrix is also
written as a CSV, one frame per row, for spreadsheet inspection.

Run:  python demos/chirp_spectrogram.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from setidetect import ChirpParams, Hypothesis, ScenarioSpec, spectrogram, synth_stream

FFT_LEN = 64
HOP = 32
N_FRAMES = 12
CHIRP = ChirpParams(amplitude=1.0, start_freq=0.1, drift_rate=0.001)
OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    n = FFT_LEN + (N_FRAMES - 1) * HOP
    spec = ScenarioSpec(
        rfi_kind="none",
        et_kind="narrowband",
        noise_power=1.0,
        et_energy=float(n),  # unit amplitude over the stream
        n_samples=n,
    )
    stream, _ = synth_stream(
        spec,
        Hypothesis.H1,
        chirp_et=CHIRP,
        rng_state=np.random.default_rng(7),
    )
    sxx = spectrogram(stream, FFT_LEN, HOP)
    peaks = np.argmax(sxx, axis=1)
    slope = CHIRP.drift_rate * HOP * FFT_LEN
    print(
        f"chirp f0={CHIRP.start_freq} drift={CHIRP.drift_rate}/sample, "
        f"fft={FFT_LEN} hop={HOP}: expected ridge slope {slope:.3f} bins/frame"
    )
    print()
    for i, row in enumerate(sxx):
        bar = ["."] * FFT_LEN
        bar[peaks[i]] = "#"
        print(f"frame {i:2d} |{''.join(bar)}| peak bin {peaks[i]:2d}  power {row[peaks[i]]:6.1f}")
    print()
    print(f"peak advance per frame: {np.diff(peaks)} (expected ~{slope:.2f})")

    OUT.mkdir(exist_ok=True)
    csv = OUT / "chirp_spectrogram.csv"
    csv.write_text("".join(",".join(map(repr, row)) + "\n" for row in sxx.tolist()))
    print(f"full matrix written to {csv}")


if __name__ == "__main__":
    main()
