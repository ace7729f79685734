"""Overlay Monte Carlo detector statistics on their closed-form laws.

Synthesizes paired ON/OFF trials (the per-sample powers of circular
Gaussian streams) for a scenario with wideband interference seen at gain
0.9 plus a wideband signal, forms all three detector statistics, and
prints the worst disagreement between the empirical CDF and the analytic
sampling law at the law's own deciles.

Run:  python demos/law_overlay.py
"""

from __future__ import annotations

import numpy as np

from setidetect import (
    DetectorKind,
    Hypothesis,
    ScenarioSpec,
    default_assumed_noise,
    detector_laws,
    detector_stat,
    law_quantile,
    run_paired_estimates,
)

TRIALS = 50_000
SEED = 1234


def empirical_cdf(stats: np.ndarray, probes: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(stats), probes, side="right") / stats.size


def main() -> None:
    spec = ScenarioSpec(
        rfi_kind="wideband",
        et_kind="wideband",
        noise_power=1.0,
        rfi_power=2.0,
        et_power=1.5,
        gain=0.9,
        n_samples=64,
    )
    print(f"scenario: {spec.scenario_id}  gain={spec.gain}  N={spec.n_samples}")
    print(f"{TRIALS} trials per hypothesis (seeds {SEED}, {SEED + 1}), shared by the detectors")
    print()
    print(f"{'detector':<10} {'hyp':<4} {'law mean':>10} {'MC mean':>10} {'max |dCDF|':>11}")
    deciles = np.linspace(0.1, 0.9, 9)
    # one synthesis per hypothesis serves all three detectors; a seed per
    # hypothesis keeps the two samples independent
    estimates = {
        hyp: run_paired_estimates(spec, hyp, TRIALS, SEED + i)
        for i, hyp in enumerate(Hypothesis)
    }
    assumed = default_assumed_noise(spec)
    for kind in DetectorKind:
        h0, h1 = detector_laws(spec, kind)
        for hyp, law in ((Hypothesis.H0, h0), (Hypothesis.H1, h1)):
            stats = detector_stat(kind, *estimates[hyp], assumed)
            probes = np.array([law_quantile(law, p) for p in deciles])
            gap = np.max(np.abs(empirical_cdf(stats, probes) - deciles))
            mean = getattr(law, "mean", None)
            law_mean = f"{mean:10.4f}" if mean is not None else "    (n/a)"
            print(
                f"{kind.value:<10} {hyp.value:<4} {law_mean:>10} "
                f"{stats.mean():10.4f} {gap:11.5f}"
            )
    se = np.sqrt(0.25 / TRIALS)
    print()
    print(f"binomial scale at a decile: one sigma ~ {se:.5f}")


if __name__ == "__main__":
    main()
