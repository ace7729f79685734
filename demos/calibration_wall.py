"""Show what a miscalibrated noise level does to each detector's false alarms.

Every threshold below is set from the *believed* signal-free model (noise
power 1.0) at a 1% false-alarm target, then evaluated against the *true*
model whose noise runs 10% hot.  The absolute energy detector blows
through its budget by almost two orders of magnitude, the ON-OFF
difference detector inflates moderately, and the ratio detector is exactly
invariant: scaling both streams' power rescales numerator and denominator
together, so its H0 law never moves.  A Monte Carlo run on the true model
confirms the analytic rates.

Run:  python demos/calibration_wall.py
"""

from __future__ import annotations

import numpy as np

from setidetect import (
    DetectorKind,
    Hypothesis,
    ScenarioSpec,
    detector_laws,
    detector_stat,
    law_quantile,
    run_paired_estimates,
)

TARGET_PFA = 0.01
N = 1024
TRIALS = 200_000
SEED = 99


def main() -> None:
    base = dict(rfi_kind="none", et_kind="wideband", n_samples=N)
    believed = ScenarioSpec(noise_power=1.0, **base)
    truth = ScenarioSpec(noise_power=1.1, **base)
    assumed = 1.0  # the energy detector references the believed level

    print(f"believed noise 1.0, true noise 1.1, N={N}, target pfa {TARGET_PFA}")
    print()
    print(f"{'detector':<10} {'threshold':>10} {'realized pfa':>13} {'MC pfa':>9}")
    # one synthesis serves all three detectors
    on_est, off_est = run_paired_estimates(truth, Hypothesis.H0, TRIALS, SEED)
    for kind in DetectorKind:
        h0_believed, _ = detector_laws(believed, kind, assumed)
        h0_truth, _ = detector_laws(truth, kind, assumed)
        t = law_quantile(h0_believed, 1.0 - TARGET_PFA)
        realized = 1.0 - float(h0_truth.cdf(t))
        stats = detector_stat(kind, on_est, off_est, assumed)
        mc = float(np.mean(stats > t))
        print(f"{kind.value:<10} {t:10.5f} {realized:13.5f} {mc:9.5f}")
    se = np.sqrt(TARGET_PFA * (1 - TARGET_PFA) / TRIALS)
    print()
    print(f"MC binomial sigma near the target: {se:.5f} ({TRIALS} trials)")


if __name__ == "__main__":
    main()
