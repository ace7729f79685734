"""Sweep the ON/OFF interference gain and compare detector robustness.

The paired detectors only stay calibrated when the interference couples
into both steering positions equally (gain 1).  This sweep re-solves the
analytic AUC at several gains and reports each detector's AUC alongside
its drift from the matched-gain baseline: the ratio detector rides on the
Gaussian power ratio, so its AUC moves more with gain than the difference
detector's, whose mean merely shifts by (g - 1) times the interference
power.

Run:  python demos/gain_mismatch_sweep.py
"""

from __future__ import annotations

from setidetect import DetectorKind, ScenarioSpec, compare_detectors

GAINS = [0.8, 0.9, 1.0, 1.1, 1.25]


def main() -> None:
    spec = ScenarioSpec(
        rfi_kind="wideband",
        et_kind="wideband",
        noise_power=1.0,
        rfi_power=2.0,
        et_power=1.0,
        n_samples=64,
    )
    print(
        f"scenario: {spec.scenario_id}  INR={spec.inr():.1f}x  "
        f"SNR={spec.snr():.1f}x  N={spec.n_samples}"
    )
    rows = compare_detectors(spec, GAINS)
    print()
    print(f"{'gain':>6} {'detector':<10} {'AUC':>9} {'AUC - AUC(g=1)':>15}")
    for row in rows:
        print(f"{row.gain:6.2f} {row.detector.value:<10} {row.auc:9.5f} {row.auc_delta:+15.5f}")
    print()
    for kind in (DetectorKind.F_RATIO, DetectorKind.ON_OFF):
        deltas = [abs(r.auc_delta) for r in rows if r.detector is kind]
        print(f"{kind.value:<10} worst |AUC drift| over the sweep: {max(deltas):.5f}")


if __name__ == "__main__":
    main()
