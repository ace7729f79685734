"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single ``CRITERION n: PASS/FAIL`` line (visible with
``pytest -s``, or in the captured output of a failing test) and asserts the
same condition, so the ``pytest -v`` status column doubles as the report.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from setidetect import (
    DetectorKind,
    GammaDifference,
    Hypothesis,
    NoncentralChi2C,
    ScaledGamma,
    ScenarioSpec,
    compare_detectors,
    default_assumed_noise,
    detector_laws,
    detector_stat,
    energy_law,
    f_ratio_law,
    law_quantile,
    law_sample,
    onoff_law,
    pd_pfa,
    roc_curve,
    run_paired_estimates,
    threshold_for_pfa,
)
from f_table import f_table
from setidetect.cli import _ks_bound, main


pytestmark = pytest.mark.acceptance

BASE_SEED = 20260816


def report(number: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:02d}: {state} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def scenario(rfi_kind: str, et_kind: str, n: int, *, gain: float = 0.9,
             level: float = 1.0) -> ScenarioSpec:
    """Data model with unit noise and interference/signal at `level` times
    the noise (narrowband kinds get the per-sample-equivalent energy)."""
    kw = {}
    if rfi_kind == "wideband":
        kw["rfi_power"] = level
    elif rfi_kind == "narrowband":
        kw["rfi_energy"] = level * n
    if et_kind == "wideband":
        kw["et_power"] = level
    else:
        kw["et_energy"] = level * n
    return ScenarioSpec(
        rfi_kind=rfi_kind,
        et_kind=et_kind,
        noise_power=1.0,
        gain=gain,
        n_samples=n,
        **kw,
    )


def test_criterion_01_matrix_of_laws_matches_synthesis():
    """Every scenario × detector × hypothesis cell: analytic law vs 10⁵
    full-pipeline Monte Carlo statistics, KS < 0.01, under 5 minutes."""
    start = time.monotonic()
    cells = []
    combos = [
        ("wideband", "wideband", 64),
        ("wideband", "narrowband", 64),
        ("narrowband", "wideband", 1024),
        ("narrowband", "narrowband", 1024),
    ]
    for index, (rfi_kind, et_kind, n) in enumerate(combos):
        spec = scenario(rfi_kind, et_kind, n)
        for h_index, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
            on, off = run_paired_estimates(
                spec, hyp, 100_000, BASE_SEED + 10 * index + h_index
            )
            for kind, law in (
                (DetectorKind.F_RATIO, f_ratio_law(spec, hyp)),
                (DetectorKind.ON_OFF, onoff_law(spec, hyp)),
            ):
                stats = detector_stat(kind, on, off)
                cells.append(
                    (f"{spec.scenario_id}/{kind.value}/{hyp.value}/N={n}",
                     _ks_bound(stats, law, nodes=4096))
                )
    elapsed = time.monotonic() - start
    worst = max(cells, key=lambda cell: cell[1])
    ok = len(cells) == 16 and worst[1] < 0.01 and elapsed < 300
    report(
        1,
        ok,
        f"16 cells, worst KS {worst[1]:.5f} at {worst[0]}, {elapsed:.0f}s",
    )


def test_criterion_02_doubly_noncentral_ratio_vs_brute_force():
    """Ratio-law cdf vs 10⁷ brute-force draws of the defining ratio of
    non-central χ² variates: max |Δcdf| < 5e-3 at 50 probes per config."""
    draws = 10_000_000
    worst = 0.0
    details = []
    for config_index, (n, lam_num, lam_den) in enumerate(
        [(64, 8.0, 4.0), (1024, 20.0, 10.0)]
    ):
        law = f_table(2 * n, 2 * n, 1.0, lam_num, lam_den)
        rng = np.random.default_rng(BASE_SEED + 100 + config_index)
        num = rng.noncentral_chisquare(2 * n, lam_num, draws) / (2 * n)
        den = rng.noncentral_chisquare(2 * n, lam_den, draws) / (2 * n)
        ratio = np.sort(num / den)
        del num, den
        probes = np.array(
            [law_quantile(law, p) for p in np.linspace(0.02, 0.98, 50)]
        )
        empirical = np.searchsorted(ratio, probes, side="right") / draws
        analytic = np.asarray(law.cdf(probes))
        gap = float(np.max(np.abs(empirical - analytic)))
        worst = max(worst, gap)
        details.append(f"N={n}: {gap:.2e}")
        del ratio
    report(2, worst < 5e-3, f"max |Δcdf| {'; '.join(details)} (limit 5e-3)")


def test_criterion_03_difference_law_normalization_moments_and_sampling():
    """Difference-of-power-estimates law: unit pdf mass (1e-6), integrated
    mean/variance vs closed forms (1e-5 relative), and cdf vs 10⁷ Monte
    Carlo draws within 3·SE at 50 probes."""
    laws = [
        GammaDifference(NoncentralChi2C(64, 1.2, 6.0), ScaledGamma(64, 1.0 / 64)),
        GammaDifference(ScaledGamma(1024, 1.5 / 1024), ScaledGamma(1024, 1.0 / 1024)),
    ]
    draws = 10_000_000
    ok = True
    details = []
    for law_index, law in enumerate(laws):
        sd = np.sqrt(law.variance)
        xs = np.linspace(law.mean - 16 * sd, law.mean + 16 * sd, 40_001)
        pdf = np.asarray(law.pdf(xs))
        weights = np.diff(xs)
        mass = float(np.sum(0.5 * (pdf[1:] + pdf[:-1]) * weights))
        mean_num = float(
            np.sum(0.5 * (xs[1:] * pdf[1:] + xs[:-1] * pdf[:-1]) * weights)
        )
        sq = (xs - law.mean) ** 2 * pdf
        var_num = float(np.sum(0.5 * (sq[1:] + sq[:-1]) * weights))

        mass_ok = abs(mass - 1.0) < 1e-6
        mean_ok = abs(mean_num - law.mean) < 1e-5 * max(abs(law.mean), sd)
        var_ok = abs(var_num - law.variance) < 1e-5 * law.variance

        rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 3, law_index]))
        sample = np.sort(law_sample(law, rng, draws))
        ps = np.linspace(0.02, 0.98, 50)
        probes = np.array([law_quantile(law, p) for p in ps])
        empirical = np.searchsorted(sample, probes, side="right") / draws
        se = np.sqrt(ps * (1 - ps) / draws)
        mc_gap = np.max(np.abs(empirical - ps) / (3 * se))
        mc_ok = bool(mc_gap < 1.0)
        del sample

        ok = ok and mass_ok and mean_ok and var_ok and mc_ok
        details.append(
            f"law{law_index}: mass err {abs(mass - 1):.1e}, "
            f"mean err {abs(mean_num - law.mean):.1e}, "
            f"var rel err {abs(var_num - law.variance) / law.variance:.1e}, "
            f"MC worst {mc_gap:.2f}·(3·SE)"
        )
    report(3, ok, "; ".join(details))


def test_criterion_04_injection_histograms_and_median_ordering():
    """Wideband signal injected at 0 dB and +2.51 dB on clean noise (g=1):
    ratio statistics match the scaled-F laws (KS < 0.01 at 10⁵ trials) and
    empirical medians satisfy 1 < median(0 dB) < median(+2.51 dB)."""
    trials = 100_000
    specs = {
        0.0: ScenarioSpec(
            rfi_kind="none", et_kind="wideband", noise_power=1.0,
            et_power=10 ** (0.0 / 10), gain=1.0, n_samples=64,
        ),
        2.51: ScenarioSpec(
            rfi_kind="none", et_kind="wideband", noise_power=1.0,
            et_power=10 ** (2.51 / 10), gain=1.0, n_samples=64,
        ),
    }
    ks_values = {}
    medians = {}
    on, off = run_paired_estimates(specs[0.0], "H0", trials, BASE_SEED + 300)
    h0_stats = on / off
    ks_values["H0"] = _ks_bound(
        h0_stats, f_ratio_law(specs[0.0], "H0"), nodes=4096
    )
    for offset, (snr_db, spec) in enumerate(specs.items()):
        on, off = run_paired_estimates(spec, "H1", trials, BASE_SEED + 301 + offset)
        stats = on / off
        ks_values[f"{snr_db:g} dB"] = _ks_bound(
            stats, f_ratio_law(spec, "H1"), nodes=4096
        )
        medians[snr_db] = float(np.median(stats))
    worst_ks = max(ks_values.values())
    ordered = 1.0 < medians[0.0] < medians[2.51]
    ok = worst_ks < 0.01 and ordered
    report(
        4,
        ok,
        f"worst KS {worst_ks:.5f}; medians 1 < {medians[0.0]:.4f} < "
        f"{medians[2.51]:.4f}: {ordered}",
    )


def test_criterion_05_difference_detector_is_less_gain_sensitive():
    """Interference gain swept over {0.8, 0.9, 1.1, 1.25} at 0 dB signal,
    N=64: the ON−OFF AUC perturbation stays strictly below the ratio
    detector's."""
    spec = scenario("wideband", "wideband", 64, gain=1.0)
    rows = compare_detectors(spec, [0.8, 0.9, 1.1, 1.25])
    worst = {}
    for row in rows:
        worst[row.detector] = max(worst.get(row.detector, 0.0), abs(row.auc_delta))
    onoff, f_ratio = worst[DetectorKind.ON_OFF], worst[DetectorKind.F_RATIO]
    report(
        5,
        onoff < f_ratio,
        f"max |Δauc| on_off {onoff:.4f} < f_ratio {f_ratio:.4f}",
    )


def test_criterion_06_data_model_has_small_effect_at_matched_levels():
    """At matched signal and interference levels (both 0 dB vs noise,
    narrowband energies scaled per sample), each detector's AUC varies by
    less than 0.05 across the four data models."""
    combos = [
        ("wideband", "wideband"),
        ("wideband", "narrowband"),
        ("narrowband", "wideband"),
        ("narrowband", "narrowband"),
    ]
    aucs = {kind: [] for kind in (DetectorKind.F_RATIO, DetectorKind.ON_OFF)}
    for rfi_kind, et_kind in combos:
        spec = scenario(rfi_kind, et_kind, 64)
        for kind in aucs:
            h0, h1 = detector_laws(spec, kind)
            aucs[kind].append(roc_curve(h0, h1, grid=512).auc)
    spreads = {kind: max(vals) - min(vals) for kind, vals in aucs.items()}
    ok = all(spread < 0.05 for spread in spreads.values())
    report(
        6,
        ok,
        "AUC spread across models: "
        + ", ".join(f"{k.value} {v:.4f}" for k, v in spreads.items()),
    )


# Frozen oracles for criterion 07: exact AUCs of the paired detectors for a
# wideband signal at linear SNR s, no interference, g = 1, computed once with
# scipy.stats laws and scipy.integrate.quad (no setidetect code) and pinned.
# Each stream's mean-power estimate is Γ(N)/N-distributed, so
#   f_ratio: S0 ~ F(2N, 2N), S1 ~ (1+s)·F(2N, 2N), and
#            AUC = P((1+s)F₁ > F₀) = ∫ sf_F(x/(1+s)) pdf_F(x) dx;
#   on_off:  N·S0 = X₀ − Y₀, N·S1 = (1+s)X₁ − Y₁ with X, Y ~ Γ(N), and
#            AUC = P((1+s)X₁ + Y₀ > Z) with Z = X₀ + Y₁ ~ Γ(2N),
#            a double integral of cdf_Γ(2N)((1+s)x + y) over Γ(N) × Γ(N).
# The N = 6, 7, 8 values were cross-checked with 30-digit mpmath quadrature.
# Keys are (SNR in dB, N); values are (f_ratio AUC, on_off AUC).
WEAK_SIGNAL_AUC = {
    (-10, 1024): (0.9363219926, 0.9406450208),
    (-22, 1024): (0.5400729783, 0.5401405312),
    (-10, 6): (0.5450398352, 0.5469638402),
    (-10, 7): (0.5488470103, 0.5507939780),
    (-10, 8): (0.5523745361, 0.5543498432),
}


def test_criterion_07_weak_signals_undetectable_in_long_windows():
    """A signal is weak when its deflection √N·SNR is small, and then both
    paired detectors stay near chance (AUC − 0.5 < 0.05) even at N=1024.

    Long windows integrate the deflection up, so the bound is checked at
    three places, each AUC against an independent exact reference (1e-4):
    at −10 dB and N=1024 (√N·SNR ≈ 3.2) both detectors are far from chance;
    at −22 dB and N=1024 (√N·SNR ≈ 0.2) both are within the bound; and the
    −10 dB level stays within it only for N ≤ 6 (on_off leaves at N=7, both
    have left by N=8)."""
    kinds = (DetectorKind.F_RATIO, DetectorKind.ON_OFF)
    aucs = {}
    for snr_db, n in WEAK_SIGNAL_AUC:
        spec = ScenarioSpec(
            rfi_kind="none", et_kind="wideband", noise_power=1.0,
            et_power=10 ** (snr_db / 10), gain=1.0, n_samples=n,
        )
        aucs[snr_db, n] = tuple(
            roc_curve(*detector_laws(spec, kind), grid=512).auc for kind in kinds
        )
    err = max(
        abs(a - r)
        for cell, refs in WEAK_SIGNAL_AUC.items()
        for a, r in zip(aucs[cell], refs)
    )
    near = {cell: [a - 0.5 < 0.05 for a in v] for cell, v in aucs.items()}
    ok = (
        err <= 1e-4
        and not any(near[-10, 1024])
        and all(near[-22, 1024])
        and all(near[-10, 6])
        and not all(near[-10, 7])
        and not any(near[-10, 8])
    )
    report(
        7,
        ok,
        "AUC − 0.5 (limit 0.05): "
        + "; ".join(
            f"{db} dB N={n} "
            + ", ".join(f"{k.value} {a - 0.5:.4f}" for k, a in zip(kinds, v))
            for (db, n), v in aucs.items()
        )
        + f" (near chance only for N ≤ 6); max |AUC − reference| {err:.1e}",
    )


def test_criterion_08_energy_detector_hits_the_noise_wall():
    """True noise 10% above the calibrated level at N=1024: the energy
    detector's realized false-alarm rate at its nominal-0.01 threshold
    exceeds 0.1, while the self-calibrating ratio and difference detectors
    stay inside [0.008, 0.012]."""
    n, assumed, target = 1024, 1.0, 0.01
    truth = ScenarioSpec(
        rfi_kind="none", et_kind="wideband", noise_power=1.1 * assumed,
        gain=1.0, n_samples=n,
    )
    believed = ScenarioSpec(
        rfi_kind="none", et_kind="wideband", noise_power=assumed,
        gain=1.0, n_samples=n,
    )

    t_energy = threshold_for_pfa(energy_law(believed, "H0", assumed), target)
    realized_energy = 1.0 - float(energy_law(truth, "H0", assumed).cdf(t_energy))

    t_f = threshold_for_pfa(f_ratio_law(believed, "H0"), target)
    realized_f = 1.0 - float(f_ratio_law(truth, "H0").cdf(t_f))

    t_oo = threshold_for_pfa(onoff_law(truth, "H0"), target)
    realized_oo = 1.0 - float(onoff_law(truth, "H0").cdf(t_oo))

    ok = (
        realized_energy > 0.1
        and 0.008 <= realized_f <= 0.012
        and 0.008 <= realized_oo <= 0.012
    )
    report(
        8,
        ok,
        f"realized pfa: energy {realized_energy:.3f} (>0.1), "
        f"f_ratio {realized_f:.5f}, on_off {realized_oo:.5f} (within [0.008, 0.012])",
    )


def test_criterion_09_tail_probabilities_match_monte_carlo():
    """Analytic pd and pfa at thresholds targeting pfa ∈ {0.01, 0.1, 0.5}
    agree with 10⁵-trial empirical rates within 3 binomial standard errors
    for all three detectors."""
    trials = 100_000
    spec = scenario("wideband", "wideband", 64)
    assumed = None  # energy detector uses its calibrated default
    stats = {}
    for h_index, hyp in enumerate(("H0", "H1")):
        on, off = run_paired_estimates(spec, hyp, trials, BASE_SEED + 400 + h_index)
        for kind in DetectorKind:
            if kind is DetectorKind.ENERGY:
                assumed = default_assumed_noise(spec)
                stats[kind, hyp] = detector_stat(kind, on, off, assumed)
            else:
                stats[kind, hyp] = detector_stat(kind, on, off)

    worst_pull = 0.0
    for kind in DetectorKind:
        h0, h1 = detector_laws(spec, kind, assumed_noise=assumed)
        for target in (0.01, 0.1, 0.5):
            t = threshold_for_pfa(h0, target)
            pd_analytic, pfa_analytic = pd_pfa(h0, h1, t)
            for p, sample in (
                (pfa_analytic, stats[kind, "H0"]),
                (pd_analytic, stats[kind, "H1"]),
            ):
                empirical = float(np.mean(sample > t))
                se = np.sqrt(p * (1 - p) / trials)
                worst_pull = max(worst_pull, abs(empirical - p) / (3 * se))
    report(9, worst_pull < 1.0, f"worst |Δ| = {worst_pull:.2f}·(3·SE) over 18 checks")


def test_criterion_10_cli_runs_are_byte_identical(tmp_path):
    """Repeating any CLI command with the same seed reproduces every output
    file byte for byte."""

    def run_and_snapshot(verb: str, document: dict, out: Path) -> dict:
        config_path = tmp_path / f"{verb}.json"
        config_path.write_text(json.dumps(document, indent=2))
        code = main([verb, "--config", str(config_path), "--out", str(out)])
        assert code == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    experiment = {
        "scenario": {
            "rfi_kind": "wideband",
            "et_kind": "wideband",
            "noise_power": 1.0,
            "rfi_power": 1.0,
            "et_power": 1.0,
            "gain": 0.9,
            "n_samples": 64,
        },
        "detectors": ["f_ratio", "on_off", "energy"],
        "mode": "both",
        "trials": 2000,
        "seed": 7,
        "pfa_grid": 64,
    }
    spectro = {
        "scenario": experiment["scenario"],
        "seed": 7,
        "spectrogram": {
            "amplitude": 1.0,
            "start_freq": 0.1,
            "drift_rate": 0.001,
            "noise_power": 1.0,
            "fft_len": 64,
            "hop": 32,
        },
    }
    identical = True
    counted = 0
    for verb, document in (("mc-validate", experiment), ("spectrogram", spectro)):
        out = tmp_path / f"out_{verb}"
        first = run_and_snapshot(verb, document, out)
        second = run_and_snapshot(verb, document, out)
        identical = identical and first == second
        counted += len(first)
    report(10, identical and counted > 0, f"{counted} files compared across reruns")
