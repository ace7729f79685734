"""Checks of the CLI's output files against reference.py (scipy only).

Each check returns a list of failure messages; an empty list is a pass.
Tolerances:

* analytic pd and ROC points: 1e-6 absolute (the program aims at 1e-10
  quantiles; its characteristic-function law reaches about 2e-7);
* analytic AUC: 1e-4, the bound the program documents for its trapezoid;
* Monte Carlo: bands at z = 6 standard errors, and a DKW band at level
  1e-9 for KS rows plus the node-gap term (see mc_validate).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

PD_TOL = 1e-6
AUC_TOL = 1e-4
Z = 6.0
DKW_LEVEL = 1e-9
KS_NODES = 2048  # cdf nodes the CLI's KS bound evaluates


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def manifest(out_dir: Path) -> list[str]:
    """manifest.json lists every other file with its SHA-256."""
    doc = json.loads((out_dir / "manifest.json").read_text())
    bad = []
    written = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    if set(doc["files"]) != written:
        bad.append(f"{out_dir}: manifest lists {sorted(doc['files'])}, dir has {sorted(written)}")
    for name, digest in doc["files"].items():
        path = out_dir / name
        if path.exists() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(f"{path}: SHA-256 differs from manifest")
    return bad


def roc_csv(path: Path) -> list[str]:
    """Monotone in pfa and pd, inside [0, 1], closed by (0,0) and (1,1)."""
    rows = _rows(path)
    pfa = np.array([float(r["pfa"]) for r in rows])
    pd = np.array([float(r["pd"]) for r in rows])
    bad = []
    if len(rows) < 3:
        bad.append(f"{path}: only {len(rows)} rows")
    elif (pfa[0], pd[0], pfa[-1], pd[-1]) != (0.0, 0.0, 1.0, 1.0):
        bad.append(f"{path}: not closed by (0,0) and (1,1)")
    if np.any(np.diff(pfa) < 0) or np.any(np.diff(pd) < 0):
        bad.append(f"{path}: pfa or pd decreases")
    if np.any((pfa < 0) | (pfa > 1) | (pd < 0) | (pd > 1)):
        bad.append(f"{path}: pfa or pd outside [0, 1]")
    return bad


def _near(what: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{what}: {float(got)!r} vs reference {float(want)!r} (tolerance {tol:g})"]
    return []


def roc_analytic(cfg: dict, out_dir: Path) -> list[str]:
    """summary.csv (AUC, pd at 0.01 and 0.1) and sampled ROC points of an
    analytic n_samples sweep against the exact laws."""
    bad = []
    summary = _rows(out_dir / "summary.csv")
    want = {(k, n) for k in cfg["detectors"] for n in cfg["sweeps"]["values"]}
    got = {(r["detector"], int(r["n_samples"])) for r in summary}
    if got != want:
        bad.append(f"{out_dir}/summary.csv: rows {sorted(got)}, expected {sorted(want)}")
    for row in summary:
        kind, n = row["detector"], int(row["n_samples"])
        scenario = dict(cfg["scenario"], n_samples=n)
        h0 = ref.detector_law(scenario, kind, "H0")
        h1 = ref.detector_law(scenario, kind, "H1")
        tag = f"{kind} N={n}"
        bad += _near(f"{tag} auc", float(row["auc"]), ref.auc(h0, h1), AUC_TOL)
        for pfa in (0.01, 0.1):
            bad += _near(
                f"{tag} pd at pfa {pfa}",
                float(row[f"pd_at_pfa_{pfa}"]),
                ref.pd_at(h0, h1, pfa),
                PD_TOL,
            )
        path = out_dir / f"roc_{kind}_n_samples_{n}.csv"
        rows = _rows(path)
        pick = np.linspace(1, len(rows) - 2, 16).astype(int)
        t = np.array([float(rows[i]["threshold"]) for i in pick])
        for col, law in (("pfa", h0), ("pd", h1)):
            err = np.abs(np.array([float(rows[i][col]) for i in pick]) - law.sf(t))
            if not np.all(err <= PD_TOL):
                bad.append(f"{path}: {col} off the exact law by {err.max():.3e}")
    return bad


def compare(cfg: dict, out_dir: Path) -> list[str]:
    """compare.csv: f_ratio AUC by the 1-D central-F quadrature, on_off AUC
    by conditioning (N ≥ 2 only), auc_delta against the gain-1 row."""
    bad = []
    rows = _rows(out_dir / "compare.csv")
    scenario = cfg["scenario"]
    n = scenario["n_samples"]
    want = {(k, g) for k in cfg["detectors"] for g in cfg["gains"]}
    if {(r["detector"], float(r["gain"])) for r in rows} != want or len(rows) != len(want):
        bad.append(f"{out_dir}/compare.csv: rows do not match detectors × gains")
        return bad
    base = {r["detector"]: float(r["auc"]) for r in rows if float(r["gain"]) == 1.0}
    ratios = [r for r in rows if r["detector"] == "f_ratio"]
    c = []
    for r in ratios:
        on0, off = ref.estimates(dict(scenario, gain=float(r["gain"])), "H0")
        on1, _ = ref.estimates(dict(scenario, gain=float(r["gain"])), "H1")
        c.append((on0.power / off.power, on1.power / off.power))
    if ratios:
        c = np.array(c)
        exact = ref.f_ratio_auc_central(n, c[:, 0], c[:, 1])
        for r, a in zip(ratios, exact):
            bad += _near(f"f_ratio N={n} g={r['gain']} auc", float(r["auc"]), a, AUC_TOL)
    for r in rows:
        g, auc, delta = float(r["gain"]), float(r["auc"]), float(r["auc_delta"])
        if r["detector"] == "on_off" and n >= 2:
            sc = dict(scenario, gain=g)
            exact = ref.auc(
                ref.detector_law(sc, "on_off", "H0"), ref.detector_law(sc, "on_off", "H1")
            )
            bad += _near(f"on_off N={n} g={g} auc", auc, exact, AUC_TOL)
        if r["detector"] in base and delta != auc - base[r["detector"]]:
            bad.append(f"{r['detector']} g={g}: auc_delta {delta!r} != auc − auc(g=1)")
        if g == 1.0 and delta != 0.0:
            bad.append(f"{r['detector']} g=1: auc_delta {delta!r} is not exactly 0")
    return bad


def mc_validate(cfg: dict, out_dir: Path) -> list[str]:
    """Monte Carlo products of an n_samples sweep against the exact laws.

    * summary.csv: the empirical AUC within Z Hanley–McNeil standard errors
      plus 1/(pfa_grid + 1) for the trapezoid; pd at pfa p within the exact
      pd over p ± Z·σ(p) (the true pfa of an empirical quantile), widened by
      Z binomial errors of pd.
    * ks_summary.csv: each bound at most 3ε + Δ + 3/n, with ε the DKW radius
      at DKW_LEVEL and Δ the widest rank gap between the KS nodes over n:
      the bound is the node distance (≤ ε + 1/n) plus the widest cdf step
      between nodes (≤ Δ + 2ε + 2/n).
    * hist_*.csv: the analytic density within 1e-6 of the peak of the exact
      one; each bin count within Z binomial errors (+ Z) of n·P(bin).
    """
    bad = []
    n_trials = cfg["trials"]
    summary = _rows(out_dir / "summary.csv")
    laws = {}
    for row in summary:
        kind, n = row["detector"], int(row["n_samples"])
        scenario = dict(cfg["scenario"], n_samples=n)
        h0 = ref.detector_law(scenario, kind, "H0")
        h1 = ref.detector_law(scenario, kind, "H1")
        laws[kind, n] = (h0, h1)
        tag = f"{kind} N={n}"
        a = ref.auc(h0, h1)
        q1, q2 = a / (2 - a), 2 * a * a / (1 + a)
        se = math.sqrt(
            (a * (1 - a) + (n_trials - 1) * (q1 - a * a + q2 - a * a)) / n_trials**2
        )
        bad += _near(f"{tag} MC auc", float(row["auc"]), a, Z * se + 1 / (cfg["pfa_grid"] + 1))
        for p in (0.01, 0.1):
            s = Z * math.sqrt(p * (1 - p) / n_trials)
            lo, hi = ref.pd_at(h0, h1, p - s), ref.pd_at(h0, h1, p + s)
            lo -= Z * math.sqrt(max(lo * (1 - lo), 0.0) / n_trials) + 1 / n_trials
            hi += Z * math.sqrt(max(hi * (1 - hi), 0.0) / n_trials) + 1 / n_trials
            got = float(row[f"pd_at_pfa_{p}"])
            if not lo <= got <= hi:
                bad.append(f"{tag} MC pd at pfa {p}: {got!r} outside [{lo:.6f}, {hi:.6f}]")
    eps = math.sqrt(math.log(2 / DKW_LEVEL) / (2 * n_trials))
    gap = math.ceil((n_trials - 1) / (min(KS_NODES, n_trials) - 1)) / n_trials
    ks_rows = _rows(out_dir / "ks_summary.csv")
    if len(ks_rows) != 2 * len(summary):
        bad.append(f"{out_dir}/ks_summary.csv: {len(ks_rows)} rows for {len(summary)} curves")
    for row in ks_rows:
        bound = float(row["ks_bound"])
        limit = 3 * eps + gap + 3 / n_trials
        if not 0 < bound <= limit or int(row["trials"]) != n_trials:
            bad.append(
                f"KS {row['detector']} {row['hyp']} N={row['n_samples']}: "
                f"bound {bound!r} outside (0, {limit:.5f}] or trials {row['trials']}"
            )
    for (kind, n), (h0, h1) in laws.items():
        for hyp, law in (("H0", h0), ("H1", h1)):
            path = out_dir / f"hist_{kind}_{hyp}_n_samples_{n}.csv"
            rows = _rows(path)
            left = np.array([float(r["bin_left"]) for r in rows])
            right = np.array([float(r["bin_right"]) for r in rows])
            emp = np.array([float(r["empirical_density"]) for r in rows])
            ana = np.array([float(r["analytic_density"]) for r in rows])
            exact = law.pdf(0.5 * (left + right))
            err = np.max(np.abs(ana - exact))
            if not err <= 1e-6 * exact.max():
                bad.append(f"{path}: analytic density off the exact pdf by {err:.3e}")
            counts = np.rint(emp * n_trials * (right - left))
            if counts.sum() != n_trials:
                bad.append(f"{path}: counts add to {counts.sum()}, not {n_trials}")
            prob = np.clip(law.cdf(right) - law.cdf(left), 0.0, 1.0)
            band = Z * np.sqrt(n_trials * prob * (1 - prob)) + Z
            worst = np.max(np.abs(counts - n_trials * prob) - band)
            if worst > 0:
                bad.append(f"{path}: a bin count leaves its binomial band by {worst:.1f}")
    return bad
