"""Benchmark of setidetect's three CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload roc-narrowband --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run writes the workload's configs,
starts fresh processes (child.py) that import setidetect from ./src, runs
whole rounds of CLI verbs for --seconds, checks every output against
scipy references (checks.py), and prints a report whose last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  Files go under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

PROBES = 2  # extra set-up-only processes; setup_s is the median of these + the run's own
DEADLINE_S = 170  # a run must end within 180 s


def workloads(seed: int) -> dict[str, list[tuple[str, dict]]]:
    """(verb, config) operations of one round, per workload.

    The seed goes into each config's "seed": it draws the Monte Carlo
    streams of mc-wideband and is recorded in every manifest; the analytic
    verbs compute the same numbers for every seed.
    """
    narrowband = {
        "scenario": {
            "rfi_kind": "narrowband",
            "et_kind": "narrowband",
            "noise_power": 1.0,
            "inr_db": 0.0,
            "snr_db": 0.0,
            "gain": 0.9,
            "n_samples": 16,
        },
        "detectors": ["f_ratio", "on_off", "energy"],
        "mode": "analytic",
        "seed": seed,
        "pfa_grid": 512,
        "sweeps": {"parameter": "n_samples", "values": [16, 32, 64]},
    }
    wideband = {
        "scenario": {
            "rfi_kind": "wideband",
            "et_kind": "wideband",
            "noise_power": 1.0,
            "inr_db": 3.0,
            "snr_db": -3.0,
            "gain": 0.9,
            "n_samples": 64,
        },
        "detectors": ["f_ratio", "on_off", "energy"],
        "mode": "monte_carlo",
        "trials": 50_000,
        "seed": seed,
        "pfa_grid": 1024,
        "sweeps": {"parameter": "n_samples", "values": [64, 256]},
    }
    ladder = {
        "scenario": {
            "rfi_kind": "wideband",
            "et_kind": "wideband",
            "noise_power": 1.0,
            "inr_db": 10.0,
            "snr_db": -10.0,
            "gain": 1.0,
            "n_samples": 1024,
        },
        "detectors": ["f_ratio", "on_off"],
        "seed": seed,
        "pfa_grid": 512,
        "gains": [round(0.8 + 0.005 * k, 10) for k in range(81)],  # holds 1.0 exactly
    }
    # fails today (exit 3): the on_off characteristic-function grid cannot
    # resolve N = 1 at g ≤ 0.01; kept so that mending it shows
    single_sample = {
        "scenario": {
            "rfi_kind": "wideband",
            "et_kind": "wideband",
            "noise_power": 1.0,
            "rfi_power": 1e4,
            "snr_db": -10.0,
            "gain": 1.0,
            "n_samples": 1,
        },
        "detectors": ["f_ratio", "on_off"],
        "seed": seed,
        "pfa_grid": 512,
        "gains": [0.001, 0.01, 0.5, 1.0],
    }
    return {
        "roc-narrowband": [("roc", narrowband)],
        "mc-wideband": [("mc-validate", wideband)],
        "compare-gain-ladder": [("compare", ladder), ("compare", single_sample)],
    }


def check_outputs(verb: str, cfg: dict, out_dir: Path) -> list[str]:
    bad = checks.manifest(out_dir)
    for path in sorted(out_dir.glob("roc_*.csv")):
        bad += checks.roc_csv(path)
    if verb == "roc":
        bad += checks.roc_analytic(cfg, out_dir)
    elif verb == "mc-validate":
        bad += checks.mc_validate(cfg, out_dir)
    else:
        bad += checks.compare(cfg, out_dir)
    return bad


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    # one BLAS thread: a second one saved no wall time measurable above the
    # host's noise, and one thread keeps each run a single busy core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # one hash seed: with random ones, the order of some string-keyed work
    # changes the allocation pattern, and peak RSS of identical runs took one
    # of three levels 7 MB apart
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(root: Path, plan: dict, plan_path: Path, timeout: float) -> dict:
    plan_path.write_text(json.dumps(plan, indent=1))
    # CLOCK_MONOTONIC is shared by all processes, so the child can measure
    # set-up from this reading
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(plan_path), str(t0)],
        cwd=root,
        env=_child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(Path(plan["result"]).read_text())


def main(argv=None) -> int:
    started = time.monotonic()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "setidetect" / "__init__.py").is_file():
        print(f"no setidetect sources under {root / 'src'}", file=sys.stderr)
        return 2

    ops = workloads(args.seed)[args.workload]
    run_dir = root / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = {
        "ops": [],
        "seconds": args.seconds,
        "trace": args.trace,
        "result": str(run_dir / "result.json"),
        "trace_file": str(run_dir / "spans.csv"),
    }
    for i, (verb, cfg) in enumerate(ops):
        cfg["output_dir"] = str((run_dir / f"op{i}").relative_to(root))
        path = run_dir / f"op{i}.json"
        path.write_text(json.dumps(cfg, indent=1))
        plan["ops"].append({"argv": [verb, "--config", str(path)], "config": str(path)})

    try:
        setups = []
        if not args.trace:
            for k in range(PROBES):
                probe = dict(plan, probe=True, result=str(run_dir / f"probe{k}.json"))
                got = _spawn(root, probe, run_dir / f"probe{k}-plan.json", 30)
                setups.append(got["setup_s"])
        budget = DEADLINE_S - (time.monotonic() - started) - 25  # leave time for checks
        result = _spawn(root, plan, run_dir / "plan.json", budget)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    rounds = result["rounds"]

    failures = []
    attempted = failed = 0
    for i, (verb, cfg) in enumerate(ops):
        runs = [r["ops"][i] for r in rounds]
        attempted += len(runs)
        failed += sum(op["rc"] != 0 for op in runs)
        if len({op["rc"] for op in runs}) > 1:
            failures.append(f"op{i} {verb}: exit codes differ between rounds")
        if len({op["manifest_sha256"] for op in runs}) > 1:
            failures.append(f"op{i} {verb}: manifest differs between rounds of one config")
        if runs[-1]["rc"] == 0:
            try:
                failures += check_outputs(verb, cfg, root / cfg["output_dir"])
            except Exception as exc:  # unreadable or malformed outputs fail the check
                failures.append(f"op{i} {verb}: outputs unreadable: {exc!r}")

    walls = [r["wall_s"] for r in rounds]
    curves = [sum(op["curves"] for op in r["ops"]) for r in rounds]
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "curves_per_s": statistics.median(c / w for c, w in zip(curves, walls)),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    ctx = result["context"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    print(
        f"machine: nproc {ctx['nproc']}  python {ctx['python']}  numpy {ctx['numpy']}"
        f"  scipy {ctx['scipy']}  blas threads {ctx['blas_threads']}"
    )
    for i, (verb, cfg) in enumerate(ops):
        runs = [r["ops"][i] for r in rounds]
        print(
            f"op{i} {verb}: median {statistics.median(op['seconds'] for op in runs):.4f} s"
            f"  exit codes {sorted({op['rc'] for op in runs})}"
            + (f"  stderr: {runs[-1]['stderr']}" if runs[-1]["rc"] else "")
        )
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
        for verb, cfg in ops:
            if cfg.get("mode") == "monte_carlo":
                pairs = cfg["trials"] * sum(cfg["sweeps"]["values"]) * 2
                print(f"mc_sample_pairs_per_s {pairs / values['wall_s']:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"checks: {'all passed' if not failures else f'{len(failures)} failed'}")
    for line in failures[:20]:
        print(f"  FAIL {line}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run_dir / "report.json").write_text(
        json.dumps(dict(report, context=ctx, setups=setups, walls=walls), indent=1)
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
