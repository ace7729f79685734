"""Batch front-end: JSON experiment configs in, plot-ready CSV files out.

The command line exposes four verbs over the library pipeline:

* ``roc``         — analytic (and optionally Monte Carlo) detection curves
                    for every configured detector and sweep point.
* ``mc-validate`` — Monte Carlo runs with analytic overlays plus a
                    Kolmogorov–Smirnov agreement table.
* ``spectrogram`` — time×frequency CSV matrix of a synthetic chirp in noise.
* ``compare``     — detector AUC table across interference gains.

Configs are JSON documents; powers are linear units, while ``snr_db`` /
``inr_db`` conveniences are converted at parse time as 10^(dB/10) (for
narrowband kinds the ratio is per sample, so energies are scaled by N).
All outputs are plain CSV plus a ``manifest.json`` recording the resolved
configuration, the seed, and a SHA-256 per written file; nothing in the
output depends on wall clock or host, so identical inputs produce
byte-identical files.  Sweep points are independent (per-point seeds are
derived, not sequential), so the analytic curves of every sweep point and
detector run concurrently, one thread per available CPU, and are collected
in input order; Monte Carlo synthesis then runs point by point on its own
pool, and each file is written in one shot.  Failures are reported as a
serial run would meet them: a scenario without a sampling law before any
computation, then the first failing curve, histogram or KS bound in
(point, detector) order.

Exit codes: 0 success, 2 configuration error (message anchored to the
offending config line where possible), 3 numerical non-convergence (the
message names the law involved), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from ._pool import ordered_map
from .distributions import ComputationError, Law
from .roc import (
    DEFAULT_GRID,
    _closed_curve,
    _named_computation,
    compare_detectors,
    pd_pfa,
    roc_curve,
)
from .scenario import (
    DetectorKind,
    Hypothesis,
    ScenarioSpec,
    default_assumed_noise,
    detector_laws,
)
from .simulator import ChirpParams, detector_stat, run_paired_estimates, spectrogram

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "emit_spectrogram_demo",
    "load_config",
    "main",
    "run_experiment",
]

#: pd is reported at these reference false-alarm rates in summary.csv.
SUMMARY_PFA = (0.01, 0.1)
_HIST_BINS = 80
_KS_NODES = 2048

_MODES = ("analytic", "monte_carlo", "both")
_SWEEP_PARAMETERS = ("snr_db", "gain", "n_samples")
_SCENARIO_KEYS = {
    "rfi_kind",
    "et_kind",
    "noise_power",
    "rfi_power",
    "rfi_energy",
    "et_power",
    "et_energy",
    "gain",
    "n_samples",
    "snr_db",
    "inr_db",
}
_TOP_KEYS = {
    "scenario",
    "detectors",
    "mode",
    "trials",
    "seed",
    "pfa_grid",
    "sweeps",
    "output_dir",
    "gains",
    "spectrogram",
}
_SPECTROGRAM_KEYS = {
    "amplitude",
    "start_freq",
    "drift_rate",
    "phase0",
    "noise_power",
    "fft_len",
    "hop",
    "n_samples",
    "seed",
}

ROC_COLUMNS = (
    "threshold",
    "pfa",
    "pd",
    "detector",
    "scenario_id",
    "gain",
    "snr_db",
    "n_samples",
)
HIST_COLUMNS = ("bin_left", "bin_right", "empirical_density", "analytic_density")
SUMMARY_COLUMNS = (
    "detector",
    "scenario_id",
    "gain",
    "snr_db",
    "n_samples",
    "auc",
    "pd_at_pfa_0.01",
    "pd_at_pfa_0.1",
)
KS_COLUMNS = (
    "detector",
    "hyp",
    "scenario_id",
    "gain",
    "snr_db",
    "n_samples",
    "trials",
    "ks_bound",
)
COMPARE_COLUMNS = (
    "detector",
    "gain",
    "auc",
    "auc_delta",
    "scenario_id",
    "snr_db",
    "n_samples",
)


class ConfigError(ValueError):
    """A config document failed validation; `path` is the dotted key."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class ExperimentConfig:
    """Resolved experiment description.

    `scenario` is the base data model; `sweeps`, when present, re-resolves
    it per point with exactly one parameter replaced, everything else held
    as configured.  `trials` must be at least 10³ whenever Monte Carlo runs
    (mode monte_carlo or both).
    """

    scenario: ScenarioSpec
    detectors: list[DetectorKind]
    mode: str = "analytic"
    trials: int = 10_000
    seed: int = 0
    pfa_grid: int = DEFAULT_GRID
    sweeps: Optional[dict] = None
    output_dir: Path = Path("results")
    # raw scenario mapping kept for per-sweep-point re-resolution, plus the
    # verb-specific optional blocks
    raw_scenario: dict = field(default_factory=dict, repr=False)
    gains: Optional[list[float]] = field(default=None, repr=False)
    spectrogram_params: Optional[dict] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# config parsing


def _expect(raw: dict, key: str, types, path: str, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, types):
        want = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise ConfigError(
            f"{path}.{key}" if path else key, f"expected {want}, got {value!r}"
        )
    return value


def _db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def _resolve_scenario(raw: dict, path: str = "scenario") -> ScenarioSpec:
    """Scenario mapping → ScenarioSpec, converting dB conveniences."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a mapping, got {raw!r}")
    unknown = sorted(set(raw) - _SCENARIO_KEYS)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
    rfi_kind = _expect(raw, "rfi_kind", str, path, required=True)
    et_kind = _expect(raw, "et_kind", str, path, required=True)
    n_samples = _expect(raw, "n_samples", int, path, required=True)
    noise_power = float(_expect(raw, "noise_power", (int, float), path, default=1.0))
    gain = float(_expect(raw, "gain", (int, float), path, default=1.0))

    fields = {}
    for key in ("rfi_power", "rfi_energy", "et_power", "et_energy"):
        if key in raw:
            fields[key] = float(_expect(raw, key, (int, float), path))

    if "snr_db" in raw:
        if "et_power" in fields or "et_energy" in fields:
            raise ConfigError(
                f"{path}.snr_db", "give either snr_db or a linear signal strength"
            )
        level = noise_power * _db_to_linear(
            float(_expect(raw, "snr_db", (int, float), path))
        )
        if et_kind == "narrowband":
            fields["et_energy"] = n_samples * level
        else:
            fields["et_power"] = level
    if "inr_db" in raw:
        if "rfi_power" in fields or "rfi_energy" in fields:
            raise ConfigError(
                f"{path}.inr_db", "give either inr_db or a linear interference strength"
            )
        if rfi_kind == "none":
            raise ConfigError(f"{path}.inr_db", "meaningless without interference")
        level = noise_power * _db_to_linear(
            float(_expect(raw, "inr_db", (int, float), path))
        )
        if rfi_kind == "narrowband":
            fields["rfi_energy"] = n_samples * level
        else:
            fields["rfi_power"] = level

    try:
        return ScenarioSpec(
            rfi_kind=rfi_kind,
            et_kind=et_kind,
            noise_power=noise_power,
            gain=gain,
            n_samples=n_samples,
            **fields,
        )
    except ValueError as exc:
        # ScenarioSpec's messages lead with the offending field name; use it
        # to anchor the error at that key's line when possible
        first_word = str(exc).split(" ", 1)[0]
        where = f"{path}.{first_word}" if first_word in _SCENARIO_KEYS else path
        raise ConfigError(where, str(exc)) from exc


def _resolve_sweeps(raw, base_scenario_raw: dict) -> Optional[dict]:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("sweeps", f"expected a mapping, got {raw!r}")
    unknown = sorted(set(raw) - {"parameter", "values"})
    if unknown:
        raise ConfigError(f"sweeps.{unknown[0]}", "unknown key")
    parameter = _expect(raw, "parameter", str, "sweeps", required=True)
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            "sweeps.parameter", f"must be one of {', '.join(_SWEEP_PARAMETERS)}"
        )
    values = _expect(raw, "values", list, "sweeps", required=True)
    if not values:
        raise ConfigError("sweeps.values", "must be a non-empty list")
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"sweeps.values[{i}]", f"expected a number, got {v!r}")
        if parameter == "n_samples" and (not isinstance(v, int) or v < 1):
            raise ConfigError(
                f"sweeps.values[{i}]", "n_samples values must be positive integers"
            )
    if parameter == "snr_db" and (
        "et_power" in base_scenario_raw or "et_energy" in base_scenario_raw
    ):
        raise ConfigError(
            "sweeps.parameter",
            "an snr_db sweep conflicts with a linear signal strength in scenario",
        )
    return {"parameter": parameter, "values": list(values)}


def load_config(
    source,
    *,
    seed: Optional[int] = None,
    out: Optional[str] = None,
    trials: Optional[int] = None,
) -> ExperimentConfig:
    """Parse and validate a JSON config mapping (CLI overrides applied last)."""
    if not isinstance(source, dict):
        raise ConfigError("", f"top level must be a mapping, got {source!r}")
    unknown = sorted(set(source) - _TOP_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown key")

    raw_scenario = source.get("scenario")
    if raw_scenario is None:
        raise ConfigError("scenario", "missing required key")
    scenario = _resolve_scenario(raw_scenario)

    detector_names = _expect(
        source, "detectors", list, "", default=["f_ratio", "on_off"]
    )
    if not detector_names:
        raise ConfigError("detectors", "must be a non-empty list")
    detectors = []
    for i, name in enumerate(detector_names):
        try:
            detectors.append(DetectorKind(name))
        except ValueError:
            raise ConfigError(
                f"detectors[{i}]",
                f"unknown detector {name!r}; choose from "
                f"{', '.join(k.value for k in DetectorKind)}",
            ) from None

    mode = _expect(source, "mode", str, "", default="analytic")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {', '.join(_MODES)}")

    cfg = ExperimentConfig(
        scenario=scenario,
        detectors=detectors,
        mode=mode,
        trials=int(_expect(source, "trials", int, "", default=10_000)),
        seed=int(_expect(source, "seed", int, "", default=0)),
        pfa_grid=int(_expect(source, "pfa_grid", int, "", default=DEFAULT_GRID)),
        sweeps=_resolve_sweeps(source.get("sweeps"), raw_scenario),
        output_dir=Path(_expect(source, "output_dir", str, "", default="results")),
        raw_scenario=dict(raw_scenario),
    )
    if "gains" in source:
        gains = _expect(source, "gains", list, "")
        if not gains:
            raise ConfigError("gains", "must be a non-empty list")
        for i, g in enumerate(gains):
            if isinstance(g, bool) or not isinstance(g, (int, float)) or g <= 0:
                raise ConfigError(f"gains[{i}]", f"expected a positive number, got {g!r}")
        cfg.gains = [float(g) for g in gains]
    if "spectrogram" in source:
        cfg.spectrogram_params = _resolve_spectrogram_block(source["spectrogram"])

    # command-line overrides beat the document
    if seed is not None:
        cfg.seed = int(seed)
    if trials is not None:
        cfg.trials = int(trials)
    if out is not None:
        cfg.output_dir = Path(out)

    if cfg.trials < 1:
        raise ConfigError("trials", "must be positive")
    if cfg.mode != "analytic" and cfg.trials < 1_000:
        raise ConfigError(
            "trials", f"Monte Carlo modes need at least 1000 trials, got {cfg.trials}"
        )
    if cfg.pfa_grid < 2:
        raise ConfigError("pfa_grid", "must be at least 2")
    return cfg


def _resolve_spectrogram_block(raw) -> dict:
    path = "spectrogram"
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a mapping, got {raw!r}")
    unknown = sorted(set(raw) - _SPECTROGRAM_KEYS)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown key")
    params = {
        "amplitude": float(_expect(raw, "amplitude", (int, float), path, required=True)),
        "start_freq": float(
            _expect(raw, "start_freq", (int, float), path, required=True)
        ),
        "drift_rate": float(_expect(raw, "drift_rate", (int, float), path, default=0.0)),
        "phase0": float(_expect(raw, "phase0", (int, float), path, default=0.0)),
        "noise_power": float(
            _expect(raw, "noise_power", (int, float), path, default=0.0)
        ),
        "fft_len": int(_expect(raw, "fft_len", int, path, required=True)),
        "hop": int(_expect(raw, "hop", int, path, required=True)),
        "n_samples": _expect(raw, "n_samples", int, path, default=None),
        "seed": _expect(raw, "seed", int, path, default=None),
    }
    if params["noise_power"] < 0:
        raise ConfigError(f"{path}.noise_power", "must be non-negative")
    return params


# ---------------------------------------------------------------------------
# deterministic output helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column) -> list[str]:
    """CSV fields of one column: a float array by the repr of its Python
    floats, anything else value by value through _fmt."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    return [_fmt(v) for v in column]


def _write_csv(path: Path, header: Sequence[str], columns, constants=()) -> None:
    """Write a CSV file by columns; every row ends with the fields of
    `constants`, formatted once."""
    tail = "".join("," + _fmt(v) for v in constants) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + tail for row in zip(*map(_cells, columns)))


def _slug(value) -> str:
    return str(value).replace("-", "m").replace(".", "p")


def _snr_db(spec: ScenarioSpec) -> float:
    snr = spec.snr()
    return float(10.0 * np.log10(snr)) if snr > 0 else float("-inf")


def _point_seed(seed: int, *indices: int) -> int:
    """Stable per-(point, hypothesis) child seed of the experiment seed."""
    return int(np.random.SeedSequence([int(seed), *indices]).generate_state(1)[0])


def _ks_bound(stats: np.ndarray, law: Law, nodes: int = _KS_NODES) -> float:
    """Upper bound on the exact KS distance from a subsample of cdf nodes."""
    x = np.sort(np.asarray(stats, dtype=float))
    idx = np.unique(np.linspace(0, x.size - 1, min(nodes, x.size)).astype(int))
    cdf = np.atleast_1d(np.asarray(law.cdf(x[idx]), dtype=float))
    upper = (idx + 1) / x.size
    lower = idx / x.size
    d = max(float(np.max(upper - cdf)), float(np.max(cdf - lower)))
    gap = float(np.max(np.diff(cdf))) if cdf.size > 1 else 1.0
    return d + gap


# ---------------------------------------------------------------------------
# experiment pipeline


def _sweep_points(config: ExperimentConfig) -> list[tuple[str, ScenarioSpec]]:
    """(file tag, resolved scenario) per sweep value; a single base point
    when no sweep is configured."""
    if config.sweeps is None:
        return [("base", config.scenario)]
    parameter = config.sweeps["parameter"]
    points = []
    for value in config.sweeps["values"]:
        raw = dict(config.raw_scenario)
        if parameter == "gain":
            raw["gain"] = float(value)
        elif parameter == "n_samples":
            raw["n_samples"] = int(value)
        else:
            raw["snr_db"] = float(value)
        points.append((f"{parameter}_{_slug(value)}", _resolve_scenario(raw)))
    return points


def _empirical_curve(h0_stats: np.ndarray, h1_stats: np.ndarray, grid: int):
    """(thresholds, pfa, pd, auc) from Monte Carlo statistics alone."""
    targets = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    ts = np.quantile(h0_stats, 1.0 - targets)
    # counts strictly above each threshold, from the sorted statistics
    n0, n1 = h0_stats.size, h1_stats.size
    pfa = (n0 - np.searchsorted(np.sort(h0_stats), ts, side="right")) / n0
    pd = (n1 - np.searchsorted(np.sort(h1_stats), ts, side="right")) / n1
    thresholds, pfa, pd = _closed_curve(ts, pfa, pd)
    auc = float(np.sum(0.5 * (pd[1:] + pd[:-1]) * np.diff(pfa)))
    return thresholds, pfa, pd, auc


def _config_as_mapping(config: ExperimentConfig, command: str) -> dict:
    scenario = {
        "rfi_kind": config.scenario.rfi_kind.value,
        "et_kind": config.scenario.et_kind.value,
        "noise_power": config.scenario.noise_power,
        "rfi_power": config.scenario.rfi_power,
        "rfi_energy": config.scenario.rfi_energy,
        "et_power": config.scenario.et_power,
        "et_energy": config.scenario.et_energy,
        "gain": config.scenario.gain,
        "n_samples": config.scenario.n_samples,
    }
    mapping = {
        "command": command,
        "version": __version__,
        "scenario": scenario,
        "detectors": [k.value for k in config.detectors],
        "mode": config.mode,
        "trials": config.trials,
        "seed": config.seed,
        "pfa_grid": config.pfa_grid,
        "sweeps": config.sweeps,
        "output_dir": str(config.output_dir),
    }
    if config.gains is not None:
        mapping["gains"] = config.gains
    if config.spectrogram_params is not None:
        mapping["spectrogram"] = config.spectrogram_params
    return mapping


def _write_manifest(config: ExperimentConfig, command: str, files: list[Path]) -> Path:
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files
    }
    manifest = {
        "config": _config_as_mapping(config, command),
        "files": dict(sorted(digests.items())),
    }
    path = config.output_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def run_experiment(config: ExperimentConfig, *, ks_table: bool = False) -> list[Path]:
    """Run every sweep point and write ROC, summary, histogram and manifest
    files into the configured output directory; returns the written paths.

    Analytic modes place thresholds at exact H0-law quantiles; Monte Carlo
    mode builds the same products from empirical quantiles of synthesized
    statistics.  Mode ``both`` writes analytic curves plus histogram files
    with empirical/analytic density overlays.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    run_analytic = config.mode in ("analytic", "both")
    run_mc = config.mode in ("monte_carlo", "both")
    files: list[Path] = []
    summary_rows = []
    ks_rows = []

    # every point's laws before any curve, so a scenario without one is a
    # configuration error whatever else would fail
    points = _sweep_points(config)
    assumed, laws = [], []
    for index, (_, spec) in enumerate(points):
        try:
            assumed.append(default_assumed_noise(spec))
            laws.append(
                {
                    kind: detector_laws(spec, kind, assumed_noise=assumed[-1])
                    for kind in config.detectors
                }
            )
        except ValueError as exc:
            where = "scenario" if config.sweeps is None else f"sweeps.values[{index}]"
            raise ConfigError(where, f"no sampling law for this scenario: {exc}")

    def analytic_curve(task):
        """(thresholds, pfa, pd, auc, pd at SUMMARY_PFA) of one point and
        detector, or the ComputationError that stopped it."""
        index, kind = task
        h0, h1 = laws[index][kind]
        try:
            with _named_computation(f"{kind.value} law", h0, h1):
                curve = roc_curve(
                    h0, h1, grid=config.pfa_grid, detector=kind, spec=points[index][1]
                )
                pd_ref = [
                    pd_pfa(h0, h1, curve.h0_map.threshold(pfa_ref))[0]
                    for pfa_ref in SUMMARY_PFA
                ]
        except ComputationError as exc:
            # raised where the loop below reaches this curve, so the failure
            # reported is the first one in serial order, histograms included
            return exc
        return curve.thresholds, curve.pfa, curve.pd, curve.auc, pd_ref

    curves = {}
    if run_analytic:
        tasks = [(i, kind) for i in range(len(points)) for kind in config.detectors]
        curves = dict(zip(tasks, ordered_map(analytic_curve, tasks)))

    for index, (tag, spec) in enumerate(points):
        ident = (spec.scenario_id, spec.gain, _snr_db(spec), spec.n_samples)
        mc_stats = {}
        if run_mc:
            for h_index, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
                on, off = run_paired_estimates(
                    spec, hyp, config.trials, _point_seed(config.seed, index, h_index)
                )
                for kind in config.detectors:
                    mc_stats[kind, hyp] = np.asarray(
                        detector_stat(kind, on, off, assumed_noise=assumed[index])
                    )

        for kind in config.detectors:
            h0, h1 = laws[index][kind]
            if run_analytic:
                outcome = curves[index, kind]
                if isinstance(outcome, ComputationError):
                    raise outcome
                thresholds, pfa, pd, auc, pd_ref = outcome
            if run_mc and not all(np.all(np.isfinite(mc_stats[kind, h])) for h in Hypothesis):
                raise ComputationError(
                    f"{kind.value} Monte Carlo statistics at {tag} leave the float range"
                )
            if not run_analytic:
                h0_stats = mc_stats[kind, Hypothesis.H0]
                h1_stats = mc_stats[kind, Hypothesis.H1]
                thresholds, pfa, pd, auc = _empirical_curve(
                    h0_stats, h1_stats, config.pfa_grid
                )
                pd_ref = []
                for pfa_ref in SUMMARY_PFA:
                    t_ref = float(np.quantile(h0_stats, 1.0 - pfa_ref))
                    pd_ref.append(float(np.mean(h1_stats > t_ref)))

            roc_path = config.output_dir / f"roc_{kind.value}_{tag}.csv"
            _write_csv(
                roc_path, ROC_COLUMNS, (thresholds, pfa, pd), (kind.value, *ident)
            )
            files.append(roc_path)
            summary_rows.append((kind.value, *ident, auc, *pd_ref))

            if run_mc:
                for hyp in (Hypothesis.H0, Hypothesis.H1):
                    stats = mc_stats[kind, hyp]
                    law = h0 if hyp is Hypothesis.H0 else h1
                    counts, edges = np.histogram(stats, bins=_HIST_BINS)
                    widths = np.diff(edges)
                    empirical = counts / (stats.size * widths)
                    mids = 0.5 * (edges[:-1] + edges[1:])
                    with _named_computation(f"{kind.value} law", h0, h1):
                        analytic = np.atleast_1d(np.asarray(law.pdf(mids), dtype=float))
                    hist_path = (
                        config.output_dir / f"hist_{kind.value}_{hyp.value}_{tag}.csv"
                    )
                    _write_csv(
                        hist_path,
                        HIST_COLUMNS,
                        (edges[:-1], edges[1:], empirical, analytic),
                    )
                    files.append(hist_path)
                    if ks_table:
                        with _named_computation(f"{kind.value} law", h0, h1):
                            bound = _ks_bound(stats, law)
                        ks_rows.append(
                            (kind.value, hyp.value, *ident, stats.size, bound)
                        )

    summary_path = config.output_dir / "summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, zip(*summary_rows))
    files.append(summary_path)
    if ks_table:
        ks_path = config.output_dir / "ks_summary.csv"
        _write_csv(ks_path, KS_COLUMNS, zip(*ks_rows))
        files.append(ks_path)
    files.append(_write_manifest(config, "mc-validate" if ks_table else "roc", files))
    return files


def emit_spectrogram_demo(
    chirp: ChirpParams,
    noise_power: float,
    fft_len: int,
    hop: int,
    path,
    *,
    n_samples: Optional[int] = None,
    seed: int = 0,
) -> Path:
    """Write the spectrogram of a chirp in complex Gaussian noise as a
    headerless CSV matrix, one frame per row, one frequency bin per column.

    The stream length defaults to 64 frames' worth of samples.
    """
    if not (np.isfinite(noise_power) and noise_power >= 0):
        raise ValueError("noise_power must be non-negative")
    if n_samples is None:
        n_samples = fft_len + 63 * hop
    n_samples = int(n_samples)
    if n_samples < fft_len:
        raise ValueError("n_samples must cover at least one frame")
    stream = chirp.waveform(n_samples)
    if noise_power > 0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(2 * n_samples).view(np.complex128)
        stream = stream + np.sqrt(noise_power / 2.0) * noise
    frames = spectrogram(stream, fft_len, hop)
    path = Path(path)
    with open(path, "w", newline="\n") as handle:
        for row in frames:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _run_spectrogram_verb(config: ExperimentConfig) -> list[Path]:
    params = config.spectrogram_params
    if params is None:
        raise ConfigError("spectrogram", "missing required key for this command")
    chirp = ChirpParams(
        amplitude=params["amplitude"],
        start_freq=params["start_freq"],
        drift_rate=params["drift_rate"],
        phase0=params["phase0"],
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out = config.output_dir / "spectrogram.csv"
    seed = params["seed"] if params["seed"] is not None else config.seed
    try:
        emit_spectrogram_demo(
            chirp,
            params["noise_power"],
            params["fft_len"],
            params["hop"],
            out,
            n_samples=params["n_samples"],
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError("spectrogram", str(exc)) from exc
    files = [out]
    files.append(_write_manifest(config, "spectrogram", files))
    return files


def _run_compare_verb(config: ExperimentConfig) -> list[Path]:
    gains = config.gains if config.gains is not None else [0.8, 0.9, 1.0, 1.1, 1.25]
    # every gain's laws before any curve, the gain-1 baseline's first
    for where, gain in [("scenario", 1.0), *((f"gains[{i}]", g) for i, g in enumerate(gains))]:
        try:
            for kind in config.detectors:
                detector_laws(config.scenario.with_gain(gain), kind)
        except ValueError as exc:
            raise ConfigError(where, f"no sampling law for this scenario: {exc}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rows = compare_detectors(config.scenario, gains, detectors=config.detectors)
    table = []
    for row in rows:
        spec = row.spec
        table.append(
            (
                row.detector.value,
                row.gain,
                row.auc,
                row.auc_delta,
                spec.scenario_id,
                _snr_db(spec),
                spec.n_samples,
            )
        )
    out = config.output_dir / "compare.csv"
    _write_csv(out, COMPARE_COLUMNS, zip(*table))
    files = [out]
    files.append(_write_manifest(config, "compare", files))
    return files


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setidetect",
        description="Analytic and Monte Carlo detection experiments "
        "for paired ON/OFF power measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("roc", "ROC curves and a summary table per sweep point"),
        ("mc-validate", "Monte Carlo histograms plus a KS agreement table"),
        ("spectrogram", "synthetic chirp spectrogram matrix"),
        ("compare", "detector AUC table across interference gains"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None, help="override output directory")
        cmd.add_argument(
            "--trials", type=int, default=None, help="override Monte Carlo trials"
        )
    return parser


def _line_anchor(text: str, dotted_path: str) -> Optional[int]:
    """Best-effort line number of the key a validation error points at."""
    for segment in reversed(dotted_path.replace("]", "").split(".")):
        key = segment.split("[")[0]
        if not key:
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            if f'"{key}"' in line:
                return lineno
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"{config_path}: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"{config_path}:{exc.lineno}: invalid JSON: {exc.msg}", file=sys.stderr)
        return 2

    try:
        config = load_config(
            document, seed=args.seed, out=args.out, trials=args.trials
        )
        if args.command == "mc-validate" and config.mode == "analytic":
            config.mode = "both"
        if args.command == "roc":
            files = run_experiment(config)
        elif args.command == "mc-validate":
            files = run_experiment(config, ks_table=True)
        elif args.command == "spectrogram":
            files = _run_spectrogram_verb(config)
        else:
            files = _run_compare_verb(config)
    except ConfigError as exc:
        lineno = _line_anchor(text, exc.path)
        anchor = f"{config_path}:{lineno}" if lineno else str(config_path)
        print(f"{anchor}: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return 4

    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
