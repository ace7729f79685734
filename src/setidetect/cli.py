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
derived, not sequential).  Monte Carlo runs first draw each (point,
hypothesis) sample once, one task each, and every detector forms its
statistic from those shared ON/OFF estimates.  Then each (point, detector)
pair is one task that computes everything written for it (its curve,
statistics, histograms and KS bounds) and returns its files finished: their
bytes and SHA-256 digests.  Each pass runs its tasks concurrently, one
thread per available CPU, and collects them in input order.  Every verb
writes through one function, and only once its computation has succeeded:
it makes the output directory, writes each file's bytes in one shot, then
the manifest from the digests it was handed; no verb reads its outputs
back.  Failures are reported as a serial run would meet them: a scenario
without a sampling law before any computation, then the first failing
curve, histogram or KS bound in (point, detector) order, and a failed run
makes no output directory.

Exit codes: 0 success, 2 configuration error (message anchored to the
offending config line where possible; every sweep point is resolved at
load, and `trials` or `pfa_grid` above 2⁵³ is one) or a size too large to
allocate, 3 numerical non-convergence (the
message names the law involved), 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    _NoLaw,
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
from .simulator import (
    ChirpParams,
    _cgauss,
    detector_stat,
    run_paired_estimates,
    spectrogram,
)

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
# Largest trials and pfa_grid: the largest count that float arithmetic holds
# exactly, 64 PiB of float64; NumPy cannot describe some larger sizes at all.
_MAX_COUNT = 2**53
_SWEEP_PARAMETERS = ("snr_db", "gain", "n_samples")
_SCENARIO_KEYS = {f.name for f in dataclasses.fields(ScenarioSpec)} | {"snr_db", "inr_db"}
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
_REQUIRED = object()
# each spectrogram key's types and default (_REQUIRED: none), in check order
_SPECTROGRAM_KEYS = {
    "amplitude": ((int, float), _REQUIRED),
    "start_freq": ((int, float), _REQUIRED),
    "drift_rate": ((int, float), 0.0),
    "phase0": ((int, float), 0.0),
    "noise_power": ((int, float), 0.0),
    "fft_len": (int, _REQUIRED),
    "hop": (int, _REQUIRED),
    "n_samples": (int, None),
    "seed": (int, None),
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
    """A config document failed validation; `path` is the dotted key, empty
    for the document itself."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass
class ExperimentConfig:
    """Resolved experiment description.

    `scenario` is the base data model; `sweeps`, when present, re-resolves
    it per point with exactly one parameter replaced, everything else held
    as configured.  `points` holds the (file tag, scenario) of each sweep
    point, resolved and checked at load; without a sweep it is the single
    point ("base", `scenario`).  `seed` is non-negative, `trials` and
    `pfa_grid` are at most 2⁵³, and `trials` must be at least 10³ whenever
    Monte Carlo runs (mode monte_carlo or both).
    """

    scenario: ScenarioSpec
    detectors: list[DetectorKind]
    mode: str = "analytic"
    trials: int = 10_000
    seed: int = 0
    pfa_grid: int = DEFAULT_GRID
    sweeps: Optional[dict] = None
    output_dir: Path = Path("results")
    points: list[tuple[str, ScenarioSpec]] = field(default_factory=list, repr=False)
    # the verb-specific optional blocks
    gains: Optional[list[float]] = field(default=None, repr=False)
    spectrogram_params: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.points:
            self.points = [("base", self.scenario)]


# ---------------------------------------------------------------------------
# config parsing


def _in_float_range(value, where: str):
    """`value`, unless it is an integer that no float can hold."""
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ConfigError(where, "beyond the float range")
    return value


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(raw, path: str, keys) -> None:
    """Check that the block at `path` is a mapping with no key outside `keys`."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a mapping, got {raw!r}")
    unknown = sorted(set(raw).difference(keys))
    if unknown:
        raise ConfigError(_key(path, unknown[0]), "unknown key")


def _anchored(exc: ValueError, path: str, keys) -> ConfigError:
    """`exc` as a ConfigError at `path`, or at its key when the message
    leads with one of `keys` (ScenarioSpec's, the chirp's and the frames'
    messages lead with the offending field name)."""
    first_word = str(exc).split(" ", 1)[0]
    return ConfigError(_key(path, first_word) if first_word in keys else path, str(exc))


def _expect(raw: dict, key: str, types, path: str, default=None, required=False):
    """raw[key], of `types` (a bool is no int); a value that may be a float
    is returned as one."""
    where = _key(path, key)
    if key not in raw:
        if required:
            raise ConfigError(where, "missing required key")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, types):
        want = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise ConfigError(where, f"expected {want}, got {value!r}")
    value = _in_float_range(value, where)
    return float(value) if types == (int, float) else value


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # past about 3080 dB; ScenarioSpec rejects the inf
        return float("inf")


def _resolve_scenario(raw: dict, path: str = "scenario") -> ScenarioSpec:
    """Scenario mapping → ScenarioSpec, converting dB conveniences."""
    _mapping(raw, path, _SCENARIO_KEYS)
    rfi_kind = _expect(raw, "rfi_kind", str, path, required=True)
    et_kind = _expect(raw, "et_kind", str, path, required=True)
    n_samples = _expect(raw, "n_samples", int, path, required=True)
    noise_power = _expect(raw, "noise_power", (int, float), path, default=1.0)
    gain = _expect(raw, "gain", (int, float), path, default=1.0)

    fields = {}
    for key in ("rfi_power", "rfi_energy", "et_power", "et_energy"):
        if key in raw:
            fields[key] = _expect(raw, key, (int, float), path)

    if "snr_db" in raw:
        if "et_power" in fields or "et_energy" in fields:
            raise ConfigError(
                f"{path}.snr_db", "give either snr_db or a linear signal strength"
            )
        level = noise_power * _db_to_linear(_expect(raw, "snr_db", (int, float), path))
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
        level = noise_power * _db_to_linear(_expect(raw, "inr_db", (int, float), path))
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
        raise _anchored(exc, path, _SCENARIO_KEYS) from exc


def _resolve_sweeps(raw, base_scenario_raw: dict):
    """(sweeps block, (file tag, resolved scenario) per sweep value), or
    (None, []) when no sweep is configured."""
    if raw is None:
        return None, []
    _mapping(raw, "sweeps", ("parameter", "values"))
    parameter = _expect(raw, "parameter", str, "sweeps", required=True)
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            "sweeps.parameter", f"must be one of {', '.join(_SWEEP_PARAMETERS)}"
        )
    values = _expect(raw, "values", list, "sweeps", required=True)
    if not values:
        raise ConfigError("sweeps.values", "must be a non-empty list")
    if parameter == "snr_db" and (
        "et_power" in base_scenario_raw or "et_energy" in base_scenario_raw
    ):
        raise ConfigError(
            "sweeps.parameter",
            "an snr_db sweep conflicts with a linear signal strength in scenario",
        )
    points = []
    for i, v in enumerate(values):
        where = f"sweeps.values[{i}]"
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(where, f"expected a number, got {v!r}")
        if parameter == "n_samples" and (not isinstance(v, int) or v < 1):
            raise ConfigError(where, "n_samples values must be positive integers")
        value = v if parameter == "n_samples" else float(_in_float_range(v, where))
        try:
            spec = _resolve_scenario({**base_scenario_raw, parameter: value})
        except ConfigError as exc:
            raise ConfigError(where, exc.message) from exc
        points.append((f"{parameter}_{_slug(v)}", spec))
    return {"parameter": parameter, "values": list(values)}, points


def load_config(
    source,
    *,
    seed: Optional[int] = None,
    out: Optional[str] = None,
    trials: Optional[int] = None,
) -> ExperimentConfig:
    """Parse and validate a JSON config mapping (CLI overrides applied last)."""
    _mapping(source, "", _TOP_KEYS)
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

    sweeps, points = _resolve_sweeps(source.get("sweeps"), raw_scenario)
    cfg = ExperimentConfig(
        scenario=scenario,
        detectors=detectors,
        mode=mode,
        trials=int(_expect(source, "trials", int, "", default=10_000)),
        seed=int(_expect(source, "seed", int, "", default=0)),
        pfa_grid=int(_expect(source, "pfa_grid", int, "", default=DEFAULT_GRID)),
        sweeps=sweeps,
        output_dir=Path(_expect(source, "output_dir", str, "", default="results")),
        points=points,
    )
    if "gains" in source:
        gains = _expect(source, "gains", list, "")
        if not gains:
            raise ConfigError("gains", "must be a non-empty list")
        for i, g in enumerate(gains):
            if isinstance(g, bool) or not isinstance(g, (int, float)) or g <= 0:
                raise ConfigError(f"gains[{i}]", f"expected a positive number, got {g!r}")
            _in_float_range(g, f"gains[{i}]")
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

    if cfg.seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {cfg.seed}")
    if cfg.trials < 1:
        raise ConfigError("trials", "must be positive")
    if cfg.mode != "analytic" and cfg.trials < 1_000:
        raise ConfigError(
            "trials", f"Monte Carlo modes need at least 1000 trials, got {cfg.trials}"
        )
    if cfg.pfa_grid < 2:
        raise ConfigError("pfa_grid", "must be at least 2")
    for key in ("trials", "pfa_grid"):
        if getattr(cfg, key) > _MAX_COUNT:
            raise ConfigError(key, f"must be at most 2**53, got {getattr(cfg, key)}")
    return cfg


def _resolve_spectrogram_block(raw) -> dict:
    path = "spectrogram"
    _mapping(raw, path, _SPECTROGRAM_KEYS)
    params = {
        key: _expect(raw, key, types, path, default, required=default is _REQUIRED)
        for key, (types, default) in _SPECTROGRAM_KEYS.items()
    }
    if params["noise_power"] < 0:
        raise ConfigError(f"{path}.noise_power", "must be non-negative")
    if params["seed"] is not None and params["seed"] < 0:
        raise ConfigError(f"{path}.seed", f"must be non-negative, got {params['seed']}")
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


def _csv_bytes(header: Sequence[str], columns, constants=()) -> bytes:
    """A CSV file's bytes, given by columns; every row ends with the fields
    of `constants`, formatted once."""
    tail = "".join("," + _fmt(v) for v in constants) + "\n"
    rows = (",".join(row) + tail for row in zip(*map(_cells, columns)))
    return "".join([",".join(header) + "\n", *rows]).encode()


def _file(name: str, data: bytes):
    """(file name, bytes, SHA-256 hex digest) of one output file, for _publish."""
    return name, data, hashlib.sha256(data).hexdigest()


def _csv_file(name: str, header: Sequence[str], columns, constants=()):
    """_file of a CSV file (see _csv_bytes), for a task to hand to the
    writing thread."""
    return _file(name, _csv_bytes(header, columns, constants))


def _slug(value) -> str:
    return str(value).replace("-", "m").replace(".", "p")


def _snr_db(spec: ScenarioSpec) -> float:
    snr = spec.snr()
    return float(10.0 * np.log10(snr)) if snr > 0 else float("-inf")


def _point_seed(seed: int, *indices: int) -> int:
    """Stable per-(point, hypothesis) child seed of the experiment seed."""
    return int(np.random.SeedSequence([int(seed), *indices]).generate_state(1)[0])


def _sorted_histogram(stats: np.ndarray, bins: int):
    """np.histogram(stats, bins) of sorted statistics, counted by bisection:
    bin i holds edges[i] ≤ x < edges[i + 1], the last bin closed."""
    edges = np.histogram_bin_edges(stats, bins=bins)
    counts = np.diff(np.searchsorted(stats, edges[:-1]), append=stats.size)
    return counts, edges


def _ks_bound(stats: np.ndarray, law: Law, nodes: int = _KS_NODES) -> float:
    """Upper bound on the exact KS distance from a subsample of cdf nodes."""
    x = np.sort(np.asarray(stats, dtype=float))
    # strictly increasing already: the step is at least 1
    idx = np.linspace(0, x.size - 1, min(nodes, x.size)).astype(int)
    cdf = np.atleast_1d(np.asarray(law.cdf(x[idx]), dtype=float))
    upper = (idx + 1) / x.size
    lower = idx / x.size
    d = max(float(np.max(upper - cdf)), float(np.max(cdf - lower)))
    gap = float(np.max(np.diff(cdf))) if cdf.size > 1 else 1.0
    return d + gap


# ---------------------------------------------------------------------------
# experiment pipeline


def _sorted_quantile(x: np.ndarray, q) -> np.ndarray:
    """np.quantile(x, q) of sorted x, bit for bit (its default linear
    method), read from x without copying or partitioning it."""
    n = x.size
    v = (n - 1) * np.asarray(q, dtype=float)
    # as NumPy does: both neighbours are the last value from n − 1 on, and
    # the weight is still taken from the index −1 put there
    last = v >= n - 1
    lo = np.where(last, -1.0, np.floor(v))
    hi = np.where(last, -1.0, lo + 1.0)
    a, b = x[lo.astype(np.intp)], x[hi.astype(np.intp)]
    t = v - lo
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _empirical_points(h0_stats: np.ndarray, h1_stats: np.ndarray, targets: np.ndarray):
    """(thresholds, pfa, pd) of sorted Monte Carlo statistics at target
    false-alarm rates: each threshold is the H0 statistics' 1 − target
    quantile, and pfa and pd count the statistics strictly above it."""
    ts = _sorted_quantile(h0_stats, 1.0 - targets)
    n0, n1 = h0_stats.size, h1_stats.size
    pfa = (n0 - np.searchsorted(h0_stats, ts, side="right")) / n0
    pd = (n1 - np.searchsorted(h1_stats, ts, side="right")) / n1
    return ts, pfa, pd


def _empirical_curve(h0_stats: np.ndarray, h1_stats: np.ndarray, grid: int):
    """(thresholds, pfa, pd, auc) from sorted Monte Carlo statistics alone."""
    targets = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    thresholds, pfa, pd = _closed_curve(*_empirical_points(h0_stats, h1_stats, targets))
    auc = float(np.sum(0.5 * (pd[1:] + pd[:-1]) * np.diff(pfa)))
    return thresholds, pfa, pd, auc


def _config_as_mapping(config: ExperimentConfig, command: str) -> dict:
    mapping = {
        "command": command,
        "version": __version__,
        "scenario": dataclasses.asdict(config.scenario),
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


def _publish(config: ExperimentConfig, command: str, files) -> list[Path]:
    """Make the output directory, write each (name, bytes, digest) of
    `files` in one shot, then manifest.json: the resolved config and those
    digests by file name (nothing is read back).  Returns the written
    paths, the manifest last."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data, _ in files:
        paths.append(config.output_dir / name)
        paths[-1].write_bytes(data)
    manifest = {
        "config": _config_as_mapping(config, command),
        "files": {name: digest for name, _, digest in files},
    }
    paths.append(config.output_dir / "manifest.json")
    paths[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return paths


def run_experiment(config: ExperimentConfig, *, ks_table: bool = False) -> list[Path]:
    """Run every sweep point and write ROC, summary, histogram and manifest
    files into the configured output directory; returns the written paths.

    Analytic modes place thresholds at exact H0-law quantiles; Monte Carlo
    mode builds the same products from empirical quantiles of synthesized
    statistics.  Mode ``both`` writes analytic curves plus histogram files
    with empirical/analytic density overlays.
    """
    run_analytic = config.mode in ("analytic", "both")
    run_mc = config.mode in ("monte_carlo", "both")

    # every point's laws before any curve, so a scenario without one is a
    # configuration error whatever else would fail
    points = config.points
    assumed, laws = [], []
    for index, (_, spec) in enumerate(points):
        try:
            assumed.append(default_assumed_noise(spec))
            laws.append({kind: detector_laws(spec, kind) for kind in config.detectors})
        except ValueError as exc:
            where = "scenario" if config.sweeps is None else f"sweeps.values[{index}]"
            raise ConfigError(where, f"no sampling law for this scenario: {exc}")

    if run_mc:
        # each (point, hypothesis) is drawn once and shared by every
        # detector: its seed does not depend on the detector
        def draw(task):
            index, h_index, hyp = task
            seed = _point_seed(config.seed, index, h_index)
            return run_paired_estimates(points[index][1], hyp, config.trials, seed)

        draw_tasks = [
            (i, h, hyp) for i in range(len(points)) for h, hyp in enumerate(Hypothesis)
        ]
        pairs = ordered_map(draw, draw_tasks)
        draws = {(i, h): pair for (i, h, _), pair in zip(draw_tasks, pairs)}

    def point_detector(task):
        """What one point and detector write, computed in serial order: the
        curve (thresholds, pfa, pd, auc, pd at SUMMARY_PFA), then with Monte
        Carlo the histograms and KS bounds of each hypothesis.  Returns the
        finished files as (name, bytes, digest), the summary row and the KS
        rows."""
        index, kind = task
        tag, spec = points[index]
        h0, h1 = laws[index][kind]
        ident = (spec.scenario_id, spec.gain, _snr_db(spec), spec.n_samples)
        if run_analytic:
            with _named_computation(f"{kind.value} law", h0, h1):
                curve = roc_curve(h0, h1, grid=config.pfa_grid)
                pd_ref = [
                    pd_pfa(h0, h1, curve.h0_map.threshold(pfa_ref))[0]
                    for pfa_ref in SUMMARY_PFA
                ]
            thresholds, pfa, pd, auc = curve.thresholds, curve.pfa, curve.pd, curve.auc
        mc_stats = []
        if run_mc:
            for h_index in range(len(Hypothesis)):
                on, off = draws[index, h_index]
                stats = detector_stat(kind, on, off, assumed_noise=assumed[index])
                # sorted once: quantiles, counts and histograms ignore order
                mc_stats.append(np.sort(stats))
            if not all(np.all(np.isfinite(stats)) for stats in mc_stats):
                raise ComputationError(
                    f"{kind.value} Monte Carlo statistics at {tag} leave the float range"
                )
        if not run_analytic:
            pd_ref = _empirical_points(*mc_stats, np.array(SUMMARY_PFA))[2].tolist()
            thresholds, pfa, pd, auc = _empirical_curve(*mc_stats, config.pfa_grid)
        written = [
            _csv_file(
                f"roc_{kind.value}_{tag}.csv",
                ROC_COLUMNS,
                (thresholds, pfa, pd),
                (kind.value, *ident),
            )
        ]
        ks_rows = []
        for hyp, stats, law in zip(Hypothesis, mc_stats, (h0, h1)):
            counts, edges = _sorted_histogram(stats, _HIST_BINS)
            empirical = counts / (stats.size * np.diff(edges))
            mids = 0.5 * (edges[:-1] + edges[1:])
            with _named_computation(f"{kind.value} law", h0, h1):
                analytic = np.atleast_1d(np.asarray(law.pdf(mids), dtype=float))
                if ks_table:
                    bound = _ks_bound(stats, law)
                    ks_rows.append((kind.value, hyp.value, *ident, config.trials, bound))
            written.append(
                _csv_file(
                    f"hist_{kind.value}_{hyp.value}_{tag}.csv",
                    HIST_COLUMNS,
                    (edges[:-1], edges[1:], empirical, analytic),
                )
            )
        return written, (kind.value, *ident, auc, *pd_ref), ks_rows

    tasks = [(i, kind) for i in range(len(points)) for kind in config.detectors]
    outputs = ordered_map(point_detector, tasks)
    written = [file for task_files, _, _ in outputs for file in task_files]
    summary_rows = [row for _, row, _ in outputs]
    written.append(_csv_file("summary.csv", SUMMARY_COLUMNS, zip(*summary_rows)))
    if ks_table:
        ks_rows = [row for _, _, rows in outputs for row in rows]
        written.append(_csv_file("ks_summary.csv", KS_COLUMNS, zip(*ks_rows)))
    return _publish(config, "mc-validate" if ks_table else "roc", written)


def _spectrogram_csv(chirp: ChirpParams, noise_power, fft_len, hop, n_samples, seed) -> bytes:
    """The bytes of emit_spectrogram_demo's file."""
    if not (np.isfinite(noise_power) and noise_power >= 0):
        raise ValueError("noise_power must be non-negative")
    if n_samples is None:
        n_samples = fft_len + 63 * hop
    n_samples = int(n_samples)
    if n_samples < fft_len:
        raise ValueError("n_samples must cover at least one frame")
    stream = chirp.waveform(n_samples)
    if noise_power > 0:
        stream = stream + _cgauss(np.random.default_rng(seed), n_samples, noise_power)
    frames = spectrogram(stream, fft_len, hop)
    return "".join(",".join(map(repr, row)) + "\n" for row in frames.tolist()).encode()


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
    path = Path(path)
    path.write_bytes(_spectrogram_csv(chirp, noise_power, fft_len, hop, n_samples, seed))
    return path


def _run_spectrogram_verb(config: ExperimentConfig) -> list[Path]:
    params = config.spectrogram_params
    if params is None:
        raise ConfigError("spectrogram", "missing required key for this command")
    chirp_keys = {f.name for f in dataclasses.fields(ChirpParams)}
    frames = {k: v for k, v in params.items() if k not in chirp_keys}
    if frames["seed"] is None:
        frames["seed"] = config.seed
    try:
        chirp = ChirpParams(**{k: params[k] for k in chirp_keys})
        data = _spectrogram_csv(chirp, **frames)
    except ValueError as exc:
        raise _anchored(exc, "spectrogram", _SPECTROGRAM_KEYS) from exc
    return _publish(config, "spectrogram", [_file("spectrogram.csv", data)])


def _run_compare_verb(config: ExperimentConfig) -> list[Path]:
    gains = config.gains if config.gains is not None else [0.8, 0.9, 1.0, 1.1, 1.25]
    try:
        rows = compare_detectors(config.scenario, gains, detectors=config.detectors)
    except _NoLaw as exc:
        # the gain-1 baseline is the scenario's own
        where = "scenario" if exc.gain == 1.0 else f"gains[{gains.index(exc.gain)}]"
        raise ConfigError(where, f"no sampling law for this scenario: {exc}")
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
    compare = _csv_file("compare.csv", COMPARE_COLUMNS, zip(*table))
    return _publish(config, "compare", [compare])


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
    """Best-effort line number of the key a validation error points at:
    each key of the dotted path is looked for from its parent's line on
    (`spectrogram.n_samples` is not `scenario.n_samples`), and the
    innermost key found gives the line."""
    lines = text.splitlines()
    anchor = None
    for segment in dotted_path.replace("]", "").split("."):
        key = segment.split("[")[0]
        if not key:
            continue
        start = anchor or 0
        found = next((i for i in range(start, len(lines)) if f'"{key}"' in lines[i]), None)
        if found is None:
            break
        anchor = found
    return None if anchor is None else anchor + 1


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
    except MemoryError:
        print("out of memory: lower trials, pfa_grid or spectrogram.n_samples", file=sys.stderr)
        return 2

    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
