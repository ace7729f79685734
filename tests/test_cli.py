"""Tests for the batch front-end: config parsing, result files, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import setidetect.cli
import setidetect.roc
from setidetect import _pool
from setidetect import (
    ComputationError,
    DetectorKind,
    ScaledGamma,
    default_assumed_noise,
    detector_laws,
    pd_pfa,
    threshold_for_pfa,
)
from setidetect.cli import (
    COMPARE_COLUMNS,
    HIST_COLUMNS,
    KS_COLUMNS,
    ROC_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    _csv_bytes,
    _csv_file,
    _empirical_curve,
    _empirical_points,
    _ks_bound,
    _sorted_histogram,
    _sorted_quantile,
    load_config,
    main,
    run_experiment,
)
from setidetect.distributions import FLaw, GammaDifference
from setidetect.roc import AUC_TOL
from single_sample import exact_single_sample_auc


def base_config(**kw):
    cfg = {
        "scenario": {
            "rfi_kind": "wideband",
            "et_kind": "wideband",
            "noise_power": 1.0,
            "rfi_power": 1.0,
            "et_power": 1.0,
            "gain": 1.0,
            "n_samples": 64,
        },
        "detectors": ["f_ratio", "on_off"],
        "mode": "analytic",
        "pfa_grid": 128,
    }
    cfg.update(kw)
    return cfg


def spectrogram_block(**kw):
    return {"amplitude": 1.0, "start_freq": 0.1, "fft_len": 16, "hop": 8, **kw}


def refuses_huge_allocations() -> bool:
    """Whether the kernel refuses an allocation beyond its memory when it is
    asked for (Linux heuristic or strict overcommit), not when it is touched."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_json(path: Path, document) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config({"scenario": base_config()["scenario"]})
        assert [k.value for k in cfg.detectors] == ["f_ratio", "on_off"]
        assert cfg.mode == "analytic"
        assert cfg.trials == 10_000
        assert cfg.seed == 0
        assert cfg.output_dir == Path("results")

    def test_db_conversion_wideband(self):
        doc = base_config()
        del doc["scenario"]["et_power"]
        doc["scenario"]["snr_db"] = 3.0
        doc["scenario"]["noise_power"] = 2.0
        cfg = load_config(doc)
        assert cfg.scenario.et_power == pytest.approx(2.0 * 10 ** 0.3, rel=1e-12)

    def test_db_conversion_narrowband_scales_with_window(self):
        doc = base_config()
        doc["scenario"].update(
            {"et_kind": "narrowband", "snr_db": 0.0, "n_samples": 128}
        )
        del doc["scenario"]["et_power"]
        cfg = load_config(doc)
        assert cfg.scenario.et_energy == pytest.approx(128.0, rel=1e-12)

    def test_inr_db_requires_interference(self):
        doc = base_config()
        doc["scenario"].update({"rfi_kind": "none", "inr_db": 0.0})
        del doc["scenario"]["rfi_power"]
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "scenario.inr_db"

    def test_db_and_linear_fields_conflict(self):
        doc = base_config()
        doc["scenario"]["snr_db"] = 0.0  # et_power already present
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "scenario.snr_db"

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_config(base_config(bogus=1))
        assert err.value.path == "bogus"
        doc = base_config()
        doc["scenario"]["bandwidth"] = 3.0
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "scenario.bandwidth"

    @pytest.mark.parametrize("block", ["scenario", "sweeps", "spectrogram"])
    def test_each_block_is_a_mapping_of_known_keys(self, block):
        valid = {
            "scenario": base_config()["scenario"],
            "sweeps": {"parameter": "gain", "values": [1.0]},
            "spectrogram": spectrogram_block(),
        }[block]
        with pytest.raises(ConfigError) as err:
            load_config(base_config(**{block: [1, 2]}))
        assert (err.value.path, err.value.message) == (block, "expected a mapping, got [1, 2]")
        with pytest.raises(ConfigError) as err:
            load_config(base_config(**{block: {**valid, "bogus": 1}}))
        assert (err.value.path, err.value.message) == (f"{block}.bogus", "unknown key")

    def test_scenario_field_errors_anchor_at_field(self):
        doc = base_config()
        doc["scenario"]["rfi_power"] = -2.0
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "scenario.rfi_power"

    def test_bad_detector_name(self):
        with pytest.raises(ConfigError) as err:
            load_config(base_config(detectors=["f_ratio", "matched"]))
        assert err.value.path == "detectors[1]"

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            load_config(base_config(trials=True))

    def test_monte_carlo_needs_enough_trials(self):
        with pytest.raises(ConfigError) as err:
            load_config(base_config(mode="monte_carlo", trials=500))
        assert err.value.path == "trials"
        cfg = load_config(base_config(mode="monte_carlo", trials=1000))
        assert cfg.trials == 1000
        # analytic mode has no such floor
        assert load_config(base_config(trials=5)).trials == 5

    def test_sweep_validation(self):
        ok = load_config(
            base_config(sweeps={"parameter": "gain", "values": [0.8, 1.25]})
        )
        assert ok.sweeps == {"parameter": "gain", "values": [0.8, 1.25]}
        with pytest.raises(ConfigError) as err:
            load_config(base_config(sweeps={"parameter": "bandwidth", "values": [1]}))
        assert err.value.path == "sweeps.parameter"
        with pytest.raises(ConfigError):
            load_config(base_config(sweeps={"parameter": "gain", "values": []}))
        with pytest.raises(ConfigError) as err:
            load_config(
                base_config(sweeps={"parameter": "n_samples", "values": [64, 96.5]})
            )
        assert err.value.path == "sweeps.values[1]"

    def test_sweep_points_resolve_at_load(self):
        cfg = load_config(base_config(sweeps={"parameter": "gain", "values": [0.8, 2]}))
        assert [tag for tag, _ in cfg.points] == ["gain_0p8", "gain_2"]
        assert [spec.gain for _, spec in cfg.points] == [0.8, 2.0]
        base = load_config(base_config())
        assert base.points == [("base", base.scenario)]

    def test_integers_beyond_the_float_range_are_rejected(self):
        doc = base_config(sweeps={"parameter": "gain", "values": [1, 10**400]})
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "sweeps.values[1]"
        doc = base_config()
        doc["scenario"]["noise_power"] = 10**400
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "scenario.noise_power"

    def test_snr_sweep_conflicts_with_linear_signal(self):
        doc = base_config(sweeps={"parameter": "snr_db", "values": [0.0, 3.0]})
        with pytest.raises(ConfigError) as err:
            load_config(doc)
        assert err.value.path == "sweeps.parameter"

    def test_overrides_beat_document(self, tmp_path):
        cfg = load_config(
            base_config(seed=7, trials=2000),
            seed=11,
            trials=3000,
            out=str(tmp_path / "o"),
        )
        assert cfg.seed == 11
        assert cfg.trials == 3000
        assert cfg.output_dir == tmp_path / "o"

    def test_degenerate_scenario_fails_at_law_construction(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path))
        doc["scenario"]["noise_power"] = 0.0
        doc["scenario"]["rfi_power"] = 0.0
        doc["scenario"]["et_power"] = 0.0
        cfg = load_config(doc)
        with pytest.raises(ConfigError, match="no sampling law"):
            run_experiment(cfg)


class TestRunExperiment:
    def test_chance_config_has_half_auc(self, tmp_path):
        doc = base_config(
            detectors=["f_ratio", "on_off", "energy"], output_dir=str(tmp_path)
        )
        doc["scenario"]["et_power"] = 0.0
        files = run_experiment(load_config(doc))
        names = {f.name for f in files}
        assert "summary.csv" in names and "manifest.json" in names
        rows = read_csv(tmp_path / "summary.csv")
        assert list(rows[0].keys()) == list(SUMMARY_COLUMNS)
        assert {r["detector"] for r in rows} == {"f_ratio", "on_off", "energy"}
        for row in rows:
            assert abs(float(row["auc"]) - 0.5) < 1e-6
            assert abs(float(row["pd_at_pfa_0.01"]) - 0.01) < 1e-6
            assert abs(float(row["pd_at_pfa_0.1"]) - 0.1) < 1e-6

    def test_summary_pd_matches_root_found_thresholds(self, tmp_path):
        # summary thresholds come from each curve's H0 quantile map; they must
        # give the pd of threshold_for_pfa's law_quantile thresholds
        doc = base_config(
            detectors=["f_ratio", "on_off", "energy"], output_dir=str(tmp_path)
        )
        doc["scenario"].update(
            rfi_kind="narrowband", et_kind="narrowband", rfi_power=0.0,
            et_power=0.0, rfi_energy=16.0, et_energy=16.0, gain=0.9, n_samples=16,
        )
        config = load_config(doc)
        run_experiment(config)
        spec = config.scenario
        for row in read_csv(tmp_path / "summary.csv"):
            h0, h1 = detector_laws(spec, row["detector"], default_assumed_noise(spec))
            for pfa in (0.01, 0.1):
                pd = pd_pfa(h0, h1, threshold_for_pfa(h0, pfa))[0]
                assert float(row[f"pd_at_pfa_{pfa}"]) == pytest.approx(pd, abs=1e-9)

    def test_roc_csv_schema_and_shape(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path), pfa_grid=64)
        files = run_experiment(load_config(doc))
        roc = tmp_path / "roc_f_ratio_base.csv"
        assert roc in files
        rows = read_csv(roc)
        assert list(rows[0].keys()) == list(ROC_COLUMNS)
        assert len(rows) == 64 + 2
        pfa = np.array([float(r["pfa"]) for r in rows])
        pd = np.array([float(r["pd"]) for r in rows])
        assert pfa[0] == 0.0 and pfa[-1] == 1.0
        assert np.all(np.diff(pfa) > 0)
        assert np.all(np.diff(pd) >= 0)
        assert rows[1]["scenario_id"] == "rfi-wideband_et-wideband"
        assert float(rows[1]["snr_db"]) == pytest.approx(0.0)

    def test_sweep_produces_tagged_files(self, tmp_path):
        doc = base_config(
            output_dir=str(tmp_path),
            detectors=["f_ratio"],
            sweeps={"parameter": "gain", "values": [0.8, 1.25]},
        )
        run_experiment(load_config(doc))
        assert (tmp_path / "roc_f_ratio_gain_0p8.csv").exists()
        assert (tmp_path / "roc_f_ratio_gain_1p25.csv").exists()
        rows = read_csv(tmp_path / "summary.csv")
        assert [float(r["gain"]) for r in rows] == [0.8, 1.25]

    def test_monte_carlo_mode_builds_empirical_curves(self, tmp_path):
        doc = base_config(
            output_dir=str(tmp_path),
            detectors=["f_ratio"],
            mode="monte_carlo",
            trials=2000,
            pfa_grid=32,
            seed=5,
        )
        files = run_experiment(load_config(doc))
        rows = read_csv(tmp_path / "roc_f_ratio_base.csv")
        assert len(rows) == 32 + 2
        # thresholds at empirical H0 quantiles realize the pfa grid to within
        # the sample's resolution, and pd rises with pfa
        pfa = np.array([float(r["pfa"]) for r in rows])
        pd = np.array([float(r["pd"]) for r in rows])
        targets = np.linspace(0.0, 1.0, 32 + 2)[1:-1]
        assert np.all(np.abs(pfa[1:-1] - targets) <= 2 / 2000)
        assert np.all(np.diff(pd) >= 0)
        auc = float(read_csv(tmp_path / "summary.csv")[0]["auc"])
        assert 0.5 < auc < 1.0
        # histogram overlays accompany Monte Carlo runs
        assert (tmp_path / "hist_f_ratio_H0_base.csv").exists()
        assert (tmp_path / "hist_f_ratio_H1_base.csv").exists()
        hist_rows = read_csv(tmp_path / "hist_f_ratio_H0_base.csv")
        assert list(hist_rows[0].keys()) == list(HIST_COLUMNS)

    def test_ks_table(self, tmp_path):
        doc = base_config(
            output_dir=str(tmp_path),
            detectors=["on_off"],
            mode="both",
            trials=5000,
            pfa_grid=32,
        )
        run_experiment(load_config(doc), ks_table=True)
        rows = read_csv(tmp_path / "ks_summary.csv")
        assert list(rows[0].keys()) == list(KS_COLUMNS)
        assert len(rows) == 2  # one per hypothesis
        for row in rows:
            assert int(row["trials"]) == 5000
            assert float(row["ks_bound"]) < 0.06

    def test_byte_identical_reruns(self, tmp_path):
        doc = base_config(
            output_dir=str(tmp_path / "a"),
            mode="both",
            trials=2000,
            pfa_grid=32,
            seed=3,
        )
        files = run_experiment(load_config(doc))
        first = {f.name: f.read_bytes() for f in files}
        files = run_experiment(load_config(doc))
        second = {f.name: f.read_bytes() for f in files}
        assert first == second

        doc_b = dict(doc, output_dir=str(tmp_path / "b"))
        files_b = run_experiment(load_config(doc_b))
        third = {f.name: f.read_bytes() for f in files_b}
        for name, blob in first.items():
            if name != "manifest.json":
                assert third[name] == blob
        # manifests agree on every hash, differing only in the output path
        ma = json.loads(first["manifest.json"])
        mb = json.loads(third["manifest.json"])
        assert ma["files"] == mb["files"]
        ma["config"].pop("output_dir")
        mb["config"].pop("output_dir")
        assert ma["config"] == mb["config"]


def binned_ks(path) -> float:
    rows = read_csv(path)
    left = np.array([float(r["bin_left"]) for r in rows])
    right = np.array([float(r["bin_right"]) for r in rows])
    emp = np.array([float(r["empirical_density"]) for r in rows])
    ana = np.array([float(r["analytic_density"]) for r in rows])
    width = right - left
    return float(np.max(np.abs(np.cumsum(emp * width) - np.cumsum(ana * width))))


class TestInjectionHistograms:
    def test_histograms_track_analytic_density(self, tmp_path):
        doc = base_config(
            output_dir=str(tmp_path),
            detectors=["f_ratio"],
            mode="both",
            trials=100_000,
            pfa_grid=64,
            seed=12,
            sweeps={"parameter": "snr_db", "values": [0.0, 2.51]},
        )
        del doc["scenario"]["et_power"]
        run_experiment(load_config(doc))
        for tag in ("snr_db_0p0", "snr_db_2p51"):
            for hyp in ("H0", "H1"):
                ks = binned_ks(tmp_path / f"hist_f_ratio_{hyp}_{tag}.csv")
                assert ks < 0.01, (tag, hyp, ks)


class TestMainEntry:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_roc_verb_happy_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(pfa_grid=16))
        out = tmp_path / "results"
        code, stdout, stderr = self.run(
            capsys, "roc", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0, stderr
        printed = [Path(line) for line in stdout.splitlines()]
        assert out / "summary.csv" in printed
        for path in printed:
            assert path.exists()

    def test_flag_overrides_reach_manifest(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            base_config(mode="monte_carlo", trials=1500, pfa_grid=16, seed=1),
        )
        out = tmp_path / "results"
        code, _, stderr = self.run(
            capsys,
            "roc",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seed",
            "9",
            "--trials",
            "2500",
        )
        assert code == 0, stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["trials"] == 2500
        assert manifest["config"]["command"] == "roc"

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = self.run(
            capsys, "roc", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read config" in stderr

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "scenario": {,}\n}\n')
        code, _, stderr = self.run(capsys, "roc", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:2:" in stderr and "invalid JSON" in stderr

    def test_config_errors_are_line_anchored(self, tmp_path, capsys):
        doc = base_config()
        doc["scenario"]["rfi_power"] = -1.0
        cfg = write_json(tmp_path / "cfg.json", doc)
        lineno = next(
            i
            for i, line in enumerate(cfg.read_text().splitlines(), start=1)
            if '"rfi_power"' in line
        )
        code, _, stderr = self.run(capsys, "roc", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:{lineno}: scenario.rfi_power:" in stderr

    def test_document_that_is_no_mapping_has_no_empty_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "top.json", [1, 2])
        code, _, stderr = self.run(capsys, "roc", "--config", str(cfg))
        assert code == 2
        assert stderr == f"{cfg}: expected a mapping, got [1, 2]\n"

    @staticmethod
    def line_of(path: Path, key: str, after: str = "") -> int:
        """Line of the first `key` at or after the first `after` key."""
        lines = path.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if f'"{after}"' in line) if after else 0
        return next(i for i in range(start, len(lines)) if f'"{key}"' in lines[i]) + 1

    def assert_clean_exit_2(self, code, stderr, out):
        assert code == 2
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["roc", "compare", "spectrogram"])
    def test_rejected_sweep_value_exits_2_at_its_line(self, tmp_path, capsys, verb):
        doc = base_config(sweeps={"parameter": "gain", "values": [0.5, -1]})
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        code, _, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out))
        self.assert_clean_exit_2(code, stderr, out)
        lineno = self.line_of(cfg, "values")
        assert f"{cfg}:{lineno}: sweeps.values[1]: gain must be non-negative" in stderr

    @pytest.mark.parametrize(
        "verb, doc, flags, key",
        [
            ("roc", base_config(mode="monte_carlo", trials=1000, seed=-1), [], "seed"),
            ("mc-validate", base_config(trials=1000), ["--seed", "-5"], None),
            (
                "spectrogram",
                base_config(spectrogram=spectrogram_block(seed=-1)),
                [],
                "spectrogram.seed",
            ),
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, verb, doc, flags, key):
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        code, _, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out), *flags)
        self.assert_clean_exit_2(code, stderr, out)
        assert "seed: must be non-negative" in stderr
        if key is not None:
            outer, _, inner = key.rpartition(".")
            assert stderr.startswith(f"{cfg}:{self.line_of(cfg, inner, outer)}: {key}:")

    @pytest.mark.skipif(
        not refuses_huge_allocations(),
        reason="the kernel may grant a 10¹²-element array that it cannot back",
    )
    @pytest.mark.parametrize("verb, key", [("roc", "pfa_grid"), ("mc-validate", "trials")])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, verb, key):
        # 8 TB arrays: refused at once, so nothing is computed or touched
        cfg = write_json(tmp_path / "cfg.json", base_config(**{key: 10**12}))
        out = tmp_path / "out"
        code, _, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out))
        self.assert_clean_exit_2(code, stderr, out)
        assert "out of memory: lower trials, pfa_grid or spectrogram.n_samples" in stderr

    @pytest.mark.parametrize("size", [2**60, 10**19, 2**63 - 1], ids=["2^60", "1e19", "2^63-1"])
    @pytest.mark.parametrize("verb, key", [("roc", "pfa_grid"), ("mc-validate", "trials")])
    def test_size_numpy_cannot_describe_exits_2_at_its_key(
        self, tmp_path, capsys, verb, key, size
    ):
        # NumPy raised "array is too big", "Maximum allowed size exceeded" or
        # an IndexError for these before any allocation
        cfg = write_json(tmp_path / "cfg.json", base_config(**{key: size}))
        out = tmp_path / "out"
        code, _, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out))
        self.assert_clean_exit_2(code, stderr, out)
        anchor = f"{cfg}:{self.line_of(cfg, key)}"
        assert stderr == f"{anchor}: {key}: must be at most 2**53, got {size}\n"

    def test_trials_override_beyond_2_53_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(trials=1000))
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--out", str(out), "--trials", str(2**60)]
        code, _, stderr = self.run(capsys, "mc-validate", *argv)
        self.assert_clean_exit_2(code, stderr, out)
        assert f"trials: must be at most 2**53, got {2**60}" in stderr

    @pytest.mark.parametrize(
        "verb, edits, flags, key, message, anchor",
        [
            ("roc", {"scenario.rfi_kind": None}, [], "scenario.rfi_kind",
             "missing required key", ("scenario", "")),
            ("roc", {"sweeps": {"parameter": "gain", "values": [0.5, "x"]}}, [],
             "sweeps.values[1]", "expected a number, got 'x'", ("values", "sweeps")),
            ("roc", {"scenario": None}, [], "scenario", "missing required key", None),
            ("roc", {"detectors": []}, [], "detectors", "must be a non-empty list",
             ("detectors", "")),
            ("roc", {"mode": "fast"}, [], "mode",
             "must be one of analytic, monte_carlo, both", ("mode", "")),
            ("compare", {"gains": []}, [], "gains", "must be a non-empty list",
             ("gains", "")),
            ("compare", {"gains": [0.9, -0.5]}, [], "gains[1]",
             "expected a non-negative number, got -0.5", ("gains", "")),
            ("compare", {"gains": [True]}, [], "gains[0]",
             "expected a non-negative number, got True", ("gains", "")),
            ("compare", {"gains": [0.9, float("nan")]}, [], "gains[1]",
             "must be finite, got nan", ("gains", "")),
            ("roc", {"gains": [float("inf")]}, [], "gains[0]",
             "must be finite, got inf", ("gains", "")),
            ("roc", {}, ["--trials", "0"], "trials", "must be positive", None),
            ("roc", {"pfa_grid": 1}, [], "pfa_grid", "must be at least 2", ("pfa_grid", "")),
        ],
        ids=["no-rfi-kind", "non-number-sweep-value", "no-scenario", "no-detectors",
             "unknown-mode", "no-gains", "negative-gain", "boolean-gain", "nan-gain",
             "infinite-gain", "zero-trials", "pfa-grid-1"],
    )
    def test_load_time_error_exits_2_at_its_key(
        self, tmp_path, capsys, verb, edits, flags, key, message, anchor
    ):
        doc = base_config()
        for dotted, value in edits.items():
            block, _, name = dotted.rpartition(".")
            target = doc[block] if block else doc
            if value is None:
                del target[name]
            else:
                target[name] = value
        cfg = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        code, _, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out), *flags)
        self.assert_clean_exit_2(code, stderr, out)
        where = f"{cfg}:{self.line_of(cfg, *anchor)}" if anchor else str(cfg)
        assert stderr == f"{where}: {key}: {message}\n"

    @pytest.mark.parametrize("verb", ["roc", "compare", "spectrogram"])
    def test_unwritable_output_exits_4(self, tmp_path, capsys, verb):
        doc = base_config(pfa_grid=16, gains=[0.9, 1.0], spectrogram=spectrogram_block())
        cfg = write_json(tmp_path / "cfg.json", doc)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, so no directory can be made under it\n")
        out = blocker / "out"
        code, stdout, stderr = self.run(capsys, verb, "--config", str(cfg), "--out", str(out))
        assert code == 4
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert stderr.startswith("cannot write results:")

    def test_low_trial_override_fails_validation(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(mode="both", trials=5000))
        code, _, stderr = self.run(
            capsys, "roc", "--config", str(cfg), "--trials", "10"
        )
        assert code == 2
        assert "trials" in stderr

    def test_spectrogram_verb_requires_block(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config())
        code, _, stderr = self.run(capsys, "spectrogram", "--config", str(cfg))
        assert code == 2
        assert "spectrogram" in stderr

    def test_mc_validate_forces_monte_carlo(self, tmp_path, capsys):
        doc = base_config(mode="analytic", trials=1200, pfa_grid=16, detectors=["f_ratio"])
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "results"
        code, _, stderr = self.run(
            capsys, "mc-validate", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0, stderr
        assert (out / "ks_summary.csv").exists()
        assert (out / "hist_f_ratio_H0_base.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["config"]["mode"] == "both"

    def test_mc_validate_narrowband_pair_h1_within_critical_value(self, tmp_path, capsys):
        # overlapping default chirps (INR = SNR = 6 dB, g = 0.9): at N = 1, 7
        # and 65 the chirps' cross term moves ON's energy, at N = 64 it is 0
        trials = 20_000
        doc = base_config(
            scenario={
                "rfi_kind": "narrowband",
                "et_kind": "narrowband",
                "noise_power": 1.0,
                "inr_db": 6.0,
                "snr_db": 6.0,
                "gain": 0.9,
                "n_samples": 64,
            },
            detectors=["f_ratio", "on_off", "energy"],
            trials=trials,
            seed=3,
            pfa_grid=16,
            sweeps={"parameter": "n_samples", "values": [1, 7, 64, 65]},
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "results"
        code, _, stderr = self.run(
            capsys, "mc-validate", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0, stderr
        rows = read_csv(out / "ks_summary.csv")
        assert len(rows) == 4 * 3 * 2
        # DKW radius at level 1e-6, plus room for the bound's node-gap term
        critical = np.sqrt(np.log(2 / 1e-6) / (2 * trials)) + 2e-3
        for row in rows:
            assert float(row["ks_bound"]) < critical, row


class TestSpectrogramVerb:
    def test_pure_tone_single_column(self, tmp_path, capsys):
        doc = {
            "scenario": base_config()["scenario"],
            "spectrogram": {
                "amplitude": 1.0,
                "start_freq": 0.25,
                "fft_len": 64,
                "hop": 64,
                "n_samples": 256,
                "noise_power": 0.0,
            },
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "results"
        code = main(["spectrogram", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        matrix = np.loadtxt(out / "spectrogram.csv", delimiter=",")
        assert matrix.shape == (4, 64)
        for row in matrix:
            assert np.argmax(row) == 16
            assert np.sum(row > 1e-12) == 1

    def matrix(self, tmp_path, capsys, **block):
        """The spectrogram verb's matrix for a block with `block`'s keys."""
        doc = {"scenario": base_config()["scenario"], "spectrogram": block}
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "results"
        code = main(["spectrogram", "--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        return np.loadtxt(out / "spectrogram.csv", delimiter=",")

    def test_drifting_chirp_track_advances(self, tmp_path, capsys):
        matrix = self.matrix(
            tmp_path, capsys, amplitude=1.0, start_freq=0.0, drift_rate=0.001, fft_len=64,
            hop=32, n_samples=64 + 32 * 11, seed=0,
        )
        peaks = np.argmax(matrix, axis=1)
        assert peaks.size == 12
        assert np.all(np.diff(peaks) >= 1)

    def test_tone_detectable_in_matched_noise(self, tmp_path, capsys):
        """Per-sample tone power equal to the noise power concentrates the
        whole window energy in one bin, so the peak survives the noise in
        nearly every frame (800 frames that share no sample)."""
        matrix = self.matrix(
            tmp_path, capsys, amplitude=1.0, start_freq=16 / 64, noise_power=1.0, fft_len=64,
            hop=64, n_samples=64 * 800, seed=0,
        )
        assert matrix.shape[0] == 800
        assert np.mean(np.argmax(matrix, axis=1) == 16) > 0.9

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("amplitude", "-1.0", "amplitude must be non-negative"),
            ("start_freq", "1e400", "start_freq must be finite"),
            ("fft_len", "0", "fft_len must satisfy"),
            # keys the scenario block has too, on earlier lines
            ("n_samples", "8", "n_samples must cover at least one frame"),
            ("noise_power", "-1.0", "must be non-negative"),
            ("noise_power", "1e400", "must be non-negative and finite, got inf"),
        ],
        ids=["negative-amplitude", "infinite-start-freq", "zero-fft-len",
             "short-stream", "negative-noise-power", "infinite-noise-power"],
    )
    def test_bad_block_value_is_anchored_config_error(
        self, tmp_path, capsys, key, text, message
    ):
        block = {"amplitude": 1.0, "start_freq": 0.1, "fft_len": 32, "hop": 16,
                 "n_samples": 256, "noise_power": 0.5}
        doc = {"scenario": base_config()["scenario"], "spectrogram": block}
        cfg = write_json(tmp_path / "cfg.json", doc)
        # JSON reads 1e400 as inf, which json.dumps would not write
        lines = cfg.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if '"spectrogram"' in line)
        lineno = next(i for i in range(start, len(lines)) if f'"{key}"' in lines[i]) + 1
        comma = "," if lines[lineno - 1].endswith(",") else ""
        lines[lineno - 1] = f'    "{key}": {text}{comma}'
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["spectrogram", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{cfg}:{lineno}: spectrogram.{key}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCompareVerb:
    def test_table_structure_and_robustness_ordering(self, tmp_path, capsys):
        doc = base_config(gains=[0.9, 1.0, 1.1], pfa_grid=256)
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "results"
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out / "compare.csv")
        assert list(rows[0].keys()) == list(COMPARE_COLUMNS)
        assert len(rows) == 6
        worst = {}
        for row in rows:
            detector = row["detector"]
            delta = abs(float(row["auc_delta"]))
            worst[detector] = max(worst.get(detector, 0.0), delta)
            if float(row["gain"]) == 1.0:
                assert delta == 0.0
        assert worst["on_off"] < worst["f_ratio"]

    def test_default_gain_ladder(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(pfa_grid=64))
        out = tmp_path / "results"
        code = main(["compare", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 10
        assert sorted({float(r["gain"]) for r in rows}) == [0.8, 0.9, 1.0, 1.1, 1.25]

    def test_laws_are_built_once_per_gain_and_detector(self, tmp_path, capsys, monkeypatch):
        built = []
        for module in (setidetect.cli, setidetect.roc):
            real = module.detector_laws

            def counted(spec, kind, assumed_noise=None, real=real):
                built.append((spec.gain, DetectorKind(kind)))
                return real(spec, kind, assumed_noise)

            monkeypatch.setattr(module, "detector_laws", counted)
        cfg = write_json(tmp_path / "cfg.json", base_config(gains=[0.9, 1.0, 1.1, 0.9]))
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        kinds = (DetectorKind.F_RATIO, DetectorKind.ON_OFF)
        assert sorted(built) == sorted((g, k) for g in (0.9, 1.0, 1.1) for k in kinds)

    @pytest.mark.parametrize(
        "gains, lawless, where",
        [
            ([0.8, 1.0], {0.8, 1.0}, "scenario"),
            ([0.9, 0.8, 0.7, 0.8], {0.8, 0.7}, "gains[1]"),
        ],
        ids=["baseline-first", "gains-in-order"],
    )
    def test_first_gain_without_a_law_is_named(
        self, tmp_path, capsys, monkeypatch, gains, lawless, where
    ):
        real_laws = setidetect.roc.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain in lawless:
                raise ValueError(f"no law at gain {spec.gain}")
            return real_laws(spec, kind, assumed_noise)

        monkeypatch.setattr(setidetect.roc, "detector_laws", laws)
        cfg = write_json(tmp_path / "cfg.json", base_config(gains=gains))
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        gain = 1.0 if where == "scenario" else 0.8
        expected = f"{where}: no sampling law for this scenario: no law at gain {gain}"
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_sample_config_exits_zero(self, tmp_path, capsys):
        # N = 1 with strong interference: the on_off conditional integrand
        # kinks at the exponential's support edge
        doc = {
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
            "pfa_grid": 512,
            "gains": [0.001, 0.01, 0.5, 1.0],
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        rows = read_csv(tmp_path / "out" / "compare.csv")
        assert len(rows) == 8
        assert all(0.5 <= float(r["auc"]) <= 1.0 for r in rows)

    def test_zero_gain_is_accepted(self, tmp_path, capsys):
        # no interference in the ON pointing is a scenario like any other
        cfg = write_json(tmp_path / "cfg.json", base_config(gains=[0, 1]))
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        rows = read_csv(tmp_path / "out" / "compare.csv")
        assert [(r["detector"], float(r["gain"])) for r in rows] == [
            ("f_ratio", 0.0), ("on_off", 0.0), ("f_ratio", 1.0), ("on_off", 1.0)
        ]

    @pytest.mark.parametrize("detector", ["f_ratio", "on_off", "energy"])
    def test_scenario_without_gaussian_power_has_no_law(self, tmp_path, capsys, detector):
        # no noise and no interference: OFF has no Gaussian power, nor ON
        # under H0, so no pointing's estimate has a law
        doc = base_config(pfa_grid=16, detectors=[detector])
        doc["scenario"] = {
            "rfi_kind": "none",
            "et_kind": "wideband",
            "noise_power": 0.0,
            "et_power": 1.0,
            "n_samples": 16,
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        reason = "a pointing without Gaussian power has no mean-power law"
        assert f"scenario: no sampling law for this scenario: {reason}" in err
        assert not (tmp_path / "out").exists()

    def test_failing_law_is_named(self, tmp_path, capsys, monkeypatch):
        class FailingLaw(ScaledGamma):
            def cdf(self, t):
                raise ComputationError("series did not settle", achieved=2e-3)

        real_laws = setidetect.roc.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain == 0.9 and kind == "on_off":
                return FailingLaw(4.0, 1.0), FailingLaw(4.0, 2.0)
            return real_laws(spec, kind, assumed_noise)

        monkeypatch.setattr(setidetect.roc, "detector_laws", laws)
        cfg = write_json(tmp_path / "cfg.json", base_config(gains=[0.9, 1.0], pfa_grid=16))
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "on_off law at gain 0.9 failed: series did not settle" in err
        assert "FailingLaw(shape=4.0, scale=1.0), h1=" in err
        assert "FailingLaw(shape=4.0, scale=2.0))" in err


class TestHugeGains:
    """Gains whose laws leave the float range get an answer or end in exit 2
    or 3, never a traceback."""

    def run(self, tmp_path, capsys, verb, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def single_sample(self, **kw):
        doc = base_config(**kw)
        doc["scenario"]["n_samples"] = 1
        return doc

    def assert_exact_single_sample_rows(self, tmp_path, doc):
        """Every f_ratio row of the run of `doc` is the exact N = 1 AUC of its
        gain's laws, and its auc_delta is its auc less the gain-1 auc."""
        scenario = load_config(doc).scenario
        rows = read_csv(tmp_path / "out" / "compare.csv")
        rows = [r for r in rows if r["detector"] == "f_ratio"]
        (base,) = (float(r["auc"]) for r in rows if float(r["gain"]) == 1.0)
        for row in rows:
            laws = detector_laws(scenario.with_gain(float(row["gain"])), "f_ratio")
            assert abs(float(row["auc"]) - exact_single_sample_auc(*laws)) <= AUC_TOL
            assert float(row["auc_delta"]) == float(row["auc"]) - base

    def assert_spread_overflow(self, err, law):
        assert err.startswith(f"computation failed: {law} failed: conditional quadrature")
        assert "cannot be placed: the law's spread overflows the float range" in err
        assert err.count("\n") == 1

    def test_difference_spread_overflow_names_the_law(self, tmp_path, capsys):
        # ScaledGamma.variance overflows above a gain of about 1e154
        code, err = self.run(
            tmp_path, capsys, "compare", base_config(detectors=["on_off"], gains=[1e160, 1.0])
        )
        assert code == 3
        self.assert_spread_overflow(err, "on_off law at gain 1e+160")

    @pytest.mark.parametrize("detectors", [["f_ratio"], ["f_ratio", "on_off"]])
    def test_ratio_tail_beyond_float_range_names_the_law(self, tmp_path, capsys, detectors):
        # the N = 1 ratio's 1/t tail holds 5.6e-8 of H0 beyond the largest
        # float, but the OFF pair the AUC integrates over holds none: f_ratio
        # gets its AUC, and on_off, whose ON pair's variance overflows, fails
        doc = self.single_sample(detectors=detectors, gains=[1e300, 1.0])
        code, err = self.run(tmp_path, capsys, "compare", doc)
        if "on_off" in detectors:
            assert code == 3
            self.assert_spread_overflow(err, "on_off law at gain 1e+300")
        else:
            assert code == 0, err
            self.assert_exact_single_sample_rows(tmp_path, doc)

    def test_roc_sweep_names_the_law(self, tmp_path, capsys):
        doc = self.single_sample(sweeps={"parameter": "gain", "values": [1e300]})
        code, err = self.run(tmp_path, capsys, "roc", doc)
        assert code == 3
        assert "f_ratio law failed: H0 leaves mass" in err

    def test_compare_gain_without_a_law_is_named(self, tmp_path, capsys):
        # 1e308 · rfi_power 10 is not a float: the ON power is inf
        doc = base_config(gains=[0.5, 1e308])
        doc["scenario"]["rfi_power"] = 10.0
        code, err = self.run(tmp_path, capsys, "compare", doc)
        assert code == 2
        assert "gains[1]: no sampling law for this scenario" in err

    def test_sweep_value_without_a_law_is_named(self, tmp_path, capsys):
        doc = base_config(sweeps={"parameter": "gain", "values": [1.0, 1e308]})
        doc["scenario"]["rfi_power"] = 10.0
        code, err = self.run(tmp_path, capsys, "roc", doc)
        assert code == 2
        assert "sweeps.values[1]: no sampling law for this scenario" in err

    def test_monte_carlo_overflow_is_a_computation_error(self, tmp_path, capsys):
        # the mean powers of 64 samples of power 1.7e308 overflow in about a
        # third of the trials
        doc = base_config(
            detectors=["energy"],
            mode="monte_carlo",
            trials=1000,
            sweeps={"parameter": "gain", "values": [1.7e307]},
        )
        doc["scenario"]["rfi_power"] = 10.0
        code, err = self.run(tmp_path, capsys, "roc", doc)
        assert code == 3
        assert "energy Monte Carlo statistics at gain_1p7e+307 leave the float range" in err

    @pytest.mark.parametrize("verb", ["roc", "mc-validate"])
    def test_monte_carlo_means_near_the_float_limit_stay_finite(
        self, tmp_path, capsys, verb
    ):
        # mean powers of about 1e307 are drawn whole, so no sum of 64 sample
        # powers overflows on the way to them
        doc = base_config(
            detectors=["energy"],
            mode="monte_carlo",
            trials=1000,
            sweeps={"parameter": "gain", "values": [1e306]},
        )
        doc["scenario"]["rfi_power"] = 10.0
        code, err = self.run(tmp_path, capsys, verb, doc)
        assert code == 0, err
        (row,) = read_csv(tmp_path / "out" / "summary.csv")
        assert np.isfinite(float(row["auc"]))
        hists = sorted((tmp_path / "out").glob("hist_energy_*.csv"))
        assert len(hists) == 2
        for path in hists:
            values = [[float(v) for v in r.values()] for r in read_csv(path)]
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize(
        "detector, n_samples, rfi_power, gain, failure",
        [
            # the per-trial mean overflows
            ("energy", 64, 10.0, 1.7e307, "energy Monte Carlo statistics at gain_1p7e+307"),
            # ON/OFF overflows
            ("f_ratio", 1, 1.0, 1e306, "f_ratio law failed"),
            # the per-sample powers overflow
            ("f_ratio", 64, 1.0, 1.7e308, "f_ratio law failed"),
        ],
        ids=["mean", "ratio", "powers"],
    )
    def test_mc_validate_overflow_prints_one_line(
        self, tmp_path, capsys, detector, n_samples, rfi_power, gain, failure
    ):
        doc = base_config(
            detectors=[detector], trials=1000, sweeps={"parameter": "gain", "values": [gain]}
        )
        doc["scenario"].update(n_samples=n_samples, rfi_power=rfi_power)
        code, err = self.run(tmp_path, capsys, "mc-validate", doc)
        assert code == 3
        assert err.startswith(f"computation failed: {failure}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rfi_power", [1.0, 10.0])
    def test_single_sample_ratio_overflow_prints_one_line(self, tmp_path, capsys, rfi_power):
        # H0's own quantile bracket overflows at this gain (its seeds at
        # rfi_power 10, its expansion at 1), but compare integrates over the
        # OFF pair, which no gain moves: the run prints nothing and its AUC is
        # exactly ½, as the ON means round to one value
        doc = self.single_sample(detectors=["f_ratio"], gains=[1e306, 1.0])
        doc["scenario"]["rfi_power"] = rfi_power
        code, err = self.run(tmp_path, capsys, "compare", doc)
        assert code == 0, err
        assert err == ""
        self.assert_exact_single_sample_rows(tmp_path, doc)

    @pytest.mark.parametrize(
        "verb, where, kw",
        [
            ("roc", "scenario", {}),
            ("roc", "sweeps.values[1]", {"sweeps": {"parameter": "gain", "values": [1.0, 1e307]}}),
            ("compare", "gains[1]", {"gains": [0.5, 1e307]}),
        ],
        ids=["roc-scenario", "roc-sweep", "compare-gains"],
    )
    def test_overflowed_noncentrality_is_named_as_such(self, tmp_path, capsys, verb, where, kw):
        # 64 samples of narrowband interference at a gain of 1e307 hold an
        # energy beyond the float range
        doc = base_config(**kw)
        doc["scenario"] = {
            "rfi_kind": "narrowband",
            "et_kind": "narrowband",
            "noise_power": 1.0,
            "rfi_energy": 64.0,
            "et_energy": 64.0,
            "gain": 1e307 if where == "scenario" else 1.0,
            "n_samples": 64,
        }
        code, err = self.run(tmp_path, capsys, verb, doc)
        assert code == 2
        reason = "noncentrality_energy must be finite (got inf)"
        assert f"{where}: no sampling law for this scenario: {reason}" in err


class TestPowersAtTheFloatLimits:
    """Paired laws whose quadrature cannot be placed inside the float range
    exit 3 naming why, with no RuntimeWarning (an error under the suite's
    filter) on the way."""

    NARROWBAND = {"rfi_kind": "narrowband", "rfi_power": 0.0, "n_samples": 1}

    @pytest.mark.parametrize(
        "scenario, detectors, reason",
        [
            # B's upper panel edge, 1e308 times a χ²₂ quantile, overflows
            ({**NARROWBAND, "rfi_energy": 1.0, "noise_power": 1e308, "gain": 0.0,
              "et_power": 0.0},
             ["f_ratio", "on_off"], "its nodes leave the float range"),
            # the same for a central B, 1e308 times a χ²₂ quantile
            ({"et_kind": "narrowband", "et_power": 0.0, "et_energy": 1.0,
              "rfi_power": 1e308, "n_samples": 1},
             ["f_ratio"], "its nodes leave the float range"),
            # the H1 difference's variance 36·(1e308/36)² overflows
            ({"et_power": 1e308, "n_samples": 36},
             ["on_off", "f_ratio"], "the law's spread overflows the float range"),
            # B's lower panel edge underflows to 0, whose log the ratio's
            # panels would take
            ({**NARROWBAND, "rfi_energy": 1e-320, "noise_power": 1e-320, "gain": 0.5,
              "et_power": 1e-320},
             ["f_ratio"], "its nodes leave the float range"),
            # 2N/power overflows, so B's density is 0 at every node
            ({**NARROWBAND, "rfi_energy": 1e-320, "noise_power": 1e-320, "gain": 0.5,
              "et_kind": "narrowband", "et_power": 0.0, "et_energy": 1e-320},
             ["on_off"], "its weights leave the float range"),
            # B's density, about 1/scale, overflows at its nodes
            ({"rfi_power": 1e-320, "noise_power": 1e-320, "gain": 0.5, "et_power": 1e-320,
              "n_samples": 1},
             ["on_off"], "its weights leave the float range"),
        ],
        ids=["narrowband-noise", "wideband-interference", "wideband-signal",
             "subnormal-noise", "subnormal-noise-difference", "subnormal-scale-difference"],
    )
    def test_roc_exits_3_naming_the_cause(
        self, tmp_path, capsys, scenario, detectors, reason
    ):
        doc = base_config(detectors=detectors)
        doc["scenario"].update(scenario)
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        code = main(["roc", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        failed = f"computation failed: {detectors[0]} law failed: conditional quadrature"
        assert err.startswith(failed)
        assert f"cannot be placed: {reason}" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "huge, scale",
        [
            # A's argument u·y passes the float maximum at some nodes
            ({**NARROWBAND, "rfi_energy": 1e300, "noise_power": 1e307, "et_power": 1e307,
              "gain": 0.5, "n_samples": 36}, 1e-307),
            # so do the Gauss–Legendre panels' cuts at A's mean over u
            ({**NARROWBAND, "rfi_energy": 1e300, "noise_power": 1e300, "et_power": 1e300,
              "gain": 0.5}, 1e-300),
        ],
        ids=["gauss-hermite", "gauss-legendre"],
    )
    def test_ratio_whose_arguments_overflow_matches_its_scaled_law(
        self, tmp_path, capsys, huge, scale
    ):
        # where they overflow F_A is 1; the ratio is free of scale, so the
        # curve and summary equal those of the scenario with every power
        # scaled down to about 1, to rounding
        powers = ("rfi_energy", "noise_power", "et_power")
        unit = {**huge, **{key: huge[key] * scale for key in powers}}
        tables = []
        for name, scenario in (("huge", huge), ("unit", unit)):
            doc = base_config(detectors=["f_ratio"], pfa_grid=8)
            doc["scenario"].update(scenario)
            cfg = write_json(tmp_path / f"{name}.json", doc)
            out = tmp_path / name
            assert main(["roc", "--config", str(cfg), "--out", str(out)]) == 0, (
                capsys.readouterr().err
            )
            curve = np.loadtxt(out / "roc_f_ratio_base.csv", delimiter=",", skiprows=1,
                               usecols=(0, 1, 2))
            summary = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1,
                                 usecols=(5, 6, 7))
            tables.append((curve, summary))
        (curve, summary), (unit_curve, unit_summary) = tables
        np.testing.assert_allclose(curve, unit_curve, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(summary, unit_summary, rtol=0.0, atol=AUC_TOL)


# --- the worker pool ------------------------------------------------------------

# three sweep points × three detectors, Gauss–Hermite paired laws
NARROWBAND_SWEEP = {
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
    "pfa_grid": 64,
    "seed": 3,
    "sweeps": {"parameter": "n_samples", "values": [16, 24, 32]},
}
GAIN_LADDER = {
    "scenario": {
        "rfi_kind": "wideband",
        "et_kind": "wideband",
        "noise_power": 1.0,
        "inr_db": 10.0,
        "snr_db": -10.0,
        "n_samples": 1024,
    },
    "detectors": ["f_ratio", "on_off"],
    "pfa_grid": 128,
    "gains": [round(0.8 + 0.05 * k, 10) for k in range(9)],
}
SINGLE_SAMPLE = {
    "scenario": {
        "rfi_kind": "wideband",
        "et_kind": "wideband",
        "noise_power": 1.0,
        "rfi_power": 1e4,
        "snr_db": -10.0,
        "n_samples": 1,
    },
    "detectors": ["f_ratio", "on_off"],
    "pfa_grid": 128,
    "gains": [0.001, 0.01, 0.5, 1.0],
}
# N = 2: both detectors' shared OFF-pair integrals need a rule past (8, 12)
NARROWBAND_LADDER = {
    "scenario": {
        "rfi_kind": "narrowband",
        "et_kind": "narrowband",
        "noise_power": 1.0,
        "inr_db": 0.0,
        "snr_db": 0.0,
        "n_samples": 2,
    },
    "detectors": ["f_ratio", "on_off"],
    "pfa_grid": 64,
    "gains": [0.5, 0.75, 1.25, 2.0],
}
POOL_CASES = {
    "roc-analytic": ("roc", NARROWBAND_SWEEP),
    "roc-both": ("roc", dict(NARROWBAND_SWEEP, mode="both", trials=1000)),
    "mc-validate-monte-carlo": (
        "mc-validate",
        dict(NARROWBAND_SWEEP, mode="monte_carlo", trials=1000),
    ),
    # one point: the draw pass has only its two hypotheses to share out
    "mc-validate-single-point": (
        "mc-validate",
        dict(
            {k: v for k, v in NARROWBAND_SWEEP.items() if k != "sweeps"},
            mode="both",
            trials=1000,
        ),
    ),
    "compare-ladder": ("compare", GAIN_LADDER),
    "compare-single-sample": ("compare", SINGLE_SAMPLE),
    "compare-narrowband-ladder": ("compare", NARROWBAND_LADDER),
    # one gain: each shared OFF-pair integral serves only two tasks
    "compare-single-gain": ("compare", dict(NARROWBAND_LADDER, gains=[1.25])),
}


def pool_outputs(root: Path) -> dict:
    """{(case, file name): bytes} of every POOL_CASES run, made in `root`
    with relative output directories, so manifests compare too."""
    outputs = {}
    for case, (verb, doc) in POOL_CASES.items():
        cfg = write_json(root / f"{case}.json", dict(doc, output_dir=case))
        assert main([verb, "--config", str(cfg)]) == 0
        for path in sorted((root / case).iterdir()):
            outputs[case, path.name] = path.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def serial_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.setattr(_pool, "worker_count", lambda: 1)
        return pool_outputs(root)


class TestWorkerCount:
    """No output file depends on the number of workers."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outputs_byte_identical(
        self, serial_outputs, tmp_path, monkeypatch, capsys, workers
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_pool, "worker_count", lambda: workers)
        outputs = pool_outputs(tmp_path)
        capsys.readouterr()
        assert outputs.keys() == serial_outputs.keys()
        for key, blob in outputs.items():
            assert blob == serial_outputs[key], key

    def test_more_workers_than_cores_with_fast_thread_switching(
        self, serial_outputs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_pool, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outputs = pool_outputs(tmp_path)
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()
        assert outputs == serial_outputs

    def test_narrowband_ladder_escalates_shared_integrals(self, tmp_path, monkeypatch, capsys):
        # what the compare-narrowband-ladder case is there for: each shared
        # OFF-pair integral computes a rule size past (8, 12) inside a pool task
        integrals = []

        class Kept(setidetect.roc._AucIntegral):
            def __init__(self, h0, ends):
                super().__init__(h0, ends)
                integrals.append(self)

        monkeypatch.setattr(setidetect.roc, "_AucIntegral", Kept)
        monkeypatch.setattr(_pool, "worker_count", lambda: 2)
        cfg = write_json(tmp_path / "cfg.json", NARROWBAND_LADDER)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        escalated = [i.law for i in integrals if is_off_pair(i.law) and max(i._rules) > 12]
        assert sorted(type(law).__name__ for law in escalated) == ["FLaw", "GammaDifference"]


def is_off_pair(law) -> bool:
    """Whether a paired law is some estimate against an i.i.d. copy of itself."""
    return law.num == law.den if isinstance(law, FLaw) else law.pos == law.neg


class FailingLaw(ScaledGamma):
    """A law whose every cdf fails; shape 4 fails only after a delay, so a
    later task in serial order fails first in time."""

    def cdf(self, t):
        if self.shape == 4.0:
            time.sleep(0.3)
        raise ComputationError(f"shape {self.shape:g} did not settle", achieved=2e-3)


class TestPoolFailures:
    """The failure reported is the first in serial order, whatever finishes
    first, and no worker thread outlives the call."""

    def test_compare_names_earlier_failure(self, tmp_path, capsys, monkeypatch):
        real_laws = setidetect.roc.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain == 0.9 and kind == "on_off":
                return FailingLaw(4.0, 1.0), FailingLaw(4.0, 2.0)
            if spec.gain == 1.1 and kind == "f_ratio":
                return FailingLaw(5.0, 1.0), FailingLaw(5.0, 2.0)
            return real_laws(spec, kind, assumed_noise)

        monkeypatch.setattr(setidetect.roc, "detector_laws", laws)
        monkeypatch.setattr(_pool, "worker_count", lambda: 3)
        doc = base_config(gains=[0.9, 1.0, 1.1, 1.2], pfa_grid=16)
        cfg = write_json(tmp_path / "cfg.json", doc)
        before = threading.active_count()
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert code == 3
        assert "on_off law at gain 0.9 failed: shape 4 did not settle" in err
        assert "FailingLaw(shape=4.0, scale=1.0)" in err

    def test_shared_integral_failure_is_named_by_its_first_task(
        self, tmp_path, capsys, monkeypatch
    ):
        # every on_off task integrates over the same OFF pair; its failure,
        # slow or not, is reported as the first of them in serial order, the
        # gain-1 baseline
        class FailingIntegral(setidetect.roc._AucIntegral):
            def __init__(self, h0, ends):
                if isinstance(h0, GammaDifference) and is_off_pair(h0):
                    if threading.current_thread() is threading.main_thread():
                        time.sleep(0.3)
                    raise ComputationError("off pair did not settle", achieved=2e-3)
                super().__init__(h0, ends)

        monkeypatch.setattr(setidetect.roc, "_AucIntegral", FailingIntegral)
        monkeypatch.setattr(_pool, "worker_count", lambda: 3)
        doc = base_config(gains=[0.9, 1.1], pfa_grid=16)
        cfg = write_json(tmp_path / "cfg.json", doc)
        before = threading.active_count()
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert code == 3
        assert "on_off law at gain 1 failed: off pair did not settle" in err
        h0, h1 = detector_laws(load_config(doc).scenario, "on_off")
        assert f"(h0={h0!r}, h1={h1!r})" in err

    def test_roc_sweep_names_earlier_failure(self, tmp_path, capsys, monkeypatch):
        real_laws = setidetect.cli.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain == 0.9 and kind == "on_off":
                return FailingLaw(4.0, 1.0), FailingLaw(4.0, 2.0)
            if spec.gain == 1.1 and kind == "f_ratio":
                return FailingLaw(5.0, 1.0), FailingLaw(5.0, 2.0)
            return real_laws(spec, kind, assumed_noise)

        monkeypatch.setattr(setidetect.cli, "detector_laws", laws)
        monkeypatch.setattr(_pool, "worker_count", lambda: 3)
        doc = base_config(
            pfa_grid=16, sweeps={"parameter": "gain", "values": [0.8, 0.9, 1.1]}
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        before = threading.active_count()
        code = main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert code == 3
        assert "on_off law failed: shape 4 did not settle" in err
        assert "FailingLaw(shape=4.0, scale=1.0)" in err
        assert not (tmp_path / "out").exists()

    def test_histogram_failure_precedes_later_curve_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # mode both: the first point's histogram density fails, after its
        # curves and before any curve of the next point in serial order
        class DensityFailingLaw(ScaledGamma):
            def pdf(self, t):
                raise ComputationError("density failed", achieved=1.0)

        real_laws = setidetect.cli.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain == 0.9:
                return FailingLaw(5.0, 1.0), FailingLaw(5.0, 2.0)
            h0, h1 = real_laws(spec, kind, assumed_noise)
            return h0, DensityFailingLaw(h1.shape, h1.scale)

        monkeypatch.setattr(setidetect.cli, "detector_laws", laws)
        doc = base_config(
            detectors=["energy"],
            mode="both",
            trials=1000,
            pfa_grid=16,
            sweeps={"parameter": "gain", "values": [0.8, 0.9]},
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "energy law failed: density failed" in capsys.readouterr().err

    def test_earlier_density_failure_beats_faster_later_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # the first point's density fails after a delay, the second's at
        # once, while both points run side by side
        class SlowDensityLaw(ScaledGamma):
            def pdf(self, t):
                time.sleep(0.3)
                raise ComputationError("slow density failed", achieved=1.0)

        class FastDensityLaw(ScaledGamma):
            def pdf(self, t):
                raise ComputationError("fast density failed", achieved=1.0)

        real_laws = setidetect.cli.detector_laws

        def laws(spec, kind, assumed_noise=None):
            h0, h1 = real_laws(spec, kind, assumed_noise)
            failing = SlowDensityLaw if spec.gain == 0.8 else FastDensityLaw
            return failing(h0.shape, h0.scale), h1

        monkeypatch.setattr(setidetect.cli, "detector_laws", laws)
        monkeypatch.setattr(_pool, "worker_count", lambda: 2)
        doc = base_config(
            detectors=["energy"],
            mode="monte_carlo",
            trials=1000,
            sweeps={"parameter": "gain", "values": [0.8, 0.9]},
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        before = threading.active_count()
        code = main(["mc-validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert threading.active_count() == before
        assert code == 3
        assert "energy law failed: slow density failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_law_is_reported_before_any_curve(
        self, tmp_path, capsys, monkeypatch
    ):
        # the first point's curves would fail (exit 3) if any were computed
        real_laws = setidetect.cli.detector_laws

        def laws(spec, kind, assumed_noise=None):
            if spec.gain == 0.8:
                return FailingLaw(5.0, 1.0), FailingLaw(5.0, 2.0)
            if spec.gain == 1.1:
                raise ValueError("no law at this gain")
            return real_laws(spec, kind, assumed_noise)

        monkeypatch.setattr(setidetect.cli, "detector_laws", laws)
        doc = base_config(
            pfa_grid=16, sweeps={"parameter": "gain", "values": [0.8, 0.9, 1.1]}
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        code = main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "no sampling law for this scenario: no law at this gain" in (
            capsys.readouterr().err
        )


class TestCurveCount:
    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_one_curve_per_point_and_detector(self, tmp_path, monkeypatch, mode):
        real_laws, real_curve = setidetect.cli.detector_laws, setidetect.cli.roc_curve
        owner, built = {}, []

        def laws(spec, kind, assumed_noise=None):
            h0, h1 = real_laws(spec, kind, assumed_noise)
            owner[id(h0), id(h1)] = (spec.n_samples, DetectorKind(kind).value)
            return h0, h1

        def counted(h0, h1, grid):
            built.append(owner[id(h0), id(h1)])
            return real_curve(h0, h1, grid=grid)

        monkeypatch.setattr(setidetect.cli, "detector_laws", laws)
        monkeypatch.setattr(setidetect.cli, "roc_curve", counted)
        doc = dict(NARROWBAND_SWEEP, mode=mode, trials=1000, output_dir=str(tmp_path))
        run_experiment(load_config(doc))
        assert sorted(built) == sorted(
            (n, kind) for n in (16, 24, 32) for kind in ("f_ratio", "on_off", "energy")
        )


class TestDrawCount:
    def test_each_point_and_hypothesis_is_drawn_once(self, tmp_path, monkeypatch):
        real_draw = setidetect.cli.run_paired_estimates
        seeds = []

        def counted(spec, hyp, trials, seed):
            seeds.append(seed)
            return real_draw(spec, hyp, trials, seed)

        monkeypatch.setattr(setidetect.cli, "run_paired_estimates", counted)
        doc = dict(
            NARROWBAND_SWEEP,
            trials=1000,
            sweeps={"parameter": "n_samples", "values": [16, 24]},
            output_dir=str(tmp_path),
        )
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["mc-validate", "--config", str(cfg)]) == 0
        assert len(seeds) == 4
        assert len(set(seeds)) == 4


class TestSortedHistogram:
    def test_counts_match_np_histogram_with_ties_on_edges(self):
        # the data's ends fix the edges, so adding copies of every edge puts
        # ties on each interior edge and at the maximum
        rng = np.random.default_rng(11)
        data = rng.uniform(0.1, 0.7, size=997)
        data[:2] = 0.1, 0.7
        edges = np.histogram_bin_edges(data, bins=80)
        stats = np.sort(np.concatenate([data, np.repeat(edges[1:], 3)]))
        counts, got_edges = _sorted_histogram(stats, 80)
        want_counts, want_edges = np.histogram(stats, bins=80)
        assert np.array_equal(got_edges, want_edges)
        assert np.array_equal(got_edges, edges)
        assert np.array_equal(counts, want_counts)
        assert counts.sum() == stats.size


class _RecordingLaw:
    """A law whose cdf records the points it is asked for."""

    def __init__(self):
        self.points = []

    def cdf(self, t):
        self.points.append(np.array(t))
        return np.clip(t, 0.0, 1.0)


class TestKsBound:
    @pytest.mark.parametrize("nodes", [1024, 2048])
    @pytest.mark.parametrize(
        "n",
        [1, 2, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4097, 6151, 69_999, 10**5,
         10**6, 2**20 + 1],
    )
    def test_node_grid_is_strictly_increasing(self, nodes, n):
        # sorted distinct statistics 0, 1, …, n − 1: the cdf points are the
        # node indices themselves
        law = _RecordingLaw()
        _ks_bound(np.arange(float(n)), law, nodes=nodes)
        (idx,) = law.points
        assert idx.size == min(n, nodes)
        assert idx[0] == 0 and idx[-1] == n - 1
        assert np.all(np.diff(idx) > 0)


class TestEmpiricalCurve:
    def test_counts_match_broadcast_comparison(self):
        # statistics rounded to 0.1 tie often, and many thresholds land on a
        # tied value, where only a strict "above" gives the same counts
        rng = np.random.default_rng(5)
        h0 = np.sort(np.round(rng.normal(size=301), 1))
        h1 = np.sort(np.round(rng.normal(0.7, 1.0, size=300), 1))
        thresholds, pfa, pd, _ = _empirical_curve(h0, h1, 40)
        ts = thresholds[1:-1]
        assert np.isin(ts, h0).sum() > 10
        pfa_ref = np.mean(h0[None, :] > ts[:, None], axis=1)
        pd_ref = np.mean(h1[None, :] > ts[:, None], axis=1)
        assert np.array_equal(pfa[1:-1], pfa_ref)
        assert np.array_equal(pd[1:-1], pd_ref)
        # the summary's pd at its reference rates comes from the same counts
        targets = np.array([0.01, 0.1, 0.5])
        ts, pfa, pd = _empirical_points(h0, h1, targets)
        assert np.array_equal(ts, np.quantile(h0, 1.0 - targets))
        assert np.array_equal(pfa, np.mean(h0[None, :] > ts[:, None], axis=1))
        assert np.array_equal(pd, np.mean(h1[None, :] > ts[:, None], axis=1))


class TestSortedQuantile:
    """_sorted_quantile equals np.quantile bit for bit on sorted data."""

    PFA_GRID = 1.0 - np.linspace(0.0, 1.0, 1024 + 2)[1:-1]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50_000])
    @pytest.mark.parametrize("kind", ["ties", "large"])
    def test_matches_np_quantile(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "ties":
            x = np.round(rng.normal(size=n), 1)
        else:
            x = rng.uniform(-1.0, 1.0, size=n) * 1e300
        x = np.sort(x)
        # read straight from the caller's array, which it must not reorder
        x.flags.writeable = False
        q = np.concatenate([[0.0, 1.0], self.PFA_GRID, rng.uniform(size=50)])
        assert np.array_equal(_sorted_quantile(x, q), np.quantile(x, q))
        for order in (0.0, 1.0, 0.99, 0.9):
            want = float(np.quantile(x, order))
            got = float(_sorted_quantile(x, order))
            assert got == want and np.signbit(got) == np.signbit(want)


class TestWriteCsv:
    def test_columns_and_constants_give_repr_fields(self):
        values = np.array([np.inf, 0.1 + 0.2, 1e-300, -0.0, -np.inf])
        counts = np.arange(5)
        columns, constants = (values, counts), ("x", np.float64(0.9))
        rows = [f"{v!r},{int(c)},x,0.9" for v, c in zip(values.tolist(), counts)]
        text = "a,b,c,d\n" + "\n".join(rows) + "\n"
        assert _csv_bytes(("a", "b", "c", "d"), columns, constants) == text.encode()
        name, data, digest = _csv_file("out.csv", ("a", "b", "c", "d"), columns, constants)
        assert (name, data) == ("out.csv", text.encode())
        assert digest == hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize(
        "columns, constants",
        [((np.array([True, False]),), ()), ((np.array([1.0, 2.0]),), (True,))],
        ids=["column", "constant"],
    )
    def test_booleans_are_rejected(self, columns, constants):
        with pytest.raises(TypeError, match="booleans"):
            _csv_bytes(("a", "b"), columns, constants)
        with pytest.raises(TypeError, match="booleans"):
            _csv_file("out.csv", ("a", "b"), columns, constants)


SPECTROGRAM_BLOCK = {
    "amplitude": 1.0,
    "start_freq": 0.1,
    "drift_rate": 1e-4,
    "fft_len": 32,
    "hop": 16,
    "noise_power": 0.5,
}
MANIFEST_CASES = {
    "roc-analytic": ("roc", base_config(pfa_grid=16)),
    "roc-both": ("roc", base_config(pfa_grid=16, mode="both", trials=1000)),
    "mc-validate": ("mc-validate", base_config(pfa_grid=16, trials=1000)),
    "mc-validate-monte-carlo": (
        "mc-validate",
        base_config(pfa_grid=16, mode="monte_carlo", trials=1000),
    ),
    "compare": ("compare", base_config(pfa_grid=16, gains=[0.9, 1.0])),
    "spectrogram": ("spectrogram", base_config(spectrogram=SPECTROGRAM_BLOCK)),
}


class TestManifest:
    @pytest.mark.parametrize("case", MANIFEST_CASES)
    def test_each_digest_is_that_of_the_file_on_disk(self, tmp_path, capsys, case):
        verb, doc = MANIFEST_CASES[case]
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split()
        assert sorted(printed) == sorted(str(p) for p in out.iterdir())
        listed = json.loads((out / "manifest.json").read_text())["files"]
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(listed) == on_disk
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


IMPORT_GUARD = """
import json, sys
from pathlib import Path
import setidetect.cli as cli
from setidetect.distributions import GammaDifference, ScaledGamma, law_quantile

root = Path(sys.argv[1])
scenario = {"rfi_kind": "wideband", "et_kind": "wideband", "noise_power": 1.0,
            "rfi_power": 1.0, "et_power": 1.0, "n_samples": 4}
# the narrowband laws run Boost's non-central χ² cdf, density and sf
narrow = {"rfi_kind": "narrowband", "et_kind": "narrowband", "noise_power": 1.0,
          "rfi_energy": 4.0, "et_energy": 4.0, "gain": 0.5, "n_samples": 4}
base = {"scenario": scenario, "detectors": ["f_ratio", "on_off", "energy"], "pfa_grid": 16}
runs = [("roc", dict(base, mode="both", trials=1000)),
        ("mc-validate", dict(base, trials=1000)),
        ("compare", dict(base, gains=[0.9, 1.0])),
        ("roc", dict(base, scenario=narrow, mode="both", trials=1000))]
for i, (verb, doc) in enumerate(runs):
    path = root / f"{i}.json"
    path.write_text(json.dumps(doc))
    assert cli.main([verb, "--config", str(path), "--out", str(root / str(i))]) == 0, verb
# the verbs reach the quantile solver only where an H0 map misses its
# tolerance, so it is called directly too
side = ScaledGamma(4.0, 0.25)
for law in (side, GammaDifference(side, ScaledGamma(4.0, 0.5))):
    for p in (1e-13, 1.0 - 1.0 / 16385):
        law_quantile(law, p)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


class TestImportCost:
    def test_verbs_load_only_scipy_special(self, tmp_path):
        # scipy.optimize and scipy.interpolate would pull in scipy.linalg,
        # scipy.sparse and scipy.spatial, about 0.4 s of every CLI start-up,
        # and scipy.stats about half a second more.  Running the verbs, and
        # law_quantile on a positive and a difference law, catches imports
        # made inside functions too.
        # a caller's PYTHONDONTWRITEBYTECODE holds here too, so the run
        # leaves no .pyc files in src/ where none are wanted
        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        loaded = set(json.loads(out.stdout.splitlines()[-1]))
        for package in ("optimize", "interpolate", "linalg", "stats", "integrate"):
            assert f"scipy.{package}" not in loaded
