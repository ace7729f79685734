"""Property test of config loading: every document either loads into a
config that the verbs can run, or fails with a ConfigError, nothing else."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from setidetect.cli import ConfigError, load_config  # noqa: E402
from setidetect.scenario import ScenarioSpec  # noqa: E402

# plausible values, then every float, including negative ones, infinities
# and NaN, and integers beyond the float range
NUMBERS = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([0, 1, -1, 1e308, -1e308, 10**400]),
)
SEEDS = st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70))


@st.composite
def documents(draw):
    rfi_kind = draw(st.sampled_from(["wideband", "narrowband", "none"]))
    et_kind = draw(st.sampled_from(["wideband", "narrowband"]))
    scenario = {
        "rfi_kind": rfi_kind,
        "et_kind": et_kind,
        "n_samples": draw(
            st.one_of(
                st.integers(min_value=1, max_value=64),
                st.integers(min_value=1, max_value=10**6),
                st.sampled_from([-1, 0, 10**400]),
            )
        ),
    }
    optional = ["noise_power", "gain", "snr_db", "et_power", "et_energy"]
    if rfi_kind != "none":
        optional += ["inr_db", "rfi_power", "rfi_energy"]
    for key in draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)):
        scenario[key] = draw(NUMBERS)
    doc = {"scenario": scenario}
    seed = draw(SEEDS)
    if seed is not None:
        doc["seed"] = seed
    if draw(st.booleans()):
        doc["sweeps"] = {
            "parameter": draw(st.sampled_from(["snr_db", "gain", "n_samples"])),
            "values": draw(st.lists(NUMBERS, max_size=4)),
        }
    spectrogram_seed = draw(SEEDS)
    if spectrogram_seed is not None:
        doc["spectrogram"] = {
            "amplitude": 1.0,
            "start_freq": 0.1,
            "fft_len": 16,
            "hop": 8,
            "seed": spectrogram_seed,
        }
    return doc, draw(SEEDS)


@hypothesis.settings(derandomize=True, max_examples=500, deadline=None)
@hypothesis.given(documents())
def test_load_config_resolves_every_point_or_raises_config_error(case):
    doc, seed_override = case
    try:
        cfg = load_config(doc, seed=seed_override)
    except ConfigError:
        return
    assert cfg.points
    assert all(isinstance(spec, ScenarioSpec) for _, spec in cfg.points)
    assert cfg.seed >= 0
    if cfg.spectrogram_params is not None:
        assert cfg.spectrogram_params["seed"] >= 0
    if cfg.sweeps is not None:
        assert len(cfg.points) == len(cfg.sweeps["values"])
