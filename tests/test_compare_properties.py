"""compare_detectors integrates each paired detector over its OFF pair once
and shares that integral across gains, save where a gain's ON pair is much
narrower; its AUCs must match auc(h0, h1) of each gain's own laws across the
scenario space, and a row must not depend on the other gains compared."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from setidetect import (  # noqa: E402
    GammaDifference,
    ScenarioSpec,
    auc,
    compare_detectors,
    detector_laws,
)
from setidetect import roc as roc_module  # noqa: E402
from setidetect.roc import AUC_TOL  # noqa: E402

KINDS = ("wideband", "narrowband")
# The tighter bound of wideband scenarios at N ≥ 64 integrated over the OFF
# pair: f_ratio at every gain (central F laws, closed forms) and on_off up to
# gain 1.25.  Above that on_off's ON pair ON₁ − ON₀ joins two estimates of
# like width, whose conditional rule settles only to about 1e-10 (1.4e-12 at
# g = 2, 1.5e-10 at g = 10, N = 1024, INR = SNR = 10 dB), inside AUC_TOL.
WIDEBAND_TOL = 1e-12
WIDEBAND_ON_OFF_GAIN = 1.25


def scenario(rfi_kind, et_kind, n, inr_db, snr_db) -> ScenarioSpec:
    """Noise power 1; a narrowband part's energy is its level times N."""

    def part(kind, name, level):
        return {f"{name}_power": level} if kind == "wideband" else {f"{name}_energy": level * n}

    return ScenarioSpec(
        rfi_kind=rfi_kind,
        et_kind=et_kind,
        noise_power=1.0,
        n_samples=n,
        **part(rfi_kind, "rfi", 10.0 ** (inr_db / 10.0)),
        **part(et_kind, "et", 10.0 ** (snr_db / 10.0)),
    )


def assert_rows_match(spec, gain):
    """Every row at `gain` of a compare matches auc(h0, h1) of its laws."""
    rows = compare_detectors(spec, [gain])
    for row in rows:
        h0, h1 = detector_laws(row.spec, row.detector)
        shared = roc_module._auc_sides(h0, h1) != (h0, h1)
        wideband = spec.rfi_kind == spec.et_kind == "wideband" and spec.n_samples >= 64
        settled = row.detector == "f_ratio" or gain <= WIDEBAND_ON_OFF_GAIN
        tol = WIDEBAND_TOL if wideband and shared and settled else AUC_TOL
        assert abs(row.auc - auc(h0, h1)) <= tol, (row.detector, shared)
    return rows


@hypothesis.settings(derandomize=True, max_examples=12, deadline=None)
@hypothesis.given(
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.one_of(st.integers(1, 16), st.integers(17, 1024)),
    st.floats(0.0, 40.0),
    st.floats(-20.0, 10.0),
    st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 0.05)),
)
def test_rows_match_each_gains_auc(rfi_kind, et_kind, n, inr_db, snr_db, gain):
    assert_rows_match(scenario(rfi_kind, et_kind, n, inr_db, snr_db), gain)


@pytest.mark.parametrize(
    "kinds, n, inr_db, snr_db, gain",
    [
        (("wideband", "wideband"), 1024, 10.0, -10.0, 0.8),
        (("wideband", "wideband"), 1024, 10.0, -10.0, 1.2),
        (("wideband", "wideband"), 64, 40.0, 0.0, 10.0),
        (("wideband", "wideband"), 256, 3.0, -3.0, 0.0),
        (("narrowband", "narrowband"), 2, 0.0, 0.0, 0.5),
        (("narrowband", "wideband"), 5, 20.0, -5.0, 0.1),
        (("wideband", "narrowband"), 16, 30.0, 5.0, 3.0),
    ],
    ids=["ladder-0.8", "ladder-1.2", "wide-N64-g10", "wide-N256-g0", "narrow-N2",
         "narrow-wide-N5", "wide-narrow-N16"],
)
def test_fixed_rows_match_each_gains_auc(kinds, n, inr_db, snr_db, gain):
    assert_rows_match(scenario(*kinds, n, inr_db, snr_db), gain)


SIDE_RULE_SPEC = ScenarioSpec(
    rfi_kind="wideband",
    et_kind="wideband",
    noise_power=1.0,
    rfi_power=1e4,
    et_power=0.1,
    n_samples=1,
)


@pytest.mark.parametrize("gain", [0.5, 0.001])
@pytest.mark.parametrize(
    "spec",
    [
        scenario("narrowband", "narrowband", 2, 10.0, 0.0),
        scenario("wideband", "wideband", 64, 10.0, -10.0),
        SIDE_RULE_SPEC,
    ],
    ids=["narrow-N2", "wide-N64", "wide-N1-side-rule"],
)
def test_rows_depend_only_on_their_own_gain_and_detector(spec, gain):
    # other gains compared beside change neither the rows at `gain` nor the
    # baseline's, bit for bit; listing gain 1 adds no task, only its rows
    detectors = ["energy", "f_ratio", "on_off"]
    alone = compare_detectors(spec, [gain, 1.0], detectors)
    beside = compare_detectors(spec, [gain, 1.0, 0.9, 1.1], detectors)
    assert len(alone) == 6
    for row, other in zip(alone, beside):
        assert (row.gain, row.detector) == (other.gain, other.detector)
        assert (row.auc, row.auc_delta) == (other.auc, other.auc_delta), row.detector


class TestSideRule:
    """N = 1, rfi_power 1e4: at small gains the on_off ON pair is about g
    times as wide as the OFF pair, a step inside one OFF-pair panel."""

    spec = SIDE_RULE_SPEC

    @pytest.mark.parametrize("gain", [0.001, 0.01])
    def test_narrow_on_pair_takes_its_own_auc(self, monkeypatch, gain):
        built = []

        class Counted(roc_module._AucIntegral):
            def __init__(self, h0, ends):
                built.append(h0)
                super().__init__(h0, ends)

        monkeypatch.setattr(roc_module, "_AucIntegral", Counted)
        rows = compare_detectors(self.spec, [gain], detectors=["on_off"])
        monkeypatch.undo()
        h0, h1 = detector_laws(self.spec.with_gain(gain), "on_off")
        # the baseline integrates over the OFF pair, this gain over its own
        # H0 law
        assert roc_module._auc_sides(h0, h1) == (h0, h1)
        off_pair = GammaDifference(h0.neg, h0.neg)
        assert sorted(built, key=repr) == sorted([off_pair, h0], key=repr)
        assert rows[0].auc == auc(h0, h1)

    def test_off_pair_integral_misses_a_narrow_on_pair(self):
        # why such a gain does not share: the 8- and 12-node rules over the
        # OFF pair agree on a value 5e-6 off, and raise nothing
        h0, h1 = detector_laws(self.spec.with_gain(0.001), "on_off")
        off_pair = GammaDifference(h0.neg, h0.neg)
        integral = roc_module._AucIntegral(off_pair, roc_module._ends(off_pair))
        miss = abs(integral(GammaDifference(h1.pos, h0.pos)) - auc(h0, h1))
        assert 1e-6 < miss < 1e-5

    def test_overflowing_spreads_do_not_warn(self):
        # ScaledGamma.variance overflows above a gain of about 1e154 at N = 64;
        # the spread reads inf, and the gain integrates over its own H0 law
        spec = ScenarioSpec(
            rfi_kind="wideband", et_kind="wideband", noise_power=1.0, rfi_power=1.0,
            et_power=1.0, n_samples=64, gain=1e160,
        )
        h0, h1 = detector_laws(spec, "on_off")
        on_pair = GammaDifference(h1.pos, h0.pos)
        assert on_pair._conditioned.spread == float("inf")
        assert roc_module._auc_sides(h0, h1) == (h0, h1)
