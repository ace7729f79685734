"""The exact AUC of the f_ratio detector where its four sides are exponential."""

import pytest

from setidetect.distributions import FLaw, ScaledGamma


def exact_single_sample_auc(h0: FLaw, h1: FLaw) -> float:
    """P(S₁ > S₀) of the f_ratio laws S = ON/OFF of a wideband N = 1
    scenario, with 50 mpmath digits.

    Every side is exponential, so with c = mean(ON₁)/mean(ON₀) the ON pair
    ON₁/ON₀ has cdf x/(x + c) and the OFF pair OFF′/OFF has density
    1/(1 + y)², and P(ON₁/ON₀ > OFF′/OFF) = ∫ c/(c + y)·dy/(1 + y)² =
    c(c − 1 − ln c)/(c − 1)², which is ½ at c = 1.
    """
    mpmath = pytest.importorskip("mpmath")
    sides = (h0.num, h0.den, h1.num, h1.den)
    assert all(isinstance(side, ScaledGamma) and side.shape == 1 for side in sides)
    assert h0.den == h1.den
    with mpmath.workdps(50):
        c = mpmath.mpf(h1.num.mean) / mpmath.mpf(h0.num.mean)
        if c == 1:
            return 0.5
        return float(c * (c - 1 - mpmath.log(c)) / (c - 1) ** 2)
