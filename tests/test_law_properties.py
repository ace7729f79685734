"""Property test of the central ratio law: FLaw of two central estimates is
the scaled F law that scipy.stats knows, whatever their shapes and scales."""

import numpy as np
import pytest
from scipy import stats

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from setidetect.distributions import FLaw, ScaledGamma  # noqa: E402

SHAPES = st.floats(min_value=0.5, max_value=5e4)
LOG_SCALES = st.floats(min_value=-200.0, max_value=200.0)
ORDERS = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6])


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(SHAPES, SHAPES, LOG_SCALES, LOG_SCALES)
def test_central_ratio_is_scaled_f(a, b, log_num, log_den):
    num, den = ScaledGamma(a, np.exp(log_num)), ScaledGamma(b, np.exp(log_den))
    # (θ₁·Gamma(a))/(θ₂·Gamma(b)) = (a·θ₁)/(b·θ₂)·F(2a, 2b)
    reference = stats.f(2.0 * a, 2.0 * b, scale=a * num.scale / (b * den.scale))
    xs = reference.ppf(ORDERS)
    assert np.max(np.abs(FLaw(num, den).cdf(xs) - reference.cdf(xs))) <= 1e-9
