"""FLaw in the F-table terms that reference values are written in."""

from setidetect.distributions import FLaw, _estimate


def f_table(dof_num, dof_den, scale=1.0, lambda_num=0.0, lambda_den=0.0) -> FLaw:
    """The law of scale·(X₁/ν₁)/(X₂/ν₂), Xᵢ ~ χ²_{νᵢ}(λᵢ) independent: the
    ratio of the mean-power estimates of νᵢ/2 complex samples, of Gaussian
    powers scale and 1 and energies λᵢ·power/2."""
    return FLaw(
        _estimate(dof_num / 2.0, scale, lambda_num * scale / 2.0),
        _estimate(dof_den / 2.0, 1.0, lambda_den / 2.0),
    )
