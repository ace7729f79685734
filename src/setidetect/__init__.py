"""Detection statistics for paired ON/OFF radio power measurements.

The package provides the exact sampling laws of three detector statistics
built from mean-power estimates of complex baseband streams (`distributions`),
the mapping from interference/signal scenarios to those laws (`scenario`), a
seeded Monte Carlo synthesis harness (`simulator`), analytic ROC machinery
(`roc`), and a batch command-line front-end (`cli`).

Each public name is declared once, in its layer's `__all__`: the package
re-exports those four lists, and its own `__all__` is their union with
`__version__`.  The command-line front-end is not re-exported.
"""

__version__ = "0.1.0"

from . import distributions, roc, scenario, simulator
from .distributions import *  # noqa: F401,F403
from .roc import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__all__ = sorted(
    ["__version__", *distributions.__all__, *roc.__all__, *scenario.__all__, *simulator.__all__]
)
