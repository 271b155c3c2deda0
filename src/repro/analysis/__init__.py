"""Analysis utilities: series containers, ASCII rendering and the
experiment registry that reproduces every paper figure.  The Fig. 4 fit
(:mod:`repro.analysis.fitting`) is not re-exported: it imports
``scipy.optimize``, which loads when an ``ExperimentSuite`` is built."""

from repro.analysis.series import LifetimeSeries
from repro.analysis.ascii_plot import ascii_chart, format_table

__all__ = [
    "LifetimeSeries",
    "ascii_chart",
    "format_table",
]
