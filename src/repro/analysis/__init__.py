"""Experiment harness, table rendering, and summary statistics.

:mod:`repro.analysis.experiments` implements the E1–E26 experiment
procedures of DESIGN.md; the benchmark modules and example scripts are
thin wrappers over these functions, and
:data:`repro.analysis.report.EXPERIMENTS` declares each one once for
the CLI's ``list``, ``run`` and ``report``.
"""

from repro.analysis.reporting import format_value, render_series, render_table
from repro.analysis.stats import describe, ratio

__all__ = [
    "describe",
    "format_value",
    "ratio",
    "render_series",
    "render_table",
]
