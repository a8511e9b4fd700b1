"""Regenerators for every table and figure in the paper's evaluation.

Each module exposes ``run(...) -> ExperimentResult`` holding the same
rows/series the paper reports; the ones that slice the simulation matrix
also expose ``points`` and ``table`` (see :mod:`.common`).
``repro experiments`` runs the suite through ``run_all`` (and ``export``
for a Markdown report).
"""

from .common import ExperimentResult

__all__ = ["ExperimentResult"]
