"""Export a regeneration run as a Markdown report.

Runs every experiment (or a subset) and renders one document with the
paper claims next to the measured tables — the machinery used to produce
the results section of EXPERIMENTS.md from a fresh run.

Driven by ``repro experiments --markdown PATH``::

    python -m repro experiments --markdown RESULTS.md
    python -m repro experiments --records 2000 --markdown quick.md "Fig. 10"
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..analysis.report import write_report
from . import run_all


def export(path: str, ids: Sequence[str] = (), **settings) -> Path:
    """Regenerate ``ids`` through :func:`run_all.main` (which prints each
    table; ``settings`` are its keyword arguments) and write the report."""
    results = run_all.main(ids, **settings)
    return write_report(
        results, path, title="IR-ORAM reproduction — regenerated results"
    )
