"""Shared helpers for the table-reproduction harnesses (T1-T6).

Each harness module exposes ``run(spark=None, *, n=..., quick=False) ->
pandas.DataFrame`` returning the table rows, plus ``PAPER_CLAIMS`` describing
what the paper reports so EXPERIMENTS.md can diff shapes. ``spark=None``
runs against the pandas-backed database (same interface contract) — used by
the fast smoke tests; benchmarks and jobs pass a real SparkSession so every
web-database query executes as a Catalyst plan.
"""
from __future__ import annotations

import time

import pandas as pd

from ..webdb import sources
from ..webdb.interface import WebDB


def make_db(source: str, spark=None, *, n: int, k: int = 10) -> WebDB:
    """Build a source database (Spark-backed when a session is given)."""
    return sources.make_source(source, spark, n=n, k=k)


def true_bounds(db: WebDB) -> dict:
    """Ground-truth attribute bounds.

    The service would obtain these once per source via
    ``webdb.discovery`` (tested exact in tests/test_discovery.py); harnesses
    take them directly so each table measures its own experiment, not the
    shared one-time bootstrap.
    """
    return {a: db.true_domain(a) for a in db.numeric_attrs}


class Timer:
    """Context-manager wall clock."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def fmt_table(df: pd.DataFrame, title: str) -> str:
    """Render one experiment table as fixed-width text (tabulate-free)."""
    return f"### {title}\n\n{df.to_string(index=False)}\n"


def save_table(df: pd.DataFrame, name: str, title: str) -> str:
    """Persist a rendered table under benchmarks/results/ (survives pytest
    output capture) and return the rendered text."""
    import pathlib

    text = fmt_table(df, title)
    out = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text)
    return text
