"""Shared helpers for the table-reproduction harnesses (T1-T6).

Each harness module exposes ``run(spark=None, *, n=..., k=..., ...) ->
pandas.DataFrame`` returning the table rows, ``check_shape(df)`` asserting
the paper's qualitative claims on them, and ``PAPER_CLAIMS`` describing what
the paper reports so EXPERIMENTS.md can diff shapes. ``spark=None`` runs
against the pandas-backed database (same interface contract), as the smoke
tests do; ``jobs/tables.py`` passes a real SparkSession so every
web-database query executes as a Catalyst plan.
"""
from __future__ import annotations

import time

from ..webdb.interface import WebDB


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
