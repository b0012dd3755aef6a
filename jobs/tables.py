"""spark-submit entrypoint regenerating tables T1-T6 (DESIGN.md section 4).

    spark-submit jobs/tables.py [t1 ... t6] [--n N] [--k K] [--local]

With no table named it runs all six. Each table's harness from
``repro.experiments`` runs with its own defaults; its shape is checked
(``check_shape``), the table and the paper's claims are printed, and the
table is written to ``benchmarks/results/tN.txt``.
"""
from __future__ import annotations

import argparse
import pathlib

from common import get_spark

from repro.experiments import ALL_TABLES

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def main() -> None:
    ap = argparse.ArgumentParser(description="Regenerate tables T1-T6.")
    ap.add_argument("tables", nargs="*", metavar="tN", help="tables to run (default: all)")
    ap.add_argument("--n", type=int, default=3000, help="hidden-table size")
    ap.add_argument("--k", type=int, default=25, help="site page size (system top-k)")
    ap.add_argument("--local", action="store_true", help="pandas backend (no Spark)")
    args = ap.parse_args()
    unknown = sorted(set(args.tables) - set(ALL_TABLES))
    if unknown:
        ap.error(f"unknown tables {unknown}; choose from {sorted(ALL_TABLES)}")
    spark = None if args.local else get_spark("QR2 tables T1-T6")
    backend = "pandas LocalWebDB" if spark is None else f"SparkWebDB, {spark.sparkContext.master}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name in args.tables or sorted(ALL_TABLES):
        table = ALL_TABLES[name]
        df = table.run(spark, n=args.n, k=args.k)
        table.check_shape(df)
        title = " ".join(table.__doc__.split("\n\n")[0].split())  # the harness's summary
        text = f"### {title}\n\n{backend}, n={args.n}, k={args.k}\n\n{df.to_string(index=False)}\n"
        (RESULTS / f"{name}.txt").write_text(text)
        print(text)
        for claim in table.PAPER_CLAIMS:
            print(f"paper claim: {claim}")
        print()
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
