"""QR2 service benchmark: page latency and site queries, traced by layer.

Drives ``QR2Service`` (register -> submit -> get_next_page) from one process,
checks every page against the full-table ground truth, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
as the last line of standard output::

    python3 perfbench/run.py --workload solo_spark --seed 1 --seconds 15 --trace 0

Workloads, metrics and their meaning are described in perfbench/NOTES.md.
Everything the run writes goes under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import pathlib
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
#: each workload's reference fingerprint of every search it runs
FINGERPRINTS = pathlib.Path(__file__).resolve().parent / "fingerprints.json"

#: Spark settings of jobs/common.get_spark, plus the UI off and a loopback
#: driver as in the test fixture. The benchmark never tunes Spark: a change
#: of engine settings belongs in the program.
SPARK_CONF = {
    "spark.master": "local[*]",
    "spark.ui.enabled": "false",
    "spark.driver.host": "127.0.0.1",
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
#: JVM options that keep Java's temp files inside the checkout
JVM_OPTS = f"-Djava.io.tmpdir={OUT / 'tmp'} -XX:-UsePerfData"


@dataclass
class Setup:
    spark: object
    svc: object  # the service discovery ran on; its bounds serve every search
    dbs: dict
    seconds: float
    discovery_queries: int


@dataclass
class Pass:
    pages: list  # every Page, in completion order
    searches: list  # (label, [Page, ...]) per search
    wall_s: float
    rounds: int


def start_spark():
    from pyspark.sql import SparkSession

    # keep Spark's scratch files inside the checkout
    builder = SparkSession.builder.appName("qr2-perfbench").config(
        "spark.local.dir", str(OUT / "spark-local")
    ).config("spark.sql.warehouse.dir", str(OUT / "warehouse")).config(
        "spark.driver.extraJavaOptions", JVM_OPTS
    )
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark() -> None:
    """Stop any running SparkContext and its gateway JVM; wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    if gateway is not None:
        gateway.shutdown()
        if gateway.proc is not None:
            gateway.proc.stdin.close()  # the gateway exits on EOF
            gateway.proc.wait(timeout=120)


def set_up(w, rec) -> Setup:
    """SparkSession start, building and caching the sources, and discovery.

    ``register_source`` is called without ``bounds=``, the real service
    path, so it discovers every attribute's extent through the interface.
    """
    from probes import Page
    from repro.core.service import QR2Service
    from repro.webdb import sources
    from workloads import BY_LABEL, SYSTEM_K

    t0 = time.perf_counter()
    spark = start_spark() if w.backend == "spark" else None
    svc = QR2Service()
    dbs, disc = {}, 0
    for name in sorted({BY_LABEL[label].source for label in w.round}):
        db = sources.make_source(name, spark, n=w.n, k=SYSTEM_K)
        rec.count_site(db)
        rec.page = Page(None, "setup")
        svc.register_source(db)
        disc += rec.page.queries
        rec.page = None
        dbs[name] = db
    return Setup(spark, svc, dbs, time.perf_counter() - t0, disc)


def fresh_service(st: Setup):
    """A new service over the set-up sources: cold dense indexes, no sessions."""
    from repro.core.service import QR2Service

    svc = QR2Service()
    for name, db in st.dbs.items():
        svc.register_source(db, bounds=st.svc.bounds[name])
    return svc


def run_pass(w, st: Setup, rec, rankings, seed: int, labels, *, seconds=None, rounds=None) -> Pass:
    """Closed-loop rounds of the searches ``labels``: one, then on until the
    next would pass ``seconds`` (or exactly ``rounds``). Each search runs on
    a fresh service, so its dense index starts cold."""
    from probes import Page
    from repro.core.service import UserQuery
    from workloads import PAGE_SIZE, round_order

    def serve(no, search, svc):
        db = st.dbs[search.source]
        uq = UserQuery(search.source, search.filter_spec(), rankings[search.label], PAGE_SIZE)
        seen = set() if rec.traced else None
        done, sid = [], None
        for i in range(w.pages):
            p = Page(no, "first" if i == 0 else "next", seen=seen)
            rec.page = p
            before = db.stats.n_queries
            t0 = time.perf_counter()
            try:
                if i == 0:
                    sid, rows, stats = svc.submit(uq)
                else:
                    rows, stats = svc.get_next_page(sid)
            except Exception as e:  # a failed page is counted, the run goes on
                p.ms = 1e3 * (time.perf_counter() - t0)
                p.error = repr(e)
                done.append(p)
                break
            finally:
                rec.page = None
            p.ms = 1e3 * (time.perf_counter() - t0)
            p.panel_queries = stats.n_queries
            p.stats_queries = db.stats.n_queries - before
            p.tids = [r["tid"] for r in rows]
            if rec.traced:
                idx = svc.indexes[search.source]
                p.index_entries, p.index_rows = len(idx.entries), idx.n_rows
                if p.session is not None:
                    p.pool_rows = len(p.session.pool)
            done.append(p)
        return done

    rng = random.Random(seed)
    searches, wall, n = [], 0.0, 0
    while True:
        t0 = time.perf_counter()
        for search in round_order(labels, rng):
            searches.append((search.label, serve(len(searches), search, fresh_service(st))))
        wall += time.perf_counter() - t0
        n += 1
        if rounds is not None:
            if n >= rounds:
                break
        elif wall + wall / n > seconds:
            break
    pages = [p for _, ps in searches for p in ps]
    return Pass(pages, searches, wall, n)


def fingerprint(ps) -> dict:
    """Site queries per page, and a hash of the delivered tid sequence."""
    tids = [t for p in ps for t in p.tids]
    return {"site_queries": [p.queries for p in ps],
            "tids": hashlib.sha1(json.dumps(tids).encode()).hexdigest()[:12]}


def fingerprint_changes(w, run: Pass) -> list[str]:
    """Searches whose fingerprint differs from the workload's reference.

    A change here is not a failure (a change may legitimately send fewer
    queries); it makes any changed get-next sequence or query count visible.
    """
    ref = json.loads(FINGERPRINTS.read_text()).get(w.name, {})
    changes = []
    for label, ps in run.searches:
        fp = fingerprint(ps)
        if ref.get(label) != fp:
            changes.append(f"{label}: {fp} (reference {ref.get(label)})")
    return list(dict.fromkeys(changes))


def save_fingerprints(w, run: Pass) -> None:
    """Store this run's fingerprints as the workload's reference."""
    refs = json.loads(FINGERPRINTS.read_text())
    refs[w.name] = {label: fingerprint(ps) for label, ps in run.searches}
    FINGERPRINTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def check(run: Pass, truth) -> tuple[int, list[str]]:
    """Failed pages, and the other check failures, of one pass."""
    from workloads import PAGE_SIZE

    failed, problems = 0, []
    for label, ps in run.searches:
        for i, p in enumerate(ps):
            want = truth[label][i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
            if p.error is not None or p.tids != want:
                failed += 1
                problems.append(f"{label} page {i + 1}: {p.error or 'tids differ from ground truth'}")
            elif not p.queries == p.panel_queries == p.stats_queries:
                problems.append(
                    f"{label} page {i + 1}: counted {p.queries} site queries, panel says "
                    f"{p.panel_queries}, db.stats {p.stats_queries}"
                )
    return failed, problems


def pct(xs, q) -> float:
    """Smoothed ``q``-th percentile: the bootstrap expectation of the sample
    percentile, a weighted mean of all order statistics (close to the
    Harrell-Davis estimator). A run's pages mix searches of very different
    cost, so the plain sample percentile jumps whenever two pages near it
    swap places; this one moves continuously with every page's time."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0
    k = max(1, math.ceil(q / 100 * n))  # rank of the plain sample percentile

    def at_most(i):  # P(k-th order statistic of a resample <= xs[i - 1])
        return sum(math.comb(n, j) * i**j * (n - i) ** (n - j) for j in range(k, n + 1)) / n**n

    cdf = [at_most(i) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(run: Pass, setup_s: float) -> dict:
    first = [p for p in run.pages if p.kind == "first" and p.error is None]
    nxt = [p for p in run.pages if p.kind == "next" and p.error is None]
    return {
        "setup_s": (setup_s, "s"),
        "first_page_ms_p50": (pct([p.ms for p in first], 50), "ms"),
        "first_page_ms_p90": (pct([p.ms for p in first], 90), "ms"),
        "next_page_ms_p50": (pct([p.ms for p in nxt], 50), "ms"),
        "next_page_ms_p90": (pct([p.ms for p in nxt], 90), "ms"),
        "pages_per_s": ((len(first) + len(nxt)) / run.wall_s, "1/s"),
        "site_queries_first_page": (statistics.fmean(p.queries for p in first), "queries/page"),
        "site_queries_next_page": (statistics.fmean(p.queries for p in nxt), "queries/page"),
        "py_peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spark_jobs(spark) -> int:
    """Highest Spark job id so far (ids are sequential)."""
    if spark is None:
        return 0
    return max(spark.sparkContext.statusTracker().getJobIdsForGroup(None) or [0])


def config(w, args, spark) -> dict:
    import pandas
    import pyspark

    from workloads import PAGE_SIZE, SYSTEM_K

    conf = {}
    if spark is not None:
        conf = {k: v for k, v in spark.sparkContext.getConf().getAll() if k in SPARK_CONF}
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "backend": w.backend, "n": w.n, "k": SYSTEM_K,
        "page_size": PAGE_SIZE, "pages_per_search": w.pages,
        "python": sys.version.split()[0], "pyspark": pyspark.__version__,
        "pandas": pandas.__version__, "spark_conf": conf,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save-fingerprints", action="store_true",
                    help="store this run's fingerprints as the workload's reference")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for d in ("tmp", "spark-local"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    # spark-submit's launcher JVM, like the driver JVM, writes no /tmp files
    os.environ["SPARK_LAUNCHER_OPTS"] = JVM_OPTS
    sys.path.insert(0, str(ROOT / "src"))

    from probes import UNITS, Recorder, layer_metrics
    from repro.core.rerank_op import ground_truth_topk
    from workloads import BY_LABEL, PAGE_SIZE, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    rec = Recorder()
    try:
        with rec.tracing() if args.trace else contextlib.nullcontext():
            st = set_up(w, rec)
        spark = st.spark
        cfg = config(w, args, spark)
        print("config " + json.dumps(cfg), flush=True)

        # ground truth from the full hidden table, outside the timed region
        rankings = {label: BY_LABEL[label].ranking(st.svc) for label in set(w.round)}
        truth = {
            label: [r["tid"] for r in ground_truth_topk(
                st.dbs[BY_LABEL[label].source], BY_LABEL[label].filter_spec(),
                rankings[label], w.pages * PAGE_SIZE)]
            for label in rankings
        }

        gc.collect()
        rss_set_up = peak_rss_mb()
        if args.trace:
            # one round untraced as warm-up, then the same round traced and
            # untraced: the difference of the last two is the tracing overhead
            run_pass(w, st, rec, rankings, args.seed, w.round, rounds=1)
            jobs0 = spark_jobs(spark)
            with rec.tracing():
                run = run_pass(w, st, rec, rankings, args.seed, w.round, rounds=1)
            jobs = spark_jobs(spark) - jobs0
            plain = run_pass(w, st, rec, rankings, args.seed, w.round, rounds=1)
        else:
            run = run_pass(w, st, rec, rankings, args.seed, w.timed, seconds=args.seconds)
        rss_timed = peak_rss_mb()
    finally:
        if w.backend == "spark":
            stop_spark()

    failed, problems = check(run, truth)
    if args.save_fingerprints and failed == 0:
        save_fingerprints(w, run)
    changes = fingerprint_changes(w, run)
    firsts = {}  # each label's first search
    for label, ps in run.searches:
        firsts.setdefault(label, ps)
    for label, ps in firsts.items():
        fp = fingerprint(ps)
        print(f"search {label}: site_queries={fp['site_queries']} tids={fp['tids']} "
              f"ms={[round(p.ms) for p in ps]}")
    for msg in changes:
        print(f"FINGERPRINT CHANGED {msg}")
    for msg in problems:
        print(f"CHECK FAILED {msg}")
    attempted = len(run.pages)

    if args.trace:
        traced_pages = [p for p in run.pages if p.error is None]
        values = layer_metrics(rec.spans, traced_pages, n_searches=len(run.searches),
                               spark_jobs=jobs)
        values["discovery.queries"] = float(st.discovery_queries)
        values["trace.overhead_ms_per_page"] = (
            statistics.fmean(p.ms for p in run.pages) - statistics.fmean(p.ms for p in plain.pages)
        )
        values["trace.spans_per_page"] = len(rec.spans) / attempted
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        rec.write_spans(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(run, st.seconds).items()}
    print(f"rounds={run.rounds} pages={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f} wall_s={run.wall_s:.2f} "
          f"fingerprint_changes={len(changes)} peak_rss_mb: set_up={rss_set_up:.1f} "
          f"timed={rss_timed:.1f}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    pages = [
        {"search": label, "page": i + 1, "ms": p.ms,
         "site_queries": p.queries, "panel_queries": p.panel_queries}
        for label, ps in run.searches for i, p in enumerate(ps)
    ]
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"config": cfg, "problems": problems, "fingerprint_changes": changes,
                    "peak_rss_mb": {"set_up": rss_set_up, "timed": rss_timed},
                    **result, "pages": pages}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
