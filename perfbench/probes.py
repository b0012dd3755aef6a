"""The benchmark's own probes: a per-page site-query counter and spans.

Nothing here edits the program under test. The counter wraps the ``query``
and ``query_batch`` methods of each ``WebDB`` instance and charges every call
to the page the *calling thread* is serving (the service's own ``PageStats``
differences a global counter). Calls made from other threads, such as
``SparkWebDB.query_batch``'s workers calling ``query``, charge nothing, so a
batch is counted once.

In a traced pass, :meth:`Recorder.tracing` also wraps the public entry point
of each layer where its callers bind it, and records one span per call:
name, start, end, parent span and search. Spans stay in memory and
are written out when the run ends; :func:`layer_metrics` reduces them.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core import dense_index, multidim, onedim, service, session

#: layer of each traced entry point, named after its module
INTERFACE, CRAWLER, DISCOVERY = "interface", "crawler", "discovery"
SERVICE, ONEDIM, MULTIDIM = "service", "onedim", "multidim"
SESSION, DENSE_INDEX = "session", "dense_index"


@dataclass
class Page:
    """One page request of one search."""

    search: Optional[int]  # search number within the run; None in set-up
    kind: str  # "first" (submit) or "next" (get_next_page)
    queries: int = 0  # site queries charged by the benchmark's counter
    panel_queries: Optional[int] = None  # PageStats.n_queries
    stats_queries: Optional[int] = None  # db.stats difference
    ms: float = 0.0
    tids: list = field(default_factory=list)
    seen: Optional[set] = None  # tids the search has fetched so far (traced)
    session: object = None  # the Session the page used (traced)
    pool_rows: int = 0  # its pool size at page end (traced)
    index_entries: int = 0  # dense-index size at page end (traced)
    index_rows: int = 0
    error: Optional[str] = None


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    op: str
    start: float
    end: float
    search: Optional[int]
    info: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Charges site calls to the calling thread's page; records spans."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.traced = False

    # ----- page attribution ---------------------------------------------
    @property
    def page(self) -> Optional[Page]:
        return getattr(self._local, "page", None)

    @page.setter
    def page(self, p: Optional[Page]) -> None:
        self._local.page = p

    def count_site(self, db) -> None:
        """Wrap ``db.query``/``db.query_batch`` on the instance."""
        query, query_batch = db.query, db.query_batch

        def counted_query(spec, order=None):
            self._charge(1)
            if not self.traced:
                return query(spec, order)
            rows, overflow = out = self._span(INTERFACE, "query", query, (spec, order), {})
            self._last.info.update(n=1, rows=len(rows), overflow=int(overflow),
                                   fresh=self._fresh(rows, db.id_col))
            return out

        def counted_batch(specs, order=None):
            self._charge(len(specs))
            if not self.traced:
                return query_batch(specs, order)
            out = self._span(INTERFACE, "query_batch", query_batch, (specs, order), {})
            rows = [r for rs, _ in out for r in rs]
            self._last.info.update(n=len(specs), rows=len(rows),
                                   overflow=sum(int(o) for _, o in out),
                                   fresh=self._fresh(rows, db.id_col))
            return out

        db.query, db.query_batch = counted_query, counted_batch

    def _charge(self, n: int) -> None:
        p = self.page
        if p is not None:
            p.queries += n

    def _fresh(self, rows, id_col) -> int:
        seen = self.page.seen if self.page is not None else None
        if seen is None:
            return 0
        before = len(seen)
        seen.update(r[id_col] for r in rows)
        return len(seen) - before

    # ----- spans -----------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @property
    def _last(self) -> Span:
        return self._local.last

    def _span(self, layer, op, fn, args, kwargs):
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1] if st else None
        st.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            p = self.page
            span = Span(sid, parent, layer, op, t0, t1, p.search if p else None, {})
            self.spans.append(span)
            self._local.last = span

    def _wrap(self, layer, op, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._span(layer, op, fn, args, kwargs)
            if after is not None:
                after(self._last.info, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Wrap every layer's entry point for the duration of the block."""
        patches = []

        def patch(owner, name, layer, op, after=None):
            had_own = name in vars(owner)
            old = vars(owner)[name] if had_own else getattr(owner, name)
            setattr(owner, name, self._wrap(layer, op, old, after))
            patches.append((owner, name, had_own, old))

        def saw_session(info, args, out):
            if self.page is not None:
                self.page.session = args[0]

        def lookup(info, args, out):
            info["hit"] = out is not None

        def crawled(info, args, out):
            info.update(rows=len(out.rows), queries=out.n_queries)

        patch(service.QR2Service, "submit", SERVICE, "submit")
        patch(service.QR2Service, "get_next_page", SERVICE, "get_next_page")
        patch(onedim.OneDRerank, "get_top_h", ONEDIM, "get_top_h")
        patch(multidim.MDRerank, "get_top_h", MULTIDIM, "get_top_h")
        patch(session.Session, "best_undelivered", SESSION, "best_undelivered", saw_session)
        patch(dense_index.DenseIndex, "rows_matching", DENSE_INDEX, "rows_matching", lookup)
        patch(dense_index.DenseIndex, "add", DENSE_INDEX, "add")
        # the crawler and discovery are bound by name where they are called
        for mod in (onedim, multidim, dense_index):
            patch(mod, "crawl", CRAWLER, "crawl", crawled)
        patch(service, "discover_bounds", DISCOVERY, "discover_bounds")
        self.traced = True
        try:
            yield
        finally:
            self.traced = False
            for owner, name, had_own, old in reversed(patches):
                if had_own:
                    setattr(owner, name, old)
                else:
                    delattr(owner, name)

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


#: unit of every per-layer metric the traced run prints
UNITS = {
    "interface.query_ms_p50": "ms",
    "interface.batch_ms_per_query": "ms",
    "interface.spark_jobs_per_query": "jobs/query",
    "interface.batch_size_mean": "queries/call",
    "interface.parallel_frac": "fraction",
    "interface.busy_share": "fraction",
    "interface.overflow_frac": "fraction",
    "interface.fresh_row_frac": "fraction",
    "crawler.query_share": "fraction",
    "crawler.calls_per_search": "calls/search",
    "crawler.rows_per_call": "rows/call",
    "dense_index.hit_frac": "fraction",
    "dense_index.lookups_per_page": "lookups/page",
    "dense_index.lookup_us_p50": "us",
    "dense_index.entries": "entries",
    "dense_index.rows": "rows",
    "session.best_undelivered_ms_share": "fraction",
    "session.pool_rows_p50": "rows",
    "onedim.self_ms_per_page": "ms",
    "multidim.self_ms_per_page": "ms",
    "service.self_ms_per_page": "ms",
    "service.panel_query_error": "queries",
    "discovery.queries": "queries",
    "discovery.s": "s",
    "trace.overhead_ms_per_page": "ms",
    "trace.spans_per_page": "spans/page",
}


def _p50(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], pages: list[Page], *, n_searches: int,
                  spark_jobs: int) -> dict[str, float]:
    """Per-layer figures of one traced pass over ``pages``."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur

    def self_time(s: Span) -> float:
        return s.dur - child_time.get(s.id, 0.0)

    def under(s: Span, layer: str) -> bool:
        p = s.parent
        while p is not None:
            ps = by_id[p]
            if ps.layer == layer:
                return True
            p = ps.parent
        return False

    in_pages = [s for s in spans if s.search is not None]
    of = {}
    for s in in_pages:
        of.setdefault(s.layer, []).append(s)
    # an empty query_batch (every box answered from cache) sends nothing
    site = [s for s in of.get(INTERFACE, []) if s.info["n"]]
    serial = [s for s in site if s.op == "query"]
    batches = [s for s in site if s.op == "query_batch"]
    n_queries = sum(s.info["n"] for s in site)
    rows = sum(s.info["rows"] for s in site)
    page_s = sum(s.dur for s in of.get(SERVICE, []))
    lookups = [s for s in of.get(DENSE_INDEX, []) if s.op == "rows_matching"]
    crawls = of.get(CRAWLER, [])
    disc = [s for s in spans if s.layer == DISCOVERY]
    n_pages = len(pages)

    def algo_self_ms_per_page(layer):
        algo = of.get(layer, [])
        return 1e3 * _ratio(sum(self_time(s) for s in algo), len(algo))

    return {
        "interface.query_ms_p50": 1e3 * _p50([s.dur for s in serial]),
        "interface.batch_ms_per_query": 1e3 * _ratio(
            sum(s.dur for s in batches), sum(s.info["n"] for s in batches)),
        "interface.spark_jobs_per_query": _ratio(spark_jobs, n_queries),
        "interface.batch_size_mean": _ratio(n_queries, len(site)),
        "interface.parallel_frac": _ratio(
            sum(s.info["n"] for s in site if s.info["n"] > 1), n_queries),
        "interface.busy_share": _ratio(sum(s.dur for s in site), page_s),
        "interface.overflow_frac": _ratio(sum(s.info["overflow"] for s in site), n_queries),
        "interface.fresh_row_frac": _ratio(sum(s.info["fresh"] for s in site), rows),
        "crawler.query_share": _ratio(
            sum(s.info["n"] for s in site if under(s, CRAWLER)), n_queries),
        "crawler.calls_per_search": _ratio(len(crawls), n_searches),
        "crawler.rows_per_call": _ratio(sum(s.info["rows"] for s in crawls), len(crawls)),
        "dense_index.hit_frac": _ratio(sum(s.info["hit"] for s in lookups), len(lookups)),
        "dense_index.lookups_per_page": _ratio(len(lookups), n_pages),
        "dense_index.lookup_us_p50": 1e6 * _p50([s.dur for s in lookups]),
        "dense_index.entries": _ratio(sum(p.index_entries for p in pages), n_pages),
        "dense_index.rows": _ratio(sum(p.index_rows for p in pages), n_pages),
        "session.best_undelivered_ms_share": _ratio(
            sum(s.dur for s in of.get(SESSION, [])), page_s),
        "session.pool_rows_p50": _p50([p.pool_rows for p in pages if p.session]),
        # self time per page the layer served (one get_top_h span per page)
        "onedim.self_ms_per_page": algo_self_ms_per_page(ONEDIM),
        "multidim.self_ms_per_page": algo_self_ms_per_page(MULTIDIM),
        "service.self_ms_per_page": 1e3 * _ratio(
            sum(self_time(s) for s in of.get(SERVICE, [])), n_pages),
        "service.panel_query_error": float(sum(
            abs(p.panel_queries - p.queries) for p in pages if p.panel_queries is not None)),
        "discovery.s": sum(s.dur for s in disc),
    }
