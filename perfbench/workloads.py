"""The search pool and the workloads of the QR2 service benchmark.

Every workload draws from one fixed pool of user searches (ranking plus
filter). A workload runs in *rounds*: one round is a fixed list of pool searches,
and the seed only decides their order. Every run of a workload therefore
does the same searches, so its figures are comparable from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from repro.webdb.predicates import QuerySpec

#: results per page, the demo UI's page size (section II-C)
PAGE_SIZE = 10
#: the site's top-k, as in EXPERIMENTS.md
SYSTEM_K = 25


@dataclass(frozen=True)
class Search:
    """One user search: a source, slider weights and a categorical filter."""

    label: str
    source: str
    weights: tuple  # ((attr, signed weight), ...); one attr means ORDER BY
    cats: tuple = ()  # ((facet, (option, ...)), ...)

    def filter_spec(self) -> QuerySpec:
        return QuerySpec(cats={a: frozenset(vs) for a, vs in self.cats})

    def ranking(self, svc):
        """Build the ranking through the service's own UI constructors."""
        if len(self.weights) == 1:
            (attr, w), = self.weights
            return svc.ranking_1d(self.source, attr, descending=w < 0)
        return svc.ranking_md(self.source, dict(self.weights))


#: The pool. It covers 1-D ascending and descending orders (Blue Nile price
#: is duplicate-heavy, lwr has the 20% spike at 1.0), the 2-D and 3-D
#: functions of T5, T6's Zillow function, T4's best and worst cases, and
#: three categorical filters.
POOL = (
    Search("bn.price.asc", "bluenile", (("price", 1.0),)),
    Search("bn.price.desc", "bluenile", (("price", -1.0),)),
    Search("zl.t6.price-0.3sqft", "zillow", (("price", 1.0), ("sqft", -0.3))),
    Search("bn.t5.2d", "bluenile", (("price", 1.0), ("carat", -0.3))),
    Search("bn.lwr.asc", "bluenile", (("lwr", 1.0),)),
    Search("bn.carat.desc", "bluenile", (("carat", -1.0),)),
    Search("zl.t4.price+sqft", "zillow", (("price", 1.0), ("sqft", 1.0))),
    Search("bn.t5.3d", "bluenile", (("price", 1.0), ("carat", -0.1), ("depth", -0.5))),
    Search("bn.t4.price+lwr", "bluenile", (("price", 1.0), ("lwr", 1.0))),
    Search("bn.price.asc|cut", "bluenile", (("price", 1.0),), (("cut", ("Ideal",)),)),
    Search("bn.t5.2d|color", "bluenile", (("price", 1.0), ("carat", -0.3)),
           (("color", ("D", "E", "F")),)),
    Search("zl.sqft.desc|zip", "zillow", (("sqft", -1.0),),
           (("zipcode", ("76010", "75201")),)),
)
BY_LABEL = {s.label: s for s in POOL}

#: The searches of a round. A full pool round costs about 1070 site queries
#: at n=3000, about 51 s on SparkWebDB on a 4-core host, which does not fit
#: one run; these seven (about 250 queries, 14-20 s) keep a first-touch dense
#: crawl (T4 worst), MD batches (T5 3-D, T6) and a filter. The two costliest
#: first pages are left out: bn.price.asc (239 queries at n=3000, 2017 at
#: n=20000) and bn.t5.2d (205 and 691).
CORE = (
    "bn.price.desc", "zl.t6.price-0.3sqft", "bn.carat.desc", "zl.t4.price+sqft",
    "bn.t5.3d", "bn.t4.price+lwr", "zl.sqft.desc|zip",
)
#: deep_local's timed pass. On a 20000-tuple site the three multi-attribute
#: searches spend most of their pages in QR2's own CPU (pool scans), the
#: workload's subject, at 0.1-0.6 s a page. Each runs nine times (about
#: 40 s), so every latency percentile falls inside a cluster of MD pages and
#: averages many samples spread across the run. The 1-D searches (site-query
#: bound, 20-60 ms a page) and T4's worst case (2-5 s a page, room for one
#: per run) are traced but not timed: timed with them, the page-latency
#: medians sat on the edge between 1-D and MD pages and spread 0.28 of their
#: median over six seeds.
MD = ("zl.t6.price-0.3sqft", "zl.t4.price+sqft", "bn.t5.3d")
DEEP_TIMED = MD * 9


@dataclass(frozen=True)
class Workload:
    """One closed-loop client over one backend; each search on a fresh
    service, so every dense index starts cold."""

    name: str
    why: str
    backend: str  # "spark" (SparkWebDB) or "local" (LocalWebDB, pandas)
    n: int  # tuples per source
    pages: int  # pages per search: submit, then pages - 1 get-next
    round: tuple  # pool labels of one round, each once; the traced run's round
    timed: tuple  # labels (from round) of one round of the timed, untraced pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solo_spark",
            "one user on Spark-backed sites; the site layer is most of page "
            "time and every dense region is a first touch (crawl, index write)",
            backend="spark", n=3000, pages=3, round=CORE, timed=CORE,
        ),
        Workload(
            "deep_local",
            "one user paging deep through the multi-attribute searches on a "
            "20000-tuple pandas site (2-4 ms per query), so page time is QR2's "
            "own CPU: pool scans, index lookups",
            backend="local", n=20000, pages=6, round=CORE, timed=DEEP_TIMED,
        ),
    )
}


def round_order(labels: tuple, rng: random.Random) -> list:
    """One round's searches in the seed's order."""
    order = [BY_LABEL[label] for label in labels]
    rng.shuffle(order)
    return order
