"""Contract tests: SparkWebDB == LocalWebDB == DuckDB on identical queries.

The reranking algorithms only see the interface; these tests pin down that
the Spark-backed database (one windowed top-k statement per batch) and the
pandas mirror implement *identical* top-k semantics, cross-checked against
DuckDB executing the same SQL.
"""
import duckdb
import pytest

from repro import synth_data as sd
from repro.webdb import sources
from repro.webdb.predicates import QuerySpec, Range


SPECS_BLUENILE = [
    QuerySpec(),
    QuerySpec({"price": Range(1000, 8000)}),
    QuerySpec({"price": Range(None, 3000, hi_incl=False)}),
    QuerySpec({"carat": Range(0.5, None, lo_incl=False)}),
    QuerySpec({"lwr": Range(1.0, 1.0)}),
    QuerySpec({"price": Range(2000, 20000), "depth": Range(60, 63)}),
    QuerySpec(cats={"shape": {"Round", "Oval"}}),
    QuerySpec({"carat": Range(0.3, 1.5)}, {"cut": {"Ideal"}, "color": {"D", "E"}}),
    QuerySpec({"price": Range(10, 11)}),  # likely empty
]

SPECS_ZILLOW = [
    QuerySpec(),
    QuerySpec({"price": Range(100000, 400000)}),
    QuerySpec({"sqft": Range(None, 1500)}),
    QuerySpec({"beds": Range(3, None)}, {"zipcode": {"76010", "75001"}}),
]


@pytest.fixture(scope="module")
def dbs(spark):
    return {
        "bluenile": (
            sources.bluenile(spark, n=400, k=7),
            sources.bluenile(None, n=400, k=7),
            sd.diamonds_pdf(n=400),
        ),
        "zillow": (
            sources.zillow(spark, n=400, k=7),
            sources.zillow(None, n=400, k=7),
            sd.houses_pdf(n=400),
        ),
    }


def _duck_topk(pdf, spec, rank_expr, k):
    con = duckdb.connect()
    con.register("t", pdf)
    q = (
        f"SELECT tid FROM t WHERE {spec.to_sql()} "
        f"ORDER BY ({rank_expr}) ASC, tid ASC LIMIT {k + 1}"
    )
    out = con.execute(q).fetchdf()["tid"].tolist()
    con.close()
    return out


def _check(source_dbs, spec):
    sdb, ldb, pdf = source_dbs
    s_rows, s_ovf = sdb.query(spec)
    l_rows, l_ovf = ldb.query(spec)
    assert [r["tid"] for r in s_rows] == [r["tid"] for r in l_rows]
    assert s_ovf == l_ovf
    duck = _duck_topk(pdf, spec, sdb.system_ranking.expr, sdb.k)
    assert [r["tid"] for r in s_rows] == duck[: sdb.k]
    assert s_ovf == (len(duck) > sdb.k)
    # full row payloads agree
    for a, b in zip(s_rows, l_rows):
        assert a == b


@pytest.mark.parametrize("i", range(len(SPECS_BLUENILE)))
def test_bluenile_contract(dbs, i):
    _check(dbs["bluenile"], SPECS_BLUENILE[i])


@pytest.mark.parametrize("i", range(len(SPECS_ZILLOW)))
def test_zillow_contract(dbs, i):
    _check(dbs["zillow"], SPECS_ZILLOW[i])


@pytest.mark.parametrize("order", [("price", "asc"), ("price", "desc"), ("carat", "desc")])
def test_order_override_contract(dbs, order):
    sdb, ldb, _ = dbs["bluenile"]
    spec = QuerySpec({"carat": Range(0.4, 1.0)})
    s_rows, s_ovf = sdb.query(spec, order=order)
    l_rows, l_ovf = ldb.query(spec, order=order)
    assert [r["tid"] for r in s_rows] == [r["tid"] for r in l_rows]
    assert s_ovf == l_ovf


#: one batch of every kind of spec: ranges, IN lists, an empty result, the
#: same spec twice, and a point holding more than k tied tuples
BATCH_BLUENILE = [
    QuerySpec({"price": Range(1000, 8000)}),
    QuerySpec(cats={"shape": {"Round", "Oval"}}),
    QuerySpec({"price": Range(10, 11)}),
    QuerySpec({"carat": Range(0.3, 1.5)}, {"cut": {"Ideal"}, "color": {"D", "E"}}),
    QuerySpec({"lwr": Range(1.0, 1.0)}),
    QuerySpec({"price": Range(1000, 8000)}),
    QuerySpec({"price": Range(2000, 20000), "depth": Range(60, 63)}, {"clarity": {"VS1"}}),
]


def test_spark_batch_matches_sequential(dbs):
    """One batch answers each spec as its own query() and pandas do, row for row."""
    sdb, ldb, _ = dbs["bluenile"]
    for order in (None, ("price", "asc"), ("carat", "desc")):
        batched = sdb.query_batch(BATCH_BLUENILE, order)
        single = [sdb.query(s, order) for s in BATCH_BLUENILE]
        local = ldb.query_batch(BATCH_BLUENILE, order)
        assert batched == single == local, order
    assert batched[2] == ([], False)
    assert batched[0] == batched[5]
    assert batched[4][1]


def test_spark_batch_is_one_job_in_its_own_session(spark, dbs):
    sdb, _, _ = dbs["bluenile"]
    keys = ("spark.sql.adaptive.enabled", "spark.sql.codegen.wholeStage")
    before = {key: spark.conf.get(key) for key in keys}
    sources.zillow(spark, n=100, k=5)
    assert {key: spark.conf.get(key) for key in keys} == before

    tracker = spark.sparkContext.statusTracker()

    def last_job():
        return max(tracker.getJobIdsForGroup(None) or [-1])

    j0 = last_job()
    sdb.query_batch(BATCH_BLUENILE[1:])
    assert last_job() == j0 + 1


def test_spark_true_metadata_matches_local(dbs):
    sdb, ldb, _ = dbs["bluenile"]
    assert sdb.true_size() == ldb.true_size()
    for a in sdb.numeric_attrs:
        assert sdb.true_domain(a) == ldb.true_domain(a)
