"""Factory for the two demo data sources: Blue Nile and Zillow.

Encodes each site's searchable attributes and its hidden system ranking
(DESIGN.md section 3): Blue Nile's default sort is price ascending; Zillow's
is an opaque price-dominated mix. Both factories can build either backend
(Spark or pandas) over the same deterministic synthetic table.
"""
from __future__ import annotations

from typing import Optional

from .. import synth_data
from .interface import LocalWebDB, SparkWebDB, WebDB
from .ranking import SystemRanking

#: Blue Nile search form: numeric sliders + categorical selects (section II-C),
#: each select published with the options it lists, as on the live form
BLUENILE_NUMERIC = ["price", "carat", "depth", "table_pct", "lwr"]
BLUENILE_CAT = {
    "cut": synth_data.DIAMOND_CUTS,
    "color": synth_data.DIAMOND_COLORS,
    "clarity": synth_data.DIAMOND_CLARITIES,
    "shape": synth_data.DIAMOND_SHAPES,
}
BLUENILE_SYSTEM_RANK = SystemRanking("price")

#: Zillow search form
ZILLOW_NUMERIC = ["price", "sqft", "beds", "baths"]
ZILLOW_CAT = {"zipcode": synth_data.HOUSE_ZIPS}
ZILLOW_SYSTEM_RANK = SystemRanking("price / 1000 + 0.05 * sqft")

DEFAULT_SYSTEM_K = 10


def bluenile(
    spark=None, *, n: int = 2000, k: int = DEFAULT_SYSTEM_K, seed: int = 7
) -> WebDB:
    """Synthetic Blue Nile; Spark-backed when a SparkSession is given."""
    if spark is None:
        return LocalWebDB(
            synth_data.diamonds_pdf(n=n, seed=seed),
            name="bluenile",
            k=k,
            system_ranking=BLUENILE_SYSTEM_RANK,
            numeric_attrs=BLUENILE_NUMERIC,
            cat_domains=BLUENILE_CAT,
        )
    return SparkWebDB(
        synth_data.diamonds(spark, n=n, seed=seed),
        name="bluenile",
        k=k,
        system_ranking=BLUENILE_SYSTEM_RANK,
        numeric_attrs=BLUENILE_NUMERIC,
        cat_domains=BLUENILE_CAT,
    )


def zillow(
    spark=None, *, n: int = 2000, k: int = DEFAULT_SYSTEM_K, seed: int = 11
) -> WebDB:
    """Synthetic Zillow; Spark-backed when a SparkSession is given."""
    if spark is None:
        return LocalWebDB(
            synth_data.houses_pdf(n=n, seed=seed),
            name="zillow",
            k=k,
            system_ranking=ZILLOW_SYSTEM_RANK,
            numeric_attrs=ZILLOW_NUMERIC,
            cat_domains=ZILLOW_CAT,
        )
    return SparkWebDB(
        synth_data.houses(spark, n=n, seed=seed),
        name="zillow",
        k=k,
        system_ranking=ZILLOW_SYSTEM_RANK,
        numeric_attrs=ZILLOW_NUMERIC,
        cat_domains=ZILLOW_CAT,
    )


def make_source(
    name: str, spark=None, *, n: int = 2000, k: int = DEFAULT_SYSTEM_K, seed: Optional[int] = None
) -> WebDB:
    """Source registry used by the QR2 service facade."""
    if name == "bluenile":
        return bluenile(spark, n=n, k=k, **({} if seed is None else {"seed": seed}))
    if name == "zillow":
        return zillow(spark, n=n, k=k, **({} if seed is None else {"seed": seed}))
    raise KeyError(f"unknown source {name!r}")
