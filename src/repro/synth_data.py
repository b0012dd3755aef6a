"""The hidden tables behind the two demo sites (DESIGN.md section 3).

``diamonds_pdf``/``houses_pdf`` are the ground-truth Blue Nile and Zillow
inventories as pandas frames, deterministic in ``seed`` so the DuckDB oracle
and both site backends see identical input; ``diamonds``/``houses`` wrap
them as Spark DataFrames. Tuple counts stand in for scale: tests use n~500,
benchmarks n~3000-20000.

This module is the *site's* side of the simulation. The reranking service
never imports it: it learns the categorical options from the search form
(``WebDB.cat_domains``, published by ``webdb.sources``) and the numeric
extents through ``webdb.discovery``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


#: fraction of diamonds with LengthWidthRatio exactly 1.0 — the paper reports
#: "around 20% of the tuples satisfy this predicate" on the live Blue Nile.
DIAMONDS_LWR_ONE_FRACTION = 0.2

DIAMOND_CUTS = ["Astor", "Ideal", "Very Good", "Good"]
DIAMOND_COLORS = list("DEFGHIJ")
DIAMOND_CLARITIES = ["FL", "IF", "VVS1", "VVS2", "VS1", "VS2", "SI1", "SI2"]
DIAMOND_SHAPES = ["Round", "Princess", "Emerald", "Cushion", "Oval", "Pear"]


def diamonds_pdf(*, n: int, seed: int = 7) -> pd.DataFrame:
    """Synthetic Blue Nile inventory.

    Marginals mimic the live site: carat lognormal; price a noisy power law
    of carat (strong positive correlation); depth/table tight normals; and a
    20% spike of tuples with lwr == 1.0 (round stones), reproducing the
    paper's worst-case dense region. Prices are rounded to whole dollars so
    duplicate values (general-positioning violations) occur naturally.
    """
    g = _rng(seed)
    carat = np.round(np.exp(g.normal(-0.4, 0.55, n)).clip(0.2, 10.0), 2)
    price = np.round(1800.0 * carat**1.9 * np.exp(g.normal(0, 0.25, n)), 0)
    depth = np.round(g.normal(61.8, 1.4, n).clip(55, 68), 1)
    table_pct = np.round(g.normal(57.5, 2.0, n).clip(50, 66), 1)
    lwr = np.round(g.uniform(1.01, 2.35, n), 2)
    lwr[g.random(n) < DIAMONDS_LWR_ONE_FRACTION] = 1.0
    return pd.DataFrame(
        {
            "tid": np.arange(1, n + 1),
            "price": price,
            "carat": carat,
            "depth": depth,
            "table_pct": table_pct,
            "lwr": lwr,
            "cut": g.choice(DIAMOND_CUTS, n, p=[0.1, 0.45, 0.3, 0.15]),
            "color": g.choice(DIAMOND_COLORS, n),
            "clarity": g.choice(DIAMOND_CLARITIES, n),
            "shape": g.choice(DIAMOND_SHAPES, n, p=[0.5, 0.14, 0.1, 0.1, 0.08, 0.08]),
        }
    )


def diamonds(spark: SparkSession, *, n: int, seed: int = 7) -> DataFrame:
    """Spark view of :func:`diamonds_pdf`."""
    return spark.createDataFrame(diamonds_pdf(n=n, seed=seed))


HOUSE_ZIPS = ["76010", "76011", "76012", "76013", "75001", "75002", "75080", "75201"]


def houses_pdf(*, n: int, seed: int = 11) -> pd.DataFrame:
    """Synthetic Zillow listings.

    sqft is derived from price with multiplicative noise, giving the strong
    positive price-sqft correlation the paper's best-case function
    (price + squarefeet) relies on. Prices rounded to $100, sqft to 10.
    """
    g = _rng(seed)
    price = np.round(np.exp(g.normal(12.6, 0.45, n)).clip(4e4, 4e6), -2)
    sqft = np.round((price / 160.0) * np.exp(g.normal(0, 0.18, n)), -1).clip(300, 20000)
    beds = np.minimum(1 + g.poisson(1.8, n), 7)
    baths = np.round((1 + g.poisson(1.1, n)).clip(1, 5) / 1.0, 1)
    return pd.DataFrame(
        {
            "tid": np.arange(1, n + 1),
            "price": price,
            "sqft": sqft,
            "beds": beds.astype("int64"),
            "baths": baths,
            "zipcode": g.choice(HOUSE_ZIPS, n),
        }
    )


def houses(spark: SparkSession, *, n: int, seed: int = 11) -> DataFrame:
    """Spark view of :func:`houses_pdf`."""
    return spark.createDataFrame(houses_pdf(n=n, seed=seed))
