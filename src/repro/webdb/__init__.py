"""Hidden web-database substrate: top-k interface, predicates, ranking,
crawler, extent discovery, and the Blue Nile / Zillow synthetic sources."""
from .interface import LocalWebDB, QueryStats, SparkWebDB, WebDB  # noqa: F401
from .predicates import QuerySpec, Range  # noqa: F401
from .ranking import AttrMap, LinearRanking, SystemRanking, one_d  # noqa: F401
