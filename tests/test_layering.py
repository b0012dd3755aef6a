"""Import boundary: the service side never imports the hidden database's
generator. The algorithms and the crawler learn facet options from the
search form (``WebDB.cat_domains``) and extents through discovery, as a
third-party service over a real site must.

Cost boundary: only ``webdb/interface.py`` touches a database's lifetime
query counter (``WebDB.stats``); everything else counts a request's site
queries with a ``WebDB.counting()`` block, which stays right when users
run concurrently. Only ``webdb/interface.py`` raises ``BudgetExceeded``:
a request's budget is a ``counting(max_queries)`` block, checked where a
query is charged, so it bounds every query the request sends.

Candidate boundary: only ``core/session.py`` reads a session's pool; the
algorithms take their next candidate from ``Session.best_undelivered``.

Answer boundary: in ``core/``, only the get-next frame (``core/engine.py``)
asks the site or reads a session's response cache; the algorithms get a
spec's answer from ``GetNext._recall`` or ``GetNext._send``.

Loop boundary: in ``core/``, ``get_next`` is defined only by the frame
(abstract), the box engine and MD-TA; every other algorithm is a
configuration of the box engine."""
import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
SERVICE_SIDE = sorted((SRC / "core").glob("*.py")) + [
    SRC / "webdb" / f"{m}.py" for m in ("crawler", "discovery", "interface")
]


def _imports(path: pathlib.Path) -> set[str]:
    """Absolute names of every module (and imported member) in ``path``."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            mod = ".".join(p for p in (base, node.module) if p)
            out.add(mod)
            out.update(f"{mod}.{a.name}" for a in node.names)
    return out


def test_service_side_files_found():
    assert len(SERVICE_SIDE) > 8 and all(p.exists() for p in SERVICE_SIDE)


@pytest.mark.parametrize("path", SERVICE_SIDE, ids=lambda p: f"{p.parent.name}_{p.stem}")
def test_no_generator_import(path):
    bad = {m for m in _imports(path) if m == "repro.synth_data" or m.startswith("repro.synth_data.")}
    assert not bad, f"{path.name} imports {sorted(bad)}"


def test_stats_read_only_in_interface():
    interface = SRC / "webdb" / "interface.py"
    readers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != interface
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "stats"
    ]
    assert not readers, f"read WebDB.stats; use WebDB.counting(): {readers}"


def test_budget_raised_only_in_interface():
    interface = SRC / "webdb" / "interface.py"
    raisers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != interface
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
        and "BudgetExceeded" in ast.unparse(node.exc)
    ]
    assert not raisers, f"raise BudgetExceeded; open WebDB.counting(max_queries): {raisers}"


def test_pool_read_only_in_session():
    session = SRC / "core" / "session.py"
    readers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "core").glob("*.py"))
        if path != session
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "pool"
    ]
    assert not readers, f"read Session.pool; use Session.best_undelivered: {readers}"


def test_site_answers_only_in_engine():
    engine = SRC / "core" / "engine.py"
    askers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "core").glob("*.py"))
        if path != engine
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "query_cache"
            and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("query", "query_batch"))
    ]
    assert not askers, f"ask the site or read query_cache; use GetNext._recall/_send: {askers}"


def test_get_next_only_in_search_loops():
    loops = {"engine.py", "multidim.py", "ta.py"}
    definers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "core").glob("*.py"))
        if path.name not in loops
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "get_next"
    ]
    assert not definers, f"a get-next loop outside the box engine and MD-TA: {definers}"
