"""MD reranking: MD-BASELINE, MD-BINARY, MD-RERANK (from [11] via QR2).

The user function is a signed linear combination of two or more normalised
attributes; internally a minimisation over the unit cube with non-negative
weights (axis flips for negative sliders — section II-C's [-1,1] sliders).

The search keeps a work-queue of boxes covering the not-yet-ruled-out part
of the space. Every loop iteration answers the live boxes: what the dense
index or the session already knows is recalled, the rest is sent as one
parallel batch — QR2's parallel processing (section II-B); the
per-iteration batch sizes feed the Fig. 2 statistic. A box wholly behind
the live box with the lowest maximum score waits for the next iteration
instead, since a tuple found there may prune it. A box is retired when it

* is *certified* — fully enumerated earlier (session certified set, or the
  shared dense index for RERANK): zero queries;
* is *pruned* — its minimum possible score exceeds the best undelivered
  candidate's score (the rank-contour bound of the best-known solution);
* *underflows* — its query returned every tuple inside: certify it;
* otherwise it is narrowed: BASELINE drops the low end that certified boxes
  already hold and clips the rest by the rank contour of the best candidate
  known at that moment (broad narrowed re-query), BINARY midpoint-splits
  the widest dimension, RERANK additionally crawls boxes denser than
  threshold ``delta`` into the persistent index.

When the queue drains, the best undelivered pool row is provably the next
tuple in the user's ranking. With d=1 the same engine is
1D-BASELINE/BINARY/RERANK (:mod:`~repro.core.onedim`).

A get-next continues where the last completed one stopped. The boxes that
call pruned are its *frontier*: with the certified boxes they cover the
space not yet ruled out, so the next call starts from them
(``ContextMD.frontier``) instead of recalling and re-splitting every box
above them from the unit cube. Each queued box carries the round in which a
search from the unit cube reaches it; a box whose round is later than the
current one is *held* until the search gets there (with no box live, the
search jumps to the lowest held round), so a tuple found in an earlier round
can still prune it first. In the wait rule a held box stands in for the
ancestors a restart would have live: when a held box has the lowest maximum
score, every live box wholly behind it waits, ``first`` included. The
frontier is committed only when a get-next completes; one refused by its
budget leaves the previous frontier, which still covers the unsearched space.
The resumed search usually sends what a restart sends, call for call, but
that is measured, not proven: on some tie-heavy MD sites it sends a few
queries more or fewer. BASELINE restarts from the unit cube on every call:
its narrowing drops the region beyond the best tuple of the moment, so the
boxes it prunes do not cover what is left.
"""
from __future__ import annotations

from typing import Optional

from ..webdb.crawler import crawl
from ..webdb.interface import Row
from ..webdb.ranking import LinearRanking
from .dense_index import DenseIndex
from .engine import GetNext
from .geometry import Box
from .session import ContextMD, Session


class MDAlgorithm(GetNext):
    """The box-queue engine of MD- and 1D-BASELINE/BINARY/RERANK."""

    name = "md"
    #: True for the d=1 case (1D-BASELINE/BINARY/RERANK), which takes only
    #: single-attribute rankings; the MD algorithms take two or more
    single_attribute = False
    #: when an iteration has a single live box, also issue its children
    #: speculatively in the same parallel batch (section II-B: "this may,
    #: sometimes, increase the number of queries issued to the web database")
    speculate = False
    #: continue each get-next from the boxes the last one pruned
    #: (``ContextMD.frontier``) instead of from the unit box
    resume = True

    # ----- public primitive ---------------------------------------------
    def get_next(self, session: Session, ranking: LinearRanking) -> Optional[Row]:
        """Deliver the next-best undelivered tuple, or None when exhausted."""
        if (len(ranking.attrs) == 1) != self.single_attribute:
            need = "a single-attribute" if self.single_attribute else "a >= 2 attribute"
            raise ValueError(f"{self.name} requires {need} ranking")
        ctx = session.ctx("md", ranking, ContextMD)
        w = {d: ranking.internal_weight(d) for d in ranking.attrs}
        best = session.best_undelivered(ranking)
        # (box, round it is reached in): the last get-next's frontier, or the
        # unit box when there is none or this variant restarts
        if self.resume and ctx.frontier is not None:
            queue = ctx.frontier
        else:
            queue = [(Box.unit(ranking.attrs), 0)]
        pruned = []
        rnd = 0
        with self.db.counting(self.max_queries):
            while queue:
                best_s = None if best is None else ranking.internal_score(best)
                live, held = [], []
                for box, at in queue:
                    if box.is_empty() or ctx.is_certified(box):
                        continue
                    if best_s is not None and box.min_score(w) > best_s + 1e-12:
                        pruned.append((box, at))  # rank-contour prune
                    elif at > rnd:
                        held.append((box, at))  # a restart reaches it later
                    else:
                        live.append(box)
                if not live:
                    if not held:
                        break
                    rnd = min(at for _, at in held)
                    queue = held
                    continue
                # a box wholly behind the lowest-ceiling box waits a round, so a
                # tuple found there can prune it before it is queried; a held
                # box stands in for its ancestors, which a restart would have
                # live here, so when it has the lowest ceiling every box waits
                first = min(live, key=lambda b: b.max_score(w))
                cap = first.max_score(w)
                if held:
                    lowest = min(b.max_score(w) for b, _ in held)
                    if lowest <= cap:
                        first, cap = None, lowest
                cap -= 1e-12
                waiting = [b for b in live if b is not first and b.min_score(w) >= cap]
                live = [b for b in live if b is first or b.min_score(w) < cap]
                # each box's answer is recalled, or sent in this round's one
                # parallel batch (Fig. 2); a lone miss sends its box's children
                # along speculatively, so the site round-trip is still parallel
                specs = [session.filter_spec.merged(box.to_spec(ranking)) for box in live]
                answers = [self._recall(session, spec) for spec in specs]
                misses = [spec for spec, answer in zip(specs, answers) if answer is None]
                if self.speculate and len(misses) == 1:
                    lone = live[answers.index(None)]
                    for child in lone.split_widest():
                        cspec = session.filter_spec.merged(child.to_spec(ranking))
                        if not child.is_empty() and self._recall(session, cspec) is None:
                            misses.append(cspec)
                sent = iter(self._send(session, misses))
                rnd += 1
                queue = held + [(box, rnd) for box in waiting]
                for box, spec, answer in zip(live, specs, answers):
                    rows, overflow = answer or next(sent)
                    session.absorb(rows)
                    if not overflow:
                        ctx.add(box)
                    elif box.max_width() <= self.crawl_width:
                        # the crawl stays here under this module's ``crawl`` name,
                        # which perfbench traces; it splits the answer just held
                        crawled = crawl(self.db, spec, (rows, True), self.bounds)
                        self._store_crawl(session, spec, crawled)
                        ctx.add(box)
                    else:
                        queue.extend((c, rnd) for c in self._narrow(box, ranking, session))
                best = session.best_undelivered(ranking)
        if self.resume:
            ctx.frontier = pruned
        if best is None:
            return None
        return session.deliver(best)

    # ----- per-algorithm narrowing ---------------------------------------
    def _narrow(self, box: Box, ranking: LinearRanking, session: Session) -> list[Box]:
        """Children replacing an overflowing box (never returns it unchanged)."""
        return list(box.split_widest())


class MDBaseline(MDAlgorithm):
    """Broad queries narrowed by the best-known rank contour (MD-BASELINE)."""

    name = "md-baseline"
    #: ``_narrow`` clips by the best tuple of the moment and drops the region
    #: beyond it, so the boxes a get-next prunes do not cover what is left
    resume = False

    def _narrow(self, box, ranking, session):
        # what earlier calls certified is in the pool; asking for it again
        # would overflow on delivered tuples alone
        narrowed = session.ctx("md", ranking, ContextMD).trim(box)
        # the best tuple known now, with the rows this round just absorbed:
        # the round's starting best is often None or stale, and clipping by
        # it would leave the box to be halved, which makes d=1 a BINARY
        best = session.best_undelivered(ranking)
        if best is not None:
            narrowed = narrowed.clip_by_contour(ranking, ranking.internal_score(best))
        if narrowed.is_empty():
            return []
        if narrowed != box:
            return [narrowed]
        return self._split(box, ranking, best)

    def _split(self, box: Box, ranking: LinearRanking, best: Optional[Row]) -> list[Box]:
        """Children of a box that neither the certified boxes nor the contour narrow."""
        return list(box.split_widest())


class MDBinary(MDAlgorithm):
    """Midpoint binary space partitioning (MD-BINARY)."""

    name = "md-binary"
    speculate = True


class MDRerank(MDAlgorithm):
    """MD-BINARY plus on-the-fly dense-region indexing (MD-RERANK)."""

    name = "md-rerank"
    index_crawls = True
    speculate = True

    def __init__(
        self,
        db,
        bounds,
        *,
        dense_index: Optional[DenseIndex] = None,
        delta: float = 0.05,
        max_queries: Optional[int] = None,
    ):
        super().__init__(db, bounds, dense_index=dense_index, max_queries=max_queries)
        self.crawl_width = delta


ALGORITHMS_MD = {
    "md-baseline": MDBaseline,
    "md-binary": MDBinary,
    "md-rerank": MDRerank,
}
