"""Seeded random streams, and the controller's selection round.

Randomness comes from numpy's Philox counter-based generator, so a given
seed produces the same stream on every platform and independent streams can
be derived for parallel work. `make_rng` keys one generator by (seed,
stream), and each consumer has a fixed stream id: the chain walk
(`chain.simulate_chain`), the selection round here, the offer rounds
(`worstcase.mixture_batch`) and corpus generation (`ntml.generate_corpus`).
Those modules import `make_rng` when they draw, so importing any of them
imports no `simulate`. All entry points take an explicit seed; identical
inputs and seed give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import ControllerCandidate, ControllerContext, p_accept, rank_candidates
from .errors import MAX_SEED, integer


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct streams give non-overlapping sequences for the same seed, so
    unrelated consumers of one master seed stay statistically independent.
    The key is given as uint64: a list of ints would pass through float64
    once the seed reaches 2**63, which loses its low bits.
    """
    seed = integer("seed", seed, 0, MAX_SEED)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# Fixed stream ids per consumer; parallel callers derive their own by offset.
STREAM_CHAIN = 0
_STREAM_SELECTION = 1
STREAM_MIXTURE = 2
STREAM_CORPUS = 3



@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one offer round. accepted_by is None when every candidate
    rejected (the worst case); otherwise it equals
    order_used[offers_made - 1]."""

    accepted_by: str | None
    offers_made: int
    order_used: tuple[str, ...]


def run_selection_round(
    candidates: list[ControllerCandidate], ctx: ControllerContext, seed: int
) -> SelectionOutcome:
    """Extend offers in payoff order until one is accepted or all reject."""
    if not candidates:
        raise ValueError("cannot run a selection round without candidates")
    order = rank_candidates(candidates, ctx)
    by_id = {c.profile.id: c for c in candidates}
    rng = make_rng(seed, _STREAM_SELECTION)
    for i, cid in enumerate(order):
        if rng.random() < p_accept(by_id[cid].profile):
            return SelectionOutcome(accepted_by=cid, offers_made=i + 1, order_used=tuple(order))
    return SelectionOutcome(accepted_by=None, offers_made=len(order), order_used=tuple(order))
