"""Flight-level acceptance model and controller-level candidate ranking.

A flight weighs a departure reward against participation cost and the
expected cost of a failed probe; the acceptance probability is the logistic
of that net utility scaled by a per-agent sensitivity. The controller ranks
candidates by expected payoff (acceptance probability times estimated delay
reduction) and extends offers in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import json_object, number


@dataclass(frozen=True)
class AgentProfile:
    """Per-flight decision inputs.

    reward, participation_cost and failure_cost are in common (abstract)
    utility units; beta has units of 1/utility.
    """

    id: str
    reward: float
    participation_cost: float
    failure_cost: float
    beta: float
    p_success_i: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        for name in ("reward", "participation_cost", "failure_cost"):
            object.__setattr__(self, name, number(name, getattr(self, name), 0))
        object.__setattr__(self, "beta", number("beta", self.beta, 0, lo_open=True))
        object.__setattr__(self, "p_success_i", number("p_success_i", self.p_success_i, 0, 1))


@dataclass(frozen=True)
class ControllerCandidate:
    profile: AgentProfile
    epsilon: float  # effectiveness in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "epsilon", number("epsilon", self.epsilon, 0, 1))


@dataclass(frozen=True)
class ControllerContext:
    delta_d_ideal: float  # max delay reduction of an ideal pathfinder, >= 0

    def __post_init__(self):
        object.__setattr__(self, "delta_d_ideal", number("delta_d_ideal", self.delta_d_ideal, 0))


def utility_accept(profile: AgentProfile) -> float:
    """Net utility of accepting the offer; declining is worth exactly 0."""
    return profile.reward - profile.participation_cost - (
        1.0 - profile.p_success_i
    ) * profile.failure_cost


def p_accept(profile: AgentProfile) -> float:
    """Acceptance probability: logistic of beta times the accept utility.
    Each branch takes exp of a non-positive number, so it cannot overflow."""
    x = profile.beta * utility_accept(profile)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def controller_payoff(candidate: ControllerCandidate, ctx: ControllerContext) -> float:
    """Expected delay-reduction payoff of offering to this candidate."""
    return p_accept(candidate.profile) * candidate.epsilon * ctx.delta_d_ideal


def rank_candidates(
    candidates: list[ControllerCandidate], ctx: ControllerContext
) -> list[str]:
    """Candidate ids by payoff, highest first; ties broken by ascending id."""
    if not candidates:
        raise ValueError("cannot rank an empty candidate list")
    seen: set[str] = set()
    for c in candidates:
        if c.profile.id in seen:
            raise ValueError(f"candidate id {c.profile.id!r} appears more than once")
        seen.add(c.profile.id)
    ranked = sorted(candidates, key=lambda c: (-controller_payoff(c, ctx), c.profile.id))
    return [c.profile.id for c in ranked]


_PROFILE_KEYS = ("id", "reward", "participation_cost", "failure_cost", "beta", "p_success_i")
_CANDIDATE_KEYS = ("profile", "epsilon")


def _built(index: int, cls, **kwargs):
    """cls(**kwargs), with the record index in front of its ValueError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"record {index}: {exc}") from exc


def candidates_from_json(doc) -> list[ControllerCandidate]:
    """Parse a JSON array of {profile: {...}, epsilon: x} candidate objects;
    errors name the record index. A file is read with `fileio.read_json`."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of candidates, got {type(doc).__name__}")
    out = []
    for i, obj in enumerate(doc):
        obj = json_object(f"record {i}", obj, _CANDIDATE_KEYS, _CANDIDATE_KEYS)
        fields = json_object(f"record {i}: profile", obj["profile"], _PROFILE_KEYS, _PROFILE_KEYS)
        profile = _built(i, AgentProfile, **fields)
        out.append(_built(i, ControllerCandidate, profile=profile, epsilon=obj["epsilon"]))
    return out
