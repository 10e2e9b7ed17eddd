"""Flight-level acceptance model and controller-level candidate ranking.

A flight weighs a departure reward against participation cost and the
expected cost of a failed probe; the acceptance probability is the logistic
of that net utility scaled by a per-agent sensitivity. The controller ranks
candidates by expected payoff (acceptance probability times estimated delay
reduction) and extends offers in that order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import number


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


def p_reject(profile: AgentProfile) -> float:
    return 1.0 - p_accept(profile)


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


def _record(obj, index: int, names: tuple[str, ...]) -> dict:
    """`obj` if it is a JSON object with exactly the fields `names`."""
    if not isinstance(obj, dict):
        raise ValueError(f"record {index}: expected an object, got {type(obj).__name__}")
    missing = [f for f in names if f not in obj]
    if missing:
        raise ValueError(f"record {index}: missing field(s) {', '.join(missing)}")
    extra = [k for k in obj if k not in names]
    if extra:
        raise ValueError(f"record {index}: unknown field(s) {', '.join(extra)}")
    return obj


def _built(index: int, cls, **kwargs):
    """cls(**kwargs), with the record index in front of its ValueError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"record {index}: {exc}") from exc


def profiles_from_json(doc) -> list[AgentProfile]:
    """Parse a JSON array of agent-profile objects; errors name the record index."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of profiles, got {type(doc).__name__}")
    return [_built(i, AgentProfile, **_record(obj, i, _PROFILE_KEYS)) for i, obj in enumerate(doc)]


def candidates_from_json(doc) -> list[ControllerCandidate]:
    """Parse a JSON array of {profile: {...}, epsilon: x} candidate objects."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of candidates, got {type(doc).__name__}")
    out = []
    for i, obj in enumerate(doc):
        obj = _record(obj, i, ("profile", "epsilon"))
        profile = _built(i, AgentProfile, **_record(obj["profile"], i, _PROFILE_KEYS))
        out.append(_built(i, ControllerCandidate, profile=profile, epsilon=obj["epsilon"]))
    return out


def load_candidates(path: str) -> list[ControllerCandidate]:
    with open(path, encoding="utf-8") as handle:
        return candidates_from_json(json.load(handle))
