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

from .errors import DuplicateId, EmptyCandidateSet


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
            value = float(getattr(self, name))
            if math.isnan(value) or value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        beta = float(self.beta)
        if math.isnan(beta) or beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta!r}")
        object.__setattr__(self, "beta", beta)
        p = float(self.p_success_i)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"p_success_i must lie in [0, 1], got {self.p_success_i!r}")
        object.__setattr__(self, "p_success_i", p)


@dataclass(frozen=True)
class ControllerCandidate:
    profile: AgentProfile
    epsilon: float  # effectiveness in [0, 1]

    def __post_init__(self):
        eps = float(self.epsilon)
        if math.isnan(eps) or not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class ControllerContext:
    delta_d_ideal: float  # max delay reduction of an ideal pathfinder, >= 0

    def __post_init__(self):
        d = float(self.delta_d_ideal)
        if math.isnan(d) or d < 0.0:
            raise ValueError(f"delta_d_ideal must be >= 0, got {self.delta_d_ideal!r}")
        object.__setattr__(self, "delta_d_ideal", d)


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
        raise EmptyCandidateSet("cannot rank an empty candidate list")
    seen: set[str] = set()
    for c in candidates:
        if c.profile.id in seen:
            raise DuplicateId(f"candidate id {c.profile.id!r} appears more than once")
        seen.add(c.profile.id)
    ranked = sorted(candidates, key=lambda c: (-controller_payoff(c, ctx), c.profile.id))
    return [c.profile.id for c in ranked]


_PROFILE_FIELDS = ("id", "reward", "participation_cost", "failure_cost", "beta", "p_success_i")


def _profile_from_obj(obj, index: int) -> AgentProfile:
    if not isinstance(obj, dict):
        raise ValueError(f"record {index}: expected an object, got {type(obj).__name__}")
    missing = [f for f in _PROFILE_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"record {index}: missing field(s) {', '.join(missing)}")
    extra = [k for k in obj if k not in _PROFILE_FIELDS]
    if extra:
        raise ValueError(f"record {index}: unknown field(s) {', '.join(extra)}")
    try:
        return AgentProfile(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"record {index}: {exc}") from exc


def profiles_from_json(doc) -> list[AgentProfile]:
    """Parse a JSON array of agent-profile objects; errors name the record index."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of profiles, got {type(doc).__name__}")
    return [_profile_from_obj(obj, i) for i, obj in enumerate(doc)]


def candidates_from_json(doc) -> list[ControllerCandidate]:
    """Parse a JSON array of {profile: {...}, epsilon: x} candidate objects."""
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of candidates, got {type(doc).__name__}")
    out = []
    for i, obj in enumerate(doc):
        if not isinstance(obj, dict):
            raise ValueError(f"record {i}: expected an object, got {type(obj).__name__}")
        extra = [k for k in obj if k not in ("profile", "epsilon")]
        if extra:
            raise ValueError(f"record {i}: unknown field(s) {', '.join(extra)}")
        if "profile" not in obj or "epsilon" not in obj:
            raise ValueError(f"record {i}: candidate needs 'profile' and 'epsilon'")
        profile = _profile_from_obj(obj["profile"], i)
        try:
            out.append(ControllerCandidate(profile=profile, epsilon=obj["epsilon"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"record {i}: {exc}") from exc
    return out


def load_candidates(path: str) -> list[ControllerCandidate]:
    with open(path, encoding="utf-8") as handle:
        return candidates_from_json(json.load(handle))
