"""Seeded input generators for the benchmark.

Everything here uses the standard library's `random.Random(seed)` and no
code from the package under test, so a change to the program (for example
to `ntml.generate_corpus` or to a random stream) cannot change what the
benchmark feeds it. The same seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

# Ground-truth label of each template under the documented default rules
# (precedence Failed > Rejected > Assigned > Requested, Assigned only with a
# flight number, Mentioned otherwise). Several templates exercise precedence
# or gating on purpose; they are marked.
_TEMPLATES = {
    "Failed": (
        "Pathfinder {flight} DEVIATED around cells near {fix}, ride moderate",
        "pathfinder didn’t make it past {fix}, returning",
        "{flight} reports conditions not good at FL{alt}, gate stays closed",
        # Failed outranks the Assigned keyword in the same comment.
        "Pathfinder {flight}, assigned earlier, didn't make it through {fix}",
    ),
    "Rejected": (
        "{facility}: pathfinder declined by company, will retry later",
        "No pathfinder available, tops above FL{alt}",
        "still waiting on a pathfinder decision from {facility}",
        # Rejected outranks the Requested keyword.
        "Requesting pathfinder via {fix}; crews not available until {hh}00Z",
        "{flight} DECLINED the pathfinder offer, citing fuel",
    ),
    "Assigned": (
        "{flight} assigned as pathfinder, released via {fix}",
        "{flight} approved to probe the {fix} gate, climbing to FL{alt}",
        "Pathfinder {flight} Released on course to {fix}",
        # Assigned outranks the Requested keyword.
        "{flight} assigned pathfinder duties for {fix}, requesting ride reports",
    ),
    "Requested": (
        "asking for pathfinder at {fix}, any takers",
        "Can we get one through {fix}?",
        "requesting {flight} as pathfinder for {fix}",
        "{facility} requesting a pathfinder, gate {fix} closed since {hh}:{mm}",
    ),
    "Mentioned": (
        "pathfinder ops possible later today",
        "Discussed pathfinder options with {facility}, no decision yet",
        # 'assigned' without a flight number does not make an assignment.
        "pathfinder will be assigned once the line moves east of {fix}",
        'weather improving; pathfinder candidates under review, "standby"',
        # 'requested' is not the keyword 'requesting'.
        "Tops near {fix}, pathfinder may be requested later",
        "pathfinder isn’t needed, gate {fix} open",
    ),
}

# About 35% of rows fall back to Mentioned, as in the real log.
_WEIGHTS = {"Mentioned": 0.35, "Assigned": 0.25, "Requested": 0.15, "Rejected": 0.15, "Failed": 0.10}

_FIXES = ("ELIOT", "WHITE", "GAYEL", "NEION", "MERIT", "COATE", "BAYYS", "GREKI", "PARKE")
_AIRLINES = ("UAL", "DAL", "AAL", "SWA", "JBU", "AA", "DL", "NKS")
# No facility code has two or three letters followed by digits, so none
# reads as a flight number.
_FACILITIES = ("ZNY", "ZDC", "ZOB", "ZBW", "N90", "PHL", "ZID", "ZTL", "A80")


@dataclass(frozen=True)
class Corpus:
    path: str
    labels: tuple[str, ...]
    comments: tuple[str, ...]
    facilities: tuple[str, ...]
    timestamps: tuple[str, ...]


def _case(rng: random.Random, text: str) -> str:
    roll = rng.random()
    if roll < 0.1:
        return text.upper()
    if roll < 0.2:
        return text.title()
    return text


def write_corpus(path: str, rows: int, seed: int) -> Corpus:
    """Write a `timestamp,facility,comment` CSV of `rows` rows and return it
    with the ground-truth label of every row."""
    rng = random.Random(seed)
    names = list(_WEIGHTS)
    weights = [_WEIGHTS[n] for n in names]
    when = datetime(2023, 6, 1, tzinfo=timezone.utc)
    labels, comments, facilities, stamps = [], [], [], []
    for label in rng.choices(names, weights, k=rows):
        template = rng.choice(_TEMPLATES[label])
        comment = template.format(
            flight=f"{rng.choice(_AIRLINES)}{rng.randint(1, 9999)}",
            fix=rng.choice(_FIXES),
            facility=rng.choice(_FACILITIES),
            alt=rng.choice((240, 310, 350, 390, 410)),
            hh=f"{rng.randint(0, 23):02d}",
            mm=f"{rng.randint(0, 59):02d}",
        )
        when += timedelta(minutes=rng.randint(1, 240))
        labels.append(label)
        comments.append(_case(rng, comment))
        facilities.append(rng.choice(_FACILITIES))
        stamps.append(when.isoformat())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "facility", "comment"])
        writer.writerows(zip(stamps, facilities, comments))
    return Corpus(path, tuple(labels), tuple(comments), tuple(facilities), tuple(stamps))


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def grid(step: float, lo_k: int, hi_k: int) -> list[float]:
    return [round(step * k, 12) for k in range(lo_k, hi_k + 1)]


# --- tiny configs -----------------------------------------------------------
#
# Each helper draws one small, valid request. Ranges keep every request
# inside the region where the program succeeds and the checks are sharp:
# the all-reject rate is large enough (>= 0.05) for a 4-standard-error check
# on 1e3 rounds.


def tiny_chain(rng: random.Random) -> dict:
    return {
        "p_good": round(rng.uniform(0.05, 0.95), 6),
        "p_accept": round(rng.uniform(0.05, 1.0), 6),
        "p_success": round(rng.uniform(0.0, 1.0), 6),
    }


def tiny_scenario(rng: random.Random) -> dict:
    # n in 3..4 and |u| in [1, 1.5] put W(0) below delta and W(1) above it
    # for the plain, social and Rademacher variants of `tiny_worst`, so
    # every tipping-point search runs and a probe's work does not depend
    # on the seed.
    u = round(rng.uniform(1.0, 1.5), 6)
    return {"n": rng.randint(3, 4), "u_minus": -u, "u_plus": u, "beta": 1.0, "delta": 0.1}


def tiny_worst(rng: random.Random) -> dict:
    return {
        "worst_case": dict(tiny_scenario(rng), alpha_grid=sorted(round(rng.random(), 6) for _ in range(3))),
        "social": {"s": round(rng.uniform(0.5, 1.0), 6), "gamma": 1.0, "r": round(rng.uniform(0.0, 0.5), 6)},
        "noise": {"kind": "rademacher", "theta": round(rng.uniform(0.1, 1.0), 6)},
    }


def tiny_gradmap(rng: random.Random) -> dict:
    return {
        "gradmap": {
            "n_values": [rng.randint(2, 10)],
            "u_abs_values": [round(rng.uniform(0.5, 4.0), 6)],
            "alpha_grid": sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(2)),
            "theta_grid": sorted(round(rng.uniform(0.2, 2.0), 6) for _ in range(2)),
        },
        "noise": {"kind": "gaussian", "theta": 1.0},
    }


def tiny_simulate(rng: random.Random) -> dict:
    scn = tiny_scenario(rng)
    return {
        "chain": tiny_chain(rng),
        "worst_case": scn,
        "sim": {
            "seed": rng.randrange(2**32),
            "steps": 1000,
            "burn_in": 100,
            "rounds": 1000,
            "alpha": round(rng.uniform(0.5, 1.0), 6),
        },
    }


def candidate_pool(rng: random.Random, size: int) -> list[dict]:
    """JSON candidate records in the package's documented schema."""
    return [
        {
            "profile": {
                "id": f"F{i:03d}",
                "reward": round(rng.uniform(0.0, 5.0), 6),
                "participation_cost": round(rng.uniform(0.0, 2.0), 6),
                "failure_cost": round(rng.uniform(0.0, 4.0), 6),
                "beta": round(rng.uniform(0.2, 2.0), 6),
                "p_success_i": round(rng.uniform(0.3, 1.0), 6),
            },
            "epsilon": round(rng.uniform(0.1, 1.0), 6),
        }
        for i in range(size)
    ]
