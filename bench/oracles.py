"""Independent reference computations for the output checks.

None of this calls the package under test, and each quantity uses another
method than the program: the binomial sum instead of the closed-form power,
a fine trapezoid rule over the normal density instead of Gauss-Hermite
nodes, Brent's method instead of bisection, the hand-solved stationary
distribution instead of a linear solve, and the documented keyword rules
re-implemented from the README.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.optimize import brentq

# Trapezoid rule for E[f(Z)], Z ~ N(0, 1). The logistic integrands are
# analytic in a strip of half-width d = pi / (beta * theta), where the rule
# with step h errs by about exp(-2 pi d / h): below 1e-40 for every theta
# the benchmark uses (beta * theta <= 10.001, h = 0.02).
_Z = np.linspace(-12.0, 12.0, 1201)
_PHI = np.exp(-0.5 * _Z**2)
_PHI /= _PHI.sum()


def logistic(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reject_probs(u_minus, u_plus, beta, shift=0.0):
    """(p_rejective, p_receptive) for utilities shifted by `shift`."""
    return logistic(-beta * (u_minus + shift)), logistic(-beta * (u_plus + shift))


def binomial_w(n: int, alpha: float, p_rej: float, p_rec: float) -> float:
    """P(all n reject), summed over the number k of rejective agents."""
    return math.fsum(
        math.comb(n, k) * alpha**k * (1 - alpha) ** (n - k) * p_rej**k * p_rec ** (n - k)
        for k in range(n + 1)
    )


def noisy_w(n, u_minus, u_plus, beta, kind: str, theta: float, alpha):
    """E over the shared shift of the all-reject probability; `alpha` may
    be an array."""
    alpha = np.asarray(alpha, dtype=float)
    if kind == "rademacher":
        shifts, weights = np.array([theta, -theta]), np.array([0.5, 0.5])
    else:
        shifts, weights = theta * _Z, _PHI
    p_rej, p_rec = reject_probs(u_minus, u_plus, beta, shifts)
    mixture = np.multiply.outer(alpha, p_rej) + np.multiply.outer(1.0 - alpha, p_rec)
    return (mixture**n) @ weights


def root_alpha(w_of_alpha, delta: float) -> float | None:
    """alpha in [0, 1] with W(alpha) = delta, or None when delta is outside
    [W(0), W(1)]."""
    lo, hi = w_of_alpha(0.0) - delta, w_of_alpha(1.0) - delta
    if lo > 0.0 or hi < 0.0:
        return None
    return brentq(lambda a: w_of_alpha(a) - delta, 0.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def closed_form_pi(g, a, s):
    """Stationary distribution from the balance equations, valid for
    0 < g < 1 and a > 0: pi is proportional to (1, g/a, g, s g / (1 - g))."""
    g, a, s = (np.asarray(v, dtype=float) for v in (g, a, s))
    raw = np.stack([np.ones_like(g), g / a, g, s * g / (1.0 - g)], axis=-1)
    return raw / raw.sum(axis=-1, keepdims=True)


def transition_matrices(g, a, s):
    """Stacked 4x4 transition matrices of the gate chain."""
    g, a, s = (np.asarray(v, dtype=float) for v in (g, a, s))
    m = np.zeros(g.shape + (4, 4))
    m[..., 0, 0], m[..., 0, 1] = 1 - g, g
    m[..., 1, 1], m[..., 1, 2] = 1 - a, a
    m[..., 2, 0], m[..., 2, 3] = 1 - s, s
    m[..., 3, 0], m[..., 3, 3] = 1 - g, g
    return m


# --- keyword rules ----------------------------------------------------------
#
# The README's classification rules: normalize (lowercase, drop apostrophes,
# other punctuation to spaces), then Failed > Rejected > Assigned > Requested
# by whole-word keyword, Assigned only with a flight number, else Mentioned.

_KEYWORDS = (
    ("Failed", ("not good", "didnt make it", "deviated")),
    ("Rejected", ("declined", "no pathfinder", "still waiting", "not available")),
    ("Assigned", ("assigned", "approved", "released")),
    ("Requested", ("asking for pathfinder", "can we get one", "requesting")),
)
_FLIGHT = re.compile(r"\b[a-z]{2,3}[0-9]{1,4}\b")


def normalize(text: str) -> str:
    text = text.lower()
    for ch in "'’‘":
        text = text.replace(ch, "")
    text = "".join(c if c.isascii() and (c.isalnum() or c.isspace()) else " " for c in text)
    return " ".join(text.split())


def rule_label(comment: str) -> str:
    text = f" {normalize(comment)} "
    has_flight = _FLIGHT.search(text) is not None
    for label, words in _KEYWORDS:
        if label == "Assigned" and not has_flight:
            continue
        if any(f" {w} " in text for w in words):
            return label
    return "Mentioned"
