"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here; the oracles live in tests/oracles.py and
are independent of the code paths they check.
"""

import math
from fractions import Fraction

import numpy as np

from pathfinder_ops import (
    ChainParams,
    LabelCounts,
    NoiseKind,
    NoiseSpec,
    NoTippingPoint,
    SocialParams,
    SimConfig,
    WorstCaseScenario,
    classify_corpus,
    estimate_params,
    gradient_sign_map,
    mixture_batch,
    noisy_tipping_point,
    noisy_worst_case_prob,
    simulate_chain,
    social_tipping_point,
    social_worst_case_prob,
    steady_state,
    tipping_point,
    tipping_point_gradient,
    worst_case_prob,
)

from oracles import binomial_sum_w, mc_gaussian_w
from test_ntml import load_fixture

FIG3 = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def pi_for(g, a, s):
    return steady_state(g, a, s)


def test_criterion_01_calibrated_endpoint_reproduction():
    lo = pi_for(0.1, 0.81, 0.87)
    hi = pi_for(0.9, 0.81, 0.87)
    checks = [
        0.74 <= lo[0] <= 0.76,
        0.085 <= hi[0] <= 0.095,
        0.065 <= lo[3] <= 0.080,
        0.715 <= hi[3] <= 0.725,
    ]
    report(
        1,
        all(checks),
        f"calibrated endpoints pi0={lo[0]:.4f}/{hi[0]:.4f}, pi3={lo[3]:.4f}/{hi[3]:.4f}",
    )


def test_criterion_02_pathfinding_proportionality():
    rng = np.random.default_rng(2024)
    g_values = rng.uniform(0.05, 0.95, 9)
    a_values = rng.uniform(0.05, 0.95, 9)
    s_values = rng.uniform(0.0, 1.0, 5)
    worst = 0.0
    for g in g_values:
        for a in a_values:
            for s in s_values:
                pi = pi_for(g, a, s)
                worst = max(worst, abs(pi[2] - a * pi[1]))
    report(2, worst <= 1e-10, f"max |pi2 - p_accept*pi1| = {worst:.2e} over 405 cells")


def test_criterion_03_binomial_oracle_agreement():
    worst = 0.0
    for n in range(1, 13):
        scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        p_rej = 1.0 / (1.0 + math.exp(-2.0))
        p_rec = 1.0 / (1.0 + math.exp(2.0))
        for alpha in [0.1 * k for k in range(11)]:
            diff = abs(worst_case_prob(scn, alpha) - binomial_sum_w(n, alpha, p_rej, p_rec))
            worst = max(worst, diff)
    report(3, worst <= 1e-12, f"max |closed form - binomial sum| = {worst:.2e}")


def test_criterion_04_tipping_point():
    alpha_star = tipping_point(FIG3)
    residual = abs(worst_case_prob(FIG3, alpha_star) - FIG3.delta)
    ok = abs(alpha_star - 0.8864) <= 5e-4 and residual <= 1e-9
    report(4, ok, f"alpha* = {alpha_star:.6f}, |W(alpha*) - delta| = {residual:.2e}")


def test_criterion_05_selflessness_dominance():
    selfless = SocialParams(s=0.0, gamma=2.5, r=0.5)
    selfish = SocialParams(s=1.0, gamma=2.5, r=0.5)
    dominance = all(
        social_worst_case_prob(FIG3, selfless, a) < social_worst_case_prob(FIG3, selfish, a)
        for a in np.linspace(0.0, 1.0, 101)
    )

    # Tipping-point comparison over delta in {0.01, ..., 0.50}. Where the
    # selfless threshold is unreachable because even an all-rejective pool
    # stays below delta, the system never fails and the effective tipping
    # point clips to 1.
    compared = 0
    both_interior = 0
    tipping_ok = True
    for k in range(1, 51):
        delta = k / 100.0
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=delta)
        try:
            star_selfish = social_tipping_point(scn, selfish)
        except NoTippingPoint:
            continue  # infeasible for the baseline; nothing to compare
        try:
            star_selfless = social_tipping_point(scn, selfless)
            both_interior += 1
        except NoTippingPoint:
            if social_worst_case_prob(scn, selfless, 1.0) < delta:
                star_selfless = 1.0
            else:
                tipping_ok = False
                break
        compared += 1
        if not star_selfless > star_selfish:
            tipping_ok = False
            break
    ok = dominance and tipping_ok and compared >= 25 and both_interior >= 2
    report(
        5,
        ok,
        f"W dominance on 101-point grid = {dominance}, alpha* larger under S=0 "
        f"for {compared} feasible deltas ({both_interior} with both interior)",
    )


def test_criterion_06_chain_monte_carlo_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(20):
        g, a, s = rng.uniform(0.05, 0.95, 3)
        params = ChainParams(g, a, s)
        occ = simulate_chain(params, SimConfig(seed=5000 + trial, steps=10**6, burn_in=1000))
        pi = steady_state(g, a, s)
        worst = max(worst, float(np.max(np.abs(occ - pi))))
    report(6, worst <= 0.01, f"max |occupancy - pi| = {worst:.4f} over 20 seeded triples")


def test_criterion_07_selection_round_oracle():
    ok = True
    details = []
    for n, alpha, seed in [(5, 0.5, 1001), (10, 0.9, 1002)]:
        scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        result = mixture_batch(scn, alpha=alpha, rounds=10**5, seed=seed)
        w = worst_case_prob(scn, alpha)
        se = math.sqrt(w * (1.0 - w) / result.rounds)
        gap = abs(result.all_reject_rate - w)
        ok = ok and gap <= 3 * se
        details.append(f"(n={n}, alpha={alpha}): |emp - W| = {gap:.2e} vs 3SE = {3 * se:.2e}")
    report(7, ok, "; ".join(details))


def test_criterion_08_noise_reduction_and_quadrature():
    reduction_worst = 0.0
    for kind in NoiseKind:
        noise = NoiseSpec(kind=kind, theta=0.0)
        for alpha in np.linspace(0.0, 1.0, 11):
            diff = abs(noisy_worst_case_prob(FIG3, noise, alpha) - worst_case_prob(FIG3, alpha))
            reduction_worst = max(reduction_worst, diff)

    quadrature_ok = True
    worst_ratio = 0.0
    for i, alpha in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        for j, sigma in enumerate((0.5, 1.0, 2.0, 3.0, 4.0)):
            noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=sigma)
            quad = noisy_worst_case_prob(FIG3, noise, alpha)
            mc, se = mc_gaussian_w(
                FIG3.n, FIG3.u_minus, FIG3.u_plus, FIG3.beta,
                sigma, alpha, draws=10**6, seed=90_000 + 10 * i + j,
            )
            ratio = abs(quad - mc) / (3 * se)
            worst_ratio = max(worst_ratio, ratio)
            quadrature_ok = quadrature_ok and ratio <= 1.0
    ok = reduction_worst <= 1e-12 and quadrature_ok
    report(
        8,
        ok,
        f"theta=0 reduction error = {reduction_worst:.2e}; worst |quad - MC| / 3SE "
        f"= {worst_ratio:.2f} on 5x5 grid",
    )


def test_criterion_09_gradient_consistency():
    ok = True
    details = []
    h = 1e-3
    for kappa in (0.5, 1.0, 2.0):
        implicit = tipping_point_gradient(FIG3, NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa))
        up = noisy_tipping_point(FIG3, NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa + h))
        down = noisy_tipping_point(FIG3, NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa - h))
        direct = (up - down) / (2 * h)
        gap = abs(implicit - direct)
        ok = ok and gap <= 1e-4
        details.append(f"kappa={kappa}: |implicit - direct| = {gap:.2e}")
    report(9, ok, "; ".join(details))


def test_criterion_10_gradient_sign_fractions():
    ok = True
    details = []
    for kind in NoiseKind:
        typical = gradient_sign_map(n_values=[10], u_abs_values=[2.0], noise_kind=kind)
        fraction = float(typical.fraction_negative[0, 0])
        low = fraction < 0.2
        edge = gradient_sign_map(n_values=[2], u_abs_values=[8.0], noise_kind=kind)
        negative = edge.dw_dtheta[0, 0] < -1e-12
        high_alpha_negative = bool(negative[:, edge.alphas >= 0.5].any())
        ok = ok and low and high_alpha_negative
        details.append(
            f"{kind.value}: fraction(n=10,|U|=2) = {fraction:.3f}, "
            f"high-alpha negative cell (n=2,|U|=8) = {high_alpha_negative}"
        )
    report(10, ok, "; ".join(details))


def test_criterion_11_classifier_fixture_and_estimator():
    records, expected = load_fixture()
    labeled, _ = classify_corpus([rec.comment for rec in records])
    agreement = sum(lr.label is want for lr, want in zip(labeled, expected))
    p_accept, p_success = estimate_params(
        LabelCounts(n_requested=87, n_failed=13, n_rejected=23)
    )
    exact = p_accept == float(Fraction(100, 123)) and p_success == 0.87
    ok = agreement == 50 and exact
    report(
        11,
        ok,
        f"fixture agreement {agreement}/50; estimator = ({p_accept:.6f}, {p_success}) exact = {exact}",
    )
