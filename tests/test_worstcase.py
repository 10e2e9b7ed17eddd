import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pathfinder_ops import (
    DegenerateGradient,
    NoiseKind,
    NoiseSpec,
    NoTippingPoint,
    SocialParams,
    WorstCaseScenario,
    gradient_sign_map,
    group_reject_probs,
    noisy_tipping_point,
    noisy_worst_case_prob,
    social_reject_probs,
    social_tipping_point,
    social_worst_case_prob,
    tipping_point,
    tipping_point_gradient,
    worst_case_prob,
)
import pathfinder_ops.worstcase as worstcase_module
from pathfinder_ops.worstcase import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_N_VALUES,
    DEFAULT_THETA_GRID,
    DEFAULT_U_ABS_VALUES,
    MAX_ALPHA_NODES,
    MAX_GRADMAP_CELLS,
    MAX_GH_NODES,
    gauss_hermite_nodes,
    gradient_cells_to_csv,
    gradient_sign_map_to_csv,
    mixture_partials,
    noise_law,
)

from oracles import (
    binomial_sum_w,
    central_diff,
    mc_gaussian_w,
    per_op_dw_dtheta,
    per_op_partials,
    per_value_cells_csv,
    per_value_summary_csv,
)

# 1/(1 + e^-2) and 1/(1 + e^2) to double precision (mpmath-checked).
P_REJ = 0.8807970779778823
P_REC = 0.11920292202211755

BASE = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
# 5,000 alphas x 61 nodes take two alpha blocks in the gradient map.
LONG_ALPHAS = [i / 4999 for i in range(5000)]
INF, NAN = float("inf"), float("nan")
SOCIAL = SocialParams(s=0.0, gamma=2.5, r=0.5)
SELFISH = SocialParams(s=1.0, gamma=2.5, r=0.5)


class TestValidation:
    def test_utility_signs_enforced(self):
        with pytest.raises(ValueError):
            WorstCaseScenario(n=10, u_minus=0.5, u_plus=2.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError):
            WorstCaseScenario(n=10, u_minus=-2.0, u_plus=-0.1, beta=1.0, delta=0.1)

    def test_counts_and_ranges(self):
        for bad_n in (0, True, 2.0):
            with pytest.raises(ValueError, match="n must"):
                WorstCaseScenario(n=bad_n, u_minus=-1.0, u_plus=1.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError):
            WorstCaseScenario(n=5, u_minus=-1.0, u_plus=1.0, beta=1.0, delta=1.0)
        with pytest.raises(ValueError):
            SocialParams(s=1.1, gamma=1.0, r=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=-0.5)
        with pytest.raises(ValueError):
            worst_case_prob(BASE, 1.5)
        with pytest.raises(ValueError):
            worst_case_prob(BASE, [0.5, float("nan")])

    @pytest.mark.parametrize(
        "u_minus,u_plus,beta",
        [(-INF, 2.0, 1.0), (-2.0, INF, 1.0), (-2.0, 2.0, INF), (NAN, 2.0, 1.0)],
    )
    def test_non_finite_scenario_refused(self, u_minus, u_plus, beta):
        with pytest.raises(ValueError, match="finite"):
            WorstCaseScenario(n=10, u_minus=u_minus, u_plus=u_plus, beta=beta, delta=0.1)

    @pytest.mark.parametrize("gamma", [INF, NAN])
    def test_non_finite_gamma_refused(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            SocialParams(s=0.5, gamma=gamma, r=0.5)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("theta", [INF, NAN])
    def test_non_finite_theta_refused(self, kind, theta):
        # At theta = inf the middle Gauss-Hermite node would give 0 * inf.
        with pytest.raises(ValueError, match="theta must be finite"):
            NoiseSpec(kind=kind, theta=theta)

    def test_gh_nodes_bounded_where_hermgauss_stays_accurate(self):
        assert MAX_GH_NODES == 370
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0, gh_nodes=370)
        assert math.isfinite(noisy_worst_case_prob(BASE, noise, 0.5))
        for bad in (0, 371, 100000, 61.0, True):
            with pytest.raises(ValueError, match="gh_nodes"):
                NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0, gh_nodes=bad)


class TestGroupProbs:
    def test_reference_values(self):
        p_rej, p_rec = group_reject_probs(BASE)
        assert p_rej == pytest.approx(P_REJ, abs=1e-12)
        assert p_rec == pytest.approx(P_REC, abs=1e-12)
        assert p_rej > 0.5 > p_rec

    def test_vanishing_sensitivity_removes_discrimination(self):
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1e-9, delta=0.1)
        p_rej, p_rec = group_reject_probs(scn)
        assert p_rej == pytest.approx(0.5, abs=1e-9)
        assert p_rec == pytest.approx(0.5, abs=1e-9)

    def test_logistic_symmetry_for_equal_magnitudes(self):
        for u in (0.5, 2.0, 7.0):
            scn = WorstCaseScenario(n=3, u_minus=-u, u_plus=u, beta=1.3, delta=0.1)
            p_rej, p_rec = group_reject_probs(scn)
            assert abs(p_rej + p_rec - 1.0) <= 1e-12


class TestWorstCaseProb:
    def test_all_rejective_power(self):
        w = worst_case_prob(BASE, 1.0)
        assert w == pytest.approx(P_REJ**10, abs=1e-15)
        assert w == pytest.approx(0.2810, abs=5e-4)
        assert w == pytest.approx(binomial_sum_w(10, 1.0, P_REJ, P_REC), abs=1e-12)

    def test_all_receptive_power(self):
        w = worst_case_prob(BASE, 0.0)
        assert w == pytest.approx(P_REC**10, abs=1e-18)
        assert w == pytest.approx(5.79e-10, rel=1e-2)

    def test_single_agent_is_linear(self):
        scn = WorstCaseScenario(n=1, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        for alpha in (0.0, 0.3, 0.77, 1.0):
            expected = alpha * P_REJ + (1 - alpha) * P_REC
            assert worst_case_prob(scn, alpha) == pytest.approx(expected, abs=1e-15)

    def test_matches_binomial_sum_up_to_n_12(self):
        for n in range(1, 13):
            scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
            for alpha in [0.1 * k for k in range(11)]:
                closed = worst_case_prob(scn, alpha)
                summed = binomial_sum_w(n, alpha, P_REJ, P_REC)
                assert abs(closed - summed) <= 1e-12

    def test_strictly_increasing_in_alpha(self):
        alphas = np.linspace(0, 1, 41)
        values = [worst_case_prob(BASE, a) for a in alphas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_group_size(self):
        # The mixture mean is < 1, so adding agents lowers the all-reject odds.
        values = []
        for n in (1, 2, 5, 10, 25):
            scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
            values.append(worst_case_prob(scn, 0.8))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTippingPoint:
    def test_reference_scenario(self):
        alpha_star = tipping_point(BASE)
        assert alpha_star == pytest.approx(0.8864, abs=5e-4)
        assert worst_case_prob(BASE, alpha_star) == pytest.approx(0.1, abs=1e-9)

    def test_lower_boundary(self):
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=P_REC**10)
        assert tipping_point(scn) == pytest.approx(0.0, abs=1e-9)

    def test_upper_boundary(self):
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=P_REJ**10)
        assert tipping_point(scn) == pytest.approx(1.0, abs=1e-9)

    def test_unreachable_threshold_raises(self):
        too_low = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=1e-12)
        with pytest.raises(NoTippingPoint):
            tipping_point(too_low)
        too_high = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.9)
        with pytest.raises(NoTippingPoint):
            tipping_point(too_high)

    def test_increasing_in_delta(self):
        deltas = np.linspace(0.001, 0.25, 30)
        stars = [
            tipping_point(
                WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=float(d))
            )
            for d in deltas
        ]
        assert all(a < b for a, b in zip(stars, stars[1:]))


class TestSocial:
    def test_fully_selfish_reduces_to_baseline(self):
        assert social_reject_probs(BASE, SELFISH) == group_reject_probs(BASE)
        for alpha in (0.0, 0.5, 1.0):
            assert social_worst_case_prob(BASE, SELFISH, alpha) == worst_case_prob(BASE, alpha)

    def test_zero_observed_rejection_reduces_to_baseline(self):
        soc = SocialParams(s=0.3, gamma=2.5, r=0.0)
        assert social_reject_probs(BASE, soc) == group_reject_probs(BASE)

    def test_selfless_rejective_probability(self):
        # u = -2 shifted by (1-0)*2.5*0.5 gives expit(0.75) = 0.679178699...
        p_rej_sys, _ = social_reject_probs(BASE, SOCIAL)
        assert p_rej_sys == pytest.approx(0.6791786991753929, abs=1e-12)

    def test_selfless_all_rejective_power(self):
        w = social_worst_case_prob(BASE, SOCIAL, 1.0)
        assert w == pytest.approx(0.0209, abs=5e-5)

    def test_selflessness_dominance(self):
        for alpha in np.linspace(0, 1, 101):
            assert social_worst_case_prob(BASE, SOCIAL, alpha) < social_worst_case_prob(
                BASE, SELFISH, alpha
            )

    def test_selfless_tipping_point_larger(self):
        for delta in (0.01, 0.02):
            scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=delta)
            assert social_tipping_point(scn, SOCIAL) > social_tipping_point(scn, SELFISH)

    def test_social_tipping_point_consistency(self):
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.02)
        star = social_tipping_point(scn, SOCIAL)
        assert social_worst_case_prob(BASE, SOCIAL, star) == pytest.approx(0.02, abs=1e-9)

    def test_social_variant_strictly_increasing_in_alpha(self):
        alphas = np.linspace(0, 1, 41)
        for soc in (SOCIAL, SELFISH):
            values = [social_worst_case_prob(BASE, soc, a) for a in alphas]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_social_tipping_point_increasing_in_delta_for_both_s(self):
        for soc in (SOCIAL, SELFISH):
            deltas = (0.005, 0.01, 0.015, 0.02)
            stars = [
                social_tipping_point(
                    WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=d), soc
                )
                for d in deltas
            ]
            assert all(a < b for a, b in zip(stars, stars[1:]))


class TestNoisyWorstCase:
    def test_zero_scale_reduces_exactly(self):
        for kind in NoiseKind:
            noise = NoiseSpec(kind=kind, theta=0.0)
            for alpha in (0.0, 0.4, 1.0):
                assert noisy_worst_case_prob(BASE, noise, alpha) == worst_case_prob(BASE, alpha)

    def test_rademacher_two_point_form(self):
        scn = WorstCaseScenario(n=1, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        kappa = 1.7
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa)
        expected = 0.5 * (
            1.0 / (1.0 + math.exp(1.0 * (-2.0 + kappa)))
            + 1.0 / (1.0 + math.exp(1.0 * (-2.0 - kappa)))
        )
        assert noisy_worst_case_prob(scn, noise, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_gaussian_quadrature_matches_monte_carlo(self):
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0)
        quad = noisy_worst_case_prob(BASE, noise, 0.5)
        mc, se = mc_gaussian_w(10, -2.0, 2.0, 1.0, 1.0, 0.5, draws=10**6, seed=20240501)
        assert abs(quad - mc) <= 3 * se

    def test_gaussian_quadrature_within_large_monte_carlo_band(self):
        # 1e7 shared-noise draws; the quadrature value must sit within 1e-8
        # of the +-3 SE band.
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=2.0)
        quad = noisy_worst_case_prob(BASE, noise, 0.7)
        mc, se = mc_gaussian_w(10, -2.0, 2.0, 1.0, 2.0, 0.7, draws=10**7, seed=77)
        assert quad >= mc - 3 * se - 1e-8
        assert quad <= mc + 3 * se + 1e-8

    def test_array_alphas_match_scalar_calls(self):
        alphas = np.linspace(0.0, 1.0, 11)
        soc = SocialParams(s=0.5, gamma=2.5, r=0.5)
        for noise in (NoiseSpec(NoiseKind.GAUSSIAN, 1.3), NoiseSpec(NoiseKind.RADEMACHER, 0.7)):
            vector = noisy_worst_case_prob(BASE, noise, alphas)
            scalar = [noisy_worst_case_prob(BASE, noise, a) for a in alphas]
            assert np.abs(vector - scalar).max() <= 1e-15
        assert list(worst_case_prob(BASE, alphas)) == [worst_case_prob(BASE, a) for a in alphas]
        assert list(social_worst_case_prob(BASE, soc, alphas)) == [
            social_worst_case_prob(BASE, soc, a) for a in alphas
        ]

    def test_cached_nodes_are_read_only(self):
        nodes, weights = gauss_hermite_nodes(61)
        assert gauss_hermite_nodes(61)[0] is nodes
        assert abs(weights.sum() - 1.0) <= 1e-14
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        rademacher = noise_law(NoiseSpec(NoiseKind.RADEMACHER, 1.0))
        with pytest.raises(ValueError):
            rademacher.weights[0] = 1.0

    def test_monotone_in_alpha_for_noisy_variant(self):
        for kind in NoiseKind:
            noise = NoiseSpec(kind=kind, theta=1.5)
            values = [noisy_worst_case_prob(BASE, noise, a) for a in np.linspace(0, 1, 21)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestAlphaNodeCap:
    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def kernel_called(*args, **kwargs):
            raise AssertionError("kernel called")

        monkeypatch.setattr(worstcase_module, "mixture_w", kernel_called)

    @pytest.mark.parametrize("gh_nodes", [61, 370])
    def test_cap_checked_before_the_kernel(self, no_kernel, gh_nodes):
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0, gh_nodes=gh_nodes)
        alphas = np.zeros(MAX_ALPHA_NODES // gh_nodes + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_ALPHA_NODES}"):
            noisy_worst_case_prob(BASE, noise, alphas)

    def test_benchmark_sized_request_reaches_the_kernel(self, no_kernel):
        # The benchmark's worst call: 101 alphas x 61 Gauss-Hermite nodes.
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0, gh_nodes=61)
        with pytest.raises(AssertionError, match="kernel called"):
            noisy_worst_case_prob(BASE, noise, np.linspace(0.0, 1.0, 101))

    def test_at_the_cap_reaches_the_kernel(self, no_kernel):
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0, gh_nodes=370)
        with pytest.raises(AssertionError, match="kernel called"):
            noisy_worst_case_prob(BASE, noise, np.zeros(MAX_ALPHA_NODES // 370))


class TestNoisyTippingPoint:
    def test_zero_scale_matches_closed_form(self):
        for kind in NoiseKind:
            noise = NoiseSpec(kind=kind, theta=0.0)
            assert noisy_tipping_point(BASE, noise) == pytest.approx(
                tipping_point(BASE), abs=1e-9
            )

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_zero_scale_is_exactly_the_closed_form(self, kind):
        # Bisection gave 0.8864633577177301 here; the closed form gives
        # 0.8864633577117113, as does the noisy function once theta = 0.
        assert noisy_tipping_point(BASE, NoiseSpec(kind, 0.0)) == tipping_point(BASE)
        assert tipping_point(BASE) == 0.8864633577117113

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.0])
    def test_residual_at_root(self, kappa):
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa)
        star = noisy_tipping_point(BASE, noise)
        assert abs(noisy_worst_case_prob(BASE, noise, star) - BASE.delta) <= 1e-10

    def test_large_noise_swamps_mixture_and_raises(self):
        # At kappa = 10 even the all-receptive pool fails more often than
        # delta = 0.1 (the xi = -kappa branch alone contributes ~0.498), so
        # no tipping point exists.
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=10.0)
        assert noisy_worst_case_prob(BASE, noise, 0.0) > BASE.delta
        with pytest.raises(NoTippingPoint):
            noisy_tipping_point(BASE, noise)

    STEEP = WorstCaseScenario(n=10**7, u_minus=-22.0, u_plus=22.0, beta=1.0, delta=0.1)

    def test_steep_root_below_the_residual_target_raises(self):
        # W rises by about 1e-10 per ulp of alpha near alpha = 1, so the
        # bracket collapses with |W - delta| = 2.1e-10 at its midpoint.
        with pytest.raises(ArithmeticError, match="above the 1e-10 residual target"):
            noisy_tipping_point(self.STEEP, NoiseSpec(NoiseKind.RADEMACHER, 0.5))

    def test_steep_root_that_meets_the_target_is_returned(self):
        noise = NoiseSpec(NoiseKind.GAUSSIAN, 0.5)
        star = noisy_tipping_point(self.STEEP, noise)
        assert abs(noisy_worst_case_prob(self.STEEP, noise, star) - 0.1) <= 1e-10

    def test_bracket_precondition(self):
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=1.0)
        w0 = noisy_worst_case_prob(BASE, noise, 0.0)
        w1 = noisy_worst_case_prob(BASE, noise, 1.0)
        assert w0 < BASE.delta < w1
        noisy_tipping_point(BASE, noise)


class TestTippingPointGradient:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_implicit_matches_direct_difference(self, kappa):
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa)
        implicit = tipping_point_gradient(BASE, noise)
        h = 1e-3
        up = noisy_tipping_point(BASE, NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa + h))
        down = noisy_tipping_point(BASE, NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa - h))
        direct = (up - down) / (2 * h)
        assert abs(implicit - direct) <= 1e-4

    def test_sign_agrees_with_noise_partial(self):
        for kappa in (0.5, 2.0):
            noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=kappa)
            star = noisy_tipping_point(BASE, noise)
            d_alpha, d_theta = mixture_partials(BASE, star, noise_law(noise))
            assert d_alpha > 0
            gradient = tipping_point_gradient(BASE, noise)
            assert math.copysign(1.0, gradient) == -math.copysign(1.0, d_theta)

    def test_deterministic_at_zero_scale(self):
        noise = NoiseSpec(kind=NoiseKind.GAUSSIAN, theta=0.0)
        values = {tipping_point_gradient(BASE, noise) for _ in range(3)}
        assert len(values) == 1
        assert math.isfinite(values.pop())

    def test_flat_mixture_degenerates(self):
        scn = WorstCaseScenario(n=1, u_minus=-2.0, u_plus=2.0, beta=1e-15, delta=0.5)
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=0.0)
        with pytest.raises(DegenerateGradient):
            tipping_point_gradient(scn, noise)

    def test_propagates_missing_tipping_point(self):
        noise = NoiseSpec(kind=NoiseKind.RADEMACHER, theta=10.0)
        with pytest.raises(NoTippingPoint):
            tipping_point_gradient(BASE, noise)


class TestExactPartials:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("theta", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_partials_match_central_differences(self, kind, theta, alpha):
        d_alpha, d_theta = mixture_partials(BASE, alpha, noise_law(NoiseSpec(kind, theta)))

        def w_of_theta(t):
            return noisy_worst_case_prob(BASE, NoiseSpec(kind, t), alpha)

        # An interior alpha point keeps the difference inside [0, 1].
        a0 = min(max(alpha, 1e-3), 1.0 - 1e-3)
        d_alpha_at_a0, _ = mixture_partials(BASE, a0, noise_law(NoiseSpec(kind, theta)))
        fd_theta = central_diff(w_of_theta, theta, 1e-4)
        fd_alpha = central_diff(
            lambda a: noisy_worst_case_prob(BASE, NoiseSpec(kind, theta), a), a0, 1e-4
        )
        assert d_theta == pytest.approx(fd_theta, rel=1e-6, abs=1e-11)
        assert d_alpha_at_a0 == pytest.approx(fd_alpha, rel=1e-6, abs=1e-11)
        assert d_alpha > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize(
        "alphas", [0.3, [0.0, 0.5, 1.0], [[0.1], [0.9]]], ids=["scalar", "vector", "column"]
    )
    def test_partials_match_a_fresh_array_per_operation(self, n, alphas):
        scn = WorstCaseScenario(n=n, u_minus=-1.5, u_plus=3.0, beta=0.8, delta=0.5)
        gauss = NoiseSpec(NoiseKind.GAUSSIAN, 1.3)
        for law in [worstcase_module._point_law(0.25), noise_law(gauss)]:
            got = mixture_partials(scn, alphas, law)
            expected = per_op_partials(n, -1.5, 3.0, 0.8, alphas, *law)
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(np.asarray(g).view(np.int64), e.view(np.int64))

    def test_beta_times_n_beyond_the_float_range(self):
        # beta = 1e308, n = 10, u = +/-1, Rademacher: each logistic argument
        # is 0 or overflows, so p is 0, 1/2 or 1 exactly, and dW/dtheta is
        # -beta * n * E[xi' * m^9 * spread] in exact arithmetic.
        scn = WorstCaseScenario(n=10, u_minus=-1.0, u_plus=1.0, beta=1e308, delta=0.5)
        rademacher = [noise_law(NoiseSpec(NoiseKind.RADEMACHER, t)) for t in (1.0, 2.0)]
        _, d_theta = mixture_partials(scn, 0.5, rademacher[0])
        e = Fraction(1, 16) * (Fraction(1, 4) ** 9 - Fraction(3, 4) ** 9)
        assert float(d_theta) == pytest.approx(float(-Fraction(1e308) * 10 * e), rel=1e-15)
        assert f"{float(d_theta):.12g}" == "4.69255447388e+306"
        # At theta = 2 every p is 0 or 1, so the spread and the partial are 0.
        _, d_theta = mixture_partials(scn, 0.5, rademacher[1])
        assert d_theta == 0.0

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_noise_partial_is_exactly_zero_at_theta_zero(self, kind):
        for alpha in (0.0, 0.3, 1.0):
            _, d_theta = mixture_partials(BASE, alpha, noise_law(NoiseSpec(kind, 0.0)))
            assert d_theta == 0.0


class TestGradientSignMap:
    def test_theta_zero_grid_has_exactly_zero_gradient(self):
        gmap = gradient_sign_map(
            n_values=[10],
            u_abs_values=[2.0],
            noise_kind=NoiseKind.RADEMACHER,
            theta_grid=[0.0],
        )
        assert gmap.fraction_negative.tolist() == [[0.0]]
        assert (gmap.dw_dtheta == 0.0).all()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_no_theta_zero_cell_counts_as_negative_on_default_grid(self, kind):
        gmap = gradient_sign_map(noise_kind=kind)
        assert gmap.dw_dtheta.shape == (4, 4, 51, 51)
        at_zero = gmap.dw_dtheta[:, :, gmap.thetas == 0.0]
        assert at_zero.size == 16 * 51
        assert (at_zero == 0.0).all()

    def test_large_theta_grid_is_evaluated_in_blocks(self):
        # 60 x 100 x 61 values exceed one block; blocks may only change rounding.
        alphas = [round(0.01 * i, 10) for i in range(60)]
        thetas = [round(0.1 * i, 10) for i in range(100)]
        whole = gradient_sign_map(
            n_values=[5], u_abs_values=[2.0], noise_kind=NoiseKind.GAUSSIAN,
            alpha_grid=alphas, theta_grid=thetas,
        )
        for k in (3, 97):
            single = gradient_sign_map(
                n_values=[5], u_abs_values=[2.0], noise_kind=NoiseKind.GAUSSIAN,
                alpha_grid=alphas, theta_grid=[thetas[k]],
            )
            np.testing.assert_array_equal(single.alphas, whole.alphas)
            assert single.thetas.tolist() == [whole.thetas[k]]
            np.testing.assert_allclose(whole.dw_dtheta[0, 0, k], single.dw_dtheta[0, 0, 0], rtol=1e-12)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize(
        "grids",
        [
            {},
            {"n_values": [2, 5], "u_abs_values": [2.0], "alpha_grid": LONG_ALPHAS,
             "theta_grid": [0.0, 0.5, 3.0]},
            {"n_values": [3], "u_abs_values": [1.0, 8.0], "alpha_grid": [0.01 * i for i in range(60)],
             "theta_grid": [0.1 * i for i in range(100)], "beta": 0.7},
        ],
        ids=["default", "alpha-blocks", "theta-blocks"],
    )
    def test_cells_match_a_fresh_array_per_operation(self, kind, grids):
        # The reused work arrays change no bit of any cell, in full blocks
        # and in the shorter last ones.
        gmap = gradient_sign_map(noise_kind=kind, **grids)
        grids = {"n_values": DEFAULT_N_VALUES, "u_abs_values": DEFAULT_U_ABS_VALUES,
                 "alpha_grid": DEFAULT_ALPHA_GRID, "theta_grid": DEFAULT_THETA_GRID, **grids}
        nodes, weights = worstcase_module._unit_nodes(NoiseSpec(kind, 0.0))
        expected = per_op_dw_dtheta(
            grids["n_values"], grids["u_abs_values"], grids["alpha_grid"], grids["theta_grid"],
            nodes, weights, worstcase_module._GRADMAP_BLOCK_VALUES, grids.get("beta", 1.0),
        )
        assert gmap.n_values == tuple(grids["n_values"])
        assert gmap.u_abs_values.tolist() == list(grids["u_abs_values"])
        assert gmap.alphas.tolist() == list(grids["alpha_grid"])
        assert gmap.thetas.tolist() == list(grids["theta_grid"])
        # Bit for bit, so 0.0 and -0.0 count as different.
        np.testing.assert_array_equal(gmap.dw_dtheta.view(np.int64), expected.view(np.int64))
        negative = (expected < -1e-12).sum(axis=(2, 3)) / expected[0, 0].size
        np.testing.assert_array_equal(gmap.fraction_negative, negative)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_cells_csv_matches_per_cell_columns(self, kind):
        gmap = gradient_sign_map(noise_kind=kind)
        assert gradient_cells_to_csv(gmap) == per_value_cells_csv(gmap)
        assert gradient_sign_map_to_csv(gmap) == per_value_summary_csv(gmap)

    def test_long_alpha_grid_is_evaluated_in_blocks(self):
        # 5,000 alphas x 61 nodes exceed one block, so alphas are split too;
        # blocks may only change rounding.
        alphas = LONG_ALPHAS
        thetas = [0.5, 3.0]
        whole = gradient_sign_map(
            n_values=[5], u_abs_values=[2.0], noise_kind=NoiseKind.GAUSSIAN,
            alpha_grid=alphas, theta_grid=thetas,
        )
        part = gradient_sign_map(
            n_values=[5], u_abs_values=[2.0], noise_kind=NoiseKind.GAUSSIAN,
            alpha_grid=alphas[::997], theta_grid=thetas,
        )
        np.testing.assert_array_equal(part.alphas, whole.alphas[::997])
        np.testing.assert_allclose(
            whole.dw_dtheta[0, 0, :, ::997], part.dw_dtheta[0, 0], rtol=1e-12, atol=1e-300
        )

    def test_map_keeps_one_array_of_eight_bytes_a_cell(self):
        # Warm up first, so that caches filled by a first call do not count.
        gradient_sign_map()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gmap = gradient_sign_map()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = gmap.dw_dtheta.size
        assert cells == 4 * 4 * 51 * 51
        assert retained <= 10 * cells, f"{retained / cells:.1f} bytes a cell"
        per_cell = [
            name for name, value in vars(gmap).items() if np.asarray(value).nbytes >= cells
        ]
        assert per_cell == ["dw_dtheta"]

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def kernel_called(*args, **kwargs):
            raise AssertionError("kernel called")

        monkeypatch.setattr(worstcase_module, "_unit_nodes", kernel_called)
        monkeypatch.setattr(worstcase_module, "_partials", kernel_called)

    @pytest.mark.parametrize(
        "n_values,alphas,thetas", [([2, 3], 513, 1024), ([2], 1001, 1048), ([2] * 4, 10**3, 10**3)]
    )
    def test_cell_cap_checked_before_any_kernel(self, no_kernel, n_values, alphas, thetas):
        with pytest.raises(ValueError, match=f"at most {MAX_GRADMAP_CELLS} cells"):
            gradient_sign_map(
                n_values=n_values,
                u_abs_values=[1.0],
                noise_kind=NoiseKind.GAUSSIAN,
                alpha_grid=[i / alphas for i in range(alphas)],
                theta_grid=[i / 100 for i in range(thetas)],
            )

    def test_map_at_the_cap_reaches_the_kernel(self, no_kernel):
        assert 2 * 512 * 1024 == MAX_GRADMAP_CELLS
        with pytest.raises(AssertionError, match="kernel called"):
            gradient_sign_map(
                n_values=[2, 3],
                u_abs_values=[1.0],
                alpha_grid=[i / 512 for i in range(512)],
                theta_grid=[i / 100 for i in range(1024)],
            )

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_negative_cells_exist_for_small_n_large_u(self, kind):
        gmap = gradient_sign_map(
            n_values=[2],
            u_abs_values=[8.0],
            noise_kind=kind,
        )
        negative = gmap.dw_dtheta[0, 0] < -1e-12
        assert negative[:, gmap.alphas >= 0.5].any()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_typical_scenario_fraction_is_low(self, kind):
        gmap = gradient_sign_map(n_values=[10], u_abs_values=[2.0], noise_kind=kind)
        assert gmap.fraction_negative[0, 0] < 0.2

    def test_empty_grids_raise(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            gradient_sign_map(n_values=[], u_abs_values=[2.0])
        with pytest.raises(ValueError, match="must be non-empty"):
            gradient_sign_map(theta_grid=[])

    def test_nonpositive_u_rejected(self):
        with pytest.raises(ValueError):
            gradient_sign_map(u_abs_values=[0.0])

    @pytest.mark.parametrize(
        "grids",
        [{"theta_grid": [0.0, INF]}, {"theta_grid": [NAN]}, {"u_abs_values": [2.0, INF]},
         {"u_abs_values": [NAN]}, {"beta": INF}],
    )
    def test_non_finite_grid_values_refused(self, no_kernel, grids):
        # A NaN cell would be counted as not negative.
        with pytest.raises(ValueError, match="finite"):
            gradient_sign_map(**grids)

    def test_cells_are_a_theta_major_array(self):
        alphas, thetas = [0.0, 0.5, 1.0], [0.0, 1.0]
        gmap = gradient_sign_map(
            n_values=[3], u_abs_values=[2.0], alpha_grid=alphas, theta_grid=thetas
        )
        assert gmap.dw_dtheta.dtype == float and gmap.dw_dtheta.shape == (1, 1, 2, 3)
        assert gmap.alphas.tolist() == alphas and gmap.thetas.tolist() == thetas
        scn = WorstCaseScenario(n=3, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.5)
        law = noise_law(NoiseSpec(kind=NoiseKind.RADEMACHER, theta=1.0))
        for alpha, grad in zip(alphas, gmap.dw_dtheta[0, 0, 1]):
            assert grad == pytest.approx(mixture_partials(scn, alpha, law)[1], rel=1e-12)

    def test_csv_serialization(self):
        gmap = gradient_sign_map(
            n_values=[2, 10],
            u_abs_values=[2.0],
            noise_kind=NoiseKind.RADEMACHER,
            alpha_grid=[0.0, 0.5, 1.0],
            theta_grid=[0.0, 1.0],
        )
        table = gradient_sign_map_to_csv(gmap)
        lines = table.strip().split("\n")
        assert lines[0] == "n,u_abs,noise_kind,fraction_negative"
        assert len(lines) == 3
        cells = gradient_cells_to_csv(gmap).strip().split("\n")
        assert cells[0] == "n,u_abs,noise_kind,alpha,theta,dw_dtheta"
        assert len(cells) == 1 + 2 * 6

    def test_n_beyond_int64_prints_as_an_int(self):
        # Beside a small n, an n of 2**63 made numpy print it as a float.
        gmap = gradient_sign_map(
            n_values=[2, 2**63], u_abs_values=[1.0], alpha_grid=[0.5], theta_grid=[1.0]
        )
        assert gmap.n_values == (2, 2**63)
        lines = gradient_sign_map_to_csv(gmap).splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "9223372036854775808"]
        cells = gradient_cells_to_csv(gmap).splitlines()
        assert cells[2].startswith("9223372036854775808,1,rademacher,0.5,1,")
