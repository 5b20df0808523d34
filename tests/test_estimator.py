import math

import numpy as np
import pytest

from cpls.bases import HERMITE, TRIG, TRIG_NO_CONST, delta_vector, eval_matrix, simpson_grid
from cpls.design import EIG_THRESHOLD_PER_DIM, DesignSystem, DimPair, build_design, inv_opnorm
from cpls.estimator import (
    FitResult,
    SingularDesignError,
    StabilityRule,
    evaluate_fit,
    fit_nested_pairs,
    fit_residuals,
    solve_constrained,
    stability_event,
)
from cpls.simulate import GridSpec, explanatory_by_name, generate_sample, make_model

from conftest import window_length
from oracles import constrained_qp_nullspace, quadratic_objective


def make_system(gram, zvec, dvec, dims=None):
    k = len(zvec)
    if dims is None:
        dims = DimPair(k - 1, 1)
    return DesignSystem(
        dims=dims,
        gram=np.asarray(gram, dtype=float),
        zvec=np.asarray(zvec, dtype=float),
        dvec=np.asarray(dvec, dtype=float),
        t_norm=1.0,
    )


def random_spd_system(rng, k, with_constraint=True):
    a = rng.standard_normal((k, k))
    gram = a @ a.T + (0.1 + rng.random()) * np.eye(k)
    zvec = rng.standard_normal(k)
    if with_constraint:
        m2 = rng.integers(1, k)
        dvec = np.concatenate([np.zeros(k - m2), rng.standard_normal(m2)])
        if not np.any(dvec):
            dvec[-1] = 1.0
    else:
        dvec = np.zeros(k)
    return make_system(gram, zvec, dvec, DimPair(k - 1, 1))


class TestSolveConstrained:
    def test_identity_gram_is_projection(self):
        z = np.array([1.0, 2.0, 3.0])
        d = np.array([0.0, 0.0, 1.0])
        fit = solve_constrained(make_system(np.eye(3), z, d, DimPair(2, 1)))
        expected = z - (z @ d) / (d @ d) * d
        np.testing.assert_allclose(fit.theta, expected, atol=1e-14)
        assert fit.theta[2] == pytest.approx(0.0, abs=1e-14)

    def test_zero_delta_reduces_to_plain_solve(self):
        rng = np.random.default_rng(1)
        sys = random_spd_system(rng, 5, with_constraint=False)
        fit = solve_constrained(sys)
        np.testing.assert_allclose(fit.theta, np.linalg.solve(sys.gram, sys.zvec), rtol=1e-10)
        assert fit.lambda_multiplier == 0.0

    def test_matches_nullspace_oracle_7x7(self):
        rng = np.random.default_rng(2)
        sys = random_spd_system(rng, 7)
        fit = solve_constrained(sys)
        oracle = constrained_qp_nullspace(sys.gram, sys.zvec, sys.dvec)
        np.testing.assert_allclose(fit.theta, oracle, atol=1e-8)

    def test_constraint_and_kkt_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            sys = random_spd_system(rng, k)
            fit = solve_constrained(sys)
            res = fit_residuals(sys, fit)
            assert res["constraint"] < 1e-8
            assert res["optimality"] < 1e-8
            assert res["kkt"] < 1e-8

    def test_gamma_value_identity(self):
        rng = np.random.default_rng(4)
        sys = random_spd_system(rng, 6)
        fit = solve_constrained(sys)
        assert fit.gamma_value == pytest.approx(-fit.theta @ sys.gram @ fit.theta, rel=1e-12)
        # optimality residual zero means J(theta) = -|fit|^2 as well
        assert quadratic_objective(sys, fit.theta) == pytest.approx(fit.gamma_value, rel=1e-9)

    def test_minimality_under_feasible_perturbations(self):
        rng = np.random.default_rng(5)
        sys = random_spd_system(rng, 8)
        fit = solve_constrained(sys)
        j0 = quadratic_objective(sys, fit.theta)
        d = sys.dvec
        for _ in range(100):
            v = rng.standard_normal(8)
            v -= (v @ d) / (d @ d) * d  # feasible direction
            theta = fit.theta + 0.1 * v
            assert quadratic_objective(sys, theta) >= j0 - 1e-10

    def test_singular_gram_raises(self):
        gram = np.zeros((3, 3))
        sys = make_system(gram, np.ones(3), np.array([0.0, 0.0, 1.0]), DimPair(2, 1))
        with pytest.raises(SingularDesignError):
            solve_constrained(sys)

    def test_zero_fit_factory(self):
        fit = FitResult.zero(DimPair(2, 3))
        assert fit.truncated
        np.testing.assert_array_equal(fit.theta, np.zeros(5))


def floor_gram(rng, k):
    """Random SPD k x k Gram: largest eigenvalue 2, smallest just above the floor of inv_opnorm.

    The other eigenvalues are log-uniform in between, the eigenvectors
    random, so the diagonal is at most 2, as for every family's Gram.
    """
    low = 1.01 * EIG_THRESHOLD_PER_DIM * k
    eig = np.concatenate([[low, 2.0], np.exp(rng.uniform(math.log(low), math.log(2.0), k - 2))])
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    gram = (q * eig) @ q.T
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("k", [*range(2, 79), 120, 200, 500])
def test_cholesky_succeeds_on_every_gram_the_event_admits(k):
    # No fallback solver exists: a Gram that passes inv_opnorm's floor and
    # has a diagonal of at most 2 always factorizes, and so do its psi
    # Schur complements (Demmel's condition, see the cpls.estimator
    # docstring). Every pair of the system is fitted: with m1 = k - 1 the
    # phi factor reaches size k - 1, with m1 = 1 a complement does, and up
    # to the protocol's k = 78 the even split fits all m1 x m2 pairs.
    rng = np.random.default_rng(1000 + k)
    gram = floor_gram(rng, k)
    assert np.diag(gram).max() <= 2.0
    assert math.isfinite(inv_opnorm(gram))
    zvec = rng.standard_normal(k)
    splits = {1, k - 1} | ({k // 2} if k <= 78 else set())
    for m1 in sorted(splits):
        dvec = np.concatenate([np.zeros(m1), rng.standard_normal(k - m1)])
        system = make_system(gram, zvec, dvec, DimPair(m1, k - m1))
        coef, lam, gamma, _ = fit_nested_pairs(system, np.full(m1, k - m1))
        assert np.all(np.isfinite(coef)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(gamma))
        cols = np.arange(k)
        # entry [m1' - 1, m2' - 1, c] is padding past m1' in the a-part or past m2' in the b-part
        padding = ((cols >= np.arange(1, m1 + 1)[:, None, None]) & (cols < m1)) | (
            cols >= m1 + np.arange(1, k - m1 + 1)[:, None])
        assert np.all(coef[padding] == 0.0)


def test_failed_factorization_raises():
    gram = np.diag([1.0, 1.0, -1.0])
    sys = make_system(gram, np.ones(3), np.array([0.0, 0.0, 1.0]), DimPair(2, 1))
    with pytest.raises(SingularDesignError, match="Cholesky"):
        fit_nested_pairs(sys, [1, 1])


class TestOracleEquivalence:
    def test_500_random_systems_up_to_dim_12(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(500):
            k = int(rng.integers(2, 13))
            sys = random_spd_system(rng, k)
            fit = solve_constrained(sys)
            oracle = constrained_qp_nullspace(sys.gram, sys.zvec, sys.dvec)
            worst = max(worst, float(np.max(np.abs(fit.theta - oracle))))
        assert worst < 1e-8


class TestStabilityEvent:
    def test_identity_gram_practical(self):
        sys = make_system(np.eye(2), np.zeros(2), np.zeros(2), DimPair(1, 1))
        assert stability_event(sys, 400, StabilityRule(mode="practical"), TRIG, TRIG_NO_CONST)

    def test_singular_gram_fails(self):
        sys = make_system(np.zeros((2, 2)), np.zeros(2), np.zeros(2), DimPair(1, 1))
        for mode in StabilityRule.MODES:
            assert not stability_event(sys, 400, StabilityRule(mode=mode), TRIG, TRIG_NO_CONST)

    def test_theoretical_hand_check(self):
        # 2x2 diag(2, 0.5): |G^{-1}|_op = 2; trig sup bounds give L = 2 + 2;
        # lhs = 4 * 2 = 8 vs c_r N / log N with c_r = (1 - log 2) / 6
        sys = make_system(np.diag([2.0, 0.5]), np.zeros(2), np.zeros(2), DimPair(1, 1))
        rule = StabilityRule(mode="theoretical", r=5.0)
        assert rule.c_r == pytest.approx((1 - math.log(2)) / 6)
        n_hi = 1500  # 0.0511 * 1500 / log(1500) = 10.49 >= 8
        n_lo = 400  # 0.0511 * 400 / log(400) = 3.41 < 8
        assert stability_event(sys, n_hi, rule, TRIG, TRIG_NO_CONST)
        assert not stability_event(sys, n_lo, rule, TRIG, TRIG_NO_CONST)


class TestEvaluateFit:
    def test_zero_theta(self):
        fit = FitResult(dims=DimPair(2, 2), theta=np.zeros(4))
        a, b = evaluate_fit(fit, TRIG, TRIG_NO_CONST, np.array([0.3]), np.array([0.7, 0.2]))
        np.testing.assert_array_equal(a, [0.0])
        np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_truncated_returns_zero(self):
        fit = FitResult(dims=DimPair(1, 1), theta=np.array([5.0, 3.0]), truncated=True)
        a, b = evaluate_fit(fit, TRIG, TRIG_NO_CONST, np.array([0.3]), np.array([0.7, 0.2]))
        np.testing.assert_array_equal(a, [0.0])
        np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_constant_expansion(self):
        fit = FitResult(dims=DimPair(1, 1), theta=np.array([2.5, 0.0]))
        xs = np.linspace(0, 1, 7)
        a, _ = evaluate_fit(fit, TRIG, TRIG_NO_CONST, xs, xs)
        np.testing.assert_allclose(a, np.full(7, 2.5), atol=1e-14)

    def test_pipeline_constraint_integral_vanishes(self):
        # fit from real data with a Hermite psi family: the integral of the
        # fitted b over the line equals <theta_b, delta> = 0 by construction
        grid = GridSpec(n_steps=100, dt=0.05, drop_first=5)
        model = make_model(3)
        sample = generate_sample(model, explanatory_by_name("B"), grid, 50, seed=3)
        system = build_design(sample, HERMITE, HERMITE, DimPair(3, 4), window_length(sample))
        fit = solve_constrained(system)
        yg, wy = simpson_grid(-20.0, 20.0, 40001)
        _, b_vals = evaluate_fit(fit, HERMITE, HERMITE, np.zeros(1), yg)
        assert abs(wy @ b_vals) < 1e-8
        # consistency: same value as the inner product with the delta vector
        assert fit.theta[3:] @ delta_vector(HERMITE, 4) == pytest.approx(0.0, abs=1e-12)
