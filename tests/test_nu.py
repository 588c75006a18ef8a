import math

import numpy as np
import pytest

from nu_reference import (
    NUProblem,
    QuadPoly,
    branches,
    eigen_condition,
    hulthen_problem,
    pi_branches,
    select_branch,
    t_roots,
)


def test_quadpoly_basics():
    p = QuadPoly(1.0, -2.0, 3.0)
    assert p(2.0) == 1.0 - 4.0 + 12.0
    assert QuadPoly(5.0)(3.0) == 5.0
    with pytest.raises(ValueError):
        QuadPoly(math.nan, 0.0, 0.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        NUProblem(QuadPoly(0, 1, 0), QuadPoly(), QuadPoly(0, 0, 1.0))
    with pytest.raises(ValueError):
        NUProblem(QuadPoly(), QuadPoly(1.0), QuadPoly())


def test_t_roots_worked_instance():
    # eps=1, delta=2, gamma=2: admissible t are -3 and 3
    prob = hulthen_problem(1.0, 2.0, 2.0)
    roots = t_roots(prob)
    assert roots == pytest.approx([-3.0, 3.0], abs=1e-12)


def test_t_roots_linear_degenerate():
    # sigma = s, sigma_t = 0, tau_t = 0: discriminant condition forces t = 0
    prob = NUProblem(QuadPoly(0.0, 1.0, 0.0), QuadPoly(), QuadPoly())
    assert t_roots(prob) == pytest.approx([0.0], abs=1e-15)


def test_t_roots_identically_degenerate():
    # sigma = s^2 with tau_t = sigma': under-root is t*s^2, a perfect
    # square for every t; the canonical representative t = 0 comes back.
    prob = NUProblem(QuadPoly(0.0, 0.0, 1.0), QuadPoly(), QuadPoly(0.0, 2.0, 0.0))
    assert t_roots(prob) == [0.0]
    pis = pi_branches(prob, 0.0)
    assert pis[0] == QuadPoly(0.0, 0.0, 0.0)
    assert pis[1] == QuadPoly(0.0, 0.0, 0.0)


def test_pi_branches_worked_instance():
    prob = hulthen_problem(1.0, 2.0, 2.0)
    minus, plus = pi_branches(prob, -3.0)
    assert minus.c0 == pytest.approx(1.0, abs=1e-12)
    assert minus.c1 == pytest.approx(-3.0, abs=1e-12)
    assert plus.c0 == pytest.approx(-1.0, abs=1e-12)
    assert plus.c1 == pytest.approx(2.0, abs=1e-12)


def test_pi_branches_near_vanishing_square_term():
    # gamma = 0, t = delta + eps: the under-root is (eps - k s)^2 with
    # k = eps - 1/2, so at eps = 1/2 - 4.6e-10 its s^2 term k^2 is lost to
    # rounding while its s term 2 eps k is not; this was rejected as linear
    eps = 0.5 - 4.6e-10
    delta = 2.0 * eps + 1.0
    prob = hulthen_problem(eps, delta, 0.0)
    minus, plus = pi_branches(prob, delta + eps)
    # (sigma' - tau_t)/2 = -s/2, and the square root is eps - k s
    k = eps - 0.5
    assert (minus.c0, plus.c0) == pytest.approx((-eps, eps), abs=1e-12)
    assert (minus.c1, plus.c1) == pytest.approx((-0.5 + k, -0.5 - k), abs=1e-12)
    assert eigen_condition(select_branch(branches(prob)), prob.sigma, 0) == pytest.approx(
        0.0, abs=1e-12)


def test_pi_branches_rejects_inadmissible_t():
    prob = hulthen_problem(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        pi_branches(prob, 1.0)


def test_select_branch_worked_instance():
    # the pi = 1 - 3s branch gives tau = (1 - s) + 2(1 - 3s) = 3 - 7s,
    # slope -7 < 0, so it is selected; pi = -1 + 2s gives tau = -1 + 3s,
    # slope +3 > 0, rejected.
    prob = hulthen_problem(1.0, 2.0, 2.0)
    cands = branches(prob)
    chosen = select_branch(cands)
    assert chosen.pi == QuadPoly(1.0, -3.0, 0.0)
    assert chosen.tau.c0 == pytest.approx(3.0)
    assert chosen.tau_slope == pytest.approx(-7.0)
    assert chosen.lam == pytest.approx(-6.0)
    rejected = [b for b in cands if b.pi == QuadPoly(-1.0, 2.0, 0.0)]
    assert rejected and rejected[0].tau_slope == pytest.approx(3.0)


def test_select_branch_single_candidate_unchanged():
    prob = hulthen_problem(1.0, 2.0, 2.0)
    chosen_all = select_branch(branches(prob))
    # a single negative-slope candidate comes back as-is
    assert select_branch([chosen_all]) == chosen_all


def test_select_branch_most_negative_slope_wins():
    # the sign partners of the other t root also carry negative slopes
    # (slope -2 - |2 eps - q|); the expected branch is still strictly the
    # most negative, -(2 + 2 eps + q).
    for eps, delta, gamma in [(0.1, 2.0, 0.0), (1.0, 2.0, 2.0), (3.0, 40.0, 6.0)]:
        prob = hulthen_problem(eps, delta, gamma)
        cands = branches(prob)
        negatives = [b for b in cands if b.tau_slope < 0]
        assert len(negatives) > 1
        chosen = select_branch(cands)
        assert chosen.tau_slope == min(b.tau_slope for b in negatives)
        q = math.sqrt(1.0 + 4.0 * gamma)
        assert chosen.tau_slope == pytest.approx(-(2.0 + 2.0 * eps + q), rel=1e-12)


def test_select_branch_errors():
    with pytest.raises(ValueError):
        select_branch([])
    prob = hulthen_problem(1.0, 2.0, 2.0)
    positives = [b for b in branches(prob) if b.tau_slope >= 0]
    with pytest.raises(ValueError):
        select_branch(positives)


def test_branch_internal_identities():
    # tau = tau_t + 2 pi and lam = t + pi' hold as stored
    prob = hulthen_problem(2.5, 17.0, 6.0)
    for b in branches(prob):
        assert b.tau.c0 == pytest.approx(prob.tau_tilde.c0 + 2.0 * b.pi.c0, rel=1e-14)
        assert b.tau.c1 == pytest.approx(prob.tau_tilde.c1 + 2.0 * b.pi.c1, rel=1e-14)
        assert b.lam == pytest.approx(b.t + b.pi.c1, rel=1e-14)
        assert b.tau_slope == b.tau.c1


def test_perfect_square_reconstruction():
    # at each admissible t the under-root quadratic must have a double
    # root: its value there is ~ 0 against the coefficient scale.  (The
    # leading coefficient alone is not a usable scale: one of the two t
    # roots can drive it arbitrarily close to zero, and dividing the
    # float residual by A^2 is unbounded there.)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(300):
        eps = rng.uniform(0.05, 8.0)
        delta = rng.uniform(0.1, 60.0)
        gamma = rng.uniform(0.0, 25.0)
        prob = hulthen_problem(eps, delta, gamma)
        for t in t_roots(prob):
            h0 = 0.5 * (prob.sigma.c1 - prob.tau_tilde.c0)
            h1 = 0.5 * (2.0 * prob.sigma.c2 - prob.tau_tilde.c1)
            a = h1 * h1 - prob.sigma_tilde.c2 + t * prob.sigma.c2
            b = 2.0 * h0 * h1 - prob.sigma_tilde.c1 + t * prob.sigma.c1
            c = h0 * h0 - prob.sigma_tilde.c0 + t * prob.sigma.c0
            scale = max(abs(a), abs(b), abs(c))
            if abs(a) < 1e-12 * scale:
                continue
            s_star = -b / (2.0 * a)
            q_val = c + s_star * (b + s_star * a)
            assert abs(q_val) <= 1e-10 * scale
            checked += 1
    assert checked > 100


def test_eigen_condition_zero_at_closed_form():
    # with eps = (delta - m^2)/(2m), m = n + l + (D-1)/2, the residual of
    # the termination condition vanishes.  The polynomial degree is n,
    # except for 2l+D-1 = 0 (l = 0 in D = 1) where the level labelled n
    # carries a degree n-1 polynomial (one factor (1-s) is absorbed into
    # the prefactor there).
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(0, 8))
        l = int(rng.integers(0, 4))
        dim = int(rng.integers(1, 7))
        m = n + l + (dim - 1) / 2.0
        if m <= 0:
            continue
        v = 2 * l + dim - 1
        degree = n - 1 if v == 0 else n
        if degree < 0:
            continue
        delta = rng.uniform(1.05, 4.0) * m * m
        gamma = (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0
        eps = (delta - m * m) / (2.0 * m)
        prob = hulthen_problem(eps, delta, gamma)
        chosen = select_branch(branches(prob))
        assert abs(eigen_condition(chosen, prob.sigma, degree)) <= 1e-9
        checked += 1
    assert checked > 40


@pytest.mark.parametrize(
    "n, v, delta",
    [
        (0, 1, 10000.25),  # rounding split the double root t: residual -0.5
        (0, 1, 108.81455847685282),  # rounding made the discriminant negative: no t
        (7, 4, 107.25811566330505),  # the rounding of t read as a non-square
    ],
)
def test_eigen_condition_zero_under_cancellation(n, v, delta):
    # the t-discriminant and the under-root quadratic are small differences
    # of large terms here: eps^2 >> 1 at v = 1 (where gamma = -1/4 makes the
    # admissible t a double root), delta >> eps^2 at v = 4
    m = n + v / 2.0
    eps = (delta - m * m) / (2.0 * m)
    prob = hulthen_problem(eps, delta, v * (v - 2) / 4.0)
    chosen = select_branch(branches(prob))
    assert abs(eigen_condition(chosen, prob.sigma, n)) <= 1e-9


def test_eigen_condition_n0_and_sign_change():
    prob = hulthen_problem(19.5, 40.0, 0.0)
    chosen = select_branch(branches(prob))
    # n = 0: residual is lam itself
    assert eigen_condition(chosen, prob.sigma, 0) == pytest.approx(chosen.lam)
    assert abs(chosen.lam) <= 1e-10

    def residual(eps, n):
        p = hulthen_problem(eps, 40.0, 0.0)
        return eigen_condition(select_branch(branches(p)), p.sigma, n)

    # perturbing eps off the quantized value flips the residual sign
    assert residual(19.5 - 0.1, 0) * residual(19.5 + 0.1, 0) < 0

    with pytest.raises(ValueError):
        eigen_condition(chosen, prob.sigma, -2)
