import decimal
import math

import numpy as np
import pytest

from gtflow.cost import (QuadraticCost, SvmHingeCost, _slopes,
                         aggregate_hessian, global_cost, infinity_norm,
                         smoothed_hinge, sum_gradient)
from gtflow.verify import check_smoothing_gap


def test_smoothed_hinge_at_zero():
    val, d1, d2 = smoothed_hinge(0.0, 2.0)
    assert val == pytest.approx(math.log(2) / 2)
    assert d1 == pytest.approx(0.5)
    assert d2 == pytest.approx(0.5)


def test_smoothed_hinge_saturates_without_overflow():
    val, d1, d2 = smoothed_hinge(100.0, 2.0)
    assert val == pytest.approx(100.0, abs=1e-12)
    assert d1 == pytest.approx(1.0)
    val, d1, d2 = smoothed_hinge(-100.0, 2.0)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert d1 == pytest.approx(0.0, abs=1e-12)
    # extreme arguments stay finite
    val, d1, d2 = smoothed_hinge(1e6, 1.0)
    assert np.isfinite(val) and val == pytest.approx(1e6)


def test_smoothed_hinge_rejects_bad_mu():
    with pytest.raises(ValueError):
        smoothed_hinge(1.0, 0.0)
    with pytest.raises(ValueError):
        smoothed_hinge(1.0, -2.0)


def masked_sigmoid(t):
    """L' in the two-branch form: each sign of t gets its own exponential."""
    s = np.empty_like(t)
    pos = t >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    s[~pos] = et / (1.0 + et)
    return s


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# signed zeros and subnormals, exp at the edge of overflow (709.8) and of
# underflow to zero (745.2), far saturation, infinities and both NaN signs
EDGE_T = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 709.8, -709.8,
                   745.2, -745.2, 1e6, -1e6, np.inf, -np.inf, np.nan, -np.nan])


def test_slopes_equal_the_masked_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(11)
    for t, mu in [(EDGE_T, 1.0), (rng.normal(size=40) * 30.0, 2.0),
                  (np.concatenate([rng.normal(size=(3, 2, 20)) * 800.0,
                                   np.broadcast_to(EDGE_T, (3, 2, 16))], axis=-1), 0.5)]:
        got, want = _slopes(t, mu)[0], masked_sigmoid(t)
        assert got.shape == want.shape == t.shape
        assert np.array_equal(bits(got), bits(want))
    # a scalar goes through smoothed_hinge, which returns floats
    for z in EDGE_T:
        _, s, curv = smoothed_hinge(z, 1.0)
        assert type(s) is float and type(curv) is float
        assert np.array_equal(bits(s), bits(masked_sigmoid(np.array([z]))[0]))


def test_curvature_is_even_and_within_4_ulp_of_the_exact_value():
    # L''(t) = mu e / (1 + e)^2 with e = exp(-|t|), against 40 digits; the
    # form mu s (1 - s) is not even and is exactly 0 from t of about 37 on
    t = np.array([0.0, 5e-324, 1e-8, 1.0, 10.0, 30.0, 37.0, 40.0, 100.0, 700.0, 745.0])
    t = np.concatenate([t, -t])
    half = t.size // 2
    for mu in (0.5, 1.0, 2.0):
        curv = _slopes(t, mu)[1]
        assert np.array_equal(bits(curv[:half]), bits(curv[half:]))
        for ti, got in zip(t, curv):
            with decimal.localcontext(prec=40):
                e = (-abs(decimal.Decimal(ti))).exp()
                exact = decimal.Decimal(mu) * e / (1 + e) ** 2
                err = abs(decimal.Decimal(got) - exact)
            # a few ulp where the exact value is a normal float, one
            # subnormal step below that
            step = np.spacing(float(exact)) * 4 if float(exact) >= np.finfo(float).tiny else 5e-324
            assert err <= decimal.Decimal(step), (mu, ti, got, exact)
    # smoothed_hinge returns the same L'', for stacked and for scalar z
    assert np.array_equal(bits(smoothed_hinge(t, 1.0)[2]), bits(_slopes(t, 1.0)[1]))
    assert np.array_equal(bits([smoothed_hinge(z, 1.0)[2] for z in t]), bits(_slopes(t, 1.0)[1]))
    curv = _slopes(np.array([np.nan, -np.nan, np.inf, -np.inf]), 2.0)[1]
    assert np.isnan(curv[:2]).all() and np.array_equal(bits(curv[2:]), [0, 0])


def test_smoothing_gap_bound():
    # strict positivity is representable only while exp(-|mu z|) clears the
    # float resolution of |z|, so assert it there and non-negativity beyond
    rng = np.random.default_rng(0)
    for mu in (0.5, 2.0, 8.0):
        z = rng.uniform(-10, 10, size=2000)
        val, _, _ = smoothed_hinge(z, mu)
        gap = val - np.maximum(z, 0)
        assert gap.min() >= 0
        assert gap[np.abs(mu * z) <= 30].min() > 0
        assert gap.max() <= math.log(2) / mu + 1e-12


def test_smoothing_check_requires_an_even_positive_curvature(monkeypatch):
    assert check_smoothing_gap().passed
    real = smoothed_hinge

    def one_minus_s(z, mu):
        val, s, _ = real(z, mu)
        return val, s, mu * s * (1.0 - s)

    monkeypatch.setattr("gtflow.cost.smoothed_hinge", one_minus_s)
    result = check_smoothing_gap()
    assert not result.passed
    reasons = {f[1] for f in result.failures}
    assert {"L'' not even", "L'' not strictly positive"} <= reasons


def test_svm_empty_dataset_is_pure_regularizer():
    c = SvmHingeCost(np.empty((0, 3)), np.empty(0), C=1.0, mu=2.0, eps_nu=0.0)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    w = x[:-1]
    assert c.value(x) == pytest.approx(float(w @ w))
    assert np.allclose(c.gradient(x), np.concatenate([2 * w, [0.0]]))
    assert np.allclose(c.hessian(x), np.diag([2.0, 2.0, 2.0, 0.0]))


def test_svm_single_point_value():
    # one point at the origin with label +1: margin argument z = 1
    c = SvmHingeCost(np.zeros((1, 3)), np.array([1.0]), C=1.0, mu=2.0, eps_nu=0.0)
    x = np.zeros(4)
    expected = (2 + math.log1p(math.exp(-2))) / 2
    assert c.value(x) == pytest.approx(expected)
    assert expected == pytest.approx(1.0634640055214863)


def test_svm_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(12, 3))
    labs = rng.choice([-1.0, 1.0], size=12)
    c = SvmHingeCost(feats, labs, C=1.7, mu=3.0, eps_nu=1e-4)
    for _ in range(10):
        x = rng.normal(size=4)
        grad = c.gradient(x)
        fd = np.empty(4)
        for i in range(4):
            h = 1e-6 * (1 + abs(x[i]))
            e = np.zeros(4)
            e[i] = h
            fd[i] = (c.value(x + e) - c.value(x - e)) / (2 * h)
        assert np.max(np.abs(grad - fd) / (1 + np.abs(fd))) < 1e-6


def test_svm_dimension_mismatch():
    c = SvmHingeCost(np.zeros((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        c.value(np.zeros(3))


def test_svm_rejects_bad_labels():
    with pytest.raises(ValueError):
        SvmHingeCost(np.zeros((2, 3)), np.array([1.0, 2.0]))


def test_quadratic_cost_closed_forms():
    q = QuadraticCost(np.diag([2.0, 3.0]), np.array([1.0, -1.0]))
    x = np.array([2.0, 1.0])
    assert q.value(x) == pytest.approx(0.5 * (2 * 1 + 3 * 4))
    assert np.allclose(q.gradient(x), [2.0, 6.0])
    assert np.allclose(q.hessian(x), np.diag([2.0, 3.0]))


def test_aggregate_hessian_scalar_blocks():
    costs = [QuadraticCost(np.array([[2.0]]), np.zeros(1)) for _ in range(3)]
    H = aggregate_hessian(costs, np.zeros((3, 1)))
    assert H.shape == (3, 1, 1)
    assert np.allclose(H, 2.0)
    assert infinity_norm(H) == pytest.approx(2.0)


def test_aggregate_hessian_row_sum():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    costs = [QuadraticCost(q, np.zeros(2)) for _ in range(4)]
    H = aggregate_hessian(costs, np.zeros((4, 2)))
    assert infinity_norm(H) == pytest.approx(3.0)


def test_aggregate_hessian_matches_brute_force_on_svm():
    rng = np.random.default_rng(2)
    costs = [SvmHingeCost(rng.normal(size=(8, 3)), rng.choice([-1.0, 1.0], size=8))
             for _ in range(3)]
    x = rng.normal(size=(3, 4))
    H = aggregate_hessian(costs, x)
    dense = np.zeros((12, 12))
    for i in range(3):
        dense[4 * i:4 * i + 4, 4 * i:4 * i + 4] = H[i]
    assert infinity_norm(H) == pytest.approx(float(np.abs(dense).sum(axis=1).max()))
    assert np.linalg.eigvalsh(H).min() > 0


def test_aggregate_hessian_stacks_per_agent_hessians():
    rng = np.random.default_rng(3)
    costs = [SvmHingeCost(rng.normal(size=(6, 2)), rng.choice([-1.0, 1.0], size=6))
             for _ in range(4)]
    x = rng.normal(size=(4, 3))
    H = aggregate_hessian(costs, x)
    assert H.shape == (4, 3, 3)
    assert np.array_equal(H, np.array([c.hessian(x[i]) for i, c in enumerate(costs)]))
    with pytest.raises(ValueError, match="one state row per agent"):
        aggregate_hessian(costs, x[:3])


def test_svm_hessian_of_stacked_rows_equals_each_row_alone():
    rng = np.random.default_rng(5)
    c = SvmHingeCost(3.0 * rng.normal(size=(40, 3)), rng.choice([-1.0, 1.0], size=40),
                     C=1.3, mu=2.5, eps_nu=1e-4)
    X = rng.normal(size=(3, 2, 4))
    H = c.hessian(X)
    assert H.shape == (3, 2, 4, 4)
    for idx in np.ndindex(3, 2):
        # a lone point's arithmetic: one matrix-vector product for t / 2,
        # L'' = (mu / 4) / cosh(t / 2)^2 and C mu / 4 folded into the rows
        # u_j (x) u_j
        x = X[idx]
        h = (0.5 * c.mu * c.U) @ x + 0.5 * c.mu
        P = (0.25 * c.C * c.mu) * (c.U[:, :, None] * c.U[:, None, :]).reshape(40, 16)
        expected = (np.cosh(h) ** -2.0 @ P).reshape(4, 4)
        expected[:-1, :-1] += 2.0 * np.eye(3)
        expected[-1, -1] += 2.0 * c.eps_nu
        assert np.array_equal(H[idx], expected)
        assert np.array_equal(c.hessian(x), expected)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 4\)"):
        c.hessian(np.zeros((2, 3)))


def test_svm_hessian_agrees_with_a_40_digit_reference():
    # sum_j C mu e_j / (1 + e_j)^2 u_j u_j^T + reg with e_j = exp(-|mu z_j|),
    # z_j = 1 + u_j . x, in 40-digit decimal from the same float inputs
    rng = np.random.default_rng(9)
    worst = 0.0
    for mu, C in [(0.5, 1.3), (2.0, 1.0), (2.5, 0.7)]:
        c = SvmHingeCost(3.0 * rng.normal(size=(40, 3)), rng.choice([-1.0, 1.0], size=40),
                         C=C, mu=mu, eps_nu=1e-4)
        for t_max in (3.0, 30.0, 300.0, 700.0):
            x = rng.normal(size=4)
            x *= 0.999 * (t_max - mu) / (mu * np.abs(c.U @ x).max())  # so |mu z| < t_max
            got = c.hessian(x)
            with decimal.localcontext(prec=40):
                D = decimal.Decimal
                U = [[D(float(v)) for v in row] for row in c.U]
                curv = []
                for row in U:
                    t = D(mu) * (1 + sum(u * D(float(v)) for u, v in zip(row, x)))
                    assert abs(t) <= t_max
                    e = (-abs(t)).exp()
                    curv.append(D(C) * D(mu) * e / (1 + e) ** 2)
                exact = np.array([[float(sum(k * row[a] * row[b] for k, row in zip(curv, U))
                                         + D(float(c._reg[a, b]))) for b in range(4)]
                                  for a in range(4)])
            worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert worst <= 1e-14, worst


def test_svm_hessian_beyond_cosh_overflow_is_the_regularizer_without_warnings():
    # at w = 0 every margin is z = 1 + l_j nu, so one label puts all of them
    # at mu z = mu (1 + nu) = +-s; cosh overflows there (inf at +-inf)
    rng = np.random.default_rng(10)
    for mu in (0.5, 2.0):
        costs = [SvmHingeCost(rng.normal(size=(12, 3)), np.full(12, label), mu=mu, eps_nu=1e-4)
                 for label in (1.0, -1.0)]
        for s in (1e4, 1e12, np.inf, -np.inf):
            nu = s / mu - 1.0
            X = np.array([[0.0, 0.0, 0.0, nu], [0.0, 0.0, 0.0, -nu]])
            assert np.all(np.abs(mu * costs[0]._margins(X[0])) >= min(abs(s), 1e4))
            H = aggregate_hessian(costs, X)
            assert np.array_equal(H, [c._reg for c in costs])
            assert np.array_equal(aggregate_hessian(costs, X[None]), H[None])


def test_aggregate_hessian_over_a_member_axis():
    rng = np.random.default_rng(6)
    svm = [SvmHingeCost(rng.normal(size=(6, 2)), rng.choice([-1.0, 1.0], size=6))
           for _ in range(4)]
    quad = [QuadraticCost(np.diag(rng.uniform(0.5, 1.0, size=3)), rng.normal(size=3))
            for _ in range(4)]
    X = rng.normal(size=(5, 4, 3))
    H = aggregate_hessian(svm, X)
    assert H.shape == (5, 4, 3, 3)
    assert np.array_equal(H, np.array([aggregate_hessian(svm, x) for x in X]))
    # constant curvature: one block per agent, broadcast over the members
    assert np.array_equal(aggregate_hessian(quad, X), aggregate_hessian(quad, X[0]))
    with pytest.raises(ValueError, match="one state row per agent"):
        aggregate_hessian(svm, X[:, :3])
    # values and gradients of stacked rows: bit for bit each row's own call
    # and, for a lone point, the 1-D formula
    for costs in (svm, quad):
        assert np.array_equal(sum_gradient(costs, X), [sum_gradient(costs, x) for x in X])
        assert np.array_equal(global_cost(costs, X), [global_cost(costs, x) for x in X])
        assert type(global_cost(costs, X[0])) is float
        for i, c in enumerate(costs):
            assert np.array_equal(c.gradient(X[:, i]), [c.gradient(x[i]) for x in X])
            assert np.array_equal(c.value(X[:, i]), [c.value(x[i]) for x in X])
            x = X[0, i]
            assert type(c.value(x)) is float
            if isinstance(c, QuadraticCost):
                d = x - c.b
                assert c.value(x) == 0.5 * float(d @ c.Q @ d)
                assert np.array_equal(c.gradient(x), c.Q @ d)
            else:
                w, nu = x[:-1], x[-1]
                L, s, _ = smoothed_hinge(c._margins(x), c.mu)
                assert c.value(x) == float(w @ w + c.C * np.sum(L) + c.eps_nu * nu * nu)
                gnu = c.C * float(c.labels @ s) + 2.0 * c.eps_nu * nu
                assert np.array_equal(c.gradient(x), np.concatenate(
                    [2.0 * w + c.C * ((-c.labels * s) @ c.features), [gnu]]))


def test_svm_margin_jacobian_is_stored_read_only():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(10, 3))
    labs = rng.choice([-1.0, 1.0], size=10)
    c = SvmHingeCost(feats, labs, C=1.3, mu=2.5, eps_nu=1e-4)
    for stored in (c.U, c._halfmuU, c._P, c._reg):
        assert not stored.flags.writeable
    with pytest.raises(ValueError):
        c.U[0, 0] = 1.0
    for _ in range(5):
        x = rng.normal(size=4)
        # the formula with U, (mu / 2) U and the P rows rebuilt from the
        # shard on every call
        U = np.concatenate([-c.labels[:, None] * c.features, c.labels[:, None]], axis=1)
        h = ((0.5 * c.mu) * U) @ x + 0.5 * c.mu
        P = (0.25 * c.C * c.mu) * (U[:, :, None] * U[:, None, :]).reshape(10, 16)
        expected = (np.cosh(h) ** -2.0 @ P).reshape(4, 4)
        expected[:-1, :-1] += 2.0 * np.eye(3)
        expected[-1, -1] += 2.0 * c.eps_nu
        assert np.array_equal(c.hessian(x), expected)


def test_global_cost_quadratic_optimum_has_zero_gradient_sum():
    centers = [np.array([1.0]), np.array([2.0]), np.array([6.0])]
    costs = [QuadraticCost(np.eye(1), b) for b in centers]
    x_star = np.tile(np.mean(centers, axis=0), (3, 1))
    assert np.linalg.norm(sum_gradient(costs, x_star)) < 1e-12


def test_global_cost_single_agent_and_resummation():
    rng = np.random.default_rng(3)
    costs = [QuadraticCost(np.eye(2) * (i + 1), rng.normal(size=2)) for i in range(4)]
    x = rng.normal(size=(4, 2))
    total = global_cost(costs, x)
    loop = sum(costs[i].value(x[i]) for i in range(4))
    assert total == pytest.approx(loop)
    assert global_cost(costs[:1], x[:1]) == pytest.approx(costs[0].value(x[0]))
    # invariance under agent reordering
    perm = rng.permutation(4)
    assert global_cost([costs[i] for i in perm], x[perm]) == pytest.approx(total)
