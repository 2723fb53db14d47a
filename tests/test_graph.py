import numpy as np
import pytest

from gtflow.graph import (SwitchingSchedule, SwitchMode, WeightedGraph,
                          check_weight_balanced, graph_at, is_strongly_connected,
                          laplacian, make_khop_ring)


def test_khop_ring_rejects_degenerate_n2():
    with pytest.raises(ValueError, match="out of range"):
        make_khop_ring(2, 1, 0.5)


def test_khop_ring_basic_weights():
    g = make_khop_ring(5, 1, 0.8)
    assert np.allclose(g.row_sums, 0.8)
    # every existing link weighs 0.8 / 2
    nz = g.weights[g.weights > 0]
    assert np.allclose(nz, 0.4)
    assert np.count_nonzero(g.weights) == 10


def test_khop_ring_k2_on_5_nodes_is_complete():
    # enumerate 2-hop neighborhoods on a 5-ring: everyone reaches everyone
    g = make_khop_ring(5, 2, 0.8)
    offdiag = ~np.eye(5, dtype=bool)
    assert np.all(g.weights[offdiag] > 0)
    assert np.allclose(g.weights[offdiag], 0.2)
    assert np.allclose(g.row_sums, 0.8)


def test_khop_ring_input_validation():
    with pytest.raises(ValueError):
        make_khop_ring(5, 3, 0.8)
    with pytest.raises(ValueError):
        make_khop_ring(5, 0, 0.8)
    with pytest.raises(ValueError):
        make_khop_ring(5, 1, 1.0)
    with pytest.raises(ValueError):
        make_khop_ring(5, 1, 0.0)


def test_laplacian_two_node_by_hand():
    w = np.array([[0.0, 0.5], [0.5, 0.0]])
    lap = laplacian(WeightedGraph(2, w))
    assert np.allclose(lap, [[-0.5, 0.5], [0.5, -0.5]])
    eigs = np.sort(np.linalg.eigvals(lap).real)
    assert np.allclose(eigs, [-1.0, 0.0])


def test_laplacian_rows_sum_to_zero():
    g = make_khop_ring(7, 2, 0.6)
    lap = laplacian(g)
    assert np.allclose(lap @ np.ones(7), 0.0)
    assert np.allclose(np.ones(7) @ lap, 0.0)


def test_laplacian_ring_matches_circulant_formula():
    g = make_khop_ring(5, 1, 0.8)
    got = np.sort(np.linalg.eigvals(laplacian(g)).real)
    expected = np.sort([-0.8 * (1 - np.cos(2 * np.pi * j / 5)) for j in range(5)])
    assert np.allclose(got, expected, atol=1e-12)


def test_weight_balance_symmetric_and_one_sided():
    sym = make_khop_ring(6, 1, 0.5).weights
    ok, imbalance = check_weight_balanced(sym)
    assert ok and imbalance == 0.0

    one_sided = np.zeros((3, 3))
    one_sided[1, 0] = 0.3
    ok, imbalance = check_weight_balanced(one_sided)
    assert not ok
    assert imbalance == pytest.approx(0.3)


def test_weight_balance_directed_cycle():
    w = np.zeros((3, 3))
    for i in range(3):
        w[i, (i + 1) % 3] = 0.3
    ok, imbalance = check_weight_balanced(w)
    assert ok and imbalance == 0.0
    assert is_strongly_connected(w)


def test_directed_circulant_variant():
    g = make_khop_ring(6, 2, 0.9, directed=True)
    assert np.allclose(g.row_sums, 0.9)
    ok, _ = check_weight_balanced(g)
    assert ok
    assert not np.allclose(g.weights, g.weights.T)


def test_graph_constructor_rejects_bad_matrices():
    with pytest.raises(ValueError, match="non-negative"):
        WeightedGraph(2, np.array([[0.0, -0.1], [-0.1, 0.0]]))
    with pytest.raises(ValueError, match="row sums"):
        WeightedGraph(2, np.array([[0.0, 1.2], [1.2, 0.0]]))
    with pytest.raises(ValueError, match="weight-balanced"):
        WeightedGraph(3, np.array([[0, 0.3, 0], [0, 0, 0.1], [0.2, 0, 0]]))
    with pytest.raises(ValueError, match="strongly connected"):
        WeightedGraph(4, np.kron(np.eye(2), [[0, 0.4], [0.4, 0]]))


def test_graph_at_fixed_mode():
    base = make_khop_ring(5, 1, 0.8)
    sched = SwitchingSchedule(base, 0.01, rng_seed=1, mode=SwitchMode.FIXED)
    for t in (0.0, 0.005, 17.3):
        assert graph_at(sched, t) is base


def test_graph_at_piecewise_constant_and_deterministic():
    base = make_khop_ring(6, 2, 0.7)
    sched = SwitchingSchedule(base, 0.001, rng_seed=42, mode=SwitchMode.PERMUTE)
    a = graph_at(sched, 0.0031).weights
    same_interval = graph_at(sched, 0.0031 + 0.0005).weights
    assert (a == same_interval).all()
    again = graph_at(sched, 0.0031).weights
    assert (a == again).all()
    # a permutation preserves the weight multiset and the row sums
    assert np.allclose(np.sort(a.ravel()), np.sort(base.weights.ravel()))


@pytest.mark.parametrize("n, k, directed", [(5, 2, False), (8, 2, False),
                                              (12, 3, False), (8, 1, True)])
def test_permuted_graphs_stay_valid_without_revalidation(n, k, directed):
    base = make_khop_ring(n, k, 0.8, directed=directed)
    sched = SwitchingSchedule(base, 0.5, rng_seed=n, mode=SwitchMode.PERMUTE)
    for idx in range(200):
        g = graph_at(sched, 0.5 * idx + 0.25)
        assert not g.weights.flags.writeable
        WeightedGraph(g.n, g.weights)  # the full checks still accept it
        p = np.random.default_rng([n, idx]).permutation(n)
        assert np.array_equal(g.weights, base.weights[np.ix_(p, p)])


def test_graph_at_rejects_negative_time():
    sched = SwitchingSchedule(make_khop_ring(4, 1, 0.5), 0.1)
    with pytest.raises(ValueError):
        graph_at(sched, -0.5)


def test_bidirectional_link_removal_preserves_balance():
    g = make_khop_ring(6, 2, 0.8)
    w = g.weights.copy()
    w[0, 2] = 0.0
    w[2, 0] = 0.0
    ok, imbalance = check_weight_balanced(w)
    assert ok and imbalance == 0.0


def test_random_rings_have_single_zero_eigenvalue():
    # Laplacian structure over many random generator draws
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, max((n - 1) // 2, 1) + 1))
        g = make_khop_ring(n, k, float(rng.uniform(0.1, 0.99)))
        eigs = np.linalg.eigvals(laplacian(g))
        tol = 1e-9 * np.abs(laplacian(g)).max()
        zero = np.abs(eigs) <= tol
        assert zero.sum() == 1
        assert np.all(eigs[~zero].real < 0)


@pytest.mark.parametrize("n, k, directed, static", [
    (3, 1, False, True), (5, 2, False, True), (7, 3, False, True),
    (7, 1, False, False), (6, 2, False, False), (5, 1, True, False), (5, 2, True, False)])
def test_permute_schedule_is_static_exactly_when_every_relabelling_is_the_base(n, k, directed,
                                                                              static):
    base = make_khop_ring(n, k, 0.8, directed=directed)
    sched = SwitchingSchedule(base, 0.1, rng_seed=3, mode=SwitchMode.PERMUTE)
    assert sched.static is static
    same = [np.array_equal(graph_at(sched, 0.1 * i).weights, base.weights) for i in range(40)]
    assert all(same) if static else not all(same)
    assert SwitchingSchedule(base, 0.1, mode=SwitchMode.FIXED).static is True
