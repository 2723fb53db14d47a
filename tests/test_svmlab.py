import numpy as np
import pytest

from gtflow.config import build_svm_costs, parse_config
from gtflow.cost import sum_gradient
from gtflow.engine import SolverConfig
from gtflow.graph import SwitchingSchedule, SwitchMode, make_khop_ring
from gtflow.svmlab import (LabeledDataset, centralized_oracle, dataset_from_csv,
                           dsvm_experiment, evaluate, feature_map,
                           generate_ellipse_data, partition)


def decision_values(x, points):
    # w . phi(c) - nu for the classifier x = [w; nu]
    return feature_map(points) @ x[:-1] - x[-1]


def test_kernel_identity():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, size=(50, 2))
    b = rng.uniform(-1, 1, size=(50, 2))
    lhs = np.sum(feature_map(a) * feature_map(b), axis=1)
    rhs = np.sum(a * b, axis=1) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_generate_labels_follow_radius_rule():
    data = generate_ellipse_data(300, seed=3, radius=0.6, margin_gap=0.0)
    dist = np.hypot(data.points[:, 0], data.points[:, 1])
    # ties and interior points go negative
    assert np.all(data.labels[dist <= 0.6] == -1.0)
    assert np.all(data.labels[dist > 0.6] == 1.0)


def test_generate_respects_margin_gap_and_determinism():
    data = generate_ellipse_data(200, seed=7, radius=0.6, margin_gap=0.05)
    dist = np.hypot(data.points[:, 0], data.points[:, 1])
    assert np.all(np.abs(dist - 0.6) >= 0.05)
    again = generate_ellipse_data(200, seed=7, radius=0.6, margin_gap=0.05)
    assert (data.points == again.points).all()
    assert (data.labels == again.labels).all()


def test_generate_margin_budget_exhausts():
    with pytest.raises(ValueError, match="budget"):
        generate_ellipse_data(50, seed=1, radius=0.6, margin_gap=2.0)


def test_generated_data_separable_in_feature_space():
    # the large-margin baseline classifies a gapped dataset perfectly
    data = generate_ellipse_data(200, seed=7, radius=0.6, margin_gap=0.05)
    result = centralized_oracle(data, C=50.0, mu=4.0, eps_nu=1e-6, tol=2e-4,
                                max_iter=400000)
    assert evaluate(result.x, data) == 1.0
    margins = data.labels * decision_values(result.x, data.points)
    assert margins.min() > 0


def test_partition_single_agent_and_stratified_counts():
    data = generate_ellipse_data(200, seed=11, radius=0.8, margin_gap=0.05)
    single = partition(data, 1)
    assert [len(agents) for agents in single] == [200]
    part = partition(data, 5, "stratified", seed=2)
    assert [len(agents) for agents in part] == [40] * 5
    global_pos = int(np.sum(data.labels > 0))
    for agents in part:
        pos = int(np.sum(data.labels[agents] > 0))
        assert abs(pos - global_pos / 5) <= 1


def test_partition_contiguous_gives_single_label_shards():
    order = np.argsort(np.concatenate([np.full(30, -1.0), np.full(30, 1.0)]))
    pts = np.random.default_rng(0).uniform(-1, 1, size=(60, 2))
    labels = np.concatenate([np.full(30, -1.0), np.full(30, 1.0)])[order]
    data = LabeledDataset(pts, np.sort(labels))
    part = partition(data, 2, "contiguous")
    assert len(part) == 2
    for agents in part:
        assert len(set(data.labels[agents])) == 1


def test_partition_disjoint_exhaustive_all_modes():
    data = generate_ellipse_data(101, seed=5, radius=0.7, margin_gap=0.0)
    for mode in ("stratified", "contiguous"):
        for seed in (0, 1, 2):
            part = partition(data, 7, mode, seed)
            assert len(part) == 7
            assert np.array_equal(np.sort(np.concatenate(part)), np.arange(101))


def test_partition_rejects_too_many_agents():
    data = generate_ellipse_data(10, seed=5, radius=0.7, margin_gap=0.0)
    with pytest.raises(ValueError):
        partition(data, 11)


def test_oracle_reaches_stationarity():
    data = generate_ellipse_data(120, seed=13, radius=0.8, margin_gap=0.1)
    result = centralized_oracle(data, C=1.0, mu=2.0, tol=1e-7)
    assert result.gradient_norm <= 1e-7


def test_oracle_error_bound_covers_the_distance_to_a_tighter_oracle():
    data = generate_ellipse_data(120, seed=13, radius=0.8, margin_gap=0.1)
    exact = centralized_oracle(data, tol=2e-8)
    for tol in (1e-5, 1e-6, 1e-7):
        result = centralized_oracle(data, tol=tol)
        distance = np.linalg.norm(result.x - exact.x)
        assert 0.0 < result.error_bound < np.inf
        assert distance <= result.error_bound + exact.error_bound


def test_oracle_doubling_c_does_not_increase_hinge_term():
    from gtflow.cost import smoothed_hinge

    data = generate_ellipse_data(120, seed=17, radius=0.8, margin_gap=0.1)
    feats = feature_map(data.points)

    def hinge_sum(x):
        z = 1.0 - data.labels * (feats @ x[:-1] - x[-1])
        val, _, _ = smoothed_hinge(z, 2.0)
        return float(np.sum(val))

    low = centralized_oracle(data, C=1.0, mu=2.0, tol=1e-6)
    high = centralized_oracle(data, C=2.0, mu=2.0, tol=1e-6)
    assert hinge_sum(high.x) <= hinge_sum(low.x) + 1e-9


def test_oracle_label_flip_negates_classifier():
    data = generate_ellipse_data(100, seed=19, radius=0.8, margin_gap=0.1)
    flipped = LabeledDataset(data.points, -data.labels)
    a = centralized_oracle(data, C=1.0, mu=2.0, eps_nu=1e-6, tol=2e-6)
    b = centralized_oracle(flipped, C=1.0, mu=2.0, eps_nu=1e-6, tol=2e-6)
    assert np.allclose(a.x, -b.x, atol=2e-5)


def test_evaluate_tie_rule():
    data = LabeledDataset(np.array([[0.5, 0.0], [0.0, 0.5]]),
                          np.array([1.0, -1.0]))
    zero = np.zeros(4)
    # both points are ties, and a tie counts as wrong
    assert np.all(decision_values(zero, data.points) == 0)
    assert evaluate(zero, data) == 0.0


def test_evaluate_negation_flips_non_ties():
    data = generate_ellipse_data(80, seed=23, radius=0.7, margin_gap=0.05)
    x = np.array([1.0, 1.0, 0.0, 0.49])
    acc = evaluate(x, data)
    neg_acc = evaluate(-x, data)
    values = decision_values(x, data.points)
    non_tie = np.mean(values != 0)
    assert acc + neg_acc == pytest.approx(non_tie)


def test_dataset_csv_round_trip():
    data = generate_ellipse_data(40, seed=29, radius=0.6, margin_gap=0.0)
    rows = [f"{format(p[0], '.17g')},{format(p[1], '.17g')},{int(l)}"
            for p, l in zip(data.points, data.labels)]
    back = dataset_from_csv("chi1,chi2,label\n" + "\n".join(rows) + "\n")
    assert (back.points == data.points).all()
    assert (back.labels == data.labels).all()


def agent_costs(data, part, cost="{}"):
    # C=1, mu=2, eps_nu=1e-6 unless ``cost`` sets them: the cost section's defaults
    return build_svm_costs(parse_config(f'{{"seed": 1, "cost": {cost}}}'), data, part)


def test_dsvm_experiment_smoke():
    # small fixture: identity links, short horizon; field sanity only
    data = generate_ellipse_data(45, seed=31, radius=0.8, margin_gap=0.1)
    part = partition(data, 3, "stratified", seed=1)
    sched = SwitchingSchedule(make_khop_ring(3, 1, 0.8), 0.01,
                              rng_seed=2, mode=SwitchMode.PERMUTE)
    solver = SolverConfig(alpha=1.0, eta=0.01, t_end=5.0, schedule=sched,
                          sample_stride=50)
    costs = agent_costs(data, part)
    x0 = np.random.default_rng(3).uniform(0.0, 1.0, size=(3, 4))
    report = dsvm_experiment(data, costs, solver, x0, regularizer_mode="matched")
    assert report.trace.status == "completed"
    assert report.consensus.shape == report.oracle.x.shape == (4,)
    assert report.consensus_spread >= 0
    assert 0 <= report.consensus_accuracy <= 1
    assert report.trace.lyapunov is not None
    text = "\n".join(report.summary_lines())
    assert "distance_to_oracle" in text
    finals = [ln for ln in report.summary_lines() if ln.startswith("agent_")]
    assert [ln.split(":")[0] for ln in finals] == ["agent_0_final", "agent_1_final", "agent_2_final"]
    assert all(len(ln.split()) == 1 + 4 for ln in finals)


def test_dsvm_oracle_solves_the_agents_problem():
    # the oracle takes C, mu and eps_nu from the agents' costs: at it, the
    # gradient of sum_i f_i for the agents' own costs vanishes to the tolerance
    data = generate_ellipse_data(45, seed=31, radius=0.8, margin_gap=0.1)
    costs = agent_costs(data, partition(data, 3, seed=1),
                        '{"C": 3.0, "mu": 1.5, "eps_nu": 1e-3}')
    sched = SwitchingSchedule(make_khop_ring(3, 1, 0.8), 0.01)
    solver = SolverConfig(alpha=1.0, eta=0.01, t_end=0.1, schedule=sched)
    report = dsvm_experiment(data, costs, solver, np.zeros((3, 4)), oracle_tol=1e-6)
    grad = sum_gradient(costs, np.tile(report.oracle.x, (3, 1)))
    assert np.linalg.norm(grad) < 3 * 1e-6


def test_dsvm_rejects_costs_with_different_parameters():
    data = generate_ellipse_data(30, seed=37, radius=0.8, margin_gap=0.1)
    part = partition(data, 3)
    costs = agent_costs(data, part)[:2] + agent_costs(data, part, '{"C": 2.0}')[2:]
    solver = SolverConfig(alpha=1.0, eta=0.01, t_end=0.1,
                          schedule=SwitchingSchedule(make_khop_ring(3, 1, 0.8), 0.01))
    with pytest.raises(ValueError, match="share"):
        dsvm_experiment(data, costs, solver, np.zeros((3, 4)))


def test_dsvm_regularizer_mode_validation():
    data = generate_ellipse_data(30, seed=37, radius=0.8, margin_gap=0.1)
    part = partition(data, 3)
    sched = SwitchingSchedule(make_khop_ring(3, 1, 0.8), 0.01)
    solver = SolverConfig(alpha=1.0, eta=0.01, t_end=0.1, schedule=sched)
    x0 = np.zeros((3, 4))
    with pytest.raises(ValueError, match="regularizer"):
        dsvm_experiment(data, agent_costs(data, part), solver, x0, regularizer_mode="averaged")
