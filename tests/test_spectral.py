import math
from itertools import permutations

import numpy as np
import pytest

from gtflow.cost import infinity_norm
from gtflow.graph import laplacian, make_khop_ring
from gtflow.spectral import (assemble, eigen_derivative_check, laplacian_rates,
                             matching_distance, matching_excess, spectral_report,
                             step_size_bounds)


def _identity_hessian(n, m):
    return np.tile(np.eye(m), (n, 1, 1))


def two_node_system(alpha=0.1):
    w = np.array([[0.0, 0.4], [0.4, 0.0]])
    lap = laplacian(w)
    return assemble(lap, _identity_hessian(2, 1), None, alpha)


def test_assemble_two_node_by_hand():
    A = two_node_system()
    expected = np.array([
        [-0.4, 0.4, -0.1, 0.0],
        [0.4, -0.4, 0.0, -0.1],
        [-0.4, 0.4, -0.5, 0.4],
        [0.4, -0.4, 0.4, -0.5],
    ])
    assert np.allclose(A, expected, atol=1e-15)


def test_assemble_reconstruction_identity():
    # A(alpha) = A(0) + alpha * (A(1) - A(0)), the perturbation form, to rounding
    A0, A1 = two_node_system(alpha=0.0), two_node_system(alpha=1.0)
    for alpha in (0.37, 4.5, 120.0):
        assert np.allclose(two_node_system(alpha), A0 + alpha * (A1 - A0), rtol=1e-15,
                           atol=1e-15 * alpha)


def _assemble_by_blocks(lap, H, gains, alpha):
    """The system matrix as the block sum A(0) + alpha * D of two np.block arrays."""
    n, m = H.shape[:2]
    nm = n * m
    xi = np.ones(nm) if gains is None else gains
    LG = np.kron(lap, np.eye(m)) * xi[None, :]
    B = np.zeros((n, m, n, m))
    B[np.arange(n), :, np.arange(n), :] = H
    B = B.reshape(nm, nm)
    zero = np.zeros((nm, nm))
    A0 = np.block([[LG, zero], [B @ LG, LG]])
    D = np.block([[zero, -np.eye(nm)], [zero, -B]])
    return A0 + alpha * D


def _assembly_draws(seed=21, draws=60):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n, m = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        k = int(rng.integers(1, (n - 1) // 2 + 1))
        lap = laplacian(make_khop_ring(n, k, rng.uniform(0.3, 1.0), directed=bool(rng.integers(2))))
        a = rng.normal(size=(n, m, m))
        H = a @ a.transpose(0, 2, 1) + np.eye(m)
        gains = None if rng.integers(2) else rng.uniform(0.2, 3.0, size=n * m)
        for alpha in (0.0, float(rng.uniform(1e-4, 1.0)), float(rng.uniform(1.0, 200.0))):
            yield lap, H, gains, alpha, m


def test_assemble_equals_the_block_sum_byte_for_byte():
    # undirected and directed rings, unit and random gains, alpha zero, small and large
    seen = set()
    for lap, H, gains, alpha, _ in _assembly_draws():
        A = assemble(lap, H, gains, alpha)
        ref = _assemble_by_blocks(lap, H, gains, alpha)
        assert A.dtype == ref.dtype and A.flags.c_contiguous
        assert A.tobytes() == ref.tobytes()
        seen.add((np.array_equal(lap, lap.T), gains is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_spectral_report_of_the_matrix_is_that_of_the_block_sum():
    for lap, H, gains, alpha, m in _assembly_draws(seed=22, draws=20):
        eigs = np.linalg.eigvals(_assemble_by_blocks(lap, H, gains, alpha))
        near_zero = np.abs(eigs) <= 1e-8 * np.abs(eigs).max()
        rep = spectral_report(assemble(lap, H, gains, alpha), m)
        assert rep.zero_count == near_zero.sum()
        assert rep.max_nonzero_real == eigs[~near_zero].real.max()
        assert rep.m == m


def test_assemble_alpha_zero_spectrum_is_laplacian_union():
    g = make_khop_ring(5, 1, 0.8)
    lap = laplacian(g)
    rng = np.random.default_rng(0)
    hess = np.array([np.diag(rng.uniform(1, 3, size=2)) for _ in range(5)])
    got = np.sort(np.linalg.eigvals(assemble(lap, hess, None, 0.0)).real)
    lap_eigs = np.linalg.eigvals(np.kron(lap, np.eye(2))).real
    expected = np.sort(np.concatenate([lap_eigs, lap_eigs]))
    assert np.allclose(got, expected, atol=1e-10)


def test_assemble_uniform_gain_scales_diffusion():
    g = make_khop_ring(4, 1, 0.6)
    lap = laplacian(g)
    hess = _identity_hessian(4, 2)
    c = 1.37
    scaled = assemble(lap, hess, np.full(8, c), 0.0)
    unit = assemble(lap, hess, None, 0.0)
    assert np.allclose(scaled, c * unit, atol=1e-14)


def test_assemble_dimension_checks():
    lap = laplacian(make_khop_ring(3, 1, 0.5))
    hess = _identity_hessian(3, 1)
    with pytest.raises(ValueError):
        assemble(lap, hess, np.ones(5), 0.1)
    with pytest.raises(ValueError):
        assemble(lap, _identity_hessian(4, 1), None, 0.1)
    with pytest.raises(ValueError):
        assemble(lap, hess, None, -0.1)
    with pytest.raises(ValueError, match=r"\(n, m, m\)"):
        assemble(lap, np.eye(3), None, 0.1)
    with pytest.raises(ValueError, match=r"\(n, m, m\)"):
        assemble(lap, np.zeros((3, 1, 2)), None, 0.1)


def test_spectral_report_two_node_stable():
    rep = spectral_report(two_node_system(), 1)
    assert rep.zero_count == 1
    assert rep.max_nonzero_real < 0
    assert rep.stable


def test_spectral_report_alpha_zero_doubles_zeros():
    g = make_khop_ring(5, 1, 0.8)
    lap = laplacian(g)
    hess = _identity_hessian(5, 2)
    rep = spectral_report(assemble(lap, hess, None, 0.0), 2)
    assert rep.zero_count == 4  # 2m zeros: both Laplacians contribute
    assert not rep.stable


@pytest.mark.parametrize("directed", [False, True])
def test_spectral_report_bound_constants_match_unit_gain_diffusion(directed):
    n, m = 7, 3
    lap = laplacian(make_khop_ring(n, 2, 0.8, directed=directed))
    rng = np.random.default_rng(4)
    blocks = []
    for _ in range(n):
        a = rng.normal(size=(m, m))
        blocks.append(a @ a.T + np.eye(m))
    base = np.linalg.eigvals(assemble(lap, np.array(blocks), None, 0.0))
    radius = np.abs(base).max()
    slowest = np.abs(base[np.abs(base) > 1e-8 * radius].real).min()
    # read off the n-by-n Laplacian, not the 2nm-by-2nm diffusion matrix
    rate_slowest, rate_radius = laplacian_rates(lap)
    assert rate_radius == pytest.approx(radius, rel=1e-6)
    assert rate_slowest == pytest.approx(slowest, rel=1e-6)


def test_spectral_report_large_alpha_goes_unstable_on_directed_ring():
    # undirected weight-balanced fixtures stayed in the left half-plane at
    # every step size we probed (consistent with the symmetric contraction
    # argument); the genuine right-half-plane crossing shows on the directed
    # circulant, whose Laplacian spectrum is complex
    g = make_khop_ring(6, 1, 0.9, directed=True)
    lap = laplacian(g)
    rng = np.random.default_rng(12)
    hvals = rng.uniform(0.5, 8.0, size=6)
    hess = hvals.reshape(6, 1, 1)
    bounds = step_size_bounds(1.0, 1.0, infinity_norm(hess), *laplacian_rates(lap), 6, 1)
    low = spectral_report(assemble(lap, hess, None, 0.9 * bounds.tight), 1)
    assert low.stable
    rep = spectral_report(assemble(lap, hess, None, 1.0), 1)
    assert not rep.stable
    assert rep.max_nonzero_real > 0


def test_eigen_derivative_identity_hessian():
    n = 6
    lap = laplacian(make_khop_ring(n, 1, 0.8))
    rep = eigen_derivative_check(lap, _identity_hessian(n, 1), np.ones(n))
    # display-convention reduced block carries -sum of unit Hessians
    assert np.allclose(rep.reduced_eigenvalues, [-n])
    assert rep.zero_block_norm < 1e-14
    assert np.allclose(rep.predicted, [-1.0])  # biorthonormal: -(1/n) sum = -1
    assert rep.ok


def test_eigen_derivative_quadratic_blocks():
    n, m = 4, 2
    lap = laplacian(make_khop_ring(n, 1, 0.7))
    rng = np.random.default_rng(2)
    blocks = []
    for _ in range(n):
        a = rng.normal(size=(m, m))
        blocks.append(a @ a.T + 2 * np.eye(m))
    rep = eigen_derivative_check(lap, np.array(blocks), np.ones(n * m))
    total = sum(blocks)
    assert np.allclose(np.sort_complex(rep.reduced_eigenvalues),
                       np.sort_complex(np.linalg.eigvals(-total)), atol=1e-10)
    assert rep.max_rel_error < 1e-4


def test_matching_distance_examples():
    assert matching_distance([0, -1], [0, -1]) == 0.0
    assert matching_distance([0, -1], [0.1, -1.05]) == pytest.approx(0.1)
    spec = np.array([0.3 + 1j, -2.0, 5.0])
    shift = 0.7 - 0.2j
    assert matching_distance(spec, spec + shift) == pytest.approx(abs(shift))


def test_matching_distance_equals_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        size = int(rng.integers(1, 6))
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        b = rng.normal(size=size) + 1j * rng.normal(size=size)
        brute = min(max(abs(a[i] - b[p[i]]) for i in range(size))
                    for p in permutations(range(size)))
        assert matching_distance(a, b) == pytest.approx(brute, abs=1e-12)


def test_matching_distance_cardinality_mismatch():
    with pytest.raises(ValueError):
        matching_distance([1.0], [1.0, 2.0])


def test_step_size_bounds_linear_case():
    b = step_size_bounds(1.0, 1.0, 2.0, 1.0, 1.0, 3, 1)
    assert b.tight == pytest.approx(0.5)


def test_step_size_bounds_sector_case():
    b = step_size_bounds(0.5, 1.5, 2.0, 1.0, 1.0, 3, 1)
    assert b.tight == pytest.approx(0.25)  # min(0.25, 1/3)


def test_step_size_bounds_monotone_in_sector():
    base = step_size_bounds(0.5, 1.5, 2.0, 1.0, 1.0, 3, 1)
    wider_upper = step_size_bounds(0.5, 2.0, 2.0, 1.0, 1.0, 3, 1)
    higher_kappa = step_size_bounds(0.8, 1.5, 2.0, 1.0, 1.0, 3, 1)
    assert wider_upper.tight <= base.tight
    assert higher_kappa.tight >= base.tight


def test_step_size_bounds_all_positive_and_matching_hits_target():
    b = step_size_bounds(0.5, 1.5, 3.0, 0.8, 1.6, 5, 2)
    assert b.matching > 0 and b.spectral > 0 and b.tight > 0
    # the matching bound solves 4 base^(1-1/nm) pert^(1/nm) = kappa * slow
    nm = 10
    alpha = b.matching
    base_val = 4 * b.upper + b.gamma * (4 * b.upper + alpha)
    excess = 4 * base_val ** (1 - 1 / nm) * (alpha * b.gamma) ** (1 / nm)
    assert excess == pytest.approx(b.kappa * b.slowest_decay, rel=1e-6)


@pytest.mark.parametrize("gamma", [0.4, 3.0])
def test_matching_bound_is_the_root_to_adjacent_floats(gamma):
    # both branches of matching_excess; the bound sits where it crosses the target
    b = step_size_bounds(0.5, 1.5, gamma, 0.8, 1.6, 5, 2)
    target = b.kappa * b.slowest_decay
    below, above = np.nextafter(b.matching, 0.0), np.nextafter(b.matching, np.inf)
    assert matching_excess(0.0, b.upper, gamma, 10) == 0.0
    assert matching_excess(below, b.upper, gamma, 10) < target
    assert matching_excess(above, b.upper, gamma, 10) >= target


@pytest.mark.parametrize("n, m", [(256, 2), (300, 2), (150, 3), (10_000, 2), (10_000, 10_000)])
def test_step_size_bounds_past_the_float_range_read_zero_instead_of_raising(n, m):
    # 4^nm no longer converts to a float from nm = 512 on
    b = step_size_bounds(0.5, 1.5, 3.0, 0.8, 1.6, n, m)
    assert b.spectral == 0.0 and b.matching == 0.0 and b.tight > 0


def test_spectral_bound_keeps_its_bits_where_finite_and_its_value_where_its_powers_overflow():
    kappa = upper = slow = 1e3
    radius, gamma = 2e3, 2.0
    t = kappa * slow
    nm = 10
    direct = t ** nm / (4 ** nm * upper ** (nm - 1) * (2 * radius + t) ** (nm - 1) * gamma)
    assert step_size_bounds(kappa, upper, gamma, slow, radius, nm, 1).spectral == direct
    for nm in (40, 60, 80):  # the denominator's product overflows to inf, then t ** nm too
        log_value = (nm * math.log(t / 4) - (nm - 1) * math.log(upper * (2 * radius + t))
                     - math.log(gamma))
        got = step_size_bounds(kappa, upper, gamma, slow, radius, nm, 1).spectral
        assert got == pytest.approx(math.exp(log_value), rel=1e-12)


def test_step_size_bounds_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step_size_bounds(0.0, 1.0, 1.0, 1.0, 1.0, 3, 1)
    with pytest.raises(ValueError):
        step_size_bounds(1.5, 1.0, 1.0, 1.0, 1.0, 3, 1)


def _sweep_fixture():
    n, m = 5, 1
    lap = laplacian(make_khop_ring(n, 1, 0.8))
    rng = np.random.default_rng(4)
    hess = np.array([np.diag(rng.uniform(0.5, 2.0, size=m)) for _ in range(n)])
    kappa, upper = 0.5, 1.5
    bounds = step_size_bounds(kappa, upper, infinity_norm(hess), *laplacian_rates(lap), n, m)
    return lap, hess, kappa, upper, bounds


def test_sweep_below_tight_bound_is_stable():
    lap, hess, kappa, upper, bounds = _sweep_fixture()
    rng = np.random.default_rng(5)
    regimes = {
        "lower": np.full(5, kappa),
        "upper": np.full(5, upper),
        "random": rng.uniform(kappa, upper, size=5),
    }
    for alpha in np.linspace(0.05, 0.999, 8) * bounds.tight:
        reports = {label: spectral_report(assemble(lap, hess, xi, alpha), 1)
                   for label, xi in regimes.items()}
        assert all(r.stable for r in reports.values()), reports


def test_sweep_alpha_zero_column_unstable():
    lap, hess, kappa, upper, _ = _sweep_fixture()
    report = spectral_report(assemble(lap, hess, np.ones(5), 0.0), 1)
    assert report.zero_count == 2
    assert not report.stable


def test_sweep_extreme_gains_bracket_unit_decay():
    # the slow decay under unit gains sits between the two sector-edge rows;
    # the observed ordering on this frozen fixture has the lower-gain row
    # decaying fastest (stronger step-size slaving at higher gain)
    lap, hess, kappa, upper, bounds = _sweep_fixture()
    alpha = 0.5 * bounds.tight
    by_label = {label: spectral_report(assemble(lap, hess, np.full(5, gain), alpha), 1).max_nonzero_real
                for label, gain in (("lower", kappa), ("unit", 1.0), ("upper", upper))}
    assert by_label["lower"] <= by_label["unit"] <= by_label["upper"] < 0


def test_matching_perturbation_estimate_bounds_the_measured_spectra():
    from gtflow.verify import check_matching_perturbation

    result = check_matching_perturbation()
    assert result.passed, result.failures
    assert result.detail.startswith("320 (fixture, alpha) cells")
    # the measured distances reach about 6% of the estimate, so one twentieth
    # of it is violated
    shrunk = check_matching_perturbation(excess_fn=lambda *a: matching_excess(*a) / 20)
    assert not shrunk.passed and shrunk.failures
    assert all(f["distance"] > f["bound"] for f in shrunk.failures)


def test_directed_fixtures_are_balanced_strongly_connected_digraphs_the_suite_checks():
    from gtflow.graph import is_strongly_connected
    from gtflow.verify import directed_fixture, theorem1_suite

    rng = np.random.default_rng(0)
    kinds = set()
    for _ in range(200):
        fx = directed_fixture(rng)
        lap = fx["lap"]
        w = lap - np.diag(np.diag(lap))
        assert np.all(w >= 0) and np.all(np.diag(w) == 0)
        assert np.abs(lap.sum(axis=0)).max() <= 1e-12 and np.abs(lap.sum(axis=1)).max() <= 1e-12
        assert is_strongly_connected(w)
        assert 0 <= fx["alpha"] < fx["bounds"].tight
        kinds.add(fx["graph"])
        if fx["k"]:  # a directed khop ring
            assert not np.array_equal(w, w.T)
    assert kinds == {"directed khop ring", "1-derangement sum", "2-derangement sum",
                     "3-derangement sum"}

    # a mutation that only an asymmetric Laplacian sets off: the suite must
    # run the directed draws and report them
    def broken_on_digraphs(lap, hess, gains, alpha):
        return assemble(lap if np.array_equal(lap, lap.T) else -lap, hess, gains, alpha)

    assert theorem1_suite().passed
    result = theorem1_suite(assemble_fn=broken_on_digraphs)
    assert not result.passed
    assert {f["graph"] for f in result.failures} <= kinds
