import numpy as np
import pytest

from bigdiff import elliptic as el
from bigdiff import spectral as sp

DOM = sp.DomainSpec()

trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def brute_force_gap(E, basis):
    """Independent oracle: max defect gain over every (component, mode) pair."""
    best = 0.0
    for i in range(E.components):
        for k in range(1, basis.mode_count + 1):
            gain = E.eps[i] * basis.eigenvalues[k] + 1.0
            best = max(best, gain**-0.5)
    return best


class TestResolvent:
    def test_constant_data_identity(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([3.0, 11.0])
        g = sp.constant_field([2.0, -1.0], basis)
        u = el.solve_resolvent(g, E)
        assert np.max(np.abs(u.coeffs - g.coeffs)) == 0.0

    def test_mode_one_division(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        u = el.solve_resolvent(sp.mode_field(basis, 1), E)
        assert u.coeffs[0, 1] == pytest.approx(1.0 / (np.pi**2 + 1), rel=1e-15)

    def test_solve_then_apply_is_identity(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([0.5, 4.0])
        rng = np.random.default_rng(3)
        g = sp.random_field(basis, 2, rng)
        gains = E.gains(basis)  # -E d^2/dx^2 + I scales mode k of component i by these
        back = gains * el.solve_resolvent(g, E).coeffs
        assert np.max(np.abs(back - g.coeffs)) < 1e-12
        fwd = el.solve_resolvent(sp.SpectralField(gains * g.coeffs, basis), E)
        assert np.max(np.abs(fwd.coeffs - g.coeffs)) < 1e-12

    def test_random_defect_bounded_by_gap(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([2.0, 6.0])
        bound = brute_force_gap(E, basis)
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = sp.random_field(basis, 2, rng, l2_norm_value=1.0)
            defect = el.solve_resolvent(g, E).coeffs.copy()
            defect[:, 0] = 0.0  # A^{-1}g - Pg: mode 0 solves exactly and P removes it
            quotient = sp.energy_norm(sp.SpectralField(defect, basis), E) / sp.l2_norm(g)
            assert quotient <= bound + 1e-12


class TestGapExact:
    def test_value_eps_10(self):
        basis = sp.build_basis(DOM, 32)
        E = sp.diffusion([10.0])
        gap = el.resolvent_gap_exact(E, basis)
        assert gap == pytest.approx(0.1001523, abs=1e-7)
        assert gap == pytest.approx((10 * np.pi**2 + 1) ** -0.5, rel=1e-15)
        assert gap == pytest.approx(brute_force_gap(E, basis), rel=1e-15)

    def test_min_component_governs(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([5.0, 50.0])
        assert el.resolvent_gap_exact(E, basis) == pytest.approx((5 * np.pi**2 + 1) ** -0.5, rel=1e-15)
        assert el.resolvent_gap_exact(E, basis) == pytest.approx(brute_force_gap(E, basis), rel=1e-15)

    def test_decays_to_zero(self):
        basis = sp.build_basis(DOM, 8)
        values = [el.resolvent_gap_exact(sp.diffusion([d]), basis) for d in (1e0, 1e3, 1e6, 1e12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_rate_attained_identity(self):
        basis = sp.build_basis(DOM, 8)
        for d in (1.0, 2.0, 4.0, 128.0):
            E = sp.diffusion([d])
            prod = el.resolvent_gap_exact(E, basis) * np.sqrt(E.second_eigenvalue(basis))
            assert abs(prod - 1.0) < 1e-12


class TestGapSampled:
    def test_explicit_maximizer_is_exact(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([2.0, 9.0])
        g = sp.mode_field(basis, 1, component=0, components=2)  # min-eps component
        sampled = el.resolvent_gap_sampled(E, basis, trials=1, samples=[g])
        assert sampled == pytest.approx(el.resolvent_gap_exact(E, basis), rel=1e-13)

    def test_never_exceeds_exact(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        exact = el.resolvent_gap_exact(E, basis)
        for trials in (1, 3, 10):
            assert el.resolvent_gap_sampled(E, basis, trials, seed=trials) <= exact + 1e-9

    def test_many_trials_recovers_exact(self):
        basis = sp.build_basis(DOM, 128)
        E = sp.diffusion([1.0])
        sampled = el.resolvent_gap_sampled(E, basis, trials=500, seed=42)
        exact = el.resolvent_gap_exact(E, basis)
        assert abs(sampled - exact) / exact < 0.01

    def test_deterministic_given_seed(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0, 3.0])
        a = el.resolvent_gap_sampled(E, basis, trials=7, seed=11)
        b = el.resolvent_gap_sampled(E, basis, trials=7, seed=11)
        assert a == b

    def test_bad_trials_rejected(self):
        basis = sp.build_basis(DOM, 8)
        with pytest.raises(ValueError):
            el.resolvent_gap_sampled(sp.diffusion([1.0]), basis, trials=0)


class TestSpectralProjection:
    def test_eigen_mode_equals_average(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0, 3.0])
        Q = el.spectral_projection_Q(E, basis)
        rng = np.random.default_rng(9)
        f = sp.random_field(basis, 2, rng)
        proj = Q(f)
        lifted = sp.constant_field(sp.average_projection(f), basis)
        assert np.max(np.abs(proj.coeffs - lifted.coeffs)) == 0.0

    def test_idempotent_rank_and_commutation(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 5.0, 2.0])
        Q = el.spectral_projection_Q(E, basis)
        assert np.sum(Q.weights > 0.5) == 3  # rank: one constant per component
        rng = np.random.default_rng(13)
        f = sp.random_field(basis, 3, rng)
        twice = Q(Q(f))
        assert np.max(np.abs(twice.coeffs - Q(f).coeffs)) == 0.0
        # QP = PQ = P
        pf = sp.constant_field(sp.average_projection(f), basis)
        assert np.max(np.abs(Q(pf).coeffs - pf.coeffs)) == 0.0

    def test_gap_to_average_projection_is_zero(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        Q = el.spectral_projection_Q(E, basis)
        assert el.projection_gap(Q) <= 1e-12

    def test_contour_quadrature_matches_eigen(self):
        basis = sp.build_basis(DOM, 16)
        for eps in ([1.0], [1.0, 4.0]):
            E = sp.diffusion(eps)
            Qe = el.spectral_projection_Q(E, basis, mode="eigen")
            Qc = el.spectral_projection_Q(E, basis, delta=0.5, mode="contour", contour_nodes=64)
            assert np.max(np.abs(Qc.weights - Qe.weights)) < 1e-8

    def test_oversized_delta_rejected_with_diagnostic(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        lam2 = E.second_eigenvalue(basis)
        with pytest.raises(ValueError, match=str(lam2)):
            el.spectral_projection_Q(E, basis, delta=lam2)


class TestEigenvalueTable:
    def test_single_component_closed_form(self):
        basis = sp.build_basis(DOM, 8)
        table = el.eigenvalue_table(sp.diffusion([1.0]), basis, 3)
        assert np.allclose(table, [1.0, np.pi**2 + 1, 4 * np.pi**2 + 1], rtol=0, atol=0)

    def test_two_components_merged(self):
        basis = sp.build_basis(DOM, 8)
        table = el.eigenvalue_table(sp.diffusion([1.0, 3.0]), basis, 4)
        assert np.allclose(table, [1.0, 1.0, np.pi**2 + 1, 3 * np.pi**2 + 1], rtol=0, atol=0)

    def test_first_value_multiplicity_n(self):
        basis = sp.build_basis(DOM, 8)
        table = el.eigenvalue_table(sp.diffusion([2.0, 5.0, 7.0]), basis, 5)
        assert np.all(table[:3] == 1.0) and np.all(table[3:] > 1.0)

    def test_doubling_eps_scales_tail(self):
        basis = sp.build_basis(DOM, 8)
        e1 = el.eigenvalue_table(sp.diffusion([1.0, 2.0]), basis, 10)
        e2 = el.eigenvalue_table(sp.diffusion([2.0, 4.0]), basis, 10)
        n = 2
        assert np.allclose(e2[n:] - 1.0, 2 * (e1[n:] - 1.0), rtol=1e-15)

    def test_divergence_lower_bound(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([3.0, 8.0])
        table = el.eigenvalue_table(E, basis, 20)
        assert np.all(table[2:] >= E.second_eigenvalue(basis))

    def test_out_of_range_J(self):
        basis = sp.build_basis(DOM, 4)
        with pytest.raises(ValueError):
            el.eigenvalue_table(sp.diffusion([1.0]), basis, 6)


class TestOptimalExample:
    def test_closed_form_recovered(self):
        for K in (4, 16, 128):
            basis = sp.build_basis(DOM, K)
            rep = el.optimal_example_check(1.0, basis)
            assert rep.closed_form_error < 1e-12

    def test_seminorm_value(self):
        basis = sp.build_basis(DOM, 8)
        rep = el.optimal_example_check(1.0, basis)
        # quadrature oracle: int_0^1 eps*(sin(2 pi x)/(2 pi eps))^2 dx
        x = np.linspace(0.0, 1.0, 200001)
        oracle = trapz((np.sin(2 * np.pi * x) / (2 * np.pi)) ** 2, x)
        assert rep.seminorm_sq == pytest.approx(oracle, abs=1e-10)
        assert rep.seminorm_sq == pytest.approx(0.0126651, abs=1e-7)
        assert rep.seminorm_sq == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-12)

    def test_scaling_exactly_inverse_in_eps(self):
        basis = sp.build_basis(DOM, 8)
        products = [el.optimal_example_check(e, basis).seminorm_sq * e for e in (1.0, 4.0, 16.0, 64.0)]
        assert max(products) - min(products) < 1e-10

    def test_nonzero_mean_rejected(self):
        basis = sp.build_basis(DOM, 8)
        g = sp.constant_field([1.0], basis)
        with pytest.raises(ValueError, match="zero-mean"):
            el.solve_pure_neumann(g, 1.0)
