import numpy as np
import pytest

from bigdiff import spectral as sp


DOM = sp.DomainSpec()

trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def fine_quadrature(fn, m=200001):
    """Composite-trapezoid oracle on (0,1), independent of the basis code."""
    x = np.linspace(0.0, 1.0, m)
    return trapz(fn(x), x)


def phi(k, x):
    return np.ones_like(x) if k == 0 else np.sqrt(2.0) * np.cos(k * np.pi * x)


class TestBasis:
    def test_eigenvalues_k2(self):
        # Rayleigh-quotient oracle: lam_k = int |phi_k'|^2 / int phi_k^2 with
        # the derivative taken by central differences.
        basis = sp.build_basis(DOM, 2)
        h = 1e-6
        x = np.linspace(h, 1.0 - h, 20001)
        for k in (0, 1, 2):
            dphi = (phi(k, x + h) - phi(k, x - h)) / (2 * h)
            num = trapz(dphi**2, x)
            den = trapz(phi(k, x) ** 2, x)
            assert basis.eigenvalues[k] == pytest.approx(num / den, rel=1e-4, abs=1e-4)
        assert np.allclose(basis.eigenvalues, [0.0, np.pi**2, 4 * np.pi**2], rtol=0, atol=0)

    def test_lambda1_value(self):
        basis = sp.build_basis(DOM, 4)
        assert basis.lambda1 == pytest.approx(9.8696044, abs=1e-7)
        assert basis.lambda1 == np.pi**2

    def test_gram_identity(self):
        basis = sp.build_basis(DOM, 8)
        phi = basis.synthesis_matrix()
        gram = phi @ phi.T / basis.quad_points
        assert np.max(np.abs(gram - np.eye(9))) < 1e-12

    def test_small_mode_count_rejected(self):
        with pytest.raises(ValueError):
            sp.build_basis(DOM, 1)


class TestTransforms:
    def test_constant_round_trip(self):
        basis = sp.build_basis(DOM, 8)
        f = sp.constant_field([3.5], basis)
        g = basis.to_grid(f.coeffs)
        assert np.allclose(g, 3.5, atol=0)
        back = basis.to_spectral(g)
        expected = np.zeros(9)
        expected[0] = 3.5
        assert np.max(np.abs(back[0] - expected)) < 1e-13

    def test_mode_one_round_trip(self):
        basis = sp.build_basis(DOM, 8)
        f = sp.mode_field(basis, 1)
        g = basis.to_grid(f.coeffs)
        assert np.max(np.abs(g[0] - np.sqrt(2) * np.cos(np.pi * basis.nodes))) < 1e-13
        back = basis.to_spectral(g)
        assert np.max(np.abs(back - f.coeffs)) < 1e-13

    def test_band_limited_round_trip_random(self):
        basis = sp.build_basis(DOM, 16)
        rng = np.random.default_rng(7)
        f = sp.random_field(basis, 2, rng)
        back = basis.to_spectral(basis.to_grid(f.coeffs))
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_quadratic_product_exact(self):
        # cos(pi x)^2 = 1/2 + 1/2 cos(2 pi x); expected coefficients frozen
        # from the trig identity: c_0 = 1/2, c_2 = 1/(2 sqrt(2)).
        basis = sp.build_basis(DOM, 8)
        vals = np.cos(np.pi * basis.nodes) ** 2
        coeffs = basis.to_spectral(vals[None, :])
        expected = np.zeros(9)
        expected[0] = 0.5
        expected[2] = 0.5 / np.sqrt(2.0)
        assert np.max(np.abs(coeffs[0] - expected)) < 1e-14
        for k in range(9):
            oracle = fine_quadrature(lambda x, k=k: np.cos(np.pi * x) ** 2 * phi(k, x))
            assert coeffs[0, k] == pytest.approx(oracle, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        b1 = sp.build_basis(DOM, 8)
        with pytest.raises(ValueError):
            sp.SpectralField(np.zeros((1, 5)), b1)
        b2 = sp.build_basis(DOM, 12)
        with pytest.raises(ValueError):
            sp.mode_field(b1, 1) + sp.mode_field(b2, 1)


class TestNorms:
    def test_energy_norm_constant_is_euclidean(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0, 5.0])
        f = sp.constant_field([3.0, -4.0], basis)
        assert sp.energy_norm(f, E) == pytest.approx(5.0, abs=1e-14)

    def test_energy_norm_mode_one(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        f = sp.mode_field(basis, 1)
        assert sp.energy_norm(f, E) == pytest.approx(np.sqrt(np.pi**2 + 1), abs=1e-12)
        assert sp.energy_norm(f, E) == pytest.approx(3.2969083, abs=1e-6)
        # quadrature oracle: int eps |phi_1'|^2 + phi_1^2
        h = 1e-6
        x = np.linspace(h, 1.0 - h, 40001)
        dphi = (phi(1, x + h) - phi(1, x - h)) / (2 * h)
        oracle = np.sqrt(trapz(dphi**2 + phi(1, x) ** 2, x))
        assert sp.energy_norm(f, E) == pytest.approx(oracle, abs=1e-4)

    def test_seminorm_scaling(self):
        # the gradient part |u|_E^2 - |u|_L2^2 = int E |u_x|^2 is linear in E
        basis = sp.build_basis(DOM, 8)
        rng = np.random.default_rng(3)
        f = sp.random_field(basis, 2, rng)

        def seminorm_sq(E):
            return sp.energy_norm(f, E) ** 2 - sp.l2_norm(f) ** 2

        e1 = sp.diffusion([1.0, 2.0])
        e4 = sp.diffusion([4.0, 8.0])
        assert seminorm_sq(e4) == pytest.approx(4 * seminorm_sq(e1), rel=1e-12)

    def test_parseval(self):
        basis = sp.build_basis(DOM, 16)
        rng = np.random.default_rng(11)
        f = sp.random_field(basis, 3, rng)
        grid_sq = np.mean(basis.to_grid(f.coeffs) ** 2, axis=1).sum()
        assert grid_sq == pytest.approx(sp.l2_norm(f) ** 2, rel=1e-12)

    def test_energy_dominates_l2_and_monotone(self):
        basis = sp.build_basis(DOM, 8)
        rng = np.random.default_rng(5)
        f = sp.random_field(basis, 2, rng)
        prev = sp.l2_norm(f)
        for scale in (1.0, 2.0, 4.0):
            en = sp.energy_norm(f, sp.diffusion([scale, 3 * scale]))
            assert en >= prev - 1e-14
            prev = en


class TestProjectionAndOperator:
    def test_average_is_mode_zero(self):
        basis = sp.build_basis(DOM, 2)
        f = sp.SpectralField([3.0, 0.5, -0.2], basis)
        assert sp.average_projection(f)[0] == 3.0

    def test_average_of_mode_one_is_zero(self):
        basis = sp.build_basis(DOM, 4)
        assert sp.average_projection(sp.mode_field(basis, 1))[0] == 0.0

    def test_average_matches_fine_quadrature(self):
        basis = sp.build_basis(DOM, 12)
        rng = np.random.default_rng(23)
        f = sp.random_field(basis, 1, rng)

        def evaluate(x):
            total = np.zeros_like(x)
            for k in range(13):
                total += f.coeffs[0, k] * phi(k, x)
            return total

        assert sp.average_projection(f)[0] == pytest.approx(fine_quadrature(evaluate), abs=1e-10)

    def test_projection_idempotent(self):
        basis = sp.build_basis(DOM, 8)
        rng = np.random.default_rng(2)
        f = sp.random_field(basis, 2, rng)
        v = sp.average_projection(f)
        lifted = sp.constant_field(v, basis)
        assert np.allclose(sp.average_projection(lifted), v, atol=0)
        # P(I - P) = 0
        residual = f - lifted
        assert np.allclose(sp.average_projection(residual), 0.0, atol=1e-15)

    def test_operator_on_constants(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([7.0, 2.0])
        f = sp.constant_field([1.5, -2.5], basis)
        out = E.gains(basis) * f.coeffs
        assert np.max(np.abs(out - f.coeffs)) == 0.0

    def test_operator_on_mode_one(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        out = E.gains(basis) * sp.mode_field(basis, 1).coeffs
        expected = sp.mode_field(basis, 1, amplitude=2 * np.pi**2 + 1)
        assert np.max(np.abs(out - expected.coeffs)) < 1e-12

    def test_operator_linearity(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 3.0])
        rng = np.random.default_rng(17)
        f = sp.random_field(basis, 2, rng)
        g = sp.random_field(basis, 2, rng)
        gains = E.gains(basis)
        lhs = gains * (f + g).coeffs
        rhs = gains * f.coeffs + gains * g.coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_operator_symmetric_positive(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 0.5])
        rng = np.random.default_rng(29)
        f = sp.random_field(basis, 2, rng)
        g = sp.random_field(basis, 2, rng)
        af, ag = E.gains(basis) * f.coeffs, E.gains(basis) * g.coeffs
        pair = float(np.sum(af * g.coeffs))
        pair_t = float(np.sum(f.coeffs * ag))
        assert pair == pytest.approx(pair_t, rel=1e-12)
        assert float(np.sum(af * f.coeffs)) >= sp.l2_norm(f) ** 2 - 1e-12

    def test_second_eigenvalue_identity_bit_exact(self):
        basis = sp.build_basis(DOM, 16)
        for eps in ([1.0], [3.0, 7.0], [0.25, 5.0, 0.75]):
            E = sp.diffusion(eps)
            gains = E.gains(basis)
            above_one = np.sort(gains[gains > 1.0])
            assert above_one[0] == E.second_eigenvalue(basis)


class TestDiffusionSpec:
    def test_d_eps_is_min(self):
        assert sp.diffusion([5.0, 2.0, 9.0]).d_eps == 2.0

    def test_m0_violation_rejected(self):
        with pytest.raises(ValueError):
            sp.DiffusionSpec(eps=np.array([0.5, 2.0]), m0=1.0)
        with pytest.raises(ValueError):
            sp.diffusion([1.0], m0=-1.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            sp.DomainSpec(length=2.0)


class TestEnergyNormHelper:
    def test_embed_matches_norm(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 4.0])
        norm = sp.EnergyNorm(E, basis)
        rng = np.random.default_rng(31)
        f = sp.random_field(basis, 2, rng)
        g = sp.random_field(basis, 2, rng)
        stack = np.stack([f.coeffs, g.coeffs])
        emb = norm.embed(stack)
        assert np.linalg.norm(emb[0] - emb[1]) == pytest.approx(sp.energy_norm(f - g, E), rel=1e-13)
        assert np.linalg.norm(emb[0]) == pytest.approx(sp.energy_norm(f, E), rel=1e-13)

    def test_immutability(self):
        basis = sp.build_basis(DOM, 4)
        f = sp.mode_field(basis, 1)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0
