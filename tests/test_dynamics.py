
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigdiff import attractors as at
from bigdiff import dynamics as dyn
from bigdiff import spectral as sp

DOM = sp.DomainSpec()

trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection oracle."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


USTAR = bisect_root(lambda u: 2 * np.tanh(u) - u, 1.0, 3.0)


class TestNonlinearityLibrary:
    @pytest.mark.parametrize("factory,n", [
        (lambda: dyn.tanh_pitchfork(2.0), 1),
        (lambda: dyn.tanh_pitchfork(0.5), 1),
        (lambda: dyn.saturated_cubic(2.0), 1),
        (lambda: dyn.coupled_tanh(), 2),
        (lambda: dyn.zero_nonlinearity(), 1),
    ])
    def test_builtins_pass_validation(self, factory, n):
        dyn.validate_nonlinearity(factory(), n, rng=np.random.default_rng(1))

    def test_linear_desk_variant_skips_bound(self):
        F = dyn.linear_nonlinearity(5.0)
        assert F.bound is None
        dyn.validate_nonlinearity(F, 1, rng=np.random.default_rng(2))

    def test_bound_violation_detected(self):
        bad = dyn.Nonlinearity("bad", {}, lambda u: 2 * u, lambda u: dyn._diagonal_jacobian(np.full_like(u, 2.0)), bound=1.0, lip=2.0)
        with pytest.raises(ValueError, match="bound"):
            dyn.validate_nonlinearity(bad, 1)

    def test_jacobian_mismatch_detected(self):
        bad = dyn.Nonlinearity("bad", {}, lambda u: np.tanh(u), lambda u: dyn._diagonal_jacobian(np.ones_like(u)), bound=1.0, lip=1.0)
        with pytest.raises(ValueError, match="Jacobian"):
            dyn.validate_nonlinearity(bad, 1)


def pseudospectral_F(u, F):
    """F(u) projected onto the basis, as the ETD stepper evaluates it."""
    return dyn._galerkin_F(F, u.coeffs, u.basis)


_BLOCK_F = [(dyn.tanh_pitchfork(2.0), 1), (dyn.coupled_tanh(1.2, 0.6), 2)]


class TestGalerkinBlocks:
    # the transforms run in fixed blocks of GEMM_ROWS coefficient lines, so a
    # row projects bit for bit alike whatever its place and its block mates
    @pytest.mark.parametrize("K", [16, 32, 128])
    @pytest.mark.parametrize("F,n", _BLOCK_F, ids=["tanh", "coupled_tanh"])
    def test_batch_rows_project_as_alone(self, K, F, n):
        basis = sp.build_basis(DOM, K)
        rng = np.random.default_rng(K + n)
        # 1..13 rows: every remainder of the line count mod GEMM_ROWS
        for rows in range(1, 14):
            c = rng.standard_normal((rows, n, K + 1))
            batch = dyn._galerkin_F(F, c, basis)
            assert batch.shape == c.shape
            for i in range(rows):
                alone = dyn._galerkin_F(F, c[i], basis)
                assert alone.shape == (n, K + 1)
                assert np.array_equal(batch[i], alone), (rows, i)

    @pytest.mark.parametrize("K", [16, 32, 128])
    @pytest.mark.parametrize("F,n", _BLOCK_F, ids=["tanh", "coupled_tanh"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_leaves_the_others(self, K, F, n, bad):
        # a blown-up row stepping on as ballast shares a block with live rows
        basis = sp.build_basis(DOM, K)
        c = np.random.default_rng(K).standard_normal((7, n, K + 1))
        clean = dyn._galerkin_F(F, c, basis)
        c[2, n - 1, 3] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            dirty = dyn._galerkin_F(F, c, basis)
        assert not np.array_equal(dirty[2], clean[2])
        assert np.array_equal(np.delete(dirty, 2, axis=0), np.delete(clean, 2, axis=0))


class TestEvaluateF:
    def test_zero_at_zero(self):
        basis = sp.build_basis(DOM, 8)
        F = dyn.tanh_pitchfork(2.0)
        out = pseudospectral_F(sp.constant_field([0.0], basis), F)
        assert np.max(np.abs(out)) == 0.0

    def test_constant_maps_to_constant(self):
        basis = sp.build_basis(DOM, 8)
        F = dyn.tanh_pitchfork(2.0)
        out = pseudospectral_F(sp.constant_field([0.7], basis), F)
        assert out[0, 0] == pytest.approx(2 * np.tanh(0.7), rel=1e-15)
        assert np.max(np.abs(out[0, 1:])) < 1e-15

    def test_small_amplitude_linearization(self):
        # 2 tanh(a phi_1) = 2 a phi_1 + O(a^3); Taylor oracle at a = 1e-4
        basis = sp.build_basis(DOM, 16)
        F = dyn.tanh_pitchfork(2.0)
        a = 1e-4
        out = pseudospectral_F(sp.mode_field(basis, 1, amplitude=a), F)
        expected = sp.mode_field(basis, 1, amplitude=2 * a)
        assert np.max(np.abs(out - expected.coeffs)) < 1e-11


class TestSplitting:
    # evolve_pde splits every sample u = v + w into the averages v (mode 0)
    # and the energy norm of the mean-free rest w; T = 0 keeps only u0
    def test_constant_split(self):
        basis = sp.build_basis(DOM, 8)
        traj = dyn.evolve_pde(sp.constant_field([2.5, -1.0], basis), sp.diffusion([1.0, 2.0]),
                              dyn.zero_nonlinearity(), T=0.0)
        assert np.allclose(traj.v[0], [2.5, -1.0], atol=0)
        assert traj.w_xhalf[0] == 0.0

    def test_mode_one_split(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        f = sp.mode_field(basis, 1)
        traj = dyn.evolve_pde(f, E, dyn.zero_nonlinearity(), T=0.0)
        assert traj.v[0, 0] == 0.0
        assert traj.w_xhalf[0] == pytest.approx(sp.energy_norm(f, E), rel=1e-15)

    def test_recombination_exact(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0, 3.0])
        rng = np.random.default_rng(4)
        f = sp.random_field(basis, 2, rng)
        traj = dyn.evolve_pde(f, E, dyn.zero_nonlinearity(), T=0.0)
        assert np.array_equal(traj.v[0], sp.average_projection(f))
        w = f - sp.constant_field(traj.v[0], basis)
        assert np.max(np.abs(sp.average_projection(w))) == 0.0
        assert traj.w_xhalf[0] == pytest.approx(sp.energy_norm(w, E), rel=1e-14)


class TestSQSplitting:
    # for u = v + w, mode 0 of the projected F(u) is S(v, w) = int F(v + w) dx
    # and the other modes are the mean-free part Q(v, w)
    def test_zero_w_reduces_to_F(self):
        basis = sp.build_basis(DOM, 8)
        F = dyn.tanh_pitchfork(2.0)
        out = pseudospectral_F(sp.constant_field([0.9], basis), F)
        assert out[0, 0] == pytest.approx(2 * np.tanh(0.9), rel=1e-14)
        assert np.sqrt(np.sum(out[:, 1:] ** 2)) < 1e-14

    def test_odd_symmetry_zeroes_average(self):
        # F odd, v = 0, w proportional to phi_1 (odd about x = 1/2)
        basis = sp.build_basis(DOM, 16)
        F = dyn.tanh_pitchfork(2.0)
        out = pseudospectral_F(sp.mode_field(basis, 1, amplitude=0.8), F)
        assert abs(out[0, 0]) < 1e-14

    def test_matches_fine_quadrature(self):
        basis = sp.build_basis(DOM, 128)
        F = dyn.tanh_pitchfork(2.0)
        u = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, amplitude=0.3)
        x = np.linspace(0.0, 1.0, 400001)
        values = 2 * np.tanh(1.0 + 0.3 * np.sqrt(2) * np.cos(np.pi * x))
        s_oracle = trapz(values, x)
        out = pseudospectral_F(u, F)
        assert out[0, 0] == pytest.approx(s_oracle, abs=1e-10)
        # Q on the grid equals F(v+w) minus its average
        q = out.copy()
        q[:, 0] = 0.0
        q_vals = basis.to_grid(q)[0]
        direct = 2 * np.tanh(1.0 + 0.3 * np.sqrt(2) * np.cos(np.pi * basis.nodes)) - s_oracle
        assert np.max(np.abs(q_vals - direct)) < 1e-10


class TestLinearSemigroup:
    def test_identity_at_zero(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([3.0])
        rng = np.random.default_rng(8)
        f = sp.random_field(basis, 1, rng)
        out = dyn.linear_semigroup_apply(f, E, 0.0)
        assert np.max(np.abs(out.coeffs - f.coeffs)) == 0.0

    def test_constant_decay(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([3.0])
        out = dyn.linear_semigroup_apply(sp.constant_field([2.0], basis), E, 1.0)
        assert out.coeffs[0, 0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-15)

    def test_semigroup_property(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([0.5, 2.0])
        rng = np.random.default_rng(10)
        f = sp.random_field(basis, 2, rng)
        once = dyn.linear_semigroup_apply(f, E, 0.7)
        twice = dyn.linear_semigroup_apply(once, E, 0.3)
        direct = dyn.linear_semigroup_apply(f, E, 1.0)
        assert np.max(np.abs(twice.coeffs - direct.coeffs)) < 1e-12


class TestKernelBound:
    def test_brute_force_oracle(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.5, 4.0])
        for t in (1e-4, 1e-2, 0.3, 2.0):
            gains = [E.eps[i] * basis.eigenvalues[k] + 1.0
                     for i in range(2) for k in range(1, 17)]
            oracle = max(np.exp(-a * t) * np.sqrt(a) for a in gains)
            assert dyn.semigroup_kernel_bound(E, basis, t) == pytest.approx(oracle, rel=1e-14)

    def test_large_t_closed_form(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([2.0])
        lam2 = E.second_eigenvalue(basis)
        t = 1.0  # 1/(2t) = 0.5 < lam2
        assert dyn.semigroup_kernel_bound(E, basis, t) == pytest.approx(np.exp(-lam2 * t) * np.sqrt(lam2), rel=1e-14)

    def test_small_t_calculus_bound(self):
        # max_a exp(-a t) sqrt(a) over a > 0 sits at a = 1/(2t)
        basis = sp.build_basis(DOM, 64)
        E = sp.diffusion([1.0])
        for t in (1e-5, 1e-4, 1e-3):
            assert dyn.semigroup_kernel_bound(E, basis, t) <= (2 * np.e * t) ** -0.5 + 1e-14

    def test_two_case_proof_bound(self):
        basis = sp.build_basis(DOM, 32)
        E = sp.diffusion([1.0])
        lam2 = E.second_eigenvalue(basis)
        for t in (1e-3, 0.01, 0.1, 1.0):
            kappa = dyn.semigroup_kernel_bound(E, basis, t)
            bound = np.exp(-lam2 * t) * max(np.sqrt(lam2), (2 * np.e * t) ** -0.5 * np.exp(lam2 * t))
            assert kappa <= bound + 1e-12

    def test_worst_case_field_attains_kappa(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        t = 0.05
        gains = E.gains(basis)[0, 1:]
        k_star = 1 + int(np.argmax(np.exp(-gains * t) * np.sqrt(gains)))
        z = sp.mode_field(basis, k_star)
        out = dyn.linear_semigroup_apply(z, E, t)
        ratio = sp.energy_norm(out, E) / sp.l2_norm(z)
        assert ratio == pytest.approx(dyn.semigroup_kernel_bound(E, basis, t), rel=1e-13)

    def test_nonpositive_t_rejected(self):
        basis = sp.build_basis(DOM, 8)
        with pytest.raises(ValueError):
            dyn.semigroup_kernel_bound(sp.diffusion([1.0]), basis, 0.0)


class TestOperationalConstants:
    def test_mu_formula_at_unit_M(self):
        # arbitrary-precision oracle: sqrt(2 sqrt(pi)) and (mu-1)/pi^2
        import mpmath as mp
        mp.mp.dps = 30
        mu_oracle = float(mp.sqrt(2 * mp.sqrt(mp.pi)))
        assert dyn.mu_from_M(1.0) == pytest.approx(mu_oracle, abs=1e-12)
        assert dyn.mu_from_M(1.0) == pytest.approx(1.8827925, abs=1e-6)
        mu_bar = (dyn.mu_from_M(1.0) - 1.0) / np.pi**2
        assert mu_bar == pytest.approx(float((mp.sqrt(2 * mp.sqrt(mp.pi)) - 1) / mp.pi**2), abs=1e-12)
        assert mu_bar == pytest.approx(0.0894456, abs=1e-6)

    def test_gamma_half(self):
        assert np.sqrt(np.pi) == pytest.approx(1.7724539, abs=1e-7)

    def test_M_matches_closed_form_on_horizon(self):
        # On (0, T*] the supremum of kappa(t) e^{lam2 t} sqrt(t) is sqrt(lam2 T*)
        # (the integrand equals sqrt(lam2 t) once t > 1/(2 lam2)), so the
        # operational M grows with both the horizon and d.
        basis = sp.build_basis(DOM, 32)
        for d in (1.0, 4.0, 16.0):
            E = sp.diffusion([d])
            consts = dyn.compute_M_and_mu(E, basis, horizon=10.0)
            lam2 = E.second_eigenvalue(basis)
            assert consts.M == pytest.approx(np.sqrt(lam2 * 10.0), rel=1e-6)
            assert consts.mu == pytest.approx(dyn.mu_from_M(consts.M), rel=1e-15)
            assert consts.mu_bar == pytest.approx((consts.mu - 1) / np.pi**2, rel=1e-15)

    def test_M_increases_with_d(self):
        basis = sp.build_basis(DOM, 16)
        values = [dyn.compute_M_and_mu(sp.diffusion([d]), basis, horizon=10.0).M
                  for d in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEvolvePDE:
    def test_linear_problem_exact(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        F = dyn.zero_nonlinearity()
        u0 = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, amplitude=0.5)
        traj = dyn.evolve_pde(u0, E, F, T=1.0, dt=1e-3, stride=100)
        lam2 = E.second_eigenvalue(basis)
        for i, t in enumerate(traj.times):
            assert traj.coeffs[i, 0, 0] == pytest.approx(np.exp(-t), rel=1e-10)
            assert traj.coeffs[i, 0, 1] == pytest.approx(0.5 * np.exp(-lam2 * t), rel=1e-10)

    def test_partial_final_step_rejected(self):
        # T must be a whole number of steps: 1.0 / 0.3 is not
        basis = sp.build_basis(DOM, 8)
        with pytest.raises(ValueError, match="whole number"):
            dyn.evolve_pde(sp.constant_field([0.3], basis), sp.diffusion([1.0]),
                           dyn.zero_nonlinearity(), T=1.0, dt=0.3)

    def test_constant_subspace_matches_ode(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([4.0])
        F = dyn.tanh_pitchfork(2.0)
        traj = dyn.evolve_pde(sp.constant_field([0.3], basis), E, F, T=2.0, dt=1e-3, stride=10)
        assert np.max(traj.w_xhalf) < 1e-11  # constants stay constant
        times, states = dyn.evolve_ode(np.array([0.3]), F, T=2.0, dt=1e-3, stride=10)
        assert np.allclose(times, traj.times, atol=1e-12)
        # agreement is limited by the second-order ETD truncation error
        assert np.max(np.abs(states[:, 0] - traj.v[:, 0])) < 5e-6

    def test_constant_subspace_matches_ode_refined(self):
        # at dt = 2e-5 the ETD2RK truncation error drops below 1e-10
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([4.0])
        F = dyn.tanh_pitchfork(2.0)
        traj = dyn.evolve_pde(sp.constant_field([0.3], basis), E, F, T=0.5, dt=2e-5, stride=2500)
        _, states = dyn.evolve_ode(np.array([0.3]), F, T=0.5, dt=1e-3, stride=50)
        assert np.max(np.abs(states[:, 0] - traj.v[:, 0])) < 1e-10

    def test_etd2rk_second_order(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        F = dyn.tanh_pitchfork(2.0)
        u0 = sp.constant_field([0.4], basis) + sp.mode_field(basis, 1, amplitude=0.3)
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            traj = dyn.evolve_pde(u0, E, F, T=1.0, dt=dt, stride=10**6)
            finals[dt] = traj.coeffs[-1]
        e1 = np.linalg.norm(finals[4e-3] - finals[2e-3])
        e2 = np.linalg.norm(finals[2e-3] - finals[1e-3])
        order = np.log2(e1 / e2)
        assert 1.7 < order < 2.3

    def test_blow_up_aborts_with_time(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        F = dyn.linear_nonlinearity(6.0)
        u0 = sp.constant_field([10.0], basis)
        with pytest.raises(dyn.BlowUpError) as err:
            dyn.evolve_pde(u0, E, F, T=10.0, dt=1e-3)
        assert 0 < err.value.time < 10.0

    def test_bookkeeping_identity(self):
        # central differences of v along the trajectory reproduce -v + S(v, w)
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        F = dyn.tanh_pitchfork(2.0)
        u0 = sp.constant_field([0.5], basis) + sp.mode_field(basis, 1, amplitude=0.4)
        traj = dyn.evolve_pde(u0, E, F, T=2.0, dt=1e-3, stride=10)
        t, v = traj.times, traj.v[:, 0]
        for i in range(5, len(t) - 5, 7):
            dv = (v[i + 1] - v[i - 1]) / (t[i + 1] - t[i - 1])
            s = np.mean(F(basis.to_grid(traj.coeffs[i])), axis=1)  # S(v, w)
            rhs = -v[i] + s[0]
            assert dv == pytest.approx(rhs, rel=1e-3, abs=1e-8)

    def test_dissipative_absorbing_set(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        F = dyn.tanh_pitchfork(2.0)
        u0 = sp.constant_field([3.5], basis) + sp.mode_field(basis, 1, amplitude=1.5)
        traj = dyn.evolve_pde(u0, E, F, T=8.0, dt=1e-3, stride=50)
        tail = traj.times > 4.0
        assert np.all(np.abs(traj.v[tail, 0]) <= F.bound + 0.1)
        assert np.all(traj.w_xhalf[tail] <= F.bound)


# one nonlinearity per component count; all are evaluated through the grid
_STEPPER_F = {1: [dyn.tanh_pitchfork(2.0), dyn.saturated_cubic(2.0)],
              2: [dyn.coupled_tanh(1.2, 0.6)]}


@st.composite
def stepper_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    F = draw(st.sampled_from(_STEPPER_F[n]))
    basis = sp.build_basis(DOM, draw(st.sampled_from([4, 8, 16, 32])))
    eps = [draw(st.floats(0.25, 16.0)) for _ in range(n)]
    dt = draw(st.sampled_from([1e-3, 5e-3, 1e-2]))
    return basis, sp.diffusion(eps), F, dt


def constant_forcing(b):
    """F(u) = b for every u, one entry of b per component."""
    b = np.asarray(b, dtype=float)

    def fn(u):
        return np.zeros_like(u) + b.reshape((-1,) + (1,) * (u.ndim - 1))

    def jac(u):
        return dyn._diagonal_jacobian(np.zeros_like(u))

    return dyn.Nonlinearity("constant", {}, fn, jac, float(np.linalg.norm(b)), 0.0)


class TestEtdStepperProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases(), rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           per_row=st.booleans(), zero=st.booleans(), steps=st.integers(1, 6))
    def test_batch_step_equals_row_steps(self, case, rows, seed, per_row, zero, steps):
        # per_row: every row steps under its own E and dt, with its own running time,
        # and the mean-free energy of the batch with stacked gains is each row's own
        basis, E, F, dt = case
        F = dyn.zero_nonlinearity() if zero else F
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((rows, E.components, basis.mode_count + 1))
        if not per_row:
            stepper = dyn.EtdStepper(basis, E, F, dt)
            batch = stepper.step(c)
            assert batch.shape == c.shape
            for i in range(rows):
                assert np.array_equal(batch[i], stepper.step(c[i]))
            return
        Es = [sp.diffusion(E.eps * rng.uniform(0.5, 2.0, E.components)) for _ in range(rows)]
        dts = dt * rng.uniform(0.5, 2.0, rows)
        stepper = dyn.EtdStepper(basis, Es, F, dts)
        batch, t = dyn.propagate(stepper, c, steps)
        assert batch.shape == c.shape and t.shape == (rows,)
        energy = sp.mean_free_energy(batch, np.array([e.gains(basis) for e in Es]))
        for i in range(rows):
            alone, t_alone = dyn.propagate(dyn.EtdStepper(basis, Es[i], F, dts[i]), c[i], steps)
            assert np.array_equal(batch[i], alone) and t[i] == t_alone
            assert energy[i] == sp.mean_free_energy(alone, Es[i].gains(basis))

    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases(), owner=st.lists(st.integers(0, 3), min_size=1, max_size=12),
           growth=st.floats(0.0, 20.0), steps=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_sweep_stepper_fails_only_the_d_that_blew_up(self, case, owner, growth, steps,
                                                         seed):
        # row r steps under Es[owner[r]]; F = (1 + growth) u grows mode 0 like
        # e^{growth t}, and the rows of each big d start near BLOWUP_LIMIT
        basis, E, _, dt = case
        F = dyn.linear_nonlinearity(1.0 + growth)
        rng = np.random.default_rng(seed)
        Es = [sp.diffusion(E.eps * rng.uniform(0.5, 2.0, E.components)) for _ in range(4)]
        owner = np.array(owner)
        big = rng.random(len(Es)) < 0.5
        c = rng.standard_normal((len(owner), E.components, basis.mode_count + 1))
        c[:, :, 0] += big[owner, None] * rng.uniform(0.5, 2.0, (len(owner), 1)) * dyn.BLOWUP_LIMIT
        stepper = dyn.EtdStepper(basis, Es, F, dt, owner)
        batch, _ = dyn.propagate(stepper, c, steps)
        expected = {}
        for i in np.unique(owner):
            own = owner == i
            try:
                dyn.propagate(dyn.EtdStepper(basis, Es[i], F, dt), c[own], steps)
            except dyn.BlowUpError as err:
                expected[int(i)] = str(err)
                assert not batch[own].any()  # zeroed, and F(0) = 0 keeps the ballast at 0
        assert {i: str(err) for i, err in stepper.failed.items()} == expected
        for r in np.flatnonzero(~np.isin(owner, list(expected))):
            alone, _ = dyn.propagate(dyn.EtdStepper(basis, Es[owner[r]], F, dt), c[r], steps)
            assert np.array_equal(batch[r], alone)

    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases(), steps=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_zero_forcing_is_the_exact_semigroup(self, case, steps, seed):
        basis, E, _, dt = case
        stepper = dyn.EtdStepper(basis, E, dyn.zero_nonlinearity(), dt)
        u = sp.random_field(basis, E.components, np.random.default_rng(seed))
        c = u.coeffs
        for _ in range(steps):
            c = stepper.step(c)
        exact = dyn.linear_semigroup_apply(u, E, steps * dt).coeffs
        np.testing.assert_allclose(c, exact, rtol=1e-12, atol=1e-300)
        one = dyn.linear_semigroup_apply(u, E, dt).coeffs
        assert np.array_equal(stepper.step(u.coeffs), one)

    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases(), forcing=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_constant_forcing_is_variation_of_constants(self, case, forcing, seed):
        # u' = -A u + b with constant b has u(h) = e^{-hA} u + A^{-1}(I - e^{-hA}) b,
        # and b lives in mode 0, whose gain is 1; ETD2RK is exact for it
        basis, E, _, dt = case
        b = np.array(forcing[:E.components])
        c = sp.random_field(basis, E.components, np.random.default_rng(seed)).coeffs
        exact = np.exp(-dt * E.gains(basis)) * c
        exact[:, 0] += (1.0 - np.exp(-dt)) * b
        got = dyn.EtdStepper(basis, E, constant_forcing(b), dt).step(c)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-15)


class TestPropagate:
    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases(),
           kind=st.sampled_from(["rk4", "ode_etd", "etd", "etd_per_row", "etd_own_dt"]),
           steps=st.integers(0, 24), stride=st.integers(1, 4),
           retire=st.lists(st.none() | st.integers(1, 8), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(case=(sp.build_basis(DOM, 8), sp.diffusion([1.0]), dyn.tanh_pitchfork(2.0), 1e-2),
             kind="etd_own_dt", steps=12, stride=2, retire=[2, None, 4], seed=0)
    def test_batch_with_retiring_rows_equals_each_row_alone(self, case, kind, steps, stride,
                                                            retire, seed):
        # row i retires at its retire[i]-th sample (None: never); with etd_per_row
        # every row steps under its own E and the shared dt, with etd_own_dt under
        # its own E and dt, and propagate steps on with the stepper of the kept
        # rows (EtdStepper.rows) and their running times when rows retire
        basis, E, F, dt = case
        rng = np.random.default_rng(seed)
        if kind in ("rk4", "ode_etd"):
            def stepper_of(rows):
                return (dyn._OdeStepper if kind == "rk4" else dyn.OdeEtdStepper)(F, dt)

            starts = rng.standard_normal((len(retire), E.components))
        else:
            Es = [sp.diffusion(E.eps * rng.uniform(0.5, 2.0, E.components)) for _ in retire]
            dts = dt * rng.uniform(0.5, 2.0, len(retire)) if kind == "etd_own_dt" else None

            def stepper_of(rows):
                if kind == "etd":
                    return dyn.EtdStepper(basis, E, F, dt)
                if len(rows) == 1:  # alone: a scalar stepper of the row's own E and dt
                    return dyn.EtdStepper(basis, Es[rows[0]], F,
                                          dt if dts is None else dts[rows[0]])
                return dyn.EtdStepper(basis, Es, F, dt if dts is None else dts, owner=rows)

            starts = 0.5 * rng.standard_normal((len(retire), E.components,
                                                basis.mode_count + 1))

        def run(rows):
            samples = {i: [] for i in rows}
            active = list(rows)
            taken = [0]

            def sample(batch, t):
                taken[0] += 1
                keep = np.array([retire[i] != taken[0] for i in active])
                for i, row, t_row in zip(active, batch, np.broadcast_to(t, len(batch))):
                    samples[i].append((t_row, row))
                active[:] = [i for i, k in zip(active, keep) if k]
                return keep

            final, _ = dyn.propagate(stepper_of(rows), starts[list(rows)], steps, stride, sample)
            return samples, final

        together, final = run(list(range(len(retire))))
        survivors = [i for i, r in enumerate(retire) if r is None or r > steps // stride]
        assert len(final) == len(survivors)
        for i in range(len(retire)):
            alone, final_alone = run([i])
            expected = steps // stride if retire[i] is None else min(retire[i], steps // stride)
            assert len(alone[i]) == len(together[i]) == expected
            for (t_a, row_a), (t_b, row_b) in zip(alone[i], together[i]):
                assert t_a == t_b and np.array_equal(row_a, row_b)
            if i in survivors:
                assert np.array_equal(final[survivors.index(i)], final_alone[0])

    def test_kept_rows_keep_their_own_weights(self):
        basis = sp.build_basis(DOM, 8)
        Es = [sp.diffusion([d]) for d in (1.0, 2.0, 4.0)]
        stepper = dyn.EtdStepper(basis, Es, dyn.tanh_pitchfork(2.0), 1e-2)
        kept = stepper.rows(np.array([True, False, True]))
        alone = dyn.EtdStepper(basis, Es[2], dyn.tanh_pitchfork(2.0), 1e-2)
        assert kept.exp_full.shape == (2, 1, 9)
        assert np.array_equal(kept.w2[1], alone.w2) and np.array_equal(kept.w1[0], stepper.w1[0])
        assert list(kept.owner) == [0, 2] and kept.failed is stepper.failed
        shared = dyn.EtdStepper(basis, Es[0], dyn.tanh_pitchfork(2.0), 1e-2)
        assert shared.rows(np.array([True, False])) is shared


def textbook_rk4(v, h, F):
    """Oracle: the classic RK4 formula, one new array per operation."""
    def rhs(u):
        return -u + F(u)

    k1 = rhs(v)
    k2 = rhs(v + 0.5 * h * k1)
    k3 = rhs(v + 0.5 * h * k2)
    k4 = rhs(v + h * k3)
    return v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_inputs(rng, n, specials):
    """(n, rows) states of 1-64 rows, a share of whose entries are `specials`."""
    v = rng.normal(0.0, 2.0, (n, int(rng.integers(1, 65))))
    hit = rng.random(v.shape) < 0.2
    v[hit] = rng.choice(specials, size=int(hit.sum()))
    return v


class TestRk4Step:
    FACTORIES = sorted(dyn.NONLINEARITIES)
    # the step always evaluates its own k1; the "own-k1" ids name that case
    OWN_K1 = pytest.mark.parametrize("k1", ["own"], ids=["own-k1"])

    @pytest.mark.parametrize("specials", [[0.0, -0.0], [0.0, -0.0, np.inf, -np.inf, np.nan]],
                             ids=["signed-zeros", "nonfinite"])
    @OWN_K1
    @pytest.mark.parametrize("name", FACTORIES)
    def test_is_the_textbook_formula_bit_for_bit(self, name, k1, specials):
        # a NaN's payload may follow operand order, so NaNs compare as NaNs;
        # every other entry, +-inf and signed zeros included, bit for bit
        F = dyn.nonlinearity_from_spec(name)
        n = 2 if name == "coupled_tanh" else 1
        rng = np.random.default_rng([41, self.FACTORIES.index(name), len(specials)])
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(20):
                v = rk4_inputs(rng, n, specials)
                h = float(rng.uniform(1e-4, 0.5))
                stepper = dyn._OdeStepper(F, h)
                got = dyn._rk4_step(v, h, stepper.rhs)
                want = textbook_rk4(v, h, F)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()
                assert stepper.step(v.T, 0.0).T.tobytes() == got.tobytes()

    @OWN_K1
    def test_leaves_v_and_a_supplied_k1_unchanged(self, k1):
        F = dyn.coupled_tanh()
        v = np.random.default_rng(47).normal(0.0, 2.0, (2, 30))
        v_before = v.copy()
        got = dyn._rk4_step(v, 0.1, dyn._OdeStepper(F, 0.1).rhs)
        assert v.tobytes() == v_before.tobytes()
        assert not np.shares_memory(got, v)


class TestOdeEtdStepper:
    @pytest.mark.parametrize("dt", [1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.1, 1.0])
    @pytest.mark.parametrize("eps", [[1.0], [0.25], [64.0], [1.0, 2.0]])
    def test_weights_are_the_pde_steppers_mode0_weights(self, dt, eps):
        # the gain of mode 0 is eps lam_0 + 1 = 1 for every E, so the ODE's
        # weights are the PDE's, bit for bit, on both sides of the phi series
        # switch at |z| = 1e-4
        E = sp.diffusion(eps)
        F = dyn.coupled_tanh() if len(eps) == 2 else dyn.tanh_pitchfork(2.0)
        pde = dyn.EtdStepper(sp.build_basis(DOM, 8), E, F, dt)
        ode = dyn.OdeEtdStepper(F, dt)
        for mine, theirs in ((ode.exp, pde.exp_full), (ode.w1, pde.w1), (ode.w2, pde.w2)):
            assert np.array_equal(np.full(len(eps), mine), theirs[:, 0])

    def test_second_order_against_the_rk4_reference(self):
        # halving dt quarters the gap to a fine RK4 reference trajectory
        F = dyn.tanh_pitchfork(2.0)
        _, ref = dyn.evolve_ode(np.array([0.3]), F, T=2.0, dt=1e-4, stride=10**9)
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            final, _ = dyn.propagate(dyn.OdeEtdStepper(F, dt), np.array([[0.3]]),
                                     dyn._step_count(2.0, dt))
            gaps.append(abs(final[0, 0] - ref[-1, 0]))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_rejects_a_nonpositive_dt(self):
        with pytest.raises(ValueError):
            dyn.OdeEtdStepper(dyn.tanh_pitchfork(2.0), 0.0)


class TestEvolveODE:
    def test_pure_decay(self):
        times, states = dyn.evolve_ode(np.array([1.0]), dyn.zero_nonlinearity(), T=1.0, dt=1e-3)
        assert states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_equilibrium_is_fixed(self):
        _, states = dyn.evolve_ode(np.array([0.0]), dyn.tanh_pitchfork(2.0), T=5.0, dt=1e-3)
        assert np.max(np.abs(states)) == 0.0

    def test_last_state_is_the_lockstep_rk4_flow(self):
        # the oracle takes the whole steps of every sampled flow of the lab:
        # coupled_tanh from 50 random states to T = 0.1, bit for bit
        F = dyn.coupled_tanh()
        v0 = np.random.default_rng(38).uniform(-3.0, 3.0, (2, 50))
        times, states = dyn.evolve_ode(v0, F, T=0.1, dt=1e-3, stride=10)
        flow, t = dyn.propagate(dyn._OdeStepper(F, 1e-3), v0.T, 100)
        assert states.shape == (11, 2, 50) and times[-1] == t
        assert np.array_equal(states[-1], flow.T)

    def test_converges_to_bistable_state(self):
        _, states = dyn.evolve_ode(np.array([0.1]), dyn.tanh_pitchfork(2.0), T=30.0, dt=1e-3)
        assert states[-1, 0] == pytest.approx(USTAR, abs=1e-8)
        assert USTAR == pytest.approx(1.91501, abs=1e-5)


class TestDecayFit:
    def test_linear_problem_rate_exact(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        u0 = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, amplitude=0.5)
        traj = dyn.evolve_pde(u0, E, dyn.zero_nonlinearity(), T=1.5, dt=1e-3, stride=10)
        lam2 = E.second_eigenvalue(basis)
        fit = dyn.decay_rate_fit(traj.times, traj.w_xhalf, lam2)
        assert abs(fit.fitted_rate - lam2) / lam2 < 1e-3
        assert fit.residual < 1e-8

    def test_tanh_rate_respects_one_sided_bound(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([2.0])
        F = dyn.tanh_pitchfork(2.0)
        u0 = sp.constant_field([1.8], basis) + sp.mode_field(basis, 1, amplitude=0.3)
        traj = dyn.evolve_pde(u0, E, F, T=1.5, dt=1e-3, stride=10)
        consts = dyn.compute_M_and_mu(E, basis, horizon=10.0)
        lam2 = E.second_eigenvalue(basis)
        fit = dyn.decay_rate_fit(traj.times, traj.w_xhalf, lam2, mu=consts.mu)
        assert fit.fitted_rate >= fit.theoretical_rate
        # |Q|_L2 per sample: the mean-free modes of the projected F(u)
        q = np.array([np.sqrt(np.sum(pseudospectral_F(sp.SpectralField(c, basis), F)[:, 1:] ** 2))
                      for c in traj.coeffs])
        fit_q = dyn.decay_rate_fit(traj.times, q, lam2, mu=consts.mu)
        assert fit_q.fitted_rate >= fit_q.theoretical_rate

    def test_constant_quantity(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        traj = dyn.evolve_pde(sp.constant_field([1.0], basis), E, dyn.zero_nonlinearity(),
                              T=1.0, dt=1e-2, stride=10)
        fit = dyn.decay_rate_fit(traj.times, np.full_like(traj.times, 0.7),
                                 E.second_eigenvalue(basis))
        assert fit.fitted_rate == pytest.approx(0.0, abs=1e-14)
        assert fit.residual == pytest.approx(0.0, abs=1e-14)

    def test_underflow_window_truncated_and_flagged(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([64.0])
        u0 = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, amplitude=0.5)
        traj = dyn.evolve_pde(u0, E, dyn.zero_nonlinearity(), T=5.0, dt=1e-3, stride=10)
        lam2 = E.second_eigenvalue(basis)
        fit = dyn.decay_rate_fit(traj.times, traj.w_xhalf, lam2)
        assert fit.truncated
        assert abs(fit.fitted_rate - lam2) / lam2 < 1e-3
