import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from bigdiff import attractors as at
from bigdiff import dynamics as dyn
from bigdiff import spectral as sp

DOM = sp.DomainSpec()


def bisect_root(fn, lo, hi, iters=200):
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
TANH2 = dyn.tanh_pitchfork(2.0)


@functools.cache
def mode0_weights(dt):
    """The PDE stepper's weights of mode 0, where the gain eps lam_0 + 1 is 1."""
    pde = dyn.EtdStepper(sp.build_basis(DOM, 4), sp.diffusion([1.0]), TANH2, dt)
    return pde.exp_full[0, 0], pde.w1[0, 0], pde.w2[0, 0]


def etd_mode0_step(v, dt, F):
    """Oracle: one ETD2RK step of v' + v = F(v), the PDE stepper's formula on mode 0."""
    e, w1, w2 = mode0_weights(dt)
    n0 = F(v)
    a = e * v + w1 * n0
    return a + w2 * (F(a) - n0)


def invariance_drift(cloud, F, T, n_probe, seed, dt=1e-3):
    """Evolve `n_probe` sampled cloud points for time T; max distance back to the cloud."""
    idx = np.random.default_rng(seed).choice(len(cloud), size=min(n_probe, len(cloud)),
                                             replace=False)
    if cloud.kind == "ode":
        _, states = dyn.evolve_ode(cloud.points[idx].T, F, T=T, dt=dt, stride=10**9)
        moved = states[-1].T
    else:
        stepper = dyn.EtdStepper(cloud.basis, cloud.diffusion, F, dt)
        moved = sp.EnergyNorm(cloud.diffusion, cloud.basis).embed(
            dyn.propagate(stepper, cloud.points[idx], dyn._step_count(T, dt))[0])
    return float(cdist(moved, cloud.embedded()).min(axis=1).max())


@pytest.fixture(scope="module")
def tanh_equilibria():
    return at.find_equilibria_ode(TANH2, box=3.0)


@pytest.fixture(scope="module")
def tanh_cloud():
    return at.attractor_ode(TANH2)


class TestEquilibriaODE:
    def test_three_roots_found(self, tanh_equilibria):
        locations = sorted(eq.vector()[0] for eq in tanh_equilibria)
        assert locations[0] == pytest.approx(-USTAR, abs=1e-10)
        assert locations[1] == pytest.approx(0.0, abs=1e-10)
        assert locations[2] == pytest.approx(USTAR, abs=1e-10)
        assert USTAR == pytest.approx(1.91501, abs=1e-5)

    def test_residuals_small(self, tanh_equilibria):
        assert all(eq.residual < 1e-10 for eq in tanh_equilibria)

    def test_origin_is_unstable(self, tanh_equilibria):
        origin = min(tanh_equilibria, key=lambda e: abs(e.vector()[0]))
        assert origin.stability == "unstable(1)"
        assert origin.eigenvalues[0].real == pytest.approx(1.0, abs=1e-12)

    def test_outer_states_stable_with_oracle_eigenvalue(self, tanh_equilibria):
        # tanh(u*) = u*/2 feeds the oracle: eigenvalue = 1 - u*^2/2
        oracle = 1.0 - USTAR**2 / 2.0
        for eq in tanh_equilibria:
            if abs(eq.vector()[0]) > 1:
                assert eq.stability == "stable"
                assert eq.eigenvalues[0].real == pytest.approx(oracle, abs=1e-9)

    def test_no_equilibria_is_error(self):
        # F with F(u) - u bounded away from zero inside a box that misses the root
        shifted = dyn.Nonlinearity("shifted", {}, lambda u: np.full_like(u, 9.0),
                                   lambda u: dyn._diagonal_jacobian(np.zeros_like(u)),
                                   bound=9.0, lip=0.0)
        with pytest.raises(at.NoEquilibriaError):
            at.find_equilibria_ode(shifted, box=1.0, grid_density=3)

    def test_coupled_system_equilibria(self):
        F = dyn.coupled_tanh(a=1.2, c=0.6)
        eqs = at.find_equilibria_ode(F, box=3.5, grid_density=7, components=2)
        sstar = bisect_root(lambda s: 1.8 * np.tanh(s) - s, 1.0, 3.0)
        diag = sorted(eq.vector()[0] for eq in eqs if np.linalg.norm(eq.vector()) > 0.5)
        assert len(eqs) == 3
        assert diag[0] == pytest.approx(-sstar, abs=1e-9)
        assert diag[1] == pytest.approx(sstar, abs=1e-9)
        origin = min(eqs, key=lambda e: np.linalg.norm(e.vector()))
        assert origin.stability == "unstable(1)"


class TestHyperbolicity:
    def test_pitchfork_origin_hyperbolic(self, tanh_equilibria):
        origin = min(tanh_equilibria, key=lambda e: abs(e.vector()[0]))
        assert at.hyperbolicity_check(origin)

    def test_degenerate_beta_one(self):
        eqs = at.find_equilibria_ode(dyn.tanh_pitchfork(1.0), box=2.0, grid_density=5)
        origin = min(eqs, key=lambda e: abs(e.vector()[0]))
        assert not at.hyperbolicity_check(origin)
        assert origin.stability == "nonhyperbolic"
        with pytest.raises(at.NonHyperbolicError, match="manifold union undefined"):
            at.unstable_manifold_ode(eqs, dyn.tanh_pitchfork(1.0))

    def test_stable_node_hyperbolic(self, tanh_equilibria):
        outer = max(tanh_equilibria, key=lambda e: e.vector()[0])
        assert at.hyperbolicity_check(outer)


class TestEquilibriumDirections:
    # each equilibrium carries one unit eigenvector per unstable eigenvalue,
    # checked against a linearization rebuilt here: -I + F' for the ODE, and
    # for the PDE -gains + F'(u) applied on the grid
    SYSTEMS = {"tanh": (TANH2, 1), "saturated_cubic": (dyn.saturated_cubic(2.0), 1),
               "coupled_tanh": (dyn.coupled_tanh(2.0, 0.5), 2)}

    @pytest.mark.parametrize("d", [None, 0.05, 1.0], ids=["ode", "pde-d0.05", "pde-d1"])
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_directions_are_the_unstable_eigenvectors(self, name, d):
        F, n = self.SYSTEMS[name]
        eqs = at.find_equilibria_ode(F, at.absorbing_bound(F) + 1.0, components=n)
        if d is None:
            def apply_J(eq, xi):
                return -xi + F.jac(eq.vector()) @ xi
        else:
            basis, E = sp.build_basis(DOM, 16), sp.diffusion([d] * n)
            eqs = at.find_equilibria_pde(E, F, [sp.constant_field(eq.vector(), basis)
                                                for eq in eqs])

            def apply_J(eq, xi):
                jac = F.jac(basis.to_grid(eq.location.coeffs))
                return -E.gains(basis) * xi + basis.to_spectral(
                    np.einsum("ijx,jx->ix", jac, basis.to_grid(xi)))
        for eq in eqs:
            unstable = sorted(lam.real for lam in eq.eigenvalues if lam.real > 0)
            assert len(eq.directions) == eq.unstable_count == len(unstable)
            rates = []
            for xi in eq.directions:
                assert xi.shape == eq.state().shape
                assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-14)
                J_xi = apply_J(eq, xi)
                rates.append(float(np.vdot(xi, J_xi)))
                assert np.max(np.abs(J_xi - rates[-1] * xi)) < 1e-10
            np.testing.assert_allclose(sorted(rates), unstable, rtol=0, atol=1e-10)
        assert any(eq.directions for eq in eqs)


class TestUnstableManifoldODE:
    def test_arcs_fill_interval(self, tanh_equilibria):
        arc = at.unstable_manifold_ode(tanh_equilibria, TANH2)
        values = np.sort(arc[:, 0])
        assert values[0] == pytest.approx(-USTAR, abs=1e-4)
        assert values[-1] == pytest.approx(USTAR, abs=1e-4)
        gaps = np.diff(values)
        # sampled every 1e-2 time units; |v'| <= 0.533 on the heteroclinic
        assert np.max(gaps) < 2 * 0.533 * 1e-2

    def test_mirror_symmetry(self, tanh_equilibria):
        arc = at.unstable_manifold_ode(tanh_equilibria, TANH2)
        half = len(arc) // 2
        plus, minus = arc[:half, 0], arc[half:2 * half, 0]
        # the two shots may terminate one sample apart; compare the shared run
        shared = min(len(plus), len(minus)) - 2
        assert np.max(np.abs(plus[:shared] + minus[:shared])) < 1e-9

    def test_stable_equilibrium_has_no_arcs(self, tanh_equilibria):
        outer = max(tanh_equilibria, key=lambda e: e.vector()[0])
        assert outer.directions == []
        assert at.unstable_manifold_ode([outer], TANH2).shape == (0, 1)

    def test_escape_raises(self, tanh_equilibria):
        origin = min(tanh_equilibria, key=lambda e: abs(e.vector()[0]))
        with pytest.raises(at.EscapeError):
            at.unstable_manifold_ode([origin], TANH2, box=0.5)


class TestAttractorODE:
    def test_cloud_spans_interval(self, tanh_cloud):
        v = tanh_cloud.points[:, 0]
        assert v.min() == pytest.approx(-USTAR, abs=1e-5)
        assert v.max() == pytest.approx(USTAR, abs=1e-5)
        assert np.max(np.diff(np.sort(v))) < 1.2e-2

    def test_resolution_reported(self, tanh_cloud):
        assert 0 < tanh_cloud.resolution() < 1.2e-2

    def test_contraction_case_single_point(self):
        cloud = at.attractor_ode(dyn.tanh_pitchfork(0.5))
        assert len(cloud) == 1
        assert np.max(np.abs(cloud.points)) < 1e-10

    def test_invariance_probe(self, tanh_cloud):
        drift = invariance_drift(tanh_cloud, TANH2, T=1.0, n_probe=30, seed=4)
        assert drift < 1e-2

    def test_invariance_probe_fine_sampling(self):
        # with arcs sampled every 2.5e-4 time units the half-gap drops below
        # 1e-4, so every forward orbit stays within 1e-4 of the cloud
        cloud = at.attractor_ode(TANH2, dt=2.5e-4, sample_dt=2.5e-4)
        drift = invariance_drift(cloud, TANH2, T=1.0, n_probe=30, seed=4, dt=2.5e-4)
        assert drift < 1e-4

    def test_two_component_diagonal_attractor(self):
        # coupled_tanh(1.2, 0.6) has its heteroclinics along the diagonal
        F = dyn.coupled_tanh(a=1.2, c=0.6)
        cloud = at.attractor_ode(F, components=2, grid_density=7)
        sstar = bisect_root(lambda s: 1.8 * np.tanh(s) - s, 1.0, 3.0)
        offdiag = np.abs(cloud.points[:, 0] - cloud.points[:, 1])
        assert np.max(offdiag) < 1e-6
        diag = cloud.points[:, 0]
        assert diag.min() == pytest.approx(-sstar, abs=1e-4)
        assert diag.max() == pytest.approx(sstar, abs=1e-4)

    def test_longtime_cloud_covers_interval(self):
        cloud = at.attractor_ode_longtime(TANH2, n_seeds=500, box=2.0,
                                          t_burn=6.0, t_end=20.0)
        v = np.sort(cloud.points[:, 0])
        assert abs(v[0] + USTAR) < 2e-3 and abs(v[-1] - USTAR) < 2e-3
        assert np.all(np.abs(v) <= USTAR + 2e-3)
        assert np.max(np.diff(v)) < 1.2e-2
        assert set(cloud.provenance) == {"long_time_sampling"}


class TestLongtimeDedup:
    # the cloud is first occupant wins over every post-burn-in sample, in
    # (sample, row) order, however the dedup is carried out

    @pytest.mark.parametrize("F, kwargs", [
        (TANH2, dict(n_seeds=400, box=2.0)),
        (TANH2, dict(n_seeds=301, box=2.0)),
        (dyn.coupled_tanh(a=1.2, c=0.6), dict(n_seeds=200, components=2, seed=5)),
        (dyn.coupled_tanh(a=1.2, c=0.6), dict(n_seeds=40, components=2, seed=6,
                                               dedup_cell=1e-12)),
    ], ids=["tanh", "odd-seeds", "coupled", "coupled-fine-cell"])
    def test_equals_one_dedup_over_every_sample(self, F, kwargs, monkeypatch):
        dt, sample_dt, t_burn, t_end = 1e-3, 1e-2, 2.0, 5.0
        cell = kwargs.get("dedup_cell", 1.25e-3)
        seeds = []
        propagate = at.propagate

        def recording(stepper, batch, *args):
            seeds.append(batch.copy())
            return propagate(stepper, batch, *args)

        monkeypatch.setattr(at, "propagate", recording)
        cloud = at.attractor_ode_longtime(F, t_burn=t_burn, t_end=t_end, dt=dt,
                                          sample_dt=sample_dt, **kwargs)
        # oracle: keep every post-burn-in sample of whole ETD2RK steps, then
        # one np.unique over all of them
        stride, burn = round(sample_dt / dt), dyn._step_count(t_burn, dt)
        v, samples = seeds[0].T, []
        for k in range(1, dyn._step_count(t_end, dt) + 1):
            v = etd_mode0_step(v, dt, F)
            if k % stride == 0 and k >= burn:
                samples.append(v.T)
        points = np.concatenate(samples)
        cells = np.round(points / cell).astype(np.int64)
        _, keep = np.unique(cells, axis=0, return_index=True)
        expected = points[np.sort(keep)]
        assert cloud.meta["samples"] == len(points)
        assert cloud.points.shape == expected.shape
        assert cloud.points.tobytes() == expected.tobytes()

    def test_memory_grows_with_the_cloud_not_the_samples(self):
        # the post-burn-in samples alone take 500 x 301 x 8 bytes = 1.2 MB
        tracemalloc.start()
        try:
            cloud = at.attractor_ode_longtime(TANH2, n_seeds=500, box=2.0,
                                              t_burn=2.0, t_end=5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cloud.meta["samples"] == 500 * 301
        assert peak < cloud.meta["samples"] * 8


class TestWholeSteps:
    # a duration takes the whole steps of dt that cover it, counted, not
    # accumulated: the running time misses t = 4.0 and t = 60.0 by rounding

    def test_longtime_cloud_includes_t_burn(self):
        # v' = -v from v = +-1: every sample is its own dedup cell, so the cloud
        # holds both seeds at t = 4.00, 4.01, ..., 8.00
        cloud = at.attractor_ode_longtime(dyn.zero_nonlinearity(), n_seeds=2, box=1.0,
                                          t_burn=4.0, t_end=8.0, dedup_cell=1e-12)
        assert len(cloud) == 2 * 401
        assert cloud.points.max() == pytest.approx(np.exp(-4.0), rel=1e-12)

    def test_arc_to_the_horizon_takes_whole_steps(self, tanh_equilibria, monkeypatch):
        # with no equilibrium to stop at, both arcs run to ARC_HORIZON = 60
        calls = [0]
        step = dyn.OdeEtdStepper.step

        def counting_step(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(dyn.OdeEtdStepper, "step", counting_step)
        origin = min(tanh_equilibria, key=lambda e: abs(e.vector()[0]))
        arc = at.unstable_manifold_ode([origin], TANH2, dt=1e-3, sample_dt=1e-2)
        assert calls[0] == 60_000
        assert len(arc) == 2 * (1 + 6_000)


class TestEquilibriaPDE:
    def test_lifted_constants_are_exact(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        seeds = [sp.constant_field([v], basis) for v in (-USTAR, 0.0, USTAR)]
        eqs = at.find_equilibria_pde(E, TANH2, seeds)
        assert len(eqs) == 3
        assert all(eq.residual < 1e-12 for eq in eqs)

    def test_spectrum_matches_block_closed_form(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([2.0])
        seeds = [sp.constant_field([USTAR], basis)]
        eq = at.find_equilibria_pde(E, TANH2, seeds)[0]
        vstar = eq.vector()[0]
        fprime = 2 * (1 - np.tanh(vstar) ** 2)
        expected = np.sort(np.concatenate([
            [-1.0 + fprime],
            -(E.eps[0] * basis.eigenvalues[1:] + 1.0) + fprime,
        ]))[::-1]
        got = np.sort(eq.eigenvalues.real)[::-1]
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_no_nonconstant_equilibria_at_large_diffusion(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        rng = np.random.default_rng(6)
        seeds = [sp.random_field(basis, 1, rng, l2_norm_value=2.0) for _ in range(100)]
        eqs = at.find_equilibria_pde(E, TANH2, seeds)
        for eq in eqs:
            w = eq.location.coeffs.copy()
            w[:, 0] = 0.0
            assert np.linalg.norm(w) < 1e-6

    def test_stability_transfer(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([1.0])
        eqs = at.find_equilibria_pde(E, TANH2, [sp.constant_field([v], basis)
                                                for v in (0.0, USTAR)])
        by_v = {round(eq.vector()[0], 3): eq for eq in eqs}
        assert by_v[0.0].stability == "unstable(1)"
        assert by_v[round(USTAR, 3)].stability == "stable"

    def test_every_unstable_tail_mode_has_a_direction(self):
        # at d = 1e-5 all 65 modes of the K = 64 origin are unstable, more
        # than the LEADING_MODES head decomposes by default
        basis = sp.build_basis(DOM, 64)
        (origin,) = at.find_equilibria_pde(sp.diffusion([1e-5]), TANH2,
                                           [sp.constant_field([0.0], basis)])
        assert origin.unstable_count == 65 > at.LEADING_MODES
        assert len(origin.directions) == origin.unstable_count


@pytest.fixture(scope="module")
def pde_cloud_fast(tanh_cloud):
    basis = sp.build_basis(DOM, 16)
    E = sp.diffusion([8.0])
    (cloud,) = at.attractor_pde([E], TANH2, basis, tanh_cloud, n_tails=8, t_trans=6.0, seed=1)
    return cloud, E, basis


class TestAttractorPDE:
    def test_zero_nonlinearity_cloud_is_origin(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        F = dyn.zero_nonlinearity()
        (cloud,) = at.attractor_pde([E], F, basis, at.attractor_ode(F), n_tails=4,
                                    t_trans=12.0, seed=0)
        norms = np.sqrt(np.sum(cloud.points**2, axis=(1, 2)))
        assert np.max(norms) < 1e-8

    def test_large_diffusion_cloud_is_constant(self, pde_cloud_fast):
        cloud, E, basis = pde_cloud_fast
        assert at.manifold_deflection(cloud) < 1e-10

    def test_provenances_present(self, pde_cloud_fast):
        cloud, _, _ = pde_cloud_fast
        kinds = set(cloud.provenance)
        assert {"equilibrium", "manifold_union", "long_time_sampling"} <= kinds

    def test_sweep_clouds_equal_one_d_clouds(self, tanh_cloud):
        # below d* = 1/pi^2 the origin has 2 unstable directions, so d = 0.05
        # shoots 4 arc rows and the other d 2; every row steps bit for bit as alone
        basis = sp.build_basis(DOM, 16)
        ode_cloud = at.attractor_ode(TANH2, sample_dt=2e-2)
        Es = [sp.diffusion([d]) for d in (0.05, 0.25, 1.0, 4.0)]
        settings = dict(n_tails=3, w_amplitude=0.3, t_trans=0.5, dt=1e-2, sample_dt=2e-2, seed=4)
        clouds = at.attractor_pde(Es, TANH2, basis, ode_cloud, **settings)
        assert len(clouds) == len(Es)
        for E, cloud in zip(Es, clouds):
            (alone,) = at.attractor_pde([E], TANH2, basis, ode_cloud, **settings)
            assert np.array_equal(cloud.points, alone.points)
            assert cloud.provenance == alone.provenance and cloud.meta == alone.meta
            assert cloud.diffusion is E
        (origin,) = at.find_equilibria_pde(Es[0], TANH2, [sp.constant_field([0.0], basis)])
        assert origin.stability == "unstable(2)"
        arcs = [c.provenance.count("manifold_union") for c in clouds]
        # the constant arcs do not depend on d; d = 0.05's two phi_1 arcs miss
        # every constant equilibrium and run to the horizon
        assert len(set(arcs[1:])) == 1
        assert arcs[0] == arcs[1] + 2 * (1 + round(at.ARC_HORIZON / 2e-2))

    def test_zero_transport_time_keeps_the_drawn_tails(self):
        basis = sp.build_basis(DOM, 8)
        ode_cloud = at.attractor_ode(TANH2, dt=1e-2, sample_dt=2e-2)
        (cloud,) = at.attractor_pde([sp.diffusion([8.0])], TANH2, basis, ode_cloud, n_tails=4,
                                    t_trans=0.0, w_amplitude=0.1, dt=1e-2, sample_dt=2e-2,
                                    seed=1)
        tails = cloud.points[[p == "long_time_sampling" for p in cloud.provenance]]
        assert len(tails) == cloud.meta["n_tails"] == 4
        # untransported: each keeps its mean-free perturbation of norm w_amplitude
        np.testing.assert_allclose(np.sqrt(np.sum(tails[:, :, 1:] ** 2, axis=(1, 2))), 0.1,
                                   rtol=1e-12)

    def test_equilibria_seeded_from_the_ode_cloud(self, tanh_cloud, monkeypatch):
        # the ODE equilibria are rows of ode_cloud, so no second ODE Newton solve runs
        def solve_again(*args, **kwargs):
            raise AssertionError("find_equilibria_ode called again")

        monkeypatch.setattr(at, "find_equilibria_ode", solve_again)
        basis = sp.build_basis(DOM, 8)
        (cloud,) = at.attractor_pde([sp.diffusion([8.0])], TANH2, basis, ode_cloud=tanh_cloud,
                                    n_tails=2, t_trans=0.1, dt=1e-2, sample_dt=2e-2)
        eqs = cloud.points[[p == "equilibrium" for p in cloud.provenance]]
        np.testing.assert_allclose(eqs[:, 0, 0], [-USTAR, 0.0, USTAR], rtol=0, atol=1e-10)
        assert np.max(np.abs(eqs[:, :, 1:])) < 1e-12

    def test_invariance_probe_fine_arcs(self):
        # fine arc sampling pushes the cloud gap below 1e-4 drift
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([8.0])
        ode_cloud = at.attractor_ode(TANH2, dt=2.5e-4, sample_dt=2.5e-4)
        (cloud,) = at.attractor_pde([E], TANH2, basis, ode_cloud, n_tails=6, t_trans=6.0,
                                    dt=2.5e-4, sample_dt=2.5e-4, seed=2)
        drift = invariance_drift(cloud, TANH2, T=1.0, n_probe=25, seed=3, dt=2.5e-4)
        assert drift < 1e-4


def arcs_one_at_a_time(step, starts, dt, stride, horizon, targets, stop_ball, check=None):
    """Oracle: shoot each start state alone, sampling every `stride` steps."""
    points = []
    for start in starts:
        c = start.copy()
        t = 0.0
        points.append(c.copy())
        step_count = 0
        while t < horizon:
            c = step(c, t)
            t += dt
            step_count += 1
            if step_count % stride:
                continue
            if check is not None:
                check(c, t)
            points.append(c.copy())
            if any(np.linalg.norm(c - tgt) < stop_ball for tgt in targets):
                break
    return np.array(points)


def nan_from_call(first_nan_call):
    """tanh forcing that returns NaN from its `first_nan_call`-th evaluation on."""
    calls = [0]

    def fn(u):
        calls[0] += 1
        return 2.0 * np.tanh(u) * (np.nan if calls[0] >= first_nan_call else 1.0)

    return dyn.Nonlinearity("nan_tanh", {}, fn, TANH2.jac, 2.0, 2.0)


class TestLockstepShooting:
    # one target only: the + arc stops at u*, the - arc runs to the horizon
    DT, SAMPLE_DT, HORIZON = 1e-2, 2e-2, 40.0

    def test_pde_arcs_match_one_at_a_time(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([8.0])
        eqs = at.find_equilibria_pde(E, TANH2, [sp.constant_field([v], basis)
                                                for v in (-USTAR, 0.0, USTAR)])
        origin = min(eqs, key=lambda e: abs(e.vector()[0]))
        top = max(eqs, key=lambda e: e.vector()[0])
        stepper = dyn.EtdStepper(basis, E, TANH2, self.DT)
        starts = [origin.location.coeffs + sign * 1e-5 * direction
                  for direction in origin.directions
                  for sign in (+1.0, -1.0)]
        oracle = arcs_one_at_a_time(stepper.step, starts, self.DT, 2, self.HORIZON,
                                    [top.location.coeffs], 1e-6)
        arcs = at._shoot_arcs(stepper, starts, self.SAMPLE_DT, self.HORIZON,
                              [[top.location.coeffs]] * len(starts), 1e-6)
        got = np.concatenate(arcs)
        assert not stepper.failed and np.array_equal(got, oracle)
        minus = next(i for i, c in enumerate(got) if i and np.array_equal(c, starts[1]))
        assert np.linalg.norm(got[minus - 1] - top.location.coeffs) < 1e-6
        assert len(got) - minus == 1 + round(self.HORIZON / self.DT) // 2 > minus

    def test_ode_arcs_match_one_at_a_time(self, tanh_equilibria):
        origin = min(tanh_equilibria, key=lambda e: abs(e.vector()[0]))
        top = max(tanh_equilibria, key=lambda e: e.vector()[0])
        box = 4.0

        def check(v, t):
            if np.linalg.norm(v) > box:
                raise at.EscapeError("escaped")

        starts = [origin.vector() + sign * 1e-5 * np.array([1.0]) for sign in (+1.0, -1.0)]
        oracle = arcs_one_at_a_time(lambda v, t: etd_mode0_step(v, self.DT, TANH2), starts,
                                    self.DT, 2, self.HORIZON, [top.vector()], 1e-6, check)
        got = at.unstable_manifold_ode([origin, top], TANH2, dt=self.DT,
                                       sample_dt=self.SAMPLE_DT, horizon=self.HORIZON, box=box)
        assert np.array_equal(got, oracle)
        minus = next(i for i, v in enumerate(got) if i and np.array_equal(v, starts[1]))
        assert np.linalg.norm(got[minus - 1] - top.vector()) < 1e-6
        assert len(got) - minus == 1 + round(self.HORIZON / self.DT) // 2 > minus

    def test_every_equilibrium_in_one_batch_matches_one_at_a_time(self):
        # coupled_tanh(2, 0.5) has 9 equilibria, 5 of them unstable: 12 arcs run
        # in one batch, each toward the other 8, and equal each one's arcs shot alone
        F = dyn.coupled_tanh(2.0, 0.5)
        eqs = at.find_equilibria_ode(F, at.absorbing_bound(F) + 1.0, components=2)
        box = at.absorbing_bound(F) + 2.0

        def check(v, t):
            if np.linalg.norm(v) > box:
                raise at.EscapeError("escaped")

        oracle = [arcs_one_at_a_time(lambda v, t: etd_mode0_step(v, self.DT, F),
                                     [eq.vector() + sign * at.ARC_OFFSET * xi
                                      for xi in eq.directions for sign in (+1.0, -1.0)],
                                     self.DT, 2, self.HORIZON,
                                     [o.vector() for o in eqs if o is not eq], at.STOP_BALL, check)
                  for eq in eqs if eq.directions]
        assert len(eqs) == 9 and len(oracle) == 5
        assert sum(2 * len(eq.directions) for eq in eqs) == 12
        got = at.unstable_manifold_ode(eqs, F, dt=self.DT, sample_dt=self.SAMPLE_DT,
                                       horizon=self.HORIZON)
        assert np.array_equal(got, np.concatenate(oracle))

    def test_blow_up_fails_only_its_own_group(self, monkeypatch):
        # linear F = 7u grows mode 0 like e^{6t}: group 1 starts at 1 and blows up
        # near t = 3.07, between two samples; group 0 starts at 1e-12 and survives
        basis = sp.build_basis(DOM, 8)
        F = dyn.linear_nonlinearity(7.0)
        Es = [sp.diffusion([1.0]), sp.diffusion([2.0])]
        starts = [sp.constant_field([a], basis).coeffs + sp.mode_field(basis, 1, a).coeffs
                  for a in (1e-12, -1e-12, 1.0, 0.5)]
        groups = [0, 0, 1, 1]
        stepped = []  # the rows of each step
        step = dyn.EtdStepper.step

        def counted(stepper, c, t_now=0.0):
            stepped.append(len(c))
            return step(stepper, c, t_now)

        monkeypatch.setattr(dyn.EtdStepper, "step", counted)

        def shoot(rows):
            stepped.clear()
            stepper = dyn.EtdStepper(basis, Es, F, self.DT, owner=[groups[r] for r in rows])
            arcs = at._shoot_arcs(stepper, [starts[r] for r in rows], self.SAMPLE_DT, 5.0,
                                  [[]] * len(rows), 1e-6)
            return arcs, stepper.failed

        arcs, failed = shoot([0, 1, 2, 3])
        # group 1's rows retire at the first sample after the step that blew up
        stride = round(self.SAMPLE_DT / self.DT)
        blown_step = round(failed[1].time / self.DT) + 1
        assert stepped.count(4) == -(-blown_step // stride) * stride
        assert len(stepped) == round(5.0 / self.DT) and set(stepped) == {4, 2}
        alone_arcs, alone_failed = shoot([0, 1])
        assert not alone_failed and list(failed) == [1]
        for got, alone in zip(arcs[:2], alone_arcs):
            assert np.array_equal(got, alone) and len(got) == 1 + round(5.0 / self.SAMPLE_DT)
        (error,) = shoot([2, 3])[1].values()
        assert str(failed[1]) == str(error)
        assert str(error).startswith("trajectory blew up at t=3.0")

    @pytest.mark.parametrize("first_nan_call", [7, 8])
    def test_nan_forcing_raises_at_its_step(self, first_nan_call):
        # the step whose F evaluation first returns NaN is the step that raises;
        # each ETD2RK step evaluates F twice
        dt = 1e-3
        nan_step = (first_nan_call - 1) // 2
        t_nan = 0.0
        for _ in range(nan_step):
            t_nan += dt
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        u0 = sp.constant_field([0.5], basis) + sp.mode_field(basis, 1, amplitude=0.2)
        with pytest.raises(dyn.BlowUpError) as single:
            dyn.evolve_pde(u0, E, nan_from_call(first_nan_call), T=1.0, dt=dt)
        stepper = dyn.EtdStepper(basis, E, nan_from_call(first_nan_call), dt)
        with pytest.raises(dyn.BlowUpError) as batch:
            dyn.propagate(stepper, np.stack([u0.coeffs] * 5), round(1.0 / dt))
        assert single.value.time == batch.value.time == t_nan


class TestHausdorff:
    def test_identical_clouds(self, tanh_cloud):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        res = at.hausdorff_distance(tanh_cloud, tanh_cloud, E, basis)
        assert res.sym == 0.0

    def test_constant_offset(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([5.0])
        a = at.AttractorCloud(np.array([[0.0]]), "ode", ["equilibrium"])
        b = at.AttractorCloud(np.array([[3.0]]), "ode", ["equilibrium"])
        res = at.hausdorff_distance(a, b, E, basis)
        assert res.sym == pytest.approx(3.0, rel=1e-14)

    def test_grid_refinement_oracle(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        coarse = at.AttractorCloud(np.linspace(-USTAR, USTAR, 201)[:, None], "ode", ["x"] * 201)
        fine = at.AttractorCloud(np.linspace(-USTAR, USTAR, 401)[:, None], "ode", ["x"] * 401)
        res = at.hausdorff_distance(coarse, fine, E, basis)
        spacing_coarse = 2 * USTAR / 200
        assert res.a_to_b == 0.0  # refinement contains the coarse grid
        assert res.b_to_a == pytest.approx(spacing_coarse / 2, rel=1e-12)
        assert res.sym <= spacing_coarse / 2 + 1e-12

    def test_pseudometric_on_random_triples(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 2.0])
        rng = np.random.default_rng(12)
        clouds = [at.AttractorCloud(rng.normal(size=(15, 2)), "ode", ["x"] * 15)
                  for _ in range(3)]
        d = {}
        for i in range(3):
            for j in range(3):
                d[i, j] = at.hausdorff_distance(clouds[i], clouds[j], E, basis).sym
        for i in range(3):
            assert d[i, i] == 0.0
            for j in range(3):
                assert d[i, j] == pytest.approx(d[j, i], abs=1e-12)
                for k in range(3):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-12

    def test_ode_clouds_need_no_lift(self):
        # lifted to constant fields, two ODE clouds are only padded with zeros
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0, 1.0])
        rng = np.random.default_rng(5)
        a, b = (at.AttractorCloud(rng.normal(size=(m, 2)), "ode", ["x"] * m) for m in (30, 40))
        lifted, plain = at.hausdorff_distance(a, b, E, basis), at.hausdorff_distance(a, b)
        assert (plain.a_to_b, plain.b_to_a) == (lifted.a_to_b, lifted.b_to_a)

    def test_ode_against_pde_needs_a_lift(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        ode = at.AttractorCloud(np.zeros((2, 1)), "ode", ["x"] * 2)
        pde = at.AttractorCloud(np.zeros((2, 1, 9)), "pde", ["x"] * 2, basis=basis, diffusion=E)
        with pytest.raises(ValueError, match="common space"):
            at.hausdorff_distance(ode, pde)
        assert at.hausdorff_distance(ode, pde, E, basis).sym == 0.0

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            at.AttractorCloud(np.zeros((0, 1)), "ode", [])


class TestOneIntegrator:
    # the ODE cloud steps with the PDE's own ETD2RK on mode 0, so with no tails
    # the PDE clouds of criterion 7's d (all past the threshold at K = 32) meet
    # it to rounding, with no integrator gap left in either direction
    SWEEP7 = tuple(2.0 ** np.arange(7))

    def test_pde_clouds_without_tails_are_the_ode_cloud(self):
        basis = sp.build_basis(DOM, 32)
        ode = at.attractor_ode(TANH2, dt=5e-4, sample_dt=1e-2)
        Es = [sp.diffusion([d]) for d in self.SWEEP7]
        clouds = at.attractor_pde(Es, TANH2, basis, ode, n_tails=0, dt=5e-4, sample_dt=1e-2)
        for E, cloud in zip(Es, clouds):
            res = at.hausdorff_distance(cloud, ode, E, basis)
            assert len(cloud) == len(ode)
            assert res.a_to_b <= 1e-13 and res.b_to_a <= 1e-13


def _ode_clouds(count):
    """`count` small random ODE clouds sharing one dimension n in {1, 2}."""
    coords = st.floats(-5.0, 5.0, allow_nan=False)
    return st.integers(1, 2).flatmap(lambda n: st.tuples(*[
        st.integers(1, 20).flatmap(lambda m: arrays(float, (m, n), elements=coords))
        for _ in range(count)]))


class TestHausdorffProperties:
    BASIS = sp.build_basis(DOM, 8)

    @given(clouds=_ode_clouds(2), eps=st.floats(0.5, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, clouds, eps):
        a, b = (at.AttractorCloud(p, "ode", ["x"] * len(p)) for p in clouds)
        E = sp.diffusion([eps] * a.points.shape[1])
        assert (at.hausdorff_distance(a, b, E, self.BASIS).sym
                == at.hausdorff_distance(b, a, E, self.BASIS).sym)

    @given(clouds=_ode_clouds(3))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, clouds):
        a, b, c = (at.AttractorCloud(p, "ode", ["x"] * len(p)) for p in clouds)
        E = sp.diffusion([1.0] * a.points.shape[1])

        def d(x, y):
            return at.hausdorff_distance(x, y, E, self.BASIS).sym

        ab, bc = d(a, b), d(b, c)
        assert d(a, c) <= ab + bc + 1e-12 * (1.0 + ab + bc)


def brute_farthest_nearest(query, ref, skip_self=False):
    """Oracle: chunked all-pairs `cdist`, the max over query rows of the row minimum."""
    worst = 0.0
    for start in range(0, query.shape[0], 2048):
        block = query[start:start + 2048]
        d = cdist(block, ref)
        if skip_self:
            for i in range(block.shape[0]):
                d[i, start + i] = np.inf
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


@st.composite
def _point_sets(draw):
    """(query, ref) with 1-300 rows each in 1, 3 or 33 dimensions.

    Lattice sets put many rows at exactly equal distances, mirrored sets tie
    each row with its negative, and copied rows make exact duplicates,
    inside `ref` and between `query` and `ref`.
    """
    dim = draw(st.sampled_from([1, 3, 33]))
    sizes = [draw(st.integers(1, 300)) for _ in range(2)]
    layout = draw(st.sampled_from(["real", "lattice", "mirrored"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    sets = []
    for m in sizes:
        if layout == "lattice":
            pts = rng.integers(-2, 3, size=(m, dim)) * scale
        else:
            pts = rng.standard_normal((m, dim)) * scale
            if layout == "mirrored":
                pts[m // 2:] = -pts[:m - m // 2]
        copies = draw(st.integers(0, m - 1))
        pts[rng.integers(0, m, copies)] = pts[rng.integers(0, m, copies)]
        sets.append(pts)
    query, ref = sets
    shared = draw(st.integers(0, min(sizes)))
    query[:shared] = ref[:shared]
    return query, ref


class TestFarthestNearest:
    @given(sets=_point_sets())
    @example(sets=(np.array([[0.5]]), np.array([[0.5]])))
    @example(sets=(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 0.0, 0.0]])))
    # 8.04e-188**2 underflows to 0, so cdist puts such a row at distance 0;
    # a screen window of width sqrt(0) must still find it
    @example(sets=(np.array([[0.0]]), np.array([[8.03677933e-188]])))
    @example(sets=(np.array([[8.03677933e-188]]), np.array([[1.0], [0.0]])))
    @example(sets=(np.array([[0.0, 0.0], [10.0, 0.5]]),
                   np.array([[8.03677933e-188, 0.0], [0.0, 1.0], [10.0, 0.0]])))
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, sets):
        query, ref = sets
        assert at._farthest_nearest(query, ref) == brute_farthest_nearest(query, ref)
        assert (at._farthest_nearest(ref, ref, skip_self=True)
                == brute_farthest_nearest(ref, ref, skip_self=True))

    @pytest.mark.parametrize("dim", [*range(1, 20), 33, 64, 65, 66, 67, 130])
    def test_pair_sq_sums_in_cdist_order(self, dim):
        rng = np.random.default_rng(dim)
        row, slot = (ix.ravel() for ix in np.indices((30, 30)))
        for scale in (1e-160, 1e-3, 1.0, 1e150):
            q, r = rng.standard_normal((2, 30, dim)) * scale
            got = np.sqrt(at._pair_sq(q, r, row, slot))
            assert np.array_equal(got, cdist(q, r)[row, slot])

    @staticmethod
    def count_pairs(monkeypatch):
        """(query rows, pairs `_pair_sq` evaluated) of each `_farthest_nearest` call."""
        calls = []
        pair_sq, farthest_nearest = at._pair_sq, at._farthest_nearest

        def counting_pair_sq(q, r, row, slot):
            calls[-1][1] += row.size
            return pair_sq(q, r, row, slot)

        def counting(query, ref, skip_self=False):
            calls.append([len(query), 0])
            return farthest_nearest(query, ref, skip_self)

        monkeypatch.setattr(at, "_pair_sq", counting_pair_sq)
        monkeypatch.setattr(at, "_farthest_nearest", counting)
        return calls

    def test_screen_evaluates_few_pairs_per_row(self, tanh_cloud, monkeypatch):
        longtime = at.attractor_ode_longtime(TANH2, n_seeds=60, box=3.0, t_burn=4.0, t_end=8.0)
        calls = self.count_pairs(monkeypatch)
        # a fresh copy, whose resolution no earlier test has computed
        manifold = at.AttractorCloud(tanh_cloud.points, "ode", tanh_cloud.provenance)
        assert len(manifold) > 2000 and len(longtime) > 2000
        manifold.resolution()
        at.hausdorff_distance(manifold, longtime, sp.diffusion([1.0]), sp.build_basis(DOM, 8))
        # two resolutions (the manifold's is not computed again) and two one-sided maxima
        assert len(calls) == 4 and all(pairs <= 3 * rows for rows, pairs in calls)

    def test_points_on_a_circle(self):
        # sorted on x, a point of the sparse upper arc has only points of the
        # dense lower arc for neighbours, 2 away in y; its nearest point is
        # found only by the wide second pass
        rng = np.random.default_rng(8)
        t = np.r_[np.sort(rng.uniform(0.0, np.pi, 40)),
                  np.sort(rng.uniform(np.pi, 2 * np.pi, 2000))]
        circle = np.c_[np.cos(t), np.sin(t)]
        query = circle[:40] * 1.001
        assert at._farthest_nearest(query, circle) == brute_farthest_nearest(query, circle)
        assert (at._farthest_nearest(circle, circle, skip_self=True)
                == brute_farthest_nearest(circle, circle, skip_self=True))

    def test_isotropic_cloud_keeps_pair_arrays_within_the_block(self, monkeypatch):
        # in 33 dimensions a window spans most of ref, so the screen turns
        # into blocked brute force; no pair array may outgrow PAIR_BLOCK
        # numbers, which here holds one row against all of ref and little more
        rng = np.random.default_rng(4)
        query, ref = rng.standard_normal((150, 33)), rng.standard_normal((200, 33))
        monkeypatch.setattr(at, "PAIR_BLOCK", 2**13)
        sizes = []
        pair_sq = at._pair_sq

        def counting_pair_sq(q, r, row, slot):
            sizes.append(row.size * q.shape[1])
            return pair_sq(q, r, row, slot)

        monkeypatch.setattr(at, "_pair_sq", counting_pair_sq)
        assert at._farthest_nearest(query, ref) == brute_farthest_nearest(query, ref)
        assert (at._farthest_nearest(ref, ref, skip_self=True)
                == brute_farthest_nearest(ref, ref, skip_self=True))
        assert len(sizes) > 100 and max(sizes) <= 2**13

    @pytest.mark.parametrize("skip_self", [False, True])
    def test_one_row_ref(self, skip_self):
        ref = np.array([[0.5, -1.0]])
        query = ref if skip_self else np.array([[0.0, 0.0], [3.5, 3.0], [0.5, -1.0]])
        result = at._farthest_nearest(query, ref, skip_self=skip_self)
        assert result == brute_farthest_nearest(query, ref, skip_self=skip_self)
        assert result == (np.inf if skip_self else 5.0)

    def test_resolution_is_computed_once_per_cloud(self, tanh_cloud, monkeypatch):
        calls = []
        farthest_nearest = at._farthest_nearest

        def counting(query, ref, skip_self=False):
            calls.append(len(query))
            return farthest_nearest(query, ref, skip_self)

        monkeypatch.setattr(at, "_farthest_nearest", counting)
        cloud = at.AttractorCloud(tanh_cloud.points, "ode", tanh_cloud.provenance)
        first = cloud.resolution()
        assert calls == [len(cloud)]
        assert cloud.resolution() == first and calls == [len(cloud)]

    def test_equally_spaced_cloud_screens_few_pairs_per_row(self, monkeypatch):
        # every row of a uniform grid ties at the maximum, and each is still
        # screened against its sorted neighbours alone; 1-d distances are
        # exact |a - b|, so neighbour gaps are the oracle
        grid = np.linspace(0.0, 1.0, 20001)
        mid = grid[:-1] + 0.5 * np.diff(grid)
        gaps = np.diff(grid)
        below = np.clip(np.searchsorted(grid, mid) - 1, 0, grid.size - 1)
        oracle_self = float(np.r_[gaps[0], np.minimum(gaps[:-1], gaps[1:]), gaps[-1]].max())
        oracle_mid = float(np.minimum(mid - grid[below], grid[below + 1] - mid).max())
        calls = self.count_pairs(monkeypatch)
        assert at._farthest_nearest(grid[:, None], grid[:, None], skip_self=True) == oracle_self
        assert at._farthest_nearest(mid[:, None], grid[:, None]) == oracle_mid
        assert len(calls) == 2 and all(pairs <= 3 * rows for rows, pairs in calls)

    def test_duplicate_cloud_resolution_is_its_floor(self):
        cloud = at.AttractorCloud(np.full((50, 2), 0.25), "ode", ["x"] * 50,
                                  {"resolution_floor": 1e-3})
        assert cloud.resolution() == 1e-3


class TestManifoldDeflection:
    def test_constant_cloud_zero(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        cloud = at.AttractorCloud(np.zeros((3, 1, 9)), "pde", ["x"] * 3, basis=basis, diffusion=E)
        assert at.manifold_deflection(cloud) == 0.0

    def test_single_mode_value(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([4.0])
        pts = np.zeros((2, 1, 9))
        pts[1, 0, 1] = 0.3
        cloud = at.AttractorCloud(pts, "pde", ["x"] * 2, basis=basis, diffusion=E)
        assert at.manifold_deflection(cloud) == pytest.approx(0.3 * np.sqrt(4 * np.pi**2 + 1), rel=1e-14)

    def test_bounded_by_graph_sup_norm(self, tanh_cloud):
        # the attractor lies in the invariant manifold, so the cloud's
        # mean-free content cannot exceed the graph sup-norm (both vanish
        # here) plus interpolation tolerance
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([4.0])
        (cloud,) = at.attractor_pde([E], TANH2, basis, tanh_cloud, n_tails=6, t_trans=10.0,
                                    seed=9)
        est = at.graph_iteration(E, TANH2, basis, grid_points=11)
        assert at.manifold_deflection(cloud) <= est.sup_norm + 1e-10

    def test_decays_with_diffusion(self, tanh_cloud):
        # short transients leave measurable mean-free content that dies out
        # faster than d^{-1/2}: nonincreasing with log-log slope <= -0.4
        basis = sp.build_basis(DOM, 16)
        values = []
        for d in (1.0, 2.0, 4.0, 8.0):
            E = sp.diffusion([d])
            (cloud,) = at.attractor_pde([E], TANH2, basis, tanh_cloud, n_tails=6, t_trans=0.5,
                                        seed=5)
            values.append(at.manifold_deflection(cloud))
        values = np.array(values)
        assert np.all(np.diff(values) < 0)
        slope = np.polyfit(np.log([1, 2, 4, 8]), np.log(values), 1)[0]
        assert slope <= -0.4


class TestGraphIteration:
    def test_zero_nonlinearity_immediate_fixed_point(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        est = at.graph_iteration(E, dyn.zero_nonlinearity(), basis, grid_points=11)
        assert est.sup_norm < 1e-14
        assert est.iterations == 1

    def test_each_clamped_state_counted_once(self):
        # with F = 0 the backward flow is v' = v, for which ETD2RK is exact:
        # every node grows by exp(dt) per step, so the clamped states follow
        # from the grid alone
        basis = sp.build_basis(DOM, 8)
        dt, box = 1e-3, 2.0
        est = at.graph_iteration(sp.diffusion([2.0]), dyn.zero_nonlinearity(), basis,
                                 grid_points=11, mu=0.0, box=box, dt=dt)
        assert est.iterations == 1
        states = np.abs(est.v_grid) * np.exp(dt) ** np.arange(int(np.ceil(est.horizon / dt)) + 1)
        expected = int(np.count_nonzero(states > box))
        assert expected > 0
        assert est.clamped == expected

    def test_one_forcing_evaluation_per_state(self):
        # 2 per ETD2RK step: one at each state, which the trapezoid sum and
        # the step from that state share, and one at the step's midstage
        calls = [0]

        def fn(u):
            calls[0] += 1
            return TANH2.fn(u)

        F = dyn.Nonlinearity("counted_tanh", {}, fn, TANH2.jac, 2.0, 2.0)
        dt = 1e-3
        seeded = np.zeros((5, 1, 9))
        seeded[:, :, 1] = 0.1  # a nonzero graph, so no sweep is the last by accident
        est = at.graph_iteration(sp.diffusion([16.0]), F, sp.build_basis(DOM, 8),
                                 iters=3, dt=dt, grid_points=5, initial=seeded)
        steps = int(np.ceil(est.horizon / dt))
        assert est.iterations == 3 and steps > 10
        assert calls[0] == est.iterations * (2 * steps + 1)

    def test_second_order_in_dt(self):
        # the ETD2RK backward flow and the trapezoid sum are both second
        # order: halving dt quarters the graph's gap to a fine-dt reference
        basis, E, m = sp.build_basis(DOM, 16), sp.diffusion([4.0]), 11
        seeded = np.zeros((m, 1, 17))
        seeded[:, 0, 1] = 0.1

        def graph(dt):
            return at.graph_iteration(E, TANH2, basis, grid_points=m, iters=2, dt=dt,
                                      initial=seeded).w_coeffs

        ref = graph(1.25e-4)
        gaps = [np.max(np.abs(graph(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_backward_flow_is_second_order(self):
        # the graph's gap above is the trapezoid sum's; the flow's own order
        # shows at its end: with a zero graph F sees the constant v of each
        # node, so its last input is where the backward flow ended. mu is
        # chosen to make the horizon 10/25 = 0.4, a whole number of each dt
        basis, E = sp.build_basis(DOM, 8), sp.diffusion([4.0])

        def end(dt):
            seen = []

            def fn(u):
                seen.append(u.copy())
                return TANH2.fn(u)

            F = dyn.Nonlinearity("recorded_tanh", {}, fn, TANH2.jac, 2.0, 2.0)
            est = at.graph_iteration(E, F, basis, grid_points=5, iters=1, dt=dt,
                                     mu=E.second_eigenvalue(basis) - 27.0)
            assert est.horizon == pytest.approx(0.4)
            return seen[-1][0, :, 0]

        ref = end(1.25e-4)
        gaps = [np.max(np.abs(end(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_linear_desk_variant_zero_graph(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([2.0])
        est = at.graph_iteration(E, dyn.linear_nonlinearity(0.5), basis,
                                 grid_points=11, mu=0.0, box=2.0)
        assert est.sup_norm < 1e-13

    def test_tanh_contracts_from_seeded_graph(self):
        basis = sp.build_basis(DOM, 16)
        E = sp.diffusion([4.0])
        m = 21
        initial = np.zeros((m, 1, 17))
        initial[:, 0, 1] = 0.1
        est = at.graph_iteration(E, TANH2, basis, grid_points=m, iters=4, initial=initial)
        assert est.contraction_factors
        assert all(f < 1.0 for f in est.contraction_factors)
        assert est.sup_norm < 0.1  # contracted well below the seed

    @pytest.mark.parametrize("grid_points", [2, 5, 21])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blend_is_scipy_linear_interpolation(self, n, grid_points):
        # the graph map's blend equals RegularGridInterpolator bit for bit on
        # every query the map makes: clipped to the box, between nodes, on
        # nodes and on both edges
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(10 * n + grid_points)
        box = 2.5
        node = np.linspace(-box, box, grid_points)
        table = rng.standard_normal((grid_points,) * n + (3 * n,))
        oracle = RegularGridInterpolator((node,) * n, table, method="linear",
                                         bounds_error=False, fill_value=None)
        x = rng.uniform(-2 * box, 2 * box, (4000, n))
        special = np.concatenate([node, [-box, box, -2 * box, 2 * box]])
        mask = rng.random(x.shape) < 0.5
        x[mask] = rng.choice(special, mask.sum())
        x = np.clip(x, -box, box)
        assert np.isin(x, node).all(axis=1).any() and np.isin(x, [-box, box]).any()
        assert at._grid_blend(node, table, x).tobytes() == oracle(x).tobytes()

    def test_two_components(self):
        # coupled_tanh acts pointwise, so with equal diffusion the constants
        # are invariant and the graph over them vanishes; a seeded 2-d graph
        # contracts towards it
        F, basis, m = dyn.coupled_tanh(), sp.build_basis(DOM, 8), 5
        E = sp.diffusion([8.0, 8.0])
        est = at.graph_iteration(E, F, basis, grid_points=m, iters=3)
        assert est.v_grid.shape == (m * m, 2)
        assert est.sup_norm < 1e-13
        seeded = np.zeros((m * m, 2, 9))
        seeded[:, 0, 1], seeded[:, 1, 2] = 0.1, -0.05
        est = at.graph_iteration(E, F, basis, grid_points=m, iters=3, initial=seeded)
        assert np.max(np.abs(est.w_coeffs[:, :, 0])) == 0.0
        assert len(est.contraction_factors) == 2
        assert all(f < 1.0 for f in est.contraction_factors)

    def test_mean_free_invariant(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([4.0])
        m = 11
        initial = np.zeros((m, 1, 9))
        initial[:, 0, 1] = 0.05
        est = at.graph_iteration(E, TANH2, basis, grid_points=m, iters=2, initial=initial)
        assert np.max(np.abs(est.w_coeffs[:, :, 0])) == 0.0

    def test_spectral_gap_precondition_enforced(self):
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([0.05], m0=0.01)
        with pytest.raises(at.SpectralGapError):
            at.graph_iteration(E, TANH2, basis)

    def test_non_contraction_aborts(self):
        # the guard exists for inputs whose declared constants are wrong: a
        # linear feedback above the spectral gap with an understated Lipschitz
        # constant slips past the precondition and genuinely diverges
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([0.02], m0=0.01)
        lying = dyn.Nonlinearity("linear", {"c": 1.3}, lambda u: 1.3 * u,
                                 lambda u: dyn._diagonal_jacobian(np.full_like(u, 1.3)),
                                 bound=None, lip=0.5)
        m = 9
        initial = np.zeros((m, 1, 9))
        initial[:, 0, 1] = 0.1
        with pytest.raises(at.ContractionError):
            at.graph_iteration(E, lying, basis, mu=0.0, grid_points=m, iters=8,
                               box=2.0, initial=initial, dt=5e-3)


def read_cloud(csv_path):
    """Parse a saved cloud: (provenance, points in their saved shape, sidecar)."""
    sidecar = json.loads((csv_path.parent / (csv_path.name + ".meta.json")).read_text())
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    points = np.array([[float(x) for x in row[1:]] for row in rows])
    return [row[0] for row in rows], points.reshape(sidecar["shape"]), sidecar


class TestCloudPersistence:
    def test_round_trip(self, tmp_path, tanh_cloud):
        path = tmp_path / "cloud.csv"
        at.save_cloud(tanh_cloud, path)
        provenance, points, sidecar = read_cloud(path)
        assert sidecar["kind"] == tanh_cloud.kind
        assert np.max(np.abs(points - tanh_cloud.points)) == 0.0
        assert provenance == list(tanh_cloud.provenance)
        assert sidecar["meta"]["F"] == "tanh"

    def test_pde_round_trip(self, tmp_path, pde_cloud_fast):
        cloud, E, basis = pde_cloud_fast
        path = tmp_path / "pcloud.csv"
        at.save_cloud(cloud, path)
        _, points, sidecar = read_cloud(path)
        assert points.shape == cloud.points.shape
        assert np.max(np.abs(points - cloud.points)) == 0.0
        assert sidecar["basis_modes"] == basis.mode_count
        assert sidecar["eps"] == list(E.eps)
