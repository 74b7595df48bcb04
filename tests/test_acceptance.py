"""Acceptance suite: the package's headline claims, each at a pinned tolerance.

Each test prints one machine-greppable line

    ACCEPTANCE <k> <name>: PASS|FAIL

(run pytest with -s or -rA to see them on the terminal).
"""

import contextlib
import json

import numpy as np
import pytest

from bigdiff import attractors as at
from bigdiff import cli
from bigdiff import dynamics as dyn
from bigdiff import elliptic as el
from bigdiff import rates as rt
from bigdiff import spectral as sp

DOM = sp.DomainSpec()
SWEEP9 = tuple(2.0 ** np.arange(9))
SWEEP7 = tuple(2.0 ** np.arange(7))
SWEEP5 = tuple(2.0 ** np.arange(5))


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


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


def test_criterion_1_resolvent_rate(tmp_path, sweep):
    with criterion(1, "resolvent rate"):
        cfg = rt.SweepConfig("resolvent_gap", SWEEP9,
                             params={"modes": 128, "components": 1, "trials": 64},
                             seed=11)
        fit, record = sweep(cfg, out_root=tmp_path)
        # slope within +-0.02 of the predicted -1/2
        assert abs(fit.slope + 0.5) <= 0.02
        # the measured values are the closed form (d lam1 + 1)^{-1/2}; the
        # harness slope must match an independent fit of that formula to 1e-3
        oracle = (np.array(SWEEP9) * np.pi**2 + 1.0) ** -0.5
        oracle_slope = np.polyfit(np.log(SWEEP9), np.log(oracle), 1)[0]
        assert abs(fit.slope - oracle_slope) <= 1e-3
        assert np.allclose(fit.values, oracle, rtol=1e-14, atol=0)
        # the rate is attained: gap * sqrt(d lam1 + 1) = 1 exactly
        basis = sp.build_basis(DOM, 128)
        for d in SWEEP9:
            E = sp.diffusion([d])
            product = el.resolvent_gap_exact(E, basis) * np.sqrt(E.second_eigenvalue(basis))
            assert abs(product - 1.0) <= 1e-12


def test_criterion_2_optimal_example():
    with criterion(2, "optimality example"):
        for K in (4, 8, 128):
            basis = sp.build_basis(DOM, K)
            rep = el.optimal_example_check(1.0, basis)
            assert rep.closed_form_error <= 1e-12
        basis = sp.build_basis(DOM, 8)
        products = [el.optimal_example_check(e, basis).seminorm_sq * e
                    for e in (1.0, 4.0, 16.0, 64.0)]
        assert max(products) - min(products) <= 1e-10
        assert products[0] == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-12)
        assert products[0] == pytest.approx(0.0126651, abs=1e-7)


def test_criterion_3_homogenization_decay(tmp_path, sweep):
    with criterion(3, "homogenization decay"):
        lam1 = np.pi**2
        # F = 0, u0 = 1 + 0.5 phi_1: fitted rate equals d lam1 + 1 to 0.1%
        cfg0 = rt.SweepConfig("w_decay_rate", SWEEP9,
                              params={"modes": 16, "components": 1,
                                      "nonlinearity": {"name": "zero"}, "m_horizon": 10.0},
                              seed=3)
        _, record0 = sweep(cfg0, out_root=tmp_path)
        rows0 = _details(record0)
        for row in rows0:
            assert abs(row["fitted_rate"] - row["lam2"]) / row["lam2"] <= 1e-3
            assert row["lam2"] == row["d_eps"] * lam1 + 1.0
        # F = 2 tanh: fitted rate >= d lam1 + 1 - mu (operational mu, T* = 10)
        cfg1 = rt.SweepConfig("w_decay_rate", SWEEP9,
                              params={"modes": 32, "components": 1,
                                      "nonlinearity": {"name": "tanh", "beta": 2.0},
                                      "m_horizon": 10.0},
                              seed=3)
        _, record1 = sweep(cfg1, out_root=tmp_path)
        for row in _details(record1):
            assert row["fitted_rate"] >= row["theoretical_rate"]
            assert row["theoretical_rate"] == pytest.approx(row["lam2"] - row["mu"], rel=1e-12)


def test_criterion_4_eigenvalue_divergence():
    with criterion(4, "eigenvalue divergence"):
        basis = sp.build_basis(DOM, 64)
        for d in SWEEP9:
            for eps in ([d], [d, 2 * d]):
                E = sp.diffusion(eps)
                J = 30
                table = el.eigenvalue_table(E, basis, J)
                closed = np.sort((np.asarray(eps)[:, None]
                                  * basis.eigenvalues[None, :] + 1.0).ravel())[:J]
                assert np.all(table == closed)  # bit-exact formula path
                lam2 = E.second_eigenvalue(basis)
                assert lam2 == E.d_eps * basis.eigenvalues[1] + 1.0
                above_one = table[table > 1.0]
                assert above_one[0] == lam2


def test_criterion_5_projection_estimate():
    with criterion(5, "projection estimate"):
        basis = sp.build_basis(DOM, 128)
        for d in SWEEP5:
            E = sp.diffusion([d])
            q = el.spectral_projection_Q(E, basis)
            assert el.projection_gap(q) <= 1e-12
            qc = el.spectral_projection_Q(E, basis, delta=0.5, mode="contour",
                                          contour_nodes=64)
            assert np.max(np.abs(qc.weights - q.weights)) <= 1e-8


@pytest.fixture(scope="module")
def tanh_structure():
    F = dyn.tanh_pitchfork(2.0)
    equilibria = at.find_equilibria_ode(F, box=3.0)
    manifold = at.attractor_ode(F)
    return F, equilibria, manifold


def test_criterion_6_attractor_structure(tanh_structure):
    with criterion(6, "attractor structure"):
        F, equilibria, manifold = tanh_structure
        locations = sorted(eq.vector()[0] for eq in equilibria)
        assert locations[0] == pytest.approx(-USTAR, abs=1e-9)
        assert locations[1] == pytest.approx(0.0, abs=1e-12)
        assert locations[2] == pytest.approx(USTAR, abs=1e-9)
        assert USTAR == pytest.approx(1.91501, abs=1e-5)
        by_loc = {round(eq.vector()[0], 3): eq for eq in equilibria}
        assert by_loc[0.0].stability == "unstable(1)"
        assert by_loc[round(USTAR, 3)].stability == "stable"
        assert by_loc[round(-USTAR, 3)].stability == "stable"
        # manifold-union cloud vs 2000-seed long-time sampling cloud
        box, cell, rate = 3.0, 1.25e-3, abs(1.0 - USTAR**2 / 2)
        t_burn = float(np.log(2 * box / cell) / rate)
        longtime = at.attractor_ode_longtime(F, n_seeds=2000, box=box,
                                             t_burn=t_burn, t_end=t_burn + 16.0,
                                             dedup_cell=cell, seed=0)
        basis = sp.build_basis(DOM, 8)
        E = sp.diffusion([1.0])
        res = at.hausdorff_distance(manifold, longtime, E, basis)
        resolution = max(res.resolution_a, res.resolution_b)
        assert res.sym <= 2 * resolution


def test_criterion_7_attractor_convergence(tmp_path, sweep):
    with criterion(7, "attractor convergence"):
        cfg = rt.SweepConfig("hausdorff", SWEEP7,
                             params={"modes": 32, "components": 1,
                                     "nonlinearity": {"name": "tanh", "beta": 2.0},
                                     "n_tails": 24, "w_amplitude": 0.3,
                                     "t_trans": 1.0, "sample_dt": 1e-2,
                                     "arc_dt": 5e-4, "m_horizon": 10.0},
                             seed=21)
        fit, record = sweep(cfg, out_root=tmp_path)
        rows = _details(record)
        values = np.array([max(r["a_to_b"], r["b_to_a"]) for r in rows])
        assert np.all(np.diff(values) <= 1e-12)  # nonincreasing
        assert fit is not None and fit.slope <= -0.4
        # past the operational coincidence threshold d lam1 > mu - 1 the
        # distance sits below the declared cloud resolution
        threshold_rows = [r for r in rows if r["threshold_met"] > 0.5]
        assert threshold_rows, "no swept d passed the coincidence threshold"
        for row in threshold_rows:
            assert max(row["a_to_b"], row["b_to_a"]) <= row["resolution"]


def test_criterion_8_manifold_deflection(tmp_path, sweep):
    with criterion(8, "manifold deflection"):
        # deflection at long transients: identically zero at solver tolerance,
        # so deflection * sqrt(d) trivially satisfies any constant band
        cfg_defl = rt.SweepConfig("deflection", SWEEP5,
                                  params={"modes": 32, "components": 1,
                                          "nonlinearity": {"name": "tanh", "beta": 2.0},
                                          "n_tails": 12, "w_amplitude": 0.3,
                                          "t_trans": 10.0, "sample_dt": 1e-2,
                                          "arc_dt": 1e-3},
                                  seed=8)
        fit, record = sweep(cfg_defl, out_root=tmp_path)
        values = np.array([r["deflection"] for r in _details(record)])
        assert np.all(values <= 1e-10)
        assert fit is None
        assert "identically zero" in record.metrics["note"]
        # graph iteration contracts whenever the spectral gap precondition holds
        basis = sp.build_basis(DOM, 32)
        F = dyn.tanh_pitchfork(2.0)
        for d in SWEEP5:
            E = sp.diffusion([d])
            mu = dyn.compute_M_and_mu(E, basis, horizon=10.0).mu
            assert E.second_eigenvalue(basis) - mu > F.lip  # precondition holds
            m = 21
            seeded = np.zeros((m, 1, 33))
            seeded[:, 0, 1] = 0.1
            est = at.graph_iteration(E, F, basis, grid_points=m, iters=3,
                                     initial=seeded)
            assert est.contraction_factors and all(f < 1.0 for f in est.contraction_factors)
        # s_* vanishes identically for F = 0
        est0 = at.graph_iteration(sp.diffusion([2.0]), dyn.zero_nonlinearity(), basis,
                                  grid_points=11)
        assert est0.sup_norm <= 1e-14


def test_criterion_9_infrastructure(tmp_path, sweep):
    with criterion(9, "infrastructure"):
        # bit-for-bit reproducibility of every CSV under identical config+seed
        cfg = rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0, 8.0, 16.0),
                             params={"modes": 64, "components": 1, "trials": 48}, seed=99)
        _, rec1 = sweep(cfg, out_root=tmp_path / "a")
        _, rec2 = sweep(cfg, out_root=tmp_path / "b")
        for key in ("points", "fit", "plot", "plot_loglog", "config", "details"):
            assert open(rec1.paths[key], "rb").read() == open(rec2.paths[key], "rb").read()
        cfg_h = rt.SweepConfig("hausdorff", (1.0, 2.0, 4.0, 8.0),
                               params={"modes": 16, "components": 1,
                                       "nonlinearity": {"name": "tanh", "beta": 2.0},
                                       "n_tails": 6, "w_amplitude": 0.3,
                                       "t_trans": 1.0, "sample_dt": 1e-2,
                                       "arc_dt": 1e-3, "m_horizon": 10.0},
                               seed=5)
        _, rech1 = sweep(cfg_h, out_root=tmp_path / "c")
        _, rech2 = sweep(cfg_h, out_root=tmp_path / "d")
        for key in ("points", "fit", "plot", "plot_loglog", "details"):
            assert open(rech1.paths[key], "rb").read() == open(rech2.paths[key], "rb").read()

        # CLI exit-code matrix: 0 pass, 1 quantitative fail, 2 config, 3 runtime
        small = tmp_path / "small.ini"
        small.write_text("[domain]\nmodes = 16\n\n[sweep]\nd_eps = 1,2,4,8\n")
        assert cli.main(["resolvent-rate", "-c", str(small), "--quiet",
                         "--out-root", str(tmp_path / "cli0")]) == 0
        strict = tmp_path / "strict.ini"
        strict.write_text("[domain]\nmodes = 16\n\n[sweep]\nd_eps = 1,2,4,8\n"
                          "\n[tolerances]\nslope = 1e-9\n")
        assert cli.main(["resolvent-rate", "-c", str(strict), "--quiet",
                         "--out-root", str(tmp_path / "cli1")]) == 1
        broken = tmp_path / "broken.ini"
        broken.write_text("[domain]\nmoodes = 16\n")
        assert cli.main(["eigs", "-c", str(broken), "--quiet",
                         "--out-root", str(tmp_path / "cli2")]) == 2
        blow = tmp_path / "blow.ini"
        blow.write_text("[domain]\nmodes = 8\n\n[sweep]\nd_eps = 1,2,4,8\n"
                        "\n[nonlinearity]\nname = linear\nc = 40.0\n")
        assert cli.main(["decay", "-c", str(blow), "--quiet",
                         "--out-root", str(tmp_path / "cli3")]) == 3
        # a passing run record reloads identically
        run_dir = next((tmp_path / "cli0").iterdir())
        record = rt.load_run(run_dir / "record.json")
        assert record.status == "complete"
        assert json.loads((run_dir / "config.json").read_text())["seed"] == 1234


def _details(record):
    with open(record.paths["details"]) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, (float(x) for x in line.split(","))))
                for line in fh]
