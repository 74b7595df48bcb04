import dataclasses
import json
import os
import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bigdiff import attractors as at
from bigdiff import dynamics as dyn
from bigdiff import rates as rt
from bigdiff import spectral as sp


def register_synthetic(name, fn, predicted=-0.5):
    rt.register_quantity(name, predicted, lambda seed: {},
                         rt.per_point(lambda d, ctx, s: (fn(d), {})))


register_synthetic("_test_power", lambda d: 3.0 * d**-0.5)
register_synthetic("_test_unit", lambda d: 1.0, predicted=0.0)
register_synthetic("_test_zero", lambda d: 0.0)
register_synthetic("_test_floor", lambda d: 1e-11)  # below ZERO_FLOOR, above rounding


def flaky_measure(d, ctx, s):
    if d in (2.0, 8.0):
        raise RuntimeError("synthetic failure")
    return 3.0 * d**-0.5, {}


rt.register_quantity("_test_flaky", -0.5, lambda seed: {}, rt.per_point(flaky_measure))
rt.register_quantity("_test_allfail", -0.5, lambda seed: {},
                     rt.per_point(lambda d, ctx, s: (_ for _ in ()).throw(RuntimeError("no"))))
rt.register_quantity("_test_typeerror", -0.5, lambda seed: {},
                     rt.per_point(lambda d, ctx, s: (_ for _ in ()).throw(
                         TypeError("programmer error"))))

_CLOUD = {"modes": 8, "components": 1, "nonlinearity": {"name": "tanh", "beta": 2.0},
          "n_tails": 2, "w_amplitude": 0.3, "t_trans": 1.0, "sample_dt": 0.01, "arc_dt": 5e-3}
# the full params of each registered quantity
PARAMS = {
    "resolvent_gap": {"modes": 8, "components": 1, "trials": 4},
    "w_decay_rate": {"modes": 8, "components": 1, "nonlinearity": {"name": "zero"},
                     "m_horizon": 10.0},
    "deflection": _CLOUD,
    "hausdorff": {**_CLOUD, "m_horizon": 10.0},
    "graph_sup": {"modes": 8, "components": 1, "nonlinearity": {"name": "tanh", "beta": 2.0},
                  "grid_points": 5, "iters": 2, "seed_amplitude": 0.1, "m_horizon": 10.0},
}


class TestLoglogFit:
    def test_exact_power_law(self):
        d = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = rt.loglog_fit(d, 3.0 * d**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_values(self):
        d = np.array([1.0, 2.0, 4.0, 8.0])
        fit = rt.loglog_fit(d, np.ones(4))
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_noisy_power_law(self):
        rng = np.random.default_rng(3)
        d = 2.0 ** np.arange(9)
        values = d**-0.5 * np.exp(rng.normal(0, 0.01, size=9))
        fit = rt.loglog_fit(d, values)
        assert abs(fit.slope + 0.5) < 0.02

    def test_needs_positive_values(self):
        with pytest.raises(rt.FitError):
            rt.loglog_fit([1.0, 2.0], [1.0, 0.0])

    def test_needs_two_points(self):
        with pytest.raises(rt.FitError):
            rt.loglog_fit([1.0], [1.0])


class TestSweepConfig:
    def test_requires_four_points(self):
        with pytest.raises(ValueError, match="4 points"):
            rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0))

    def test_requires_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            rt.SweepConfig("resolvent_gap", (1.0, 2.0, 2.0, 4.0))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_requires_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0, bad), params=PARAMS["resolvent_gap"])

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="unknown quantity"):
            rt.SweepConfig("nope", (1.0, 2.0, 4.0, 8.0))

    @pytest.mark.parametrize("quantity", sorted(PARAMS))
    def test_params_must_match_prepare(self, quantity):
        # a misspelt key would otherwise be recorded in config.json but never read
        d_values = (1.0, 2.0, 4.0, 8.0)
        rt.SweepConfig(quantity, d_values, params=PARAMS[quantity])
        with pytest.raises(ValueError, match="trails"):
            rt.SweepConfig(quantity, d_values, params={**PARAMS[quantity], "trails": 99})
        missing = dict(PARAMS[quantity])
        del missing["modes"]
        with pytest.raises(ValueError, match="modes"):
            rt.SweepConfig(quantity, d_values, params=missing)


class TestRunSweep:
    def test_resolvent_gap_matches_closed_form(self, tmp_path, sweep):
        cfg = rt.SweepConfig("resolvent_gap", tuple(2.0 ** np.arange(9)),
                             params={"modes": 128, "components": 1, "trials": 8}, seed=7)
        fit, record = sweep(cfg, out_root=tmp_path)
        lam1 = np.pi**2
        oracle_values = (np.array(cfg.d_eps_values) * lam1 + 1.0) ** -0.5
        oracle_slope = np.polyfit(np.log(cfg.d_eps_values), np.log(oracle_values), 1)[0]
        assert fit.slope == pytest.approx(oracle_slope, abs=1e-12)
        assert abs(fit.slope + 0.5) < 0.02
        assert record.status == "complete"
        assert record.metrics["n_ok"] == 9

    def test_w_decay_rate_affine_in_d(self, tmp_path, sweep):
        cfg = rt.SweepConfig("w_decay_rate", (1.0, 2.0, 4.0, 8.0),
                             params={"modes": 8, "components": 1,
                                     "nonlinearity": {"name": "zero"}, "m_horizon": 10.0},
                             seed=1)
        fit, record = sweep(cfg, out_root=tmp_path)
        rates = np.array(record.metrics["values"])
        slope, intercept = np.polyfit(cfg.d_eps_values, rates, 1)
        assert slope == pytest.approx(np.pi**2, rel=1e-2)
        assert intercept == pytest.approx(1.0, abs=0.2)

    def test_decay_blow_up_fails_only_its_own_d(self, tmp_path, sweep):
        # the nine d step as one batch; the oracle evolves each d alone
        d_values = tuple(2.0 ** np.arange(9))
        params = {"modes": 16, "components": 1, "nonlinearity": {"name": "linear", "c": 7.0},
                  "m_horizon": 10.0}
        _, record = sweep(rt.SweepConfig("w_decay_rate", d_values, params=params),
                          out_root=tmp_path)
        basis = sp.build_basis(sp.DomainSpec(), 16)
        u0 = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, 0.5)
        F = dyn.linear_nonlinearity(7.0)
        expected = ["d_eps,value,status"]
        for d in d_values:
            E = sp.diffusion([d])
            T = 40.0 / E.second_eigenvalue(basis)
            try:
                traj = dyn.evolve_pde(u0, E, F, T=T, dt=T / 2000, stride=5)
            except dyn.BlowUpError as err:
                expected.append(f"{d:.17g},nan,failed: BlowUpError: {err}")
                continue
            mu = dyn.compute_M_and_mu(E, basis, horizon=10.0).mu
            fit = dyn.decay_rate_fit(traj.times, traj.w_xhalf, E.second_eigenvalue(basis), mu=mu)
            expected.append(f"{d:.17g},{fit.fitted_rate:.17g},ok")
        assert expected[1] == ("1,nan,failed: BlowUpError: trajectory blew up at t=3.06911 "
                               "(coefficient norm 1e+08)")
        assert all(row.endswith(",ok") for row in expected[2:])
        assert open(record.paths["points"]).read().splitlines() == expected

    @pytest.mark.parametrize("failure", ["newton", "blow_up"])
    def test_cloud_sweep_failure_fails_only_its_own_d(self, tmp_path, sweep, monkeypatch, failure):
        # d = 2 fails in its Newton solve, or its arcs start 1e9 from the origin and
        # blow up in the first step; its row reads as when d = 2 runs alone, and
        # every other row as when that d runs alone
        solve = at.find_equilibria_pde

        def failing_solve(E, F, seeds):
            if E.d_eps == 2.0:
                raise at.NoEquilibriaError("no PDE equilibrium found from the given seeds")
            return solve(E, F, seeds)

        def far_directions(E, F, seeds):
            scale = 1e14 if E.d_eps == 2.0 else 1.0
            return [dataclasses.replace(eq, directions=[scale * v for v in eq.directions])
                    for eq in solve(E, F, seeds)]

        monkeypatch.setattr(at, "find_equilibria_pde",
                            failing_solve if failure == "newton" else far_directions)
        d_values = (1.0, 2.0, 4.0, 8.0, 16.0)
        params = PARAMS["hausdorff"]
        _, record = sweep(rt.SweepConfig("hausdorff", d_values, params=params, seed=3),
                          out_root=tmp_path)
        _, prepare, measure = rt.QUANTITIES["hausdorff"]
        ctx = prepare(3, **params)
        expected = ["d_eps,value,status"]
        for d in d_values:
            (alone,) = measure((d,), ctx, [0])
            if isinstance(alone, Exception):
                expected.append(f"{d:.17g},nan,failed: {type(alone).__name__}: {alone}")
            else:
                expected.append(f"{d:.17g},{alone[0]:.17g},ok")
        assert expected[2].startswith("2,nan,failed: " + {
            "newton": "NoEquilibriaError: no PDE equilibrium",
            "blow_up": "BlowUpError: trajectory blew up at t=0 "}[failure])
        assert sum(row.endswith(",ok") for row in expected) == 4
        assert open(record.paths["points"]).read().splitlines() == expected

    def test_decay_blow_up_in_the_first_step(self, tmp_path, sweep):
        # d = 1 blows up in the batch's first step, before the rows have their own times
        d_values = (1.0, 2.0, 64.0, 1e6)
        params = {"modes": 8, "components": 1, "nonlinearity": {"name": "linear", "c": 1e7},
                  "m_horizon": 10.0}
        with pytest.raises(rt.FitError):
            sweep(rt.SweepConfig("w_decay_rate", d_values, params=params), out_root=tmp_path)
        basis = sp.build_basis(sp.DomainSpec(), 8)
        u0 = sp.constant_field([1.0], basis) + sp.mode_field(basis, 1, 0.5)
        expected = ["d_eps,value,status"]
        for d in d_values:
            E = sp.diffusion([d])
            T = 40.0 / E.second_eigenvalue(basis)
            with pytest.raises(dyn.BlowUpError) as err:
                dyn.evolve_pde(u0, E, dyn.linear_nonlinearity(1e7), T=T, dt=T / 2000, stride=5)
            expected.append(f"{d:.17g},nan,failed: BlowUpError: {err.value}")
        assert expected[1].startswith("1,nan,failed: BlowUpError: trajectory blew up at t=0 ")
        (points,) = tmp_path.glob("*/points.csv")
        assert points.read_text().splitlines() == expected

    def test_timings_of_every_stage(self, tmp_path, sweep):
        _, record = sweep(rt.SweepConfig("_test_power", (1.0, 2.0, 4.0, 8.0)),
                          out_root=tmp_path)
        timings = rt.load_run(record.paths["record"]).timings
        assert set(timings) == {"prepare", "measure", "persist", "total"}
        assert all(value >= 0.0 for value in timings.values())
        assert timings["total"] >= timings["prepare"] + timings["measure"] + timings["persist"]

    def test_constant_quantity_slope_zero(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_unit", (1.0, 2.0, 4.0, 8.0))
        fit, _ = sweep(cfg, out_root=tmp_path)
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_zero_quantity_not_fitted(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_zero", (1.0, 2.0, 4.0, 8.0))
        fit, record = sweep(cfg, out_root=tmp_path)
        assert fit is None
        assert "identically zero" in record.metrics["note"]
        points = (tmp_path / record.paths["points"].split("/")[-2] / "points.csv").read_text()
        assert points.count(",zero") == 4

    def test_below_zero_floor_not_fitted(self, tmp_path, sweep):
        # one floor classifies sweep points and the CLI verdicts alike
        cfg = rt.SweepConfig("_test_floor", (1.0, 2.0, 4.0, 8.0))
        fit, record = sweep(cfg, out_root=tmp_path)
        assert fit is None
        rows = open(record.paths["points"]).read().splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",zero") for row in rows)
        assert record.metrics["n_zero"] == 4

    def test_failures_recorded_and_excluded(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_flaky", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        fit, record = sweep(cfg, out_root=tmp_path)
        assert record.metrics["n_failed"] == 2
        assert record.metrics["n_ok"] == 4
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_many_failures_refused(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_allfail", (1.0, 2.0, 4.0, 8.0))
        with pytest.raises(rt.FitError):
            sweep(cfg, out_root=tmp_path)

    def test_failed_sweep_keeps_its_points(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_allfail", (1.0, 2.0, 4.0, 8.0))
        with pytest.raises(rt.FitError):
            sweep(cfg, out_root=tmp_path)
        (points,) = tmp_path.glob("*/points.csv")
        rows = points.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",failed: RuntimeError: no") for row in rows)
        (record_path,) = tmp_path.glob("*/record.json")
        assert rt.load_run(record_path).status == "incomplete"

    def test_programmer_error_is_raised_not_recorded(self, tmp_path, sweep):
        # only domain errors become "failed:" points; a TypeError is a bug
        cfg = rt.SweepConfig("_test_typeerror", (1.0, 2.0, 4.0, 8.0))
        with pytest.raises(TypeError, match="programmer error"):
            sweep(cfg, out_root=tmp_path)
        (record_path,) = tmp_path.glob("*/record.json")
        assert rt.load_run(record_path).status == "incomplete"
        assert not list(tmp_path.glob("*/points.csv"))


class TestWriteTable:
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=6))
    def test_finite_floats_read_back_exactly(self, tmp_path, values):
        path = tmp_path / "table.csv"
        text = rt.write_table(path, ["x", "minus_x"], [[v, -v] for v in values])
        assert path.read_text() == text
        header, *lines = text.splitlines()
        assert header == "x,minus_x"
        cells = np.array([[float(x) for x in line.split(",")] for line in lines])
        expected = np.array([[v, -v] for v in values])
        assert cells.tobytes() == expected.tobytes()  # bit for bit, -0.0 included

    def test_none_and_nan_are_nan_and_text_passes_through(self, tmp_path):
        text = rt.write_table(tmp_path / "plot.dat", None,
                              [[1, None, float("nan"), "failed: ValueError: x; y"]], sep=" ")
        assert text == "1 nan nan failed: ValueError: x; y\n"
        assert (tmp_path / "plot.dat").read_text() == text


class TestDeterminism:
    def test_bit_identical_reruns(self, tmp_path, sweep):
        cfg = rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0, 8.0, 16.0),
                             params={"modes": 32, "components": 1, "trials": 32}, seed=11)
        _, rec1 = sweep(cfg, out_root=tmp_path / "a")
        _, rec2 = sweep(cfg, out_root=tmp_path / "b")
        for key in ("points", "fit", "plot", "plot_loglog", "config", "details"):
            a = open(rec1.paths[key], "rb").read()
            b = open(rec2.paths[key], "rb").read()
            assert a == b, key
        assert rec1.metrics == rec2.metrics

    def test_seed_changes_sampled_values(self, tmp_path, sweep):
        base = dict(params={"modes": 16, "components": 1, "trials": 4})
        _, rec1 = sweep(rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0, 8.0),
                                       seed=1, **base), out_root=tmp_path / "a")
        _, rec2 = sweep(rt.SweepConfig("resolvent_gap", (1.0, 2.0, 4.0, 8.0),
                                       seed=2, **base), out_root=tmp_path / "b")
        a = open(rec1.paths["details"]).read()
        b = open(rec2.paths["details"]).read()
        assert a != b  # sampled gap depends on the seed


class TestOpenRun:
    def test_running_inside_incomplete_after_a_raising_body(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with rt.open_run(tmp_path, "probe", 3) as record:
                inside = rt.load_run(record.paths["record"])
                raise KeyboardInterrupt
        assert inside.status == "running" and inside.finished == ""
        after = rt.load_run(record.paths["record"])
        assert after.status == "incomplete" and after.finished
        assert after.config == {"resolved_ini": f"{record.paths['run_dir']}/resolved.ini"}

    def test_total_time_stamped_at_close(self, tmp_path):
        # a run with no sweep stages (eigs, example-optimal, attractor) has its total too
        with rt.open_run(tmp_path, "probe", 3) as record:
            inside = rt.load_run(record.paths["record"])
        timings = rt.load_run(record.paths["record"]).timings
        assert inside.timings == {}
        assert set(timings) == {"total"} and timings["total"] >= 0.0

    def test_record_names_its_environment(self, tmp_path):
        with rt.open_run(tmp_path, "probe", 3) as record:
            pass
        with open(record.paths["record"]) as fh:
            raw = json.load(fh)
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert raw["environment"] == {"python": platform.python_version(),
                                      "numpy": np.__version__, "cpu_count": os.cpu_count(),
                                      "blas": {"name": blas["name"], "version": blas["version"]}}
        assert "environment" not in raw["metrics"]

    def test_environment_without_a_named_blas(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np.__config__, "CONFIG", {"Build Dependencies": {}})
        with rt.open_run(tmp_path, "probe", 3) as record:
            pass
        assert record.environment["blas"] is None


class TestRunRecordPersistence:
    def test_round_trip(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_power", (1.0, 2.0, 4.0, 8.0))
        _, record = sweep(cfg, out_root=tmp_path)
        loaded = rt.load_run(record.paths["record"])
        assert loaded == record

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rt.load_run(tmp_path / "nothing.json")

    def test_corrupted_record_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "quantity": "x",\n  broken\n}\n')
        with pytest.raises(rt.RecordError, match="line 3"):
            rt.load_run(path)

    def test_run_dir_layout(self, tmp_path, sweep):
        cfg = rt.SweepConfig("_test_power", (1.0, 2.0, 4.0, 8.0))
        _, record = sweep(cfg, out_root=tmp_path)
        run_dir = tmp_path / record.paths["points"].split("/")[-2]
        names = {p.name for p in run_dir.iterdir()}
        assert {"points.csv", "fit.csv", "plot.dat", "plot_loglog.dat",
                "config.json", "record.json"} <= names
        header = (run_dir / "points.csv").read_text().splitlines()[0]
        assert header == "d_eps,value,status"
        fit_header = (run_dir / "fit.csv").read_text().splitlines()[0]
        assert fit_header == "slope,intercept,r_squared,predicted_slope"
        # config snapshot reproduces the run
        snap = json.loads((run_dir / "config.json").read_text())
        cfg2 = rt.SweepConfig(snap["quantity"], tuple(snap["d_eps_values"]),
                              params=snap["params"], seed=snap["seed"])
        fit2, _ = sweep(cfg2, out_root=tmp_path / "rerun")
        assert fit2.slope == pytest.approx(-0.5, abs=1e-12)
