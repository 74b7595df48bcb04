import argparse
import inspect
import json
import os
import re
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigdiff import attractors as at
from bigdiff import cli
from bigdiff import dynamics as dyn
from bigdiff import elliptic as el
from bigdiff import rates as rt
from bigdiff.config import Config, ConfigError, DEFAULTS, default_config, load_config


def write(path, text):
    path.write_text(text)
    return str(path)


SMALL = """
[domain]
modes = 16

[sweep]
d_eps = 1,2,4,8
"""


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg.data == DEFAULTS
        assert cfg.get("domain", "modes") == 128
        assert cfg.get("run", "seed") == 1234

    def test_partial_override(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.ini", SMALL))
        assert cfg.get("domain", "modes") == 16
        assert cfg.get("domain", "components") == 1  # untouched default
        assert cfg.get("sweep", "d_eps") == (1.0, 2.0, 4.0, 8.0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'moodes'"):
            load_config(write(tmp_path / "a.ini", "[domain]\nmoodes = 4\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path / "a.ini", "[domian]\nmodes = 4\n"))
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path / "b.ini", "[dynamics]\nscheme = etd2rk\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[domain\] modes"):
            load_config(write(tmp_path / "a.ini", "[domain]\nmodes = many\n"))

    def test_non_increasing_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="increasing"):
            load_config(write(tmp_path / "a.ini", "[sweep]\nd_eps = 1,2,2,4\n"))

    def test_empty_value_means_default(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.ini", "[domain]\nmodes =\n"))
        assert cfg.get("domain", "modes") == 128

    def test_bool_parsing(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.ini", "[run]\nquiet = true\n"))
        assert cfg.get("run", "quiet") is True
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "b.ini", "[run]\nquiet = maybe\n"))

    def test_round_trip(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.ini", SMALL))
        cfg.write(tmp_path / "resolved.ini")
        again = load_config(tmp_path / "resolved.ini")
        assert again.data == cfg.data

    def test_inline_comments(self, tmp_path):
        cfg = load_config(write(tmp_path / "a.ini", "[domain]\nmodes = 32  # coarse\n"))
        assert cfg.get("domain", "modes") == 32

    def test_derived_objects(self):
        cfg = default_config()
        cfg.data["domain"]["components"] = 2
        cfg.data["nonlinearity"]["name"] = "coupled_tanh"
        E = cfg.diffusion_spec()
        assert E.components == 2  # single eps broadcast to n components
        F = cfg.nonlinearity()
        assert F.name == "coupled_tanh"

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")


class TestStrictConfig:
    # configparser reads a [DEFAULT] section into every other section
    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nmodes = 8\n",
        "[DEFAULT]\nseed = 5\n[run]\nquiet = true\n",
        "[DEFAULT]\nseed = 5\n[domain]\nmodes = 8\n",
    ], ids=["alone", "beside_run", "beside_domain"])
    def test_default_section_is_unknown(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_config(write(tmp_path / "a.ini", text))


# the text a config value may hold: printable ASCII, no comment or line marks
_TEXT = st.text(alphabet=sorted(set(string.printable) - set(string.whitespace) - set("#;")) + [" "],
                min_size=1, max_size=12).map(str.strip).filter(bool)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_BY_TYPE = {bool: st.booleans(), int: st.integers(-10**6, 10**6), float: _FINITE,
            str: _TEXT, tuple: st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple)}
# keys whose values load_config validates beyond their type
_VALID = {
    ("domain", "components"): st.integers(1, 8),
    ("domain", "modes"): st.integers(2, 512),
    ("sweep", "d_eps"): st.lists(_POSITIVE, min_size=4, max_size=9, unique=True)
                          .map(sorted).map(tuple),
    ("attractor", "arc_dt"): _POSITIVE,
    ("attractor", "sample_dt"): _POSITIVE,
    ("attractor", "dedup_cell"): _POSITIVE,
    ("attractor", "n_tails"): st.integers(0, 10**6),
    ("attractor", "longtime_seeds"): st.integers(1, 10**6),
    ("attractor", "t_trans"): st.floats(0.0, 1e6),
    ("attractor", "deflection_t_trans"): st.floats(0.0, 1e6),
    ("manifold", "grid_points"): st.integers(2, 10**6),
    ("manifold", "iterations"): st.integers(1, 10**6),
    ("semigroup", "m_horizon"): _POSITIVE,
    ("run", "seed"): st.integers(0, 10**6),
    ("nonlinearity", "name"): st.sampled_from(sorted(dyn.NONLINEARITIES)),
}


@st.composite
def _valid_data(draw):
    """Every key drawn by its strategy, then the keys load_config checks together made to agree."""
    data = draw(st.fixed_dictionaries({
        section: st.fixed_dictionaries({key: _VALID.get((section, key), _BY_TYPE[type(default)])
                                        for key, default in keys.items()})
        for section, keys in DEFAULTS.items()}))
    if data["nonlinearity"]["name"] == "coupled_tanh":
        data["domain"]["components"] = 2
    size = draw(st.sampled_from([1, data["domain"]["components"]]))
    data["diffusion"]["eps"] = tuple(draw(st.lists(_POSITIVE, min_size=size, max_size=size)))
    return data


_DATA = _valid_data()


class TestConfigRoundTrip:
    @given(data=_DATA)
    @settings(max_examples=60, deadline=None)
    def test_to_ini_round_trips(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "resolved.ini")
            Config(data).write(path)
            assert load_config(path).data == data


# tiny configs that still walk every study to its verdict
_TINY = {
    "resolvent-rate": "[domain]\nmodes = 16\n[sweep]\nd_eps = 1,2,4,8\n",
    "decay": "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,8\n[nonlinearity]\nname = zero\n",
    "eigs": "[domain]\nmodes = 16\n",
    "example-optimal": "[domain]\nmodes = 16\n",
    "attractor": "[nonlinearity]\nname = tanh\nbeta = 0.5\n"
                 "[attractor]\nlongtime_seeds = 40\narc_dt = 1e-2\nsample_dt = 0.05\n",
    "hausdorff-sweep": "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                       "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n",
    "manifold": "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                "[manifold]\ngrid_points = 5\niterations = 2\n",
}
# a nonlinearity reads only its own parameters: decay studies that read the
# parameters tanh does not
_OTHER_F = [
    "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,8\n[nonlinearity]\nname = saturated_cubic\n",
    "[domain]\nmodes = 8\ncomponents = 2\n[sweep]\nd_eps = 1,2,4,8\n"
    "[nonlinearity]\nname = coupled_tanh\n",
]


class TestEveryKeyRead:
    def test_every_default_key_is_read_by_a_study(self, tmp_path, monkeypatch, capsys):
        # reads made while loading (validation) do not count: a key that is
        # only checked still changes no measurement
        read, loading = set(), [False]
        original_get, original_load = Config.get, load_config

        def get(self, section, key):
            if not loading[0]:
                read.add((section, key))
            return original_get(self, section, key)

        def load(path=None):
            loading[0] = True
            try:
                return original_load(path)
            finally:
                loading[0] = False

        monkeypatch.setattr(Config, "get", get)
        monkeypatch.setattr(cli, "load_config", load)
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert set(_TINY) == set(commands) - {"report"}
        for i, (name, text) in enumerate([*_TINY.items(), *(("decay", t) for t in _OTHER_F)]):
            code = cli.main([name, "-c", write(tmp_path / f"{i}-{name}.ini", text), "--quiet",
                             "--out-root", str(tmp_path / "runs")])
            assert code in (0, 1), name
        capsys.readouterr()
        every = {(section, key) for section, keys in DEFAULTS.items() for key in keys}
        assert every - read == set()


class TestSweepParams:
    def test_each_sweep_passes_exactly_the_keys_its_prepare_reads(self, tmp_path, monkeypatch,
                                                                  capsys):
        # a sweep's config.json then names every setting it ran with, and no other
        passed, read = {}, {}
        run_sweep = rt.run_sweep

        def spy(cfg, record):
            parameters = inspect.signature(rt.QUANTITIES[cfg.quantity][1]).parameters.values()
            read[cfg.quantity] = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
            passed[cfg.quantity] = set(cfg.params)
            return run_sweep(cfg, record)

        monkeypatch.setattr(rt, "run_sweep", spy)
        for name in ("resolvent-rate", "decay", "hausdorff-sweep", "manifold"):
            code = cli.main([name, "-c", write(tmp_path / f"{name}.ini", _TINY[name]),
                             "--quiet", "--out-root", str(tmp_path / "runs")])
            assert code in (0, 1), name
        capsys.readouterr()
        assert set(passed) == {"resolvent_gap", "w_decay_rate", "hausdorff", "deflection",
                               "graph_sup"}
        for quantity in passed:
            assert passed[quantity] == read[quantity], quantity

    def test_manifold_graph_uses_the_configured_horizon(self, tmp_path, monkeypatch, capsys):
        horizons = []
        original = dyn.compute_M_and_mu

        def spy(E, basis, horizon=10.0, **kwargs):
            horizons.append(horizon)
            return original(E, basis, horizon, **kwargs)

        monkeypatch.setattr(dyn, "compute_M_and_mu", spy)
        monkeypatch.setattr(at, "compute_M_and_mu", spy)
        ini = _TINY["manifold"] + "[semigroup]\nm_horizon = 20\n"
        assert cli.main(["manifold", "-c", write(tmp_path / "m.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")]) in (0, 1)
        capsys.readouterr()
        # one mu per swept d, shared by both graph iterations
        assert horizons == [20.0] * 4

    def test_every_record_carries_its_verdict(self, tmp_path, capsys):
        for name, text in _TINY.items():
            cli.main([name, "-c", write(tmp_path / f"{name}.ini", text), "--quiet",
                      "--out-root", str(tmp_path / name)])
            verdicts = [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("VERDICT:")]
            records = [json.loads(path.read_text())["metrics"]
                       for path in (tmp_path / name).glob("*/record.json")]
            assert len(verdicts) == 1 and records, name
            for metrics in records:
                assert verdicts[0] == (f"VERDICT: {name} {metrics['verdict_detail']} "
                                       f"{metrics['verdict']}"), name


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        cfg = write(tmp_path / "a.ini", SMALL)
        assert cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 0

    def test_quantitative_failure_is_one(self, tmp_path):
        strict = SMALL + "\n[tolerances]\nslope = 1e-9\n"
        cfg = write(tmp_path / "a.ini", strict)
        assert cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 1

    def test_malformed_config_is_two(self, tmp_path):
        cfg = write(tmp_path / "a.ini", "[domain]\nmodes = nonsense\n")
        assert cli.main(["eigs", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 2

    def test_usage_error_is_two(self, capsys):
        assert cli.main(["report"]) == 2
        capsys.readouterr()

    def test_runtime_failure_is_three(self, tmp_path):
        blow = """
[domain]
modes = 8

[sweep]
d_eps = 1,2,4,8

[nonlinearity]
name = linear
c = 40.0
"""
        cfg = write(tmp_path / "a.ini", blow)
        assert cli.main(["decay", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 3

    @pytest.mark.parametrize("command,ini", [
        ("attractor", "[attractor]\nlongtime_seeds = 50\n"),
        ("hausdorff-sweep", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                            "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"),
    ], ids=["attractor", "hausdorff-sweep"])
    def test_non_hyperbolic_equilibrium_is_three(self, tmp_path, capsys, command, ini):
        # tanh with beta = 1 has a degenerate origin: no ODE manifold union exists
        cfg = write(tmp_path / "a.ini", ini + "[nonlinearity]\nname = tanh\nbeta = 1.0\n")
        assert cli.main([command, "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime failure: NonHyperbolicError: non-hyperbolic equilibrium at [")

    def test_unknown_command_is_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_jobs_flag_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["eigs", "--jobs", "2", "--out-root", str(tmp_path)]) == 2
        capsys.readouterr()


class TestBadInput:
    # each is a usage or configuration error (2), not a failed verdict (1) or a
    # runtime failure (3) after every sweep point has failed
    @pytest.mark.parametrize("command,ini,flags", [
        ("resolvent-rate", "[sweep]\nd_eps = 0,1,2,4\n", []),
        ("eigs", "[domain]\nmodes = 8\nquad_points = 17\n", []),
        ("eigs", "", ["--count", "0"]),
        ("example-optimal", "", ["--eps", "0,1,2"]),
        ("example-optimal", "", ["--eps", "a,b"]),
        ("example-optimal", "", ["--eps", "4"]),
        ("hausdorff-sweep", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                            "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 0\n", []),
        ("decay", "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,8\n[nonlinearity]\nname = zero\n"
                  "[semigroup]\nm_horizon = 0\n", []),
        ("attractor", "[attractor]\ndedup_cell = 0\n", []),
        ("attractor", "[attractor]\nsample_dt = 0\n", []),
        ("hausdorff-sweep", "[attractor]\nn_tails = -1\n", []),
        ("attractor", "[attractor]\nlongtime_seeds = 0\n", []),
        ("manifold", "[manifold]\ngrid_points = 1\n", []),
        ("manifold", "[manifold]\niterations = 0\n", []),
        ("hausdorff-sweep", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                            "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                            "t_trans = -1\n", []),
        ("manifold", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                     "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                     "deflection_t_trans = -1\n[manifold]\ngrid_points = 5\niterations = 2\n",
         []),
        # non-finite numbers: each once ran a whole study on NaN or inf
        ("manifold", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                     "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                     "[manifold]\ngrid_points = 5\niterations = 2\nseed_amplitude = nan\n", []),
        ("hausdorff-sweep", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                            "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                            "w_amplitude = nan\n", []),
        ("resolvent-rate", "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,inf\n", []),
        # a negative seed once reached SeedSequence and crashed with a traceback
        ("resolvent-rate", "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,8\n", ["--seed", "-1"]),
        ("decay", "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,8\n[nonlinearity]\nname = zero\n"
                  "[run]\nseed = -3\n", []),
    ], ids=["d_eps", "quad_points", "count", "eps_zero", "eps_text", "eps_single", "arc_dt",
            "m_horizon", "dedup_cell", "sample_dt", "n_tails", "longtime_seeds", "grid_points",
            "iterations", "t_trans", "deflection_t_trans", "seed_amplitude_nan",
            "w_amplitude_nan", "d_eps_inf", "seed_flag_negative", "seed_negative"])
    def test_exits_two(self, tmp_path, capsys, command, ini, flags):
        config = ["-c", write(tmp_path / "a.ini", ini)] if ini else []
        assert cli.main([command, *config, *flags, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 2
        capsys.readouterr()

    # each once passed load_config and reached a study: some exited 2 with an
    # incomplete run directory left behind, others ran to a verdict
    @pytest.mark.parametrize("ini", [
        "[nonlinearity]\nname = foo\n",
        "[nonlinearity]\nname = coupled_tanh\n",
        "[diffusion]\neps = 1,2,3\n",
    ], ids=["unknown_name", "coupled_tanh_one_component", "eps_count"])
    @pytest.mark.parametrize("command", sorted(_TINY))
    def test_config_error_opens_no_run(self, tmp_path, capsys, command, ini):
        out_root = tmp_path / "runs"
        out_root.mkdir()
        assert cli.main([command, "-c", write(tmp_path / "a.ini", ini), "--quiet",
                         "--out-root", str(out_root)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(out_root.iterdir()) == []


def _statuses(run_dir):
    """Each point's status, in d order, as the run's record.json holds them."""
    return json.loads((run_dir / "record.json").read_text())["metrics"]["statuses"]


class TestVerdicts:
    # every deflection is zero at d = 4..64 with K = 16
    MANIFOLD_INI = ("[domain]\nmodes = 16\n[sweep]\nd_eps = 4,8,16,32,64\n"
                    "[nonlinearity]\nname = tanh\nbeta = 2\n"
                    "[attractor]\nn_tails = 4\ndeflection_t_trans = 10\narc_dt = 1e-2\n"
                    "sample_dt = 0.02\n[manifold]\ngrid_points = 11\niterations = 3\n")

    def test_verdict_line_greppable(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", SMALL)
        code = cli.main(["resolvent-rate", "-c", cfg,
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        verdict_lines = [l for l in out.splitlines() if l.startswith("VERDICT: ")]
        assert code == 0 and len(verdict_lines) == 1
        assert verdict_lines[0].endswith("PASS")

    def test_quiet_suppresses_chatter(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", SMALL)
        cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                  "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert all(l.startswith("VERDICT:") for l in out.splitlines() if l)

    def test_resolvent_rate_without_a_fit_fails_its_verdict(self, tmp_path, capsys):
        # the gap at d = 1e22 lies below ZERO_FLOOR, so only 3 points are fitted
        cfg = write(tmp_path / "a.ini", "[domain]\nmodes = 8\n[sweep]\nd_eps = 1,2,4,1e22\n")
        code = cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("VERDICT: resolvent-rate slope=none ") and out.endswith(" FAIL\n")
        run_dir = next((tmp_path / "runs").iterdir())
        record = json.loads((run_dir / "record.json").read_text())
        assert record["status"] == "complete"
        assert record["metrics"]["verdict"] == "FAIL"
        assert record["metrics"]["verdict_detail"] == out[len("VERDICT: resolvent-rate "):-6]

    def test_manifold_with_a_failed_deflection_point_fails_its_verdict(self, tmp_path,
                                                                       monkeypatch, capsys):
        # d = 8 finds no PDE equilibrium, and every surviving deflection is zero
        solve = at.find_equilibria_pde

        def none_at_8(E, *args, **kwargs):
            if E.d_eps == 8.0:
                raise at.NoEquilibriaError("no PDE equilibrium found from the given seeds")
            return solve(E, *args, **kwargs)

        monkeypatch.setattr(at, "find_equilibria_pde", none_at_8)
        code = cli.main(["manifold", "-c", write(tmp_path / "m.ini", self.MANIFOLD_INI),
                         "--quiet", "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("VERDICT: manifold deflection=identically-zero failed_points=1 ")
        assert out.endswith(" FAIL\n")
        points = next((tmp_path / "runs").glob("*-deflection/points.csv")).read_text()
        assert "\n8,nan,failed: NoEquilibriaError: " in points
        statuses = _statuses(next((tmp_path / "runs").glob("*-deflection")))
        assert statuses[1].startswith("failed: NoEquilibriaError: ")
        assert statuses[:1] + statuses[2:] == ["zero"] * 4

    def test_manifold_with_a_failed_graph_point_counts_it(self, tmp_path, monkeypatch, capsys):
        # d = 4, the first point, fails its graph measure: its nan factor
        # must not become the contraction maximum
        iterate = at.graph_iteration

        def fails_at_4(E, *args, **kwargs):
            if E.d_eps == 4.0:
                raise at.ContractionError("graph map did not contract")
            return iterate(E, *args, **kwargs)

        monkeypatch.setattr(at, "graph_iteration", fails_at_4)
        code = cli.main(["manifold", "-c", write(tmp_path / "m.ini", self.MANIFOLD_INI),
                         "--quiet", "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        details = next((tmp_path / "runs").glob("*-graph_sup/details.csv")).read_text()
        header, *rows = [line.split(",") for line in details.splitlines()]
        factors = [float(row[header.index("contraction_factor")]) for row in rows]
        assert np.isnan(factors[0]) and not np.isnan(factors[1:]).any()
        assert code == 1
        assert out == (f"VERDICT: manifold deflection=identically-zero "
                       f"contraction_max={max(factors[1:]):.4f} failed_points=1 "
                       f"graph_sup_zero=True FAIL\n")
        statuses = _statuses(next((tmp_path / "runs").glob("*-graph_sup")))
        assert statuses[0] == "failed: ContractionError: graph map did not contract"
        assert statuses[1:] == ["zero"] * 4

    def test_manifold_whose_graph_sweep_fails_leaves_no_complete_record(self, tmp_path,
                                                                         monkeypatch, capsys):
        # every graph_sup point fails, so the study ends without a verdict, and
        # the deflection run it ran inside is as incomplete as its own
        def fails(d, ctx, point_seed):
            raise at.ContractionError("graph map did not contract")

        predicted, prepare, _ = rt.QUANTITIES["graph_sup"]
        monkeypatch.setitem(rt.QUANTITIES, "graph_sup", (predicted, prepare, rt.per_point(fails)))
        code = cli.main(["manifold", "-c", write(tmp_path / "m.ini", self.MANIFOLD_INI),
                         "--quiet", "--out-root", str(tmp_path / "runs")])
        assert code == 3
        assert capsys.readouterr().err.startswith("runtime failure: FitError: ")
        records = [json.loads(path.read_text())
                   for path in sorted((tmp_path / "runs").glob("*/record.json"))]
        assert [record["quantity"] for record in records] == ["deflection", "graph_sup"]
        for record in records:
            assert record["status"] == "incomplete"
            assert "verdict" not in record["metrics"]

    def test_hausdorff_sweep_with_a_failed_point_says_so(self, tmp_path, monkeypatch, capsys):
        # d = 8 finds no PDE equilibrium; the surviving points pass both checks
        solve = at.find_equilibria_pde

        def none_at_8(E, *args, **kwargs):
            if E.d_eps == 8.0:
                raise at.NoEquilibriaError("no PDE equilibrium found from the given seeds")
            return solve(E, *args, **kwargs)

        monkeypatch.setattr(at, "find_equilibria_pde", none_at_8)
        ini = ("[domain]\nmodes = 16\n[sweep]\nd_eps = 4,8,16,32,64\n"
               "[attractor]\nn_tails = 4\narc_dt = 1e-2\nsample_dt = 0.02\n")
        code = cli.main(["hausdorff-sweep", "-c", write(tmp_path / "h.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("VERDICT: hausdorff-sweep slope=")
        assert out.endswith(" nonincreasing=True below_resolution_past_threshold=True "
                            "failed_points=1 FAIL\n")
        run_dir = next((tmp_path / "runs").glob("*-hausdorff"))
        assert "\n8,nan,failed: NoEquilibriaError: " in (run_dir / "points.csv").read_text()
        statuses = _statuses(run_dir)
        assert statuses[1].startswith("failed: NoEquilibriaError: ")
        assert statuses[:1] + statuses[2:] == ["ok"] * 4

    def test_hausdorff_sweep_at_the_homogenization_threshold_fails_its_point(self, tmp_path,
                                                                             capsys):
        # at d* = 1/pi^2 the PDE origin's phi_1 mode is neutral (F'(0) - d lam_1 - 1 = 0),
        # so that cloud has no manifold union; the point fails, and four points
        # survive to be fitted
        d_star = 1.0 / np.pi**2
        ini = (f"[domain]\nmodes = 16\n[sweep]\nd_eps = {d_star!r},1,4,16,64\n"
               "[attractor]\nn_tails = 4\narc_dt = 1e-2\nsample_dt = 0.02\n")
        code = cli.main(["hausdorff-sweep", "-c", write(tmp_path / "h.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("VERDICT: hausdorff-sweep slope=")
        assert out.endswith(" failed_points=1 FAIL\n")
        run_dir = next((tmp_path / "runs").glob("*-hausdorff"))
        failure = ("failed: NonHyperbolicError: non-hyperbolic equilibrium at [0.]; "
                   "manifold union undefined")
        assert f"\n{d_star!r},nan,{failure}\n" in (run_dir / "points.csv").read_text()
        assert _statuses(run_dir) == [failure, "ok", "ok", "ok", "ok"]

    def test_decay_with_a_failed_point_says_so(self, tmp_path, capsys):
        # F = 3u blows up at d = 0.01 only; the margin reads the surviving points
        ini = ("[domain]\nmodes = 16\n[sweep]\nd_eps = 0.01,1,2,4,8\n"
               "[nonlinearity]\nname = linear\nc = 3.0\n")
        code = cli.main(["decay", "-c", write(tmp_path / "d.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        run_dir = next((tmp_path / "runs").glob("*-w_decay_rate"))
        assert "\n0.01,nan,failed: BlowUpError: " in (run_dir / "points.csv").read_text()
        header, *rows = [line.split(",") for line in (run_dir / "details.csv").read_text().split()]
        fitted, theoretical = header.index("fitted_rate"), header.index("theoretical_rate")
        margin = min(float(row[fitted]) - float(row[theoretical]) for row in rows[1:])
        assert code == 1
        assert out == f"VERDICT: decay min_margin={margin:.4g} failed_points=1 FAIL\n"
        statuses = _statuses(run_dir)
        assert statuses[0].startswith("failed: BlowUpError: trajectory blew up at t=")
        assert statuses[1:] == ["ok"] * 4

    @pytest.mark.parametrize("failing", [1.0, 4.0], ids=["first", "middle"])
    def test_resolvent_rate_with_a_failed_point_fails_its_verdict(self, tmp_path, monkeypatch,
                                                                  capsys, failing):
        # wherever the failed point sits, the checks read the surviving
        # points, and the failed point fails the verdict
        sampled = el.resolvent_gap_sampled

        def fails_once(E, *args, **kwargs):
            if E.d_eps == failing:
                raise ValueError("no sampled gap")
            return sampled(E, *args, **kwargs)

        monkeypatch.setattr(el, "resolvent_gap_sampled", fails_once)
        ini = "[domain]\nmodes = 32\n[sweep]\nd_eps = 1,2,4,8,16,32\n"
        code = cli.main(["resolvent-rate", "-c", write(tmp_path / "r.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        # the surviving points fit the rate and reach the attained bound
        assert re.fullmatch(r"VERDICT: resolvent-rate slope=-0\.4\d+ predicted=-0\.5 tol=0\.02 "
                            r"attained_dev=\d\.\d\de[-+]\d\d failed_points=1 FAIL\n", out), out
        run_dir = next((tmp_path / "runs").glob("*-resolvent_gap"))
        assert f"\n{failing:g},nan,failed: ValueError: no sampled gap\n" in (
            run_dir / "points.csv").read_text()
        statuses = _statuses(run_dir)
        assert statuses.count("failed: ValueError: no sampled gap") == 1
        assert statuses.count("ok") == 5

    def test_hausdorff_sweep_without_a_fit_fails_its_verdict(self, tmp_path, monkeypatch,
                                                             capsys):
        # d_H is zero from d = 16 on, so only 2 points are nonzero: no rate was
        # fitted, and that is no pass
        distance = at.hausdorff_distance

        def zero_from_16(a, b, E, basis):
            if E.d_eps >= 16.0:
                return at.HausdorffResult(0.0, 0.0, 0.0, 1e-3, 1e-3)
            return distance(a, b, E, basis)

        monkeypatch.setattr(at, "hausdorff_distance", zero_from_16)
        ini = ("[domain]\nmodes = 16\n[sweep]\nd_eps = 4,8,16,32,64\n"
               "[attractor]\nn_tails = 4\narc_dt = 1e-2\nsample_dt = 0.02\n")
        code = cli.main(["hausdorff-sweep", "-c", write(tmp_path / "h.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 1
        assert out == ("VERDICT: hausdorff-sweep slope=none bound=-0.4 nonincreasing=True "
                       "below_resolution_past_threshold=True FAIL\n")
        assert _statuses(next((tmp_path / "runs").glob("*-hausdorff"))) == ["ok"] * 2 + ["zero"] * 3

    def test_eigs_table(self, tmp_path, capsys):
        code = cli.main(["eigs", "--count", "3", "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "j,eigenvalue" in out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert rows[0] == "1,1"
        assert float(rows[1].split(",")[1]) == pytest.approx(np.pi**2 + 1, rel=1e-15)
        assert float(rows[2].split(",")[1]) == pytest.approx(4 * np.pi**2 + 1, rel=1e-15)

    def test_example_optimal_output(self, tmp_path, capsys):
        code = cli.main(["example-optimal", "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0126651" in out
        assert "scaling exponent -1.000" in out

    def test_example_optimal_labels_its_first_eps(self, tmp_path, capsys):
        # the reported seminorm is the first eps given, read against 1/(8 pi^2 eps)
        code = cli.main(["example-optimal", "--eps", "4,16", "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        exact = f"{1 / (8 * np.pi**2 * 4):.7f}"
        assert f"seminorm^2 at eps=4: {exact} (exact 1/(8 pi^2 eps) = {exact})" in out

    def test_attractor_single_point(self, tmp_path, capsys):
        cfg = write(tmp_path / "a.ini", "[nonlinearity]\nname = tanh\nbeta = 0.5\n")
        code = cli.main(["attractor", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERDICT: attractor equilibria=1" in out
        run_dir = next((tmp_path / "runs").iterdir())
        metrics = json.loads((run_dir / "record.json").read_text())["metrics"]
        for name in ("manifold", "longtime"):
            rows = (run_dir / f"{name}_cloud.csv").read_text().splitlines()[1:]
            assert metrics[f"{name}_points"] == len(rows)
        assert metrics["manifold_points"] == 1
        # every post-burn-in row the long-time dedup saw, one per seed and sample
        sidecar = json.loads((run_dir / "longtime_cloud.csv.meta.json").read_text())
        assert metrics["longtime_samples"] == sidecar["meta"]["samples"]
        assert metrics["longtime_samples"] % 2000 == 0
        assert metrics["longtime_samples"] > metrics["longtime_points"]

    def test_box_inside_the_dedup_cell_burns_nothing(self, tmp_path, capsys):
        # log(2 box / cell) < 0 here: transients already lie below the cell
        ini = _TINY["attractor"] + "dedup_cell = 10\n"
        cli.main(["attractor", "-c", write(tmp_path / "a.ini", ini),
                  "--out-root", str(tmp_path / "runs")])
        assert "t_burn=0 t_end=16\n" in capsys.readouterr().out

    def test_attractor_solves_the_ode_equilibria_once(self, tmp_path, monkeypatch, capsys):
        # the equilibrium table and the burn-in come from the manifold cloud's roots
        calls = []
        solve = at.find_equilibria_ode

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(at, "find_equilibria_ode", counted)
        cfg = write(tmp_path / "a.ini", _TINY["attractor"])
        assert cli.main(["attractor", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 0
        assert len(calls) == 1
        assert "equilibrium,stability,residual\n0,stable,0.00e+00\n" in capsys.readouterr().out


class TestRunDirectories:
    def test_no_writes_outside_run_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "a.ini", SMALL)
        before = set(os.listdir(tmp_path))
        assert cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "sandbox")]) == 0
        after = set(os.listdir(tmp_path))
        assert after - before == {"sandbox"}

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = write(tmp_path / "a.ini", SMALL)
        assert cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "r1")]) == 0
        run_dir = next((tmp_path / "r1").iterdir())
        resolved = run_dir / "resolved.ini"
        assert resolved.is_file()
        assert cli.main(["resolvent-rate", "-c", str(resolved), "--quiet",
                         "--out-root", str(tmp_path / "r2")]) == 0
        d1 = next((tmp_path / "r1").iterdir())
        d2 = next((tmp_path / "r2").iterdir())
        for name in ("points.csv", "fit.csv", "plot.dat", "plot_loglog.dat"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("command,ini", [
        # F = 3u blows up at three of the five d: too few points survive to fit
        ("decay", "[domain]\nmodes = 16\n[sweep]\nd_eps = 0.01,0.02,0.03,1,2\n"
                  "[nonlinearity]\nname = linear\nc = 3.0\n"),
        # tanh with beta = 1 has a degenerate origin: no ODE manifold union exists
        ("hausdorff-sweep", "[domain]\nmodes = 8\n[sweep]\nd_eps = 16,32,64,128\n"
                            "[attractor]\nn_tails = 4\nsample_dt = 0.05\narc_dt = 1e-2\n"
                            "[nonlinearity]\nname = tanh\nbeta = 1.0\n"),
    ], ids=["fit-error", "non-hyperbolic"])
    def test_failed_run_keeps_its_resolved_config(self, tmp_path, capsys, command, ini):
        cfg = write(tmp_path / "a.ini", ini)
        out_root = str(tmp_path / "runs")
        assert cli.main([command, "-c", cfg, "--quiet", "--out-root", out_root]) == 3
        capsys.readouterr()
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert json.loads((run_dir / "record.json").read_text())["status"] == "incomplete"
        resolved = load_config(cfg)
        resolved.data["run"].update(quiet=True, out_root=out_root)
        assert load_config(run_dir / "resolved.ini").data == resolved.data

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path / "a.ini", SMALL)
        cli.main(["resolvent-rate", "-c", cfg, "--quiet", "--seed", "5",
                  "--out-root", str(tmp_path / "r1")])
        cli.main(["resolvent-rate", "-c", cfg, "--quiet", "--seed", "6",
                  "--out-root", str(tmp_path / "r2")])
        d1 = next((tmp_path / "r1").iterdir())
        d2 = next((tmp_path / "r2").iterdir())
        assert (d1 / "details.csv").read_text() != (d2 / "details.csv").read_text()

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIGDIFF_OUT_ROOT", str(tmp_path / "enviro"))
        assert cli.main(["eigs", "--quiet"]) == 0
        assert (tmp_path / "enviro").is_dir()

    @pytest.mark.parametrize("command,owner,name", [
        ("eigs", el, "eigenvalue_table"),
        ("example-optimal", el, "optimal_example_check"),
        ("attractor", at, "attractor_ode_longtime"),
    ], ids=["eigs", "example-optimal", "attractor"])
    def test_interrupt_marks_incomplete(self, tmp_path, monkeypatch, command, owner, name):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, name, boom)
        cfg = write(tmp_path / "a.ini", "[nonlinearity]\nname = tanh\nbeta = 0.5\n")
        code = cli.main([command, "-c", cfg, "--quiet",
                         "--out-root", str(tmp_path / "runs")])
        assert code == 130
        run_dir = next((tmp_path / "runs").iterdir())
        record = json.loads((run_dir / "record.json").read_text())
        assert record["status"] == "incomplete"
        assert record["finished"]


class TestReport:
    def _one_run(self, tmp_path, name="r"):
        cfg = write(tmp_path / "a.ini", SMALL)
        cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                  "--out-root", str(tmp_path / name)])
        return str(next((tmp_path / name).iterdir()))

    def test_single_pass_row(self, tmp_path, capsys):
        run = self._one_run(tmp_path)
        code = cli.main(["report", run])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolvent_gap" in out and "PASS" in out

    def test_mixed_runs_exit_one(self, tmp_path, capsys):
        good = self._one_run(tmp_path, "good")
        strict = SMALL + "\n[tolerances]\nslope = 1e-9\n"
        cfg = write(tmp_path / "strict.ini", strict)
        cli.main(["resolvent-rate", "-c", cfg, "--quiet",
                  "--out-root", str(tmp_path / "bad")])
        bad = str(next((tmp_path / "bad").iterdir()))
        assert cli.main(["report", good, bad]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_run_without_a_verdict_exits_one(self, tmp_path, capsys):
        # F = 3u blows up at d = 0.01, 0.02 and 0.03: two points are too few to
        # fit, so the run ends incomplete, with no verdict
        ini = ("[domain]\nmodes = 16\n[sweep]\nd_eps = 0.01,0.02,0.03,1,2\n"
               "[nonlinearity]\nname = linear\nc = 3.0\n")
        assert cli.main(["decay", "-c", write(tmp_path / "d.ini", ini), "--quiet",
                         "--out-root", str(tmp_path / "runs")]) == 3
        run = str(next((tmp_path / "runs").iterdir()))
        capsys.readouterr()
        assert cli.main(["report", run]) == 1
        assert "w_decay_rate,-,-,NONE,incomplete\n" in capsys.readouterr().out

    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nothing")]) == 2
        capsys.readouterr()
