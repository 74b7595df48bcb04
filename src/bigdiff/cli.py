"""Command-line entry point: one subcommand per study, driven by an INI config.

Exit codes are uniform across subcommands:

    0  pass: the measured quantity met its configured tolerance
    1  quantitative failure: the run completed but the verdict failed
    2  usage or configuration error (a negative --seed included)
    3  runtime failure (blow-up, non-convergence, non-hyperbolic equilibrium, ...)

Every run writes a directory runs/<timestamp>-<name>/ containing the resolved
configuration (itself a valid config reproducing the run), the measured
points, fits, plain two-column plot data, and a JSON run record.  `main` is
the one dispatch: it loads the config, which `load_config` checks whole, so a
config error exits 2 before any run opens; it then opens the study's run in
`_run`, which writes resolved.ini first and whose `rates.open_run` alone sets
the record's status, and calls the study with (args, cfg, record).  The study
stamps its verdict before the run closes, so a complete record carries one.
`manifold` opens its second run, graph_sup, inside the first.  A sweep verdict
reads the points that survived, with the status `rates.run_sweep` gave each,
and any failed point fails it (`failed_points=N`).  Verdict lines are
machine-greppable with the fixed prefix "VERDICT:", and `report` exits 0 only
when every run it summarizes holds a PASS verdict.  The `attractor` study
derives its long-time sampling from F and its equilibria (`_auto_burn`), with
no config key: seeds in the box |v| <= bound(F) + 1, a burn-in until
transients contract below the dedup cell, then 16 time units.  The environment
variable BIGDIFF_OUT_ROOT overrides [run] out_root; --out-root overrides both.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__
from . import attractors as at
from . import dynamics as dyn
from . import elliptic as el
from . import rates as rt
from .config import Config, ConfigError, load_config

_RUNTIME_ERRORS = (
    dyn.BlowUpError,
    at.NoEquilibriaError,
    at.EscapeError,
    at.NonHyperbolicError,
    at.SpectralGapError,
    at.ContractionError,
    rt.FitError,
    rt.RecordError,
)


def _say(args, *message) -> None:
    if not args.quiet:
        print(*message)


def _verdict(name: str, detail: str, passed: bool, *records: rt.RunRecord) -> int:
    """Set the verdict of each open run record, print the VERDICT: line, return the exit code."""
    verdict = "PASS" if passed else "FAIL"
    for record in records:
        record.metrics.update(verdict=verdict, verdict_detail=detail)
    print(f"VERDICT: {name} {detail} {verdict}")
    return 0 if passed else 1


def _load(args) -> Config:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.data["run"]["seed"] = args.seed
    if args.quiet:
        cfg.data["run"]["quiet"] = True
    root = args.out_root or os.environ.get("BIGDIFF_OUT_ROOT") or cfg.get("run", "out_root")
    cfg.data["run"]["out_root"] = root
    args.quiet = cfg.get("run", "quiet")
    return cfg


@contextlib.contextmanager
def _run(cfg: Config, name: str):
    """Open the run `name` under the configured out root; write its resolved.ini first."""
    with rt.open_run(cfg.get("run", "out_root"), name, cfg.get("run", "seed")) as record:
        cfg.write(os.path.join(record.paths["run_dir"], "resolved.ini"))
        yield record


def _sweep(cfg: Config, record: rt.RunRecord, **params):
    """Sweep `record.quantity` into the open run `record`: [sweep] d_eps, seed, modes, components.

    Returns (fit, rows, failed): the details.csv row of each point that
    survived, as a dict with its `status` ("ok" or "zero", as `rt.run_sweep`
    decided it), and the number of points that failed.
    """
    sweep_cfg = rt.SweepConfig(
        record.quantity, cfg.get("sweep", "d_eps"),
        params={"modes": cfg.get("domain", "modes"),
                "components": cfg.get("domain", "components"), **params},
        seed=cfg.get("run", "seed"))
    fit = rt.run_sweep(sweep_cfg, record)
    with open(record.paths["details"]) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [dict(zip(header, map(float, line.split(","))), status=status)
                for line, status in zip(fh, record.metrics["statuses"])]
    surviving = [row for row in rows if row["status"] in ("ok", "zero")]
    return fit, surviving, len(rows) - len(surviving)


def _with_failed(detail: str, failed: int) -> str:
    """`detail`, with `failed_points=N` once a point failed; a failed point fails the verdict."""
    return f"{detail} failed_points={failed}" if failed else detail


# ---------------------------------------------------------------------------
# subcommands


def cmd_resolvent_rate(args, cfg: Config, record: rt.RunRecord) -> int:
    fit, rows, failed = _sweep(cfg, record, trials=64)
    tol = cfg.get("tolerances", "slope")
    attained = max(abs(row["attained_product"] - 1.0) for row in rows)
    # no fit when fewer than 4 points lie above the zero floor: no rate was measured
    slope_ok = fit is not None and abs(fit.slope + 0.5) <= tol
    slope_txt = f"{fit.slope:.6f}" if fit is not None else "none"
    attained_ok = attained <= cfg.get("tolerances", "attained")
    _say(args, f"fitted slope {slope_txt} (predicted -0.5, tolerance {tol:g})")
    _say(args, f"gap * sqrt(d*lam1+1) deviates from 1 by at most {attained:.3e}")
    detail = f"slope={slope_txt} predicted=-0.5 tol={tol:g} attained_dev={attained:.2e}"
    return _verdict("resolvent-rate", _with_failed(detail, failed),
                    slope_ok and attained_ok and not failed, record)


def cmd_decay(args, cfg: Config, record: rt.RunRecord) -> int:
    spec = cfg.nonlinearity_spec()
    _, rows, failed = _sweep(cfg, record, nonlinearity=spec,
                             m_horizon=cfg.get("semigroup", "m_horizon"))
    one_sided_ok = all(row["fitted_rate"] >= row["theoretical_rate"] - 1e-9 for row in rows)
    margin = min(r["fitted_rate"] - r["theoretical_rate"] for r in rows)
    detail = f"min_margin={margin:.4g}"
    if spec["name"] == "zero":
        rel = max(abs(row["fitted_rate"] - row["lam2"]) / row["lam2"] for row in rows)
        linear_ok = rel <= cfg.get("tolerances", "decay_rel")
        detail += f" linear_rel_err={rel:.2e}"
    else:
        linear_ok = True
    for row in rows:
        _say(args, f"d={row['d_eps']:g}: fitted {row['fitted_rate']:.4f} >= "
                   f"theoretical {row['theoretical_rate']:.4f}")
    return _verdict("decay", _with_failed(detail, failed),
                    one_sided_ok and linear_ok and not failed, record)


def cmd_eigs(args, cfg: Config, record: rt.RunRecord) -> int:
    basis = cfg.basis()
    E = cfg.diffusion_spec()
    count = min(args.count, E.components * (basis.mode_count + 1))
    table = el.eigenvalue_table(E, basis, count)
    print(rt.write_table(os.path.join(record.paths["run_dir"], "eigenvalues.csv"),
                         ["j", "eigenvalue"], enumerate(table, start=1)), end="")
    lam2 = E.second_eigenvalue(basis)
    gains = E.gains(basis)
    above = np.sort(gains[gains > 1.0])
    identity_ok = bool(above[0] == lam2) and bool(np.all(table[:E.components] == 1.0))
    record.metrics["table"] = [float(x) for x in table]
    detail = f"lam2={lam2:.10g} d*lam1+1={lam2:.10g} count={count}"
    return _verdict("eigs", detail, identity_ok, record)


def cmd_example_optimal(args, cfg: Config, record: rt.RunRecord) -> int:
    eps_values = args.eps
    basis = cfg.basis()
    reports = [el.optimal_example_check(e, basis) for e in eps_values]
    rt.write_table(os.path.join(record.paths["run_dir"], "example.csv"),
                   ["eps", "closed_form_error", "seminorm_sq", "seminorm_sq_times_eps"],
                   [[rep.eps, rep.closed_form_error, rep.seminorm_sq,
                     rep.seminorm_sq * rep.eps] for rep in reports])
    worst_err = max(rep.closed_form_error for rep in reports)
    products = [rep.seminorm_sq * rep.eps for rep in reports]
    spread = max(products) - min(products)
    slope = np.polyfit(np.log(eps_values), np.log([r.seminorm_sq for r in reports]), 1)[0]
    record.metrics.update(worst_error=worst_err, spread=spread, exponent=float(slope))
    first = reports[0]
    _say(args, f"seminorm^2 at eps={first.eps:g}: {first.seminorm_sq:.7f} "
               f"(exact 1/(8 pi^2 eps) = {1 / (8 * np.pi**2 * first.eps):.7f})")
    print(f"scaling exponent {slope:.3f}")
    passed = (worst_err <= 1e-12
              and spread <= cfg.get("tolerances", "seminorm_const")
              and abs(slope + 1.0) < 1e-6)
    detail = (f"max_error={worst_err:.2e} seminorm_sq*eps_spread={spread:.2e} "
              f"exponent={slope:.3f}")
    return _verdict("example-optimal", detail, passed, record)


def _auto_burn(equilibria, box: float, cell: float) -> float:
    """Burn until transients contract below the dedup cell at the slowest stable rate."""
    stable_rates = []
    for eq in equilibria:
        negative = [abs(l.real) for l in eq.eigenvalues if l.real < -at.HYPERBOLICITY_TOL]
        if negative:
            stable_rates.append(min(negative))
    rate = min(stable_rates) if stable_rates else 1.0
    # a box already inside the dedup cell needs no burn-in
    return max(0.0, float(np.log(2 * box / cell) / rate))


def cmd_attractor(args, cfg: Config, record: rt.RunRecord) -> int:
    run_dir = record.paths["run_dir"]
    F = cfg.nonlinearity()
    n = cfg.get("domain", "components")
    box = at.absorbing_bound(F) + 1.0
    manifold = at.attractor_ode(F, components=n,
                                dt=cfg.get("attractor", "arc_dt"),
                                sample_dt=cfg.get("attractor", "sample_dt"))
    equilibria = manifold.equilibria
    print("equilibrium,stability,residual")
    for eq in equilibria:
        loc = " ".join(f"{x:.8g}" for x in eq.vector())
        print(f"{loc},{eq.stability},{eq.residual:.2e}")
    t_burn = _auto_burn(equilibria, box, cfg.get("attractor", "dedup_cell"))
    t_end = t_burn + 16.0
    longtime = at.attractor_ode_longtime(
        F, n_seeds=cfg.get("attractor", "longtime_seeds"), box=box, components=n,
        t_burn=t_burn, t_end=t_end,
        dt=cfg.get("attractor", "arc_dt"),
        sample_dt=cfg.get("attractor", "sample_dt"),
        dedup_cell=cfg.get("attractor", "dedup_cell"),
        seed=cfg.get("run", "seed"))
    at.save_cloud(manifold, os.path.join(run_dir, "manifold_cloud.csv"))
    at.save_cloud(longtime, os.path.join(run_dir, "longtime_cloud.csv"))
    res = at.hausdorff_distance(manifold, longtime)
    resolution = max(res.resolution_a, res.resolution_b)
    record.metrics.update(d_H=res.sym, a_to_b=res.a_to_b, b_to_a=res.b_to_a,
                          resolution=resolution, n_equilibria=len(equilibria),
                          manifold_points=len(manifold), longtime_points=len(longtime),
                          longtime_samples=longtime.meta["samples"])
    _say(args, f"manifold cloud: {len(manifold)} points, "
               f"longtime cloud: {len(longtime)} points")
    _say(args, f"t_burn={t_burn:.3g} t_end={t_end:.3g}")
    passed = res.sym <= 2 * resolution
    detail = (f"equilibria={len(equilibria)} d_H={res.sym:.4g} "
              f"resolution={resolution:.4g}")
    return _verdict("attractor", detail, passed, record)


def _cloud_params(cfg: Config, t_trans_key: str) -> dict:
    """The PDE cloud settings of the hausdorff and deflection sweeps."""
    return {"nonlinearity": cfg.nonlinearity_spec(),
            "n_tails": cfg.get("attractor", "n_tails"),
            "w_amplitude": cfg.get("attractor", "w_amplitude"),
            "t_trans": cfg.get("attractor", t_trans_key),
            "sample_dt": cfg.get("attractor", "sample_dt"),
            "arc_dt": cfg.get("attractor", "arc_dt")}


def cmd_hausdorff_sweep(args, cfg: Config, record: rt.RunRecord) -> int:
    params = _cloud_params(cfg, "t_trans")
    fit, rows, failed = _sweep(cfg, record, **params,
                               m_horizon=cfg.get("semigroup", "m_horizon"))
    values = np.array([max(row["a_to_b"], row["b_to_a"]) for row in rows])
    nonincreasing = bool(np.all(np.diff(values) <= 1e-12))
    threshold_ok = all(row["threshold_met"] < 0.5 or v <= row["resolution"]
                       for row, v in zip(rows, values))
    bound = cfg.get("tolerances", "hausdorff_slope")
    if fit is not None:
        slope_ok, slope_txt = fit.slope <= bound, f"{fit.slope:.4f}"
    elif any(row["status"] == "ok" for row in rows):
        slope_ok, slope_txt = False, "none"  # fewer than 4 nonzero points: no rate was fitted
    else:
        slope_ok, slope_txt = True, "zero"  # identically zero at cloud resolution
    for row, v in zip(rows, values):
        _say(args, f"d={row['d_eps']:g}: d_H = {v:.4e}")
    detail = (f"slope={slope_txt} bound={bound:g} nonincreasing={nonincreasing} "
              f"below_resolution_past_threshold={threshold_ok}")
    return _verdict("hausdorff-sweep", _with_failed(detail, failed),
                    nonincreasing and slope_ok and threshold_ok and not failed, record)


def cmd_manifold(args, cfg: Config, record: rt.RunRecord) -> int:
    """`record` is the deflection run."""
    params = _cloud_params(cfg, "deflection_t_trans")
    _, defl_rows, defl_failed = _sweep(cfg, record, **params)
    # graph_sup opens once the deflection sweep returned; a failure leaves both incomplete
    with _run(cfg, "graph_sup") as graph_record:
        _, graph_rows, graph_failed = _sweep(
            cfg, graph_record, nonlinearity=params["nonlinearity"],
            grid_points=cfg.get("manifold", "grid_points"),
            iters=cfg.get("manifold", "iterations"),
            seed_amplitude=cfg.get("manifold", "seed_amplitude"),
            m_horizon=cfg.get("semigroup", "m_horizon"))
        if all(row["status"] == "zero" for row in defl_rows):
            defl_ok, defl_txt = True, "identically-zero"
            _say(args, "deflection identically zero at solver tolerance; "
                       "bound trivially satisfied")
        else:
            scaled = [row["deflection"] * np.sqrt(row["d_eps"]) for row in defl_rows
                      if row["status"] == "ok"]
            band = max(scaled) / min(scaled)
            defl_ok, defl_txt = band <= 2.0, f"band_ratio={band:.3f}"
        factors = [row["contraction_factor"] for row in graph_rows]
        graph_ok = all(f < 1.0 for f in factors)
        sup_ok = all(row["status"] == "zero" for row in graph_rows)
        for row, f in zip(graph_rows, factors):
            _say(args, f"d={row['d_eps']:g}: graph contraction factor {f:.4f}")
        detail = (f"deflection={_with_failed(defl_txt, defl_failed)} "
                  f"contraction_max={_with_failed(f'{max(factors):.4f}', graph_failed)} "
                  f"graph_sup_zero={sup_ok}")
        passed = defl_ok and graph_ok and sup_ok and not (defl_failed or graph_failed)
        return _verdict("manifold", detail, passed, record, graph_record)


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.run_dirs:
        record_path = os.path.join(run_dir, "record.json")
        if not os.path.isfile(record_path):
            print(f"error: no record.json in {run_dir}", file=sys.stderr)
            return 2
        record = rt.load_run(record_path)
        verdict = record.metrics.get("verdict", "NONE")
        slope = record.metrics.get("slope")
        predicted = record.metrics.get("predicted_slope")
        rows.append((record.quantity, slope, predicted, verdict, record.status))
    print("quantity,fitted,predicted,verdict,status")
    for quantity, slope, predicted, verdict, status in rows:
        fitted_txt = f"{slope:.6g}" if isinstance(slope, float) else "-"
        predicted_txt = f"{predicted:.6g}" if isinstance(predicted, float) else "-"
        print(f"{quantity},{fitted_txt},{predicted_txt},{verdict},{status}")
    # a run without a verdict (an incomplete one, say) passes nothing
    return 0 if all(r[3] == "PASS" for r in rows) else 1


# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _eps_list(text: str) -> list[float]:
    """At least two distinct positive eps values: the exponent fit needs two."""
    values = [float(x) for x in text.split(",")]  # argparse reports a ValueError as usage
    if not all(0 < v < np.inf for v in values) or len(set(values)) < 2:
        raise argparse.ArgumentTypeError(
            f"expected at least two distinct positive finite values, got {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override [run] seed (>= 0)")
    parser.add_argument("--quiet", action="store_true", help="only print VERDICT lines")
    parser.add_argument("--out-root", default=None,
                        help="override the output root (also: BIGDIFF_OUT_ROOT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigdiff",
        description="Numerical studies of reaction-diffusion dynamics under large diffusion")
    parser.add_argument("--version", action="version", version=f"bigdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # (command, study, the name of the run that main opens for it, help)
    specs = [
        ("resolvent-rate", cmd_resolvent_rate, "resolvent_gap", "resolvent-gap rate sweep"),
        ("decay", cmd_decay, "w_decay_rate", "homogenization decay-rate sweep"),
        ("eigs", cmd_eigs, "eigs", "operator eigenvalue table"),
        ("example-optimal", cmd_example_optimal, "example-optimal", "sharp-rate elliptic example"),
        ("attractor", cmd_attractor, "attractor", "ODE attractor structure study"),
        ("hausdorff-sweep", cmd_hausdorff_sweep, "hausdorff", "attractor Hausdorff-distance sweep"),
        ("manifold", cmd_manifold, "deflection", "manifold deflection and graph iteration"),
    ]
    for name, handler, run_name, help_txt in specs:
        p = sub.add_parser(name, help=help_txt)
        _add_common(p)
        p.set_defaults(handler=handler, run_name=run_name)
    sub.choices["eigs"].add_argument("--count", type=_int_at_least(1), default=8,
                                     help="number of eigenvalues to print")
    sub.choices["example-optimal"].add_argument("--eps", type=_eps_list, default="1,4,16,64",
                                                help="comma list of eps values")

    p_report = sub.add_parser("report", help="summarize one or more run directories")
    p_report.add_argument("run_dirs", nargs="+", help="run directories to summarize")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if args.command == "report":
            return cmd_report(args)
        # the whole config is checked before any run opens
        cfg = _load(args)
        with _run(cfg, args.run_name) as record:
            return args.handler(args, cfg, record)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as err:
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted; partial run directories are marked incomplete", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
