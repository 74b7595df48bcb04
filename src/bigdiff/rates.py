"""Parameter sweeps over d = min eps, log-log rate fits, persistent runs.

Every convergence claim in the package reduces to "quantity(d) decays at
least like d^(-1/2)".  The harness hands the whole sweep of d values to the
quantity's measurement, which returns each point's value or the error that
failed it.  The decay rate steps every d as one ETD batch, and the
hausdorff and deflection sweeps build the PDE clouds of every d in one
batch (`attractors.attractor_pde`); resolvent_gap and graph_sup measure one
d at a time through `per_point`.  It fits ordinary least squares on
(log d, log value) and persists a run directory containing the raw points,
the fit, plain two-column plot data, and a JSON run record.
`open_run` is the one run lifecycle, of the sweeps here and of the CLI's
other studies.  Identical config + seed reproduces every CSV byte for byte
(per-point seeds are spawned from the master seed by index, and a row of a
batch steps bit for bit as it would alone, so no point depends on the
others).

Measured zeros are not fitted: a value at or below ZERO_FLOOR counts as
zero, here and in the CLI verdicts, and quantities that vanish identically
(the manifold graph) are reported as "identically zero; bound trivially
satisfied" instead of being forced through a log.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .spectral import (DomainSpec, build_basis, constant_field, diffusion, mean_free_energy,
                       mode_field)
from . import attractors as _attractors
from . import dynamics as _dynamics
from . import elliptic as _elliptic

__all__ = [
    "SweepConfig",
    "RateFit",
    "RunRecord",
    "FitError",
    "RecordError",
    "loglog_fit",
    "run_sweep",
    "persist_run",
    "load_run",
    "open_run",
    "write_table",
    "register_quantity",
    "per_point",
    "QUANTITIES",
    "ZERO_FLOOR",
]

ZERO_FLOOR = 1e-10  # at or below this a measurement counts as zero


class FitError(RuntimeError):
    """Too few surviving points to fit."""


class RecordError(RuntimeError):
    """A run record failed to parse."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a quantity name, increasing d values, parameters, a seed.

    `params` must name exactly the keyword parameters of the quantity's `prepare`.
    """

    quantity: str
    d_eps_values: tuple
    params: dict = field(default_factory=dict)
    seed: int = 1234

    def __post_init__(self):
        values = tuple(float(v) for v in self.d_eps_values)
        object.__setattr__(self, "d_eps_values", values)
        if len(values) < 4:
            raise ValueError("a sweep needs at least 4 points")
        if not np.all(np.isfinite(values)):
            raise ValueError("d values must be finite")
        if any(v <= 0 for v in values):
            raise ValueError("d values must be positive")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("d values must be strictly increasing")
        if self.quantity not in QUANTITIES:
            known = ", ".join(sorted(QUANTITIES))
            raise ValueError(f"unknown quantity {self.quantity!r}; known: {known}")
        try:
            inspect.signature(QUANTITIES[self.quantity][1]).bind(self.seed, **self.params)
        except TypeError as err:
            raise ValueError(f"{self.quantity} params: {err}") from None


@dataclass(frozen=True)
class RateFit:
    """Log-log OLS fit of (d, value) pairs against a predicted exponent."""

    d_eps: tuple
    values: tuple
    slope: float
    intercept: float
    amplitude: float
    r_squared: float
    predicted_slope: float


def loglog_fit(d_values, values, predicted_slope: float = -0.5) -> RateFit:
    """OLS on (log d, log value); exact on synthetic power laws."""
    d = np.asarray(d_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.size != v.size or d.size < 2:
        raise FitError("need at least 2 positive pairs")
    if np.any(v <= 0):
        raise FitError("log-log fit requires positive values")
    x, y = np.log(d), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(d_eps=tuple(d), values=tuple(v), slope=float(slope),
                   intercept=float(intercept), amplitude=float(np.exp(intercept)),
                   r_squared=r2, predicted_slope=predicted_slope)


# ---------------------------------------------------------------------------
# quantity registry: name -> (predicted slope, prepare(seed, **params) -> ctx,
#                             measure(ds, ctx, point_seeds) -> per-point results)
# each point's result is (value, extras), or the RuntimeError or ValueError
# that failed it; `per_point` lifts a measure(d, ctx, point_seed) of one point

# the errors that fail one sweep point; any other exception is a bug and
# aborts the sweep
_POINT_ERRORS = (RuntimeError, ValueError)


def per_point(measure):
    """Sweep-level measure that calls `measure(d, ctx, point_seed)` at each d in turn.

    It takes the name of `measure`, so the registry and traces still name it.
    """
    def measure_all(ds, ctx, point_seeds):
        results = []
        for d, point_seed in zip(ds, point_seeds):
            try:
                results.append(measure(d, ctx, point_seed))
            except _POINT_ERRORS as err:
                results.append(err)
        return results

    measure_all.__name__ = measure_all.__qualname__ = measure.__name__
    return measure_all


_DOM = DomainSpec()

# the decay study's initial state 1 + 0.5 phi_1 and its horizon: 40 e-folds of
# lam2, taken in 2000 whole steps, so every d of a sweep steps in lockstep
_DECAY_V0 = 1.0
_DECAY_MODE_AMP = 0.5
_DECAY_EFOLDS = 40.0
_DECAY_STEPS = 2000

# every prepare takes each setting as a keyword with no default, and SweepConfig
# binds a sweep's params to it: its config.json is the whole of what it ran with


def _prepare_resolvent(seed, *, modes, components, trials):
    return {"basis": build_basis(_DOM, int(modes)), "n": int(components), "trials": int(trials)}


def _measure_resolvent(d, ctx, point_seed):
    E = diffusion([d] * ctx["n"])
    basis = ctx["basis"]
    exact = _elliptic.resolvent_gap_exact(E, basis)
    sampled = _elliptic.resolvent_gap_sampled(E, basis, ctx["trials"], seed=point_seed)
    lam2 = E.second_eigenvalue(basis)
    return exact, {"exact_gap": exact, "sampled_gap": sampled,
                   "bound_constant": exact * np.sqrt(d),
                   "attained_product": exact * np.sqrt(lam2)}


def _prepare_decay(seed, *, modes, components, nonlinearity, m_horizon):
    return {"basis": build_basis(_DOM, int(modes)), "n": int(components),
            "F": _dynamics.nonlinearity_from_spec(**nonlinearity), "m_horizon": float(m_horizon)}


def _measure_decay(ds, ctx, point_seeds):
    """Evolve 1 + 0.5 phi_1 at every d as one ETD batch, each row with its own E and dt.

    Each row keeps only its sampled times and mean-free energy.  A row that
    blows up fails its own d, with its own time and norm, and steps on as
    zeroed ballast (`dynamics.EtdStepper.failed`), so the other rows run
    unchanged.
    """
    basis, n = ctx["basis"], ctx["n"]
    Es = [diffusion([d] * n) for d in ds]
    gains = np.array([E.gains(basis) for E in Es])
    lam2 = np.array([E.second_eigenvalue(basis) for E in Es])
    T = _DECAY_EFOLDS / lam2
    u0 = constant_field([_DECAY_V0] * n, basis) + mode_field(basis, 1, _DECAY_MODE_AMP,
                                                             components=n)
    stepper = _dynamics.EtdStepper(basis, Es, ctx["F"], T / _DECAY_STEPS)
    batch = np.stack([u0.coeffs] * len(Es))
    times, w = [np.zeros(len(Es))], [mean_free_energy(batch, gains)]

    def sample(c, t):
        times.append(np.minimum(t, T))
        w.append(mean_free_energy(c, gains))

    _dynamics.propagate(stepper, batch, _DECAY_STEPS, _DECAY_STEPS // 400, sample)
    times, w = np.array(times), np.array(w)
    results = []
    for i, E in enumerate(Es):
        if i in stepper.failed:
            results.append(stepper.failed[i])
            continue
        try:
            mu = _dynamics.compute_M_and_mu(E, basis, horizon=ctx["m_horizon"]).mu
            fit = _dynamics.decay_rate_fit(times[:, i], w[:, i], lam2[i], mu=mu)
        except _POINT_ERRORS as err:
            results.append(err)
            continue
        results.append((fit.fitted_rate, {"fitted_rate": fit.fitted_rate,
                                          "theoretical_rate": fit.theoretical_rate,
                                          "lam2": lam2[i], "mu": mu, "residual": fit.residual,
                                          "truncated": float(fit.truncated)}))
    return results


def _prepare_deflection(seed, *, modes, components, nonlinearity, n_tails, w_amplitude,
                        t_trans, sample_dt, arc_dt):
    """The PDE cloud settings that the deflection and hausdorff sweeps share."""
    n = int(components)
    F = _dynamics.nonlinearity_from_spec(**nonlinearity)
    sample_dt = float(sample_dt)
    return {"basis": build_basis(_DOM, int(modes)), "n": n, "F": F,
            "ode_cloud": _attractors.attractor_ode(F, components=n, sample_dt=sample_dt),
            "n_tails": int(n_tails),
            "w_amplitude": float(w_amplitude),
            "t_trans": float(t_trans),
            "sample_dt": sample_dt,
            "arc_dt": float(arc_dt),
            # one shared perturbation draw for the whole sweep: per-point
            # draws would modulate the coupling constant and break the
            # monotone decay of d_H across d
            "tail_seed": seed}


def _each_cloud(ds, ctx, measure):
    """`measure(E, cloud)` at each d, on the PDE clouds of every d built in one batch.

    A d whose cloud failed, or whose measure raises a point error, fails alone.
    """
    Es = [diffusion([d] * ctx["n"]) for d in ds]
    clouds = _attractors.attractor_pde(Es, ctx["F"], ctx["basis"], ode_cloud=ctx["ode_cloud"],
                                       n_tails=ctx["n_tails"], w_amplitude=ctx["w_amplitude"],
                                       t_trans=ctx["t_trans"], dt=ctx["arc_dt"],
                                       sample_dt=ctx["sample_dt"], seed=ctx["tail_seed"])
    results = []
    for i, E in enumerate(Es):
        cloud, clouds[i] = clouds[i], None  # each cloud is freed once measured
        if isinstance(cloud, _POINT_ERRORS):
            results.append(cloud)
            continue
        try:
            results.append(measure(E, cloud))
        except _POINT_ERRORS as err:
            results.append(err)
    return results


def _measure_deflection(ds, ctx, point_seeds):
    def measure(E, cloud):
        value = _attractors.manifold_deflection(cloud)
        return value, {"deflection": value, "scaled": value * np.sqrt(E.d_eps)}

    return _each_cloud(ds, ctx, measure)


def _prepare_hausdorff(seed, *, modes, components, nonlinearity, n_tails, w_amplitude,
                       t_trans, sample_dt, arc_dt, m_horizon):
    cloud = dict(modes=modes, components=components, nonlinearity=nonlinearity, n_tails=n_tails,
                 w_amplitude=w_amplitude, t_trans=t_trans, sample_dt=sample_dt, arc_dt=arc_dt)
    return {**_prepare_deflection(seed, **cloud), "m_horizon": float(m_horizon)}


def _measure_hausdorff(ds, ctx, point_seeds):
    basis = ctx["basis"]

    def measure(E, cloud):
        res = _attractors.hausdorff_distance(cloud, ctx["ode_cloud"], E, basis)
        consts = _dynamics.compute_M_and_mu(E, basis, horizon=ctx["m_horizon"])
        threshold_met = E.d_eps * basis.lambda1 > consts.mu - 1.0
        return res.sym, {"a_to_b": res.a_to_b, "b_to_a": res.b_to_a,
                         "resolution": max(res.resolution_a, res.resolution_b),
                         "mu": consts.mu, "threshold_met": float(threshold_met)}

    return _each_cloud(ds, ctx, measure)


def _prepare_graph(seed, *, modes, components, nonlinearity, grid_points, iters,
                   seed_amplitude, m_horizon):
    return {"basis": build_basis(_DOM, int(modes)), "n": int(components),
            "F": _dynamics.nonlinearity_from_spec(**nonlinearity),
            "grid_points": int(grid_points), "iters": int(iters),
            "seed_amplitude": float(seed_amplitude), "m_horizon": float(m_horizon)}


def _measure_graph(d, ctx, point_seed):
    basis = ctx["basis"]
    E = diffusion([d] * ctx["n"])
    # one mu serves both iterations
    mu = _dynamics.compute_M_and_mu(E, basis, horizon=ctx["m_horizon"]).mu
    est = _attractors.graph_iteration(E, ctx["F"], basis, grid_points=ctx["grid_points"],
                                      iters=ctx["iters"], mu=mu)
    m = est.v_grid.shape[0]
    seeded = np.zeros((m, ctx["n"], basis.mode_count + 1))
    seeded[:, :, 1] = ctx["seed_amplitude"]
    est_seeded = _attractors.graph_iteration(E, ctx["F"], basis,
                                             grid_points=ctx["grid_points"],
                                             iters=3, initial=seeded, mu=mu)
    factor = max(est_seeded.contraction_factors) if est_seeded.contraction_factors else 0.0
    return est.sup_norm, {"sup_norm": est.sup_norm, "contraction_factor": factor,
                          "horizon": est.horizon}


QUANTITIES = {
    "resolvent_gap": (-0.5, _prepare_resolvent, per_point(_measure_resolvent)),
    "w_decay_rate": (float("nan"), _prepare_decay, _measure_decay),
    "hausdorff": (-0.5, _prepare_hausdorff, _measure_hausdorff),
    "deflection": (-0.5, _prepare_deflection, _measure_deflection),
    "graph_sup": (-0.5, _prepare_graph, per_point(_measure_graph)),
}


def register_quantity(name: str, predicted_slope: float, prepare, measure) -> None:
    """Extension hook (also used by tests to inject synthetic quantities).

    `measure(ds, ctx, point_seeds)` measures the whole sweep; wrap a measure
    of one point in `per_point`.
    """
    QUANTITIES[name] = (predicted_slope, prepare, measure)


# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Everything needed to reproduce and audit one run.

    `metrics` holds what the run measured, the same for the same config and
    seed; `timings` holds how long a sweep's stages took, in seconds.
    """

    quantity: str
    config: dict
    version: str
    seed: int
    started: str
    finished: str
    status: str
    paths: dict
    metrics: dict
    timings: dict = field(default_factory=dict)


def persist_run(record: RunRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(path) -> RunRecord:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise RecordError(f"corrupt run record {path}: line {err.lineno}: {err.msg}") from err
    try:
        return RunRecord(**raw)
    except TypeError as err:
        raise RecordError(f"run record {path} has unexpected fields: {err}") from err


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


@contextlib.contextmanager
def open_run(out_root, quantity: str, seed: int, config: dict | None = None):
    """Create the run directory <out_root>/<UTC stamp>-<quantity>/ and yield its RunRecord.

    The record is persisted as <run_dir>/record.json with status "running" at
    once, and again on exit: "complete", or "incomplete" if the body raised
    (KeyboardInterrupt included), with `finished` stamped.  `config` defaults
    to the run directory's resolved.ini (the CLI writes one into every run
    directory); `paths` holds the run directory and the record, and the body
    adds its own files.
    """
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    run_dir = os.path.abspath(os.path.join(str(out_root), f"{stamp}-{quantity}"))
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "record.json")
    if config is None:
        config = {"resolved_ini": os.path.join(run_dir, "resolved.ini")}
    record = RunRecord(quantity=quantity, config=config, version=__version__, seed=seed,
                       started=_utc_now(), finished="", status="running",
                       paths={"run_dir": run_dir, "record": path}, metrics={})
    persist_run(record, path)
    status = "incomplete"
    try:
        yield record
        status = "complete"
    finally:
        record.status, record.finished = status, _utc_now()
        persist_run(record, path)


def write_table(path, header, rows, sep: str = ",") -> str:
    """Write a text table and return what was written.

    `header` is a list of column names, or None for no header line.  Text
    cells are written as given, None as nan and every other cell as a float
    in %.17g, which reads back as the same float.
    """
    def cell(x):
        return x if isinstance(x, str) else "nan" if x is None else f"{float(x):.17g}"

    lines = [] if header is None else [sep.join(header)]
    text = "".join(line + "\n" for line in lines + [sep.join(map(cell, row)) for row in rows])
    with open(path, "w") as fh:
        fh.write(text)
    return text


_RUN_FILES = {"points": "points.csv", "fit": "fit.csv", "plot": "plot.dat",
              "plot_loglog": "plot_loglog.dat", "config": "config.json"}


def run_sweep(cfg: SweepConfig, out_root):
    """Measure the configured quantity at every d, fit, and persist a run.

    Returns (RateFit | None, RunRecord); the fit is None when every surviving
    measurement is zero at tolerance (note says so) and a FitError is raised
    when fewer than 4 points survive outright failures; points.csv and
    details.csv are written before that check, so a failed sweep keeps each
    point's `failed: ...` reason.  `record.timings` gives the seconds spent in
    prepare, in measure, in persist (the fit and the run tables, stamped once
    they are written) and in total.
    """
    predicted, prepare, measure = QUANTITIES[cfg.quantity]
    config = {"quantity": cfg.quantity, "d_eps_values": list(cfg.d_eps_values),
              "params": cfg.params, "seed": cfg.seed}
    with open_run(out_root, cfg.quantity, cfg.seed, config=config) as record:
        start = time.perf_counter()
        paths = record.paths
        run_dir = paths["run_dir"]
        paths.update({key: os.path.join(run_dir, name) for key, name in _RUN_FILES.items()})
        with open(paths["config"], "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")

        begun = time.perf_counter()
        ctx = prepare(cfg.seed, **cfg.params)
        prepared = time.perf_counter()
        point_seeds = [int(s.generate_state(1)[0]) for s in
                       np.random.SeedSequence(cfg.seed).spawn(len(cfg.d_eps_values))]
        results = measure(cfg.d_eps_values, ctx, point_seeds)
        measured = time.perf_counter()
        record.timings.update({"prepare": prepared - begun, "measure": measured - prepared})
        rows = []
        extras_list = []
        values = []
        fit_d, fit_v = [], []
        zeros = 0
        for d, result in zip(cfg.d_eps_values, results):
            if isinstance(result, _POINT_ERRORS):  # recorded, not fitted
                extras_list.append({})
                rows.append((d, None,
                             f"failed: {type(result).__name__}: {result}".replace(",", ";")))
                continue
            value, extras = result
            value = float(value)
            extras_list.append(extras)
            values.append(value)
            if value <= ZERO_FLOOR:
                zeros += 1
                rows.append((d, value, "zero"))
            else:
                rows.append((d, value, "ok"))
                fit_d.append(d)
                fit_v.append(value)

        write_table(paths["points"], ["d_eps", "value", "status"], rows)
        keys = sorted({k for ex in extras_list for k in ex})
        if keys:
            paths["details"] = os.path.join(run_dir, "details.csv")
            write_table(paths["details"], ["d_eps", *keys],
                        [[d, *map(ex.get, keys)] for d, ex in zip(cfg.d_eps_values, extras_list)])
        surviving = len(fit_d) + zeros
        if surviving < 4:
            raise FitError(f"only {surviving} measurements survived; need at least 4")
        if not fit_d:
            fit = None
            note = "identically zero; bound trivially satisfied"
        elif len(fit_d) >= 4:
            fit = loglog_fit(fit_d, fit_v, predicted_slope=predicted)
            note = ""
        else:
            fit = None
            note = f"only {len(fit_d)} nonzero points; {zeros} zero at tolerance"

        write_table(paths["fit"], ["slope", "intercept", "r_squared", "predicted_slope"],
                    [[fit.slope, fit.intercept, fit.r_squared, fit.predicted_slope]
                     if fit else [None] * 4])
        write_table(paths["plot"], None, zip(fit_d, fit_v), sep=" ")
        write_table(paths["plot_loglog"], None,
                    [(np.log10(d), np.log10(v)) for d, v in zip(fit_d, fit_v)], sep=" ")
        done = time.perf_counter()
        record.timings.update({"persist": done - measured, "total": done - start})
        record.metrics.update({
            "n_points": len(cfg.d_eps_values),
            "n_ok": len(fit_d),
            "n_zero": zeros,
            "n_failed": len(cfg.d_eps_values) - surviving,
            "note": note,
            "values": values,
            "slope": fit.slope if fit else None,
            "intercept": fit.intercept if fit else None,
            "r_squared": fit.r_squared if fit else None,
            "predicted_slope": predicted if fit else None,
        })
    return fit, record
