"""Spans around the public functions of bigdiff, recorded from the benchmark.

A `Tracer` replaces module attributes, class methods and the entries of
`rates.QUANTITIES` with wrappers that record one span per call: name, start,
end and parent, all in memory. `remove()` puts every original binding back.
After the run, `layer_metrics` turns the spans and the counts taken at the
same wrappers into the per-layer metrics listed in `LAYER_METRICS`, and
`write_spans` writes the spans out.

A call into a layer from inside the same layer (an elliptic function calling
another one) gets no span of its own: a layer's `calls` counts entries into
it, and its self time already covers the nested call.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import os
import statistics
import time
from array import array
from collections import defaultdict

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "dynamics.etd_step.calls": "count",
    "dynamics.etd_step.rows": "count",
    "dynamics.etd_step.rows_per_call": "1",
    "dynamics.etd_step.self_s": "s",
    "dynamics.etd_step.us_per_row": "us",
    "dynamics.evolve_pde.calls": "count",
    "dynamics.evolve_pde.self_s": "s",
    "dynamics.compute_M_and_mu.calls": "count",
    "dynamics.compute_M_and_mu.self_s": "s",
    "dynamics.compute_M_and_mu.repeat_ratio": "1",
    "attractors.hausdorff.calls": "count",
    "attractors.hausdorff.pairs": "count",
    "attractors.hausdorff.self_s": "s",
    "attractors.resolution.calls": "count",
    "attractors.resolution.points": "count",
    "attractors.resolution.self_s": "s",
    "attractors.resolution.repeat_ratio": "1",
    "spectral.embed.calls": "count",
    "spectral.embed.self_s": "s",
    "attractors.graph.calls": "count",
    "attractors.graph.sweeps": "count",
    "attractors.graph.clamped": "count",
    "attractors.graph.self_s": "s",
    "attractors.ode_longtime.calls": "count",
    "attractors.ode_longtime.seeds": "count",
    "attractors.ode_longtime.points": "count",
    "attractors.ode_longtime.self_s": "s",
    "attractors.ode_manifold.calls": "count",
    "attractors.ode_manifold.points": "count",
    "attractors.ode_manifold.self_s": "s",
    "attractors.save_cloud.calls": "count",
    "attractors.save_cloud.bytes": "B",
    "attractors.save_cloud.self_s": "s",
    "attractors.newton_ode.calls": "count",
    "attractors.newton_ode.seeds": "count",
    "attractors.newton_ode.roots": "count",
    "attractors.newton_ode.self_s": "s",
    "attractors.newton_ode.repeat_ratio": "1",
    "attractors.newton_pde.calls": "count",
    "attractors.newton_pde.seeds": "count",
    "attractors.newton_pde.roots": "count",
    "attractors.newton_pde.self_s": "s",
    "attractors.pde_cloud.calls": "count",
    "attractors.pde_cloud.points": "count",
    "attractors.pde_cloud.self_s": "s",
    "attractors.deflection.calls": "count",
    "attractors.deflection.self_s": "s",
    "elliptic.calls": "count",
    "elliptic.self_s": "s",
    "spectral.transform.calls": "count",
    "spectral.transform.self_s": "s",
    "rates.prepare.calls": "count",
    "rates.prepare.self_s": "s",
    "rates.measure.calls": "count",
    "rates.measure.failed": "count",
    "rates.measure.p50_s": "s",
    "rates.measure.max_s": "s",
    "rates.run_sweep.self_s": "s",
    "rates.persist_run.calls": "count",
    "rates.persist_run.bytes": "B",
    "rates.io.bytes": "B",
    "config.load.calls": "count",
    "config.load.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}

ROOT = -1  # parent index of a top-level span


def _bound(fn):
    """Argument binder for `fn`: (args, kwargs) -> {parameter: value} with defaults."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list = []
        self._quantities: dict = {}

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def repeat(self, layer: str, key) -> None:
        """Count a call whose inputs (`key`) were already seen in this run."""
        seen = self._seen[layer]
        if key in seen:
            self.counts[layer + ".repeats"] += 1
        else:
            seen.add(key)

    def wrap(self, layer: str, fn, after=None):
        """Wrapper recording a `layer` span per call; `after(args, kwargs, result)` counts."""
        tracer = self
        layer_id = self.name_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.name[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = tracer.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                tracer.counts[layer + ".failed"] += 1
                raise
            tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- install / remove ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every bigdiff layer (see `bindings`)."""
        from bigdiff import rates

        for layer, sites, after in bindings(self):
            original = getattr(*sites[0])
            wrapper = self.wrap(layer, original, after(_bound(original)) if after else None)
            for owner, attr in sites:
                self._patch(owner, attr, wrapper)
        self._quantities = dict(rates.QUANTITIES)
        for name, (slope, prepare, measure) in self._quantities.items():
            rates.register_quantity(name, slope, self.wrap("rates.prepare", prepare),
                                    self.wrap("rates.measure", measure))

    def remove(self) -> None:
        """Put back every binding `install` replaced."""
        from bigdiff import rates

        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        rates.QUANTITIES.update(self._quantities)

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from `origin`."""
        with gzip.open(path, "at", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": self.names[self.name[i]],
                    "parent": self.parent[i], "start": self.start[i] - origin,
                    "end": self.end[i] - origin}) + "\n")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p != ROOT:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        covered = 0.0
        run_start = run_end = None
        for j in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[j], start[i]), min(end[j], end[i])
            if e <= s:
                continue
            if run_end is not None and s <= run_end:
                run_end = max(run_end, e)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        if run_end is not None:
            covered += run_end - run_start
        out.append(end[i] - start[i] - covered)
    return out


def bindings(tracer: Tracer):
    """(layer, [(owner, attribute), ...], count hook factory) for every wrapped call.

    All sites of one entry hold the same function object (a module attribute
    and the name another module imported), so each gets the same wrapper.
    A hook factory takes the original's argument binder and returns
    `after(args, kwargs, result)`.
    """
    from bigdiff import attractors as at
    from bigdiff import cli, config
    from bigdiff import dynamics as dyn
    from bigdiff import elliptic as el
    from bigdiff import rates as rt
    from bigdiff import spectral as sp

    counts = tracer.counts

    def etd_rows(bind):
        def after(args, kwargs, result):
            c = args[1] if len(args) > 1 else kwargs["c"]
            counts["dynamics.etd_step.rows"] += c.size // (c.shape[-1] * c.shape[-2]) if c.ndim > 2 else 1
        return after

    def m_and_mu(bind):
        def after(args, kwargs, result):
            a = bind(args, kwargs)
            E, basis = a["E"], a["basis"]
            tracer.repeat("dynamics.compute_M_and_mu",
                          (tuple(E.eps), E.m0, repr(basis), a["horizon"], a["coarse"], a["refine"]))
        return after

    def hausdorff(bind):
        def after(args, kwargs, result):
            a = bind(args, kwargs)
            counts["attractors.hausdorff.pairs"] += 2 * len(a["cloud_a"]) * len(a["cloud_b"])
        return after

    def resolution(bind):
        def after(args, kwargs, result):
            cloud = args[0]
            counts["attractors.resolution.points"] += len(cloud)
            digest = hashlib.blake2b(cloud.points.tobytes(), digest_size=16).hexdigest()
            eps = None if cloud.diffusion is None else tuple(cloud.diffusion.eps)
            tracer.repeat("attractors.resolution",
                          (cloud.kind, cloud.points.shape, digest, repr(cloud.basis), eps,
                           cloud.meta.get("resolution_floor")))
        return after

    def graph(bind):
        def after(args, kwargs, result):
            counts["attractors.graph.sweeps"] += result.iterations
            counts["attractors.graph.clamped"] += result.clamped
        return after

    def longtime(bind):
        def after(args, kwargs, result):
            counts["attractors.ode_longtime.seeds"] += bind(args, kwargs)["n_seeds"]
            counts["attractors.ode_longtime.points"] += len(result)
        return after

    def points_of(layer):
        def factory(bind):
            def after(args, kwargs, result):
                counts[layer + ".points"] += len(result)
            return after
        return factory

    def save_cloud(bind):
        def after(args, kwargs, result):
            path = str(bind(args, kwargs)["csv_path"])
            counts["attractors.save_cloud.bytes"] += _file_bytes(path, path + ".meta.json")
        return after

    def newton_ode(bind):
        def after(args, kwargs, result):
            a = bind(args, kwargs)
            counts["attractors.newton_ode.seeds"] += a["grid_density"] ** a["components"]
            counts["attractors.newton_ode.roots"] += len(result)
            F = a["F"]
            tracer.repeat("attractors.newton_ode",
                          (F.name, json.dumps(F.params, sort_keys=True), a["box"],
                           a["grid_density"], a["tol"], a["merge_tol"], a["components"]))
        return after

    def newton_pde(bind):
        def after(args, kwargs, result):
            counts["attractors.newton_pde.seeds"] += len(bind(args, kwargs)["seeds"])
            counts["attractors.newton_pde.roots"] += len(result)
        return after

    def persist(bind):
        def after(args, kwargs, result):
            counts["rates.persist_run.bytes"] += _file_bytes(str(bind(args, kwargs)["path"]))
        return after

    elliptic_sites = [(el, name) for name in el.__all__ if inspect.isfunction(getattr(el, name))]
    return [
        ("dynamics.etd_step", [(dyn.EtdStepper, "step")], etd_rows),
        ("dynamics.evolve_pde", [(dyn, "evolve_pde"), (at, "evolve_pde")], None),
        ("dynamics.compute_M_and_mu", [(dyn, "compute_M_and_mu"), (at, "compute_M_and_mu")],
         m_and_mu),
        ("attractors.hausdorff", [(at, "hausdorff_distance")], hausdorff),
        ("attractors.resolution", [(at.AttractorCloud, "resolution")], resolution),
        ("spectral.embed", [(sp.EnergyNorm, "embed")], None),
        ("attractors.graph", [(at, "graph_iteration")], graph),
        ("attractors.ode_longtime", [(at, "attractor_ode_longtime")], longtime),
        ("attractors.ode_manifold", [(at, "unstable_manifold_ode")],
         points_of("attractors.ode_manifold")),
        ("attractors.save_cloud", [(at, "save_cloud")], save_cloud),
        ("attractors.newton_ode", [(at, "find_equilibria_ode")], newton_ode),
        ("attractors.newton_pde", [(at, "find_equilibria_pde")], newton_pde),
        ("attractors.pde_cloud", [(at, "attractor_pde")], points_of("attractors.pde_cloud")),
        ("attractors.deflection", [(at, "manifold_deflection")], None),
        *[("elliptic", [site], None) for site in elliptic_sites],
        ("spectral.transform", [(sp.CosineBasis, "to_grid")], None),
        ("spectral.transform", [(sp.CosineBasis, "to_spectral")], None),
        ("rates.run_sweep", [(rt, "run_sweep")], None),
        ("rates.persist_run", [(rt, "persist_run")], persist),
        ("config.load", [(config, "load_config"), (cli, "load_config")], None),
        ("cli.main", [(cli, "main")], None),
    ]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced execution whose window lasted `wall_s`."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    top = 0.0
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        self_s[name] += selfs[i]
        durations[name].append(tracer.end[i] - tracer.start[i])
        if tracer.parent[i] == ROOT:
            top += tracer.end[i] - tracer.start[i]
    out = {}
    for name in tracer.names:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    for key, value in tracer.counts.items():
        if not key.endswith(".repeats"):
            out[key] = value
    for layer in ("dynamics.compute_M_and_mu", "attractors.resolution", "attractors.newton_ode"):
        n = calls[layer]
        out[layer + ".repeat_ratio"] = tracer.counts[layer + ".repeats"] / n if n else 0.0
    steps = calls["dynamics.etd_step"]
    rows = tracer.counts["dynamics.etd_step.rows"]
    out["dynamics.etd_step.rows_per_call"] = rows / steps if steps else 0.0
    out["dynamics.etd_step.us_per_row"] = 1e6 * self_s["dynamics.etd_step"] / rows if rows else 0.0
    measures = durations["rates.measure"]
    out["rates.measure.p50_s"] = statistics.median(measures) if measures else 0.0
    out["rates.measure.max_s"] = max(measures) if measures else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.untraced_s"] = wall_s - top
    out["trace.spans"] = len(tracer.start)
    return out
