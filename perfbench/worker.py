"""One benchmark process: import bigdiff, load the configs, then run a workload.

Usage: python3 worker.py SPEC.json

The spec names the checkout root, the (subcommand, INI path) studies, the
seed, the per-study output roots and the mode:

* ``workload``: run every study in this process, one after the other,
  through ``bigdiff.cli.main``, optionally traced;
* ``setup``: only set up, for one more set-up sample;
* ``layers``: time the isolated layer cases.

The worker prints ``READY`` as soon as the configs are loaded (the parent
times set-up up to that line) and, at the end, one JSON line with its result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def run_workload(spec: dict, cli) -> dict:
    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer(spec["run_id"])
        tracer.install()
    studies = []
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for argv in spec["argv"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                error = None
            except Exception:  # a crash is a failed study, the run goes on
                code, error = None, traceback.format_exc()
            studies.append({"argv": argv, "exit": code, "stdout": buf.getvalue(), "error": error})
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "io_bytes": sum(_tree_bytes(root) for root in spec["out_roots"]),
        "studies": studies,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, t1 - t0)
        result["layers"]["rates.io.bytes"] = result["io_bytes"]
        tracer.write_spans(spec["spans_path"], t0)
    return result


def _per_call(fn, repeats: int, inner: int = 1) -> float:
    """Median over `repeats` timings of `inner` back-to-back calls, per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


# isolated layer case metric -> unit, in the order BENCHMARK.json lists them
LAYER_CASES = {
    "layer.to_grid_k32_us": "us",
    "layer.to_spectral_k32_us": "us",
    "layer.to_grid_k128_us": "us",
    "layer.to_spectral_k128_us": "us",
    "layer.etd_step_1_us": "us",
    "layer.etd_step_26_us": "us",
    "layer.find_equilibria_pde_s": "s",
    "layer.graph_sweep_s": "s",
    "layer.compute_M_and_mu_us": "us",
    "layer.cloud_points": "count",
    "layer.resolution_s": "s",
    "layer.hausdorff_s": "s",
}


def run_layer_cases(seed: int) -> dict:
    """The isolated layer cases: small fixed inputs, random parts drawn from `seed`."""
    import numpy as np

    from bigdiff import attractors as at
    from bigdiff import dynamics as dyn
    from bigdiff import spectral as sp

    rng = np.random.default_rng(seed)
    dom = sp.DomainSpec()
    out = {}
    for K in (32, 128):
        basis = sp.build_basis(dom, K)
        coeffs = rng.standard_normal((1, K + 1))
        values = basis.to_grid(coeffs)
        out[f"layer.to_grid_k{K}_us"] = 1e6 * _per_call(lambda: basis.to_grid(coeffs), 5, 400)
        out[f"layer.to_spectral_k{K}_us"] = 1e6 * _per_call(lambda: basis.to_spectral(values), 5, 400)

    F = dyn.tanh_pitchfork(2.0)
    basis = sp.build_basis(dom, 32)
    stepper = dyn.EtdStepper(basis, sp.diffusion([4.0]), F, 1e-3)
    one = 0.3 * rng.standard_normal((1, 33))
    batch = 0.3 * rng.standard_normal((26, 1, 33))
    out["layer.etd_step_1_us"] = 1e6 * _per_call(lambda: stepper.step(one), 5, 400)
    out["layer.etd_step_26_us"] = 1e6 * _per_call(lambda: stepper.step(batch), 5, 400)

    E1 = sp.diffusion([1.0])
    seeds = [sp.constant_field(eq.vector(), basis) for eq in at.find_equilibria_ode(F, 3.0)]
    out["layer.find_equilibria_pde_s"] = _per_call(lambda: at.find_equilibria_pde(E1, F, seeds), 3)
    out["layer.graph_sweep_s"] = _per_call(
        lambda: at.graph_iteration(sp.diffusion([4.0]), F, basis, grid_points=21, iters=1), 3)
    out["layer.compute_M_and_mu_us"] = 1e6 * _per_call(
        lambda: dyn.compute_M_and_mu(sp.diffusion([4.0]), basis), 5, 20)

    cloud = at.attractor_ode(F)  # the 5,747-point manifold-union cloud
    out["layer.cloud_points"] = len(cloud)
    out["layer.resolution_s"] = _per_call(cloud.resolution, 3)
    out["layer.hausdorff_s"] = _per_call(lambda: at.hausdorff_distance(cloud, cloud, E1, basis), 1)
    return out


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import bigdiff.cli as cli
    from bigdiff.config import load_config

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bigdiff imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for _, config in spec["studies"]:
        load_config(config)
    print("READY", flush=True)
    if spec["mode"] == "setup":
        result = {}
    elif spec["mode"] == "layers":
        result = run_layer_cases(spec["seed"])
    else:
        result = run_workload(spec, cli)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
