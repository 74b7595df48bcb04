"""Run one bigdiff benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: each execution of the workload is
a fresh worker process that imports bigdiff, loads the workload's configs and
runs its studies one after the other through ``bigdiff.cli.main``; the next
execution starts only after the previous one has exited. Executions repeat
while the next one, as long as the last, still ends within S seconds, and at
least three times. Every execution also gives one set-up sample, and
set-up-only workers make up at least five.

With ``--trace 0`` every execution is untraced and the end-to-end metrics of
BENCHMARK.json are reported as medians over the executions. With
``--trace 1`` executions alternate between traced and untraced, the
per-layer metrics are medians over the traced ones, ``trace.overhead_ratio``
compares the two, and a last worker times the isolated layer cases.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with every
sample, the gate's findings and an environment stamp, goes to
``.bench_out/BENCH_<workload>_s<seed>_t<trace>_<UTC stamp>.json``.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gate
from spans import LAYER_METRICS
from worker import LAYER_CASES
from workloads import study_argv, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0   # the whole run, from start to the result line
MIN_EXECUTIONS = 3   # per run, however short --seconds is
MIN_SETUPS = 5       # set-up samples per run; set-up-only workers make up the rest
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every worker: BLAS never gets more threads than CPUs."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        if not env.get(var, "").isdigit() or not 0 < int(env[var]) <= nproc():
            env[var] = str(nproc())
    return env


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Where and on what the run happened; git fields are null outside a git checkout."""
    import numpy as np

    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "bigdiff")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    env = child_env()
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--", ".")) if in_git else None,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads_env": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


class Worker:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, spec: dict):
        """(set-up seconds or None, result dict or None, stderr tail) of one worker."""
        self.count += 1
        spec_path = os.path.join(self.work, f"spec-{self.count}.json")
        err_path = os.path.join(self.work, f"stderr-{self.count}.txt")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                    stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self.env, text=True)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0 if ready.strip() == "READY" else None
                rest = proc.stdout.read()
            finally:
                killer.cancel()
                proc.stdout.close()
                proc.wait()
        with open(err_path) as fh:
            stderr = fh.read()[-2000:]
        lines = rest.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if proc.returncode != 0:
            stderr += f"\nworker exited with {proc.returncode}"
        return setup, result, stderr


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def parse_args(argv, bench: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        print("error: BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 2
    args = parse_args(argv, bench)
    if not os.path.isfile(os.path.join(ROOT, "src", "bigdiff", "cli.py")):
        print(f"error: no bigdiff sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "tmp"))
    try:
        return run(args, bench, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, bench: dict, work: str, started: float) -> int:
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}_s{args.seed}_t{args.trace}_{stamp}"
    spans_path = os.path.join(OUT, "spans", name + ".jsonl.gz")
    if args.trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    configs = os.path.join(work, "configs")
    os.makedirs(configs)
    studies = write_configs(args.workload, configs)
    env_start = environment()
    load_start = os.getloadavg()
    workers = Worker(work, started + DEADLINE_S)
    base = {"root": ROOT, "studies": studies, "seed": args.seed}

    setup_s = []
    out = os.path.join(work, "out")
    ref = os.path.join(work, "ref")
    reference = None
    digests = {}
    tally = gate.Tally()
    executions = []
    loop_start = time.monotonic()
    last = 0.0
    while True:
        now = time.monotonic()
        # start no execution that would end past --seconds once there are enough
        enough = len(executions) >= MIN_EXECUTIONS and now - loop_start + last > args.seconds
        if enough or (executions and now + 1.5 * last > started + DEADLINE_S - 15):
            break
        index = len(executions)
        traced = bool(args.trace) and index % 2 == 0
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        out_roots = [os.path.join(out, f"{k:02d}") for k in range(len(studies))]
        spec = {**base, "mode": "workload", "trace": traced, "out_roots": out_roots,
                "argv": [study_argv(cmd, ini, args.seed, o)
                         for (cmd, ini), o in zip(studies, out_roots)],
                "run_id": f"{args.workload}/{args.seed}/{stamp}/{index}",
                "spans_path": spans_path}
        setup, result, stderr = workers.run(spec)
        last = time.monotonic() - now
        if setup is not None:
            setup_s.append(setup)
        if result is None:
            for command, _ in studies:
                tally.count(False, f"execution {index}: {command}: worker failed: {stderr.strip()}")
            executions.append({"traced": traced, "failed": True})
            continue
        result["traced"] = traced
        executions.append(result)
        for study in result["studies"]:
            found = gate.study_failures(study)
            tally.count(not found, f"execution {index}: {'; '.join(found)}")
        files = gate.run_files(out)
        for key, status in gate.point_statuses(files):
            tally.count(not status.startswith("failed"), f"execution {index}: {key}: {status}")
        if reference is None:
            os.rename(out, ref)
            reference = gate.run_files(ref)
            digests = gate.details_digests(reference)
            continue
        for key, same in gate.compare_files(reference, files):
            tally.count(same, f"execution {index}: {key} differs from execution 0")

    while len(setup_s) < MIN_SETUPS and time.monotonic() < started + DEADLINE_S - 15:
        setup, _, _ = workers.run({**base, "mode": "setup"})
        if setup is None:
            break
        setup_s.append(setup)

    layer_cases = layer_error = None
    if args.trace:
        _, layer_cases, layer_error = workers.run({**base, "mode": "layers"})

    ok = [e for e in executions if not e.get("failed")]
    untraced = [e for e in ok if not e["traced"]]
    samples = {
        "wall_s": [e["wall_s"] for e in untraced],
        "cpu_s": [e["cpu_s"] for e in untraced],
        "peak_rss_mb": [e["peak_rss_mb"] for e in untraced],
        "setup_s": setup_s,
        "pass_ratio": [1.0 - tally.failed / tally.attempted] if tally.attempted else [],
    }
    if args.trace:
        traced_runs = [e["layers"] for e in ok if e["traced"]]
        for metric in LAYER_METRICS:
            samples[metric] = [t.get(metric, 0.0) for t in traced_runs]
        walls = [t["trace.wall_s"] for t in traced_runs]
        if walls and samples["wall_s"]:
            samples["trace.overhead_ratio"] = [statistics.median(walls)
                                               / statistics.median(samples["wall_s"])]
        for metric in LAYER_CASES:
            samples[metric] = [layer_cases[metric]] if layer_cases else []
    summary = {k: quartiles(v) for k, v in samples.items() if v}

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted if m["name"] in summary}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    tally.problems.extend(f"metric {name} has no sample" for name in missing)
    correct = tally.failed == 0 and not missing

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run": name, "environment": env_start,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "layer_cases_error": layer_error if args.trace and layer_cases is None else None,
        "details_sha256": digests, "summary": summary, "samples": samples,
        "executions": [{k: v for k, v in e.items() if k != "studies"} for e in executions],
        "spans": os.path.relpath(spans_path, ROOT) if args.trace else None,
        "duration_s": time.monotonic() - started,
    }
    result_path = os.path.join(OUT, f"BENCH_{name}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for problem in tally.problems:
        print(f"FAILED: {problem}")
    for m in wanted:
        s = summary.get(m["name"])
        if s:
            print(f"{m['name']} = {s['median']:.6g} {m['unit']} "
                  f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    print(f"result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
