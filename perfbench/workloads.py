"""The benchmark's workloads: which CLI studies run, with which INI configs.

Each workload is a fixed list of studies. The configs are written out as INI
files before a run; the program sees only those files and the CLI arguments
(`--seed`, `--quiet`, `--out-root`). The seed of a run is passed unchanged to
every study, so the same seed gives the same inputs.

The studies are smaller than the acceptance configs so that one execution of
a workload takes about 6 s on a 2-core machine and a run can repeat it. Each
keeps the layer mix of its full-size study: see README.md.
"""

from __future__ import annotations

import os

TANH = {"nonlinearity": {"name": "tanh", "beta": "2.0"}}


def _ini(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


# name -> list of (subcommand, config sections); every config is written as
# its own INI file, named after the study's position in the list.
WORKLOADS = {
    # the criterion-7 study: single-state ETD tails and arcs plus exact
    # nearest-neighbour geometry; d = 0.25 lies below the coincidence
    # threshold d*lam1 > mu - 1, the other three above it
    "attractor-sweep": [
        ("hausdorff-sweep", {
            "domain": {"modes": "32"},
            "sweep": {"d_eps": "0.25,1,4,16"},
            **TANH,
            "attractor": {"n_tails": "24", "w_amplitude": "0.3", "t_trans": "1.0",
                          "sample_dt": "0.025", "arc_dt": "5e-3"},
        }),
    ],
    # the criterion-8 study: long ETD tails (no geometry) and the only use of
    # graph_iteration; d starts at 4 because the backward horizon 10/gap
    # makes d = 1 cost more than the rest of the workload together
    "manifold": [
        ("manifold", {
            "domain": {"modes": "32"},
            "sweep": {"d_eps": "4,8,16,32"},
            **TANH,
            "attractor": {"n_tails": "12", "w_amplitude": "0.3",
                          "deflection_t_trans": "10.0", "sample_dt": "0.01",
                          "arc_dt": "1e-2"},
            "manifold": {"grid_points": "21", "iterations": "4"},
        }),
    ],
    # the criterion-6 study: no ETD; lockstep RK4 over 2,000 long-time seeds,
    # grid dedup, single-state manifold shooting, cloud CSV output
    "ode-attractor": [
        ("attractor", {
            **TANH,
            "attractor": {"longtime_seeds": "2000", "arc_dt": "1e-3"},
        }),
    ],
    # the elliptic and decay studies at K = 128: batch-of-one ETD with the
    # per-sample Q diagnostic, M/mu at every point, many small run files
    "rate-studies": [
        ("resolvent-rate", {"domain": {"modes": "128"}}),
        ("eigs", {"domain": {"modes": "128"}}),
        ("example-optimal", {"domain": {"modes": "128"}}),
        ("decay", {"domain": {"modes": "128"}, "nonlinearity": {"name": "zero"}}),
        ("decay", {"domain": {"modes": "128"}, **TANH}),
        ("decay", {"domain": {"modes": "128"},
                   "nonlinearity": {"name": "saturated_cubic", "gamma": "2.0"}}),
        ("decay", {"domain": {"modes": "128", "components": "2"},
                   "diffusion": {"eps": "1,2"},
                   "nonlinearity": {"name": "coupled_tanh", "a": "1.2", "c": "0.6"}}),
    ],
}


def write_configs(workload: str, directory: str) -> list[tuple[str, str]]:
    """Write the workload's INI files into `directory`; return (subcommand, path) pairs."""
    studies = []
    for index, (command, sections) in enumerate(WORKLOADS[workload]):
        path = os.path.join(directory, f"{index:02d}-{command}.ini")
        with open(path, "w") as fh:
            fh.write(_ini(sections))
        studies.append((command, path))
    return studies


def study_argv(command: str, config: str, seed: int, out_root: str) -> list[str]:
    """The CLI arguments of one study, as a user would type them after `bigdiff`."""
    return [command, "-c", config, "--seed", str(seed), "--quiet", "--out-root", out_root]
