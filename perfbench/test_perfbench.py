"""Self-tests of the benchmark: span arithmetic, wrapper hygiene, the gate.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import spans  # noqa: E402
from compare import verdict  # noqa: E402
from worker import LAYER_CASES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_synthetic_tree():
    # 0: [0, 10] with children 1: [1, 4] and 2: [5, 9]; 1 has child 3: [2, 3];
    # 4: [12, 13] is a second root. Child 5 of 2 overlaps its sibling-free
    # parent partly ([8, 11] is clipped to [8, 9]).
    parent = [spans.ROOT, 0, 0, 1, spans.ROOT, 2]
    start = [0.0, 1.0, 5.0, 2.0, 12.0, 8.0]
    end = [10.0, 4.0, 9.0, 3.0, 13.0, 11.0]
    got = spans.self_times(parent, start, end)
    assert got == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.0, 3.0])


def test_self_times_merge_overlapping_children():
    parent = [spans.ROOT, 0, 0]
    start = [0.0, 1.0, 2.0]
    end = [10.0, 5.0, 6.0]
    assert spans.self_times(parent, start, end)[0] == pytest.approx(5.0)


def test_tracer_spans_partition_the_window():
    clock = FakeClock()
    tracer = spans.Tracer("test", clock=clock)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner_again()  # same layer nested: no span of its own

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_inner = tracer.wrap("mid", inner)
    wrapped_inner_again = tracer.wrap("top", lambda: clock.__setattr__("now", clock.now + 4.0))
    tracer.wrap("top", outer)()
    metrics = spans.layer_metrics(tracer, wall_s=clock.now)
    assert metrics["top.calls"] == 1
    assert metrics["top.self_s"] == pytest.approx(5.0)
    assert metrics["mid.self_s"] == pytest.approx(1.5)
    assert metrics["leaf.calls"] == 2
    assert metrics["leaf.self_s"] == pytest.approx(4.0)
    total_self = metrics["top.self_s"] + metrics["mid.self_s"] + metrics["leaf.self_s"]
    assert total_self == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.untraced_s"] == pytest.approx(0.0)


def test_failed_call_closes_its_span():
    clock = FakeClock()
    tracer = spans.Tracer("test", clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("synthetic")

    with pytest.raises(RuntimeError):
        tracer.wrap("rates.measure", boom)()
    assert tracer._stack == []
    assert tracer.counts["rates.measure.failed"] == 1
    assert spans.layer_metrics(tracer, 1.0)["rates.measure.max_s"] == pytest.approx(1.0)


def _sites(tracer):
    from bigdiff import rates

    sites = {}
    for _, owners, _ in spans.bindings(tracer):
        for owner, attr in owners:
            value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            sites[(id(owner), attr)] = value
    return sites, dict(rates.QUANTITIES)


def test_install_and_remove_restore_every_binding():
    from bigdiff import attractors as at
    from bigdiff import dynamics as dyn
    from bigdiff import rates

    tracer = spans.Tracer("test")
    before, quantities = _sites(tracer)
    tracer.install()
    try:
        during, wrapped = _sites(tracer)
        assert all(during[k] is not v for k, v in before.items())
        assert all(wrapped[k] is not v for k, v in quantities.items())
        assert at.compute_M_and_mu is dyn.compute_M_and_mu
        assert at.EtdStepper is dyn.EtdStepper
    finally:
        tracer.remove()
    after, restored = _sites(tracer)
    assert all(after[k] is v for k, v in before.items())
    assert restored.keys() == quantities.keys()
    assert all(restored[k] is v for k, v in quantities.items())
    assert at.compute_M_and_mu is dyn.compute_M_and_mu
    assert at.EtdStepper is dyn.EtdStepper
    assert rates.QUANTITIES["hausdorff"][2].__name__ == "_measure_hausdorff"


def test_traced_calls_count_rows_and_repeats():
    import numpy as np

    from bigdiff import dynamics as dyn
    from bigdiff import spectral as sp

    basis = sp.build_basis(sp.DomainSpec(), 8)
    E = sp.diffusion([2.0])
    stepper = dyn.EtdStepper(basis, E, dyn.tanh_pitchfork(2.0), 1e-3)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        stepper.step(np.zeros((1, 9)))
        stepper.step(np.zeros((5, 1, 9)))
        dyn.compute_M_and_mu(E, basis)
        dyn.compute_M_and_mu(E, basis)
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer, 1.0)
    assert metrics["dynamics.etd_step.calls"] == 2
    assert metrics["dynamics.etd_step.rows"] == 6
    assert metrics["dynamics.etd_step.rows_per_call"] == 3
    assert metrics["dynamics.compute_M_and_mu.repeat_ratio"] == 0.5


def _study(stdout, code=0):
    return {"argv": ["decay"], "exit": code, "stdout": stdout, "error": None}


def test_gate_flags_failed_verdicts_and_exit_codes():
    assert gate.study_failures(_study("j,eigenvalue\n1,1\nVERDICT: eigs lam2=1 PASS\n")) == []
    assert gate.study_failures(_study("VERDICT: decay min_margin=-1 FAIL\n"))
    assert gate.study_failures(_study("VERDICT: decay x PASS\nVERDICT: decay y FAIL\n"))
    assert gate.study_failures(_study("no verdict here\n"))
    assert gate.study_failures(_study("VERDICT: decay x PASS\n", code=3))
    crashed = {"argv": ["decay"], "exit": None, "stdout": "", "error": "Traceback\nKeyError: 1\n"}
    assert gate.study_failures(crashed) == ["decay: crashed: KeyError: 1"]


def _tree(root, files):
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return gate.run_files(root)


def test_gate_flags_csv_mismatch_and_failed_points(tmp_path):
    points = "d_eps,value,status\n1,0.5,ok\n2,nan,failed: RuntimeError: boom\n"
    first = _tree(tmp_path / "a", {
        "00/20261017T120000123456-hausdorff/points.csv": points,
        "00/20261017T120000123456-hausdorff/details.csv": "d_eps,x\n1,1\n",
        "00/20261017T120000123456-hausdorff/record.json": '{"started": "a"}',
    })
    second = _tree(tmp_path / "b", {
        "00/20261017T130000654321-hausdorff/points.csv": points,
        "00/20261017T130000654321-hausdorff/details.csv": "d_eps,x\n1,2\n",
        "00/20261017T130000654321-hausdorff/record.json": '{"started": "b"}',
    })
    assert sorted(first) == sorted(second)
    compared = dict(gate.compare_files(first, second))
    assert compared == {"00/hausdorff/details.csv": False, "00/hausdorff/points.csv": True}
    del second["00/hausdorff/points.csv"]
    assert dict(gate.compare_files(first, second))["00/hausdorff/points.csv"] is False
    statuses = [s for _, s in gate.point_statuses(first)]
    assert statuses == ["ok", "failed: RuntimeError: boom"]
    assert list(gate.details_digests(first)) == ["00/hausdorff/details.csv"]


def test_compare_verdicts():
    assert verdict([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], 0.1, "lower")[1] == "worse"
    assert verdict([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], 0.1, "lower")[1] == "better"
    assert verdict([10.0, 10.1, 9.9, 10.0], [10.0, 10.1, 9.9, 10.1], 0.1, "lower")[1] == "unchanged"
    assert verdict([5.0, 10.0, 15.0, 20.0], [6.0, 11.0, 16.0, 21.0], 0.1, "lower")[1] == "unresolved"
    assert verdict([1.0], [0.5], 0.001, "higher")[1] == "worse"


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {**spans.LAYER_METRICS,
                                                                   **LAYER_CASES}
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "cpu_s", "pass_ratio"]
