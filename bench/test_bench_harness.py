"""Tests of the benchmark harness itself: span arithmetic, metric names,
output verification and the tracing wrappers."""

import json
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((ROOT / "bench" / "workloads.json").read_text())["workloads"]


def _trace(names, spans_):
    """Trace dict from (name, parent index, start, end) tuples."""
    ids = {n: i for i, n in enumerate(names)}
    return {"names": names,
            "name_id": np.array([ids[s[0]] for s in spans_]),
            "parent": np.array([s[1] for s in spans_]),
            "start": np.array([s[2] for s in spans_], dtype=float),
            "end": np.array([s[3] for s in spans_], dtype=float),
            "counts": {}, "stages": []}


def test_self_time_arithmetic():
    names = ["flow.solve_boundary_path", "discretization.partials", "flow.spsolve"]
    tr = _trace(names, [
        ("flow.solve_boundary_path", -1, 0.0, 10.0),
        ("discretization.partials", 0, 1.0, 4.0),
        ("flow.spsolve", 0, 5.0, 9.0),
        ("discretization.partials", 2, 6.0, 7.0),   # nested under spsolve
        ("flow.spsolve", -1, 11.0, 12.5),           # second root
    ])
    calls, self_s, total_s = spans.self_times(tr["name_id"], tr["parent"],
                                              tr["start"], tr["end"], 3)
    assert calls.tolist() == [1, 2, 2]
    assert self_s.tolist() == pytest.approx([3.0, 4.0, 3.0 + 1.5])
    assert total_s.tolist() == pytest.approx([10.0, 4.0, 5.5])

    m = spans.layer_metrics(tr, traced_run_s=12.0, untraced_run_s=10.0)
    assert m["discretization.partials.self_s"] == pytest.approx(4.0)
    assert m["trace.unattributed_s"] == pytest.approx(12.0 - 11.5)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    # every self time plus the remainder is the traced run
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total + m["trace.unattributed_s"] == pytest.approx(12.0)
    assert sum(spans.shares(tr, 12.0).values()) == pytest.approx(1.0)


def test_newton_levels_are_whole_level_sweeps():
    stages = [{"T": 10.0, "levels": [[0.4, 25 * 3, 25 * 7], [0.2, 50 * 2, 50 * 4]]}]
    assert spans.newton_levels(stages) == [[(25, 3.0, 7.0), (50, 2.0, 4.0)]]


def test_metric_names_and_lists():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert pattern.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    empty = _trace([], [])
    assert set(spans.layer_metrics(empty, 1.0, 1.0)) == {m["name"] for m in BENCH["per_layer"]}
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


class _FakeRunner:
    def __init__(self, invocations):
        self.invocations = list(invocations)

    def invocation(self):
        return self.invocations.pop(0)


def test_untraced_aggregation_counts_failures():
    good = {"ops": 9, "failed": 0, "messages": [], "run_s": 10.0,
            "setup_s": 0.5, "peak_rss_mb": 100.0}
    bad = dict(good, failed=1, run_s=None, messages=["order: exited with 1"])
    invs = [bad, dict(good, setup_s=0.9), dict(good, run_s=12.0), good]
    # the budget is spent at once, so only the minimum number of invocations
    got, values, lines, _ = run.untraced(_FakeRunner(invs), 1e-9, time.monotonic())
    assert got == invs[:run.MIN_INVOCATIONS] == invs[:3]
    assert values["ok_frac"] == pytest.approx(26 / 27)
    assert values["run_s"] == 11.0            # failed invocation left out
    assert values["setup_s"] == 0.5
    assert set(values) == {m["name"] for m in BENCH["end_to_end"]}
    assert any(line.startswith("failed_frac") for line in lines)


def _ocp_outputs(tmp_path, workload):
    """A synthetic, passing output of the workload's ocp command."""
    v = WORKLOADS[workload]["commands"][0]["verify"]
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / v["config"], tmp_path / v["config"])
    b = json.loads((ROOT / v["config"]).read_text())["boundary"]
    rows = [[0.0] + b["q0"] + b["v0"] + [0.0, 0.0],
            [5.0, 0.0, 1.0, 0.1, 0.1, 0.0, 0.0],
            [10.0] + b["qN"] + b["vN"] + [0.0, 0.0]]
    out = tmp_path / "out"
    out.mkdir()
    text = "t,theta1,theta2,dtheta1,dtheta2,u1,u2\n" + "".join(
        ",".join(f"{x:.17g}" for x in r) + "\n" for r in rows)
    (out / v["trajectory"]).write_text(text)
    (out / v["summary"]).write_text(json.dumps(
        {"cost": v["cost"], "residuals": {"del_max": 1e-10}}))
    return v, out


@pytest.mark.parametrize("workload", ["swingup", "swingup_limited"])
def test_verification_flags_corrupted_ocp_output(tmp_path, workload):
    v, out = _ocp_outputs(tmp_path, workload)
    assert verify.verify_command(v, 0, "", out, tmp_path) == (1, 0, [])
    assert verify.verify_command(v, 1, "", out, tmp_path)[1] == 1

    summary = json.loads((out / v["summary"]).read_text())
    summary["cost"] *= 1.0 + 1e-4
    (out / v["summary"]).write_text(json.dumps(summary))
    ops, failed, msgs = verify.verify_command(v, 0, "", out, tmp_path)
    assert (ops, failed) == (1, 1) and "cost" in msgs[0]


def test_verification_flags_endpoint_residual_and_elbow(tmp_path):
    v, out = _ocp_outputs(tmp_path, "swingup")
    csv_path = out / v["trajectory"]
    good = csv_path.read_text()
    csv_path.write_text(good.replace("\n10,1.5707963267948966,", "\n10,1.5707963,"))
    assert verify.verify_command(v, 0, "", out, tmp_path)[1] == 1

    csv_path.write_text(good)
    (out / v["summary"]).write_text(json.dumps(
        {"cost": v["cost"], "residuals": {"del_max": math.nan}}))
    assert verify.verify_command(v, 0, "", out, tmp_path)[1] == 1

    limited = WORKLOADS["swingup_limited"]["commands"][0]["verify"]
    elbow = dict(limited, trajectory=v["trajectory"], summary=v["summary"],
                 config=v["config"], cost=v["cost"])
    (out / v["summary"]).write_text(json.dumps({"cost": v["cost"]}))
    assert verify.verify_command(elbow, 0, "", out, tmp_path)[1] == 0
    csv_path.write_text(good.replace("\n5,0,1,", "\n5,0,3.1,"))   # 177.6 degrees
    assert verify.verify_command(elbow, 0, "", out, tmp_path)[1] == 1


def test_verification_of_check_and_order(tmp_path):
    check, _, _, order = (c["verify"] for c in WORKLOADS["spline_suite"]["commands"])
    stdout = "".join(f"PASS {s}: fine\n" for s in check["suites"])
    assert verify.verify_command(check, 0, stdout, tmp_path, tmp_path) == (6, 0, [])
    broken = stdout.replace("PASS phi", "FAIL phi")
    assert verify.verify_command(check, 1, broken, tmp_path, tmp_path)[:2] == (6, 1)
    assert verify.verify_command(check, None, "", tmp_path, tmp_path)[:2] == (6, 6)

    for name in order["csv"]:
        (tmp_path / name).write_text("h,error\n0.5,0.1\n")
    for k, name in enumerate(order["reports"]):
        (tmp_path / name).write_text(json.dumps({"r_hat": 2.0 + 0.01 * k}))
    assert verify.verify_command(order, 0, "", tmp_path, tmp_path)[1] == 0
    (tmp_path / order["reports"][1]).write_text(json.dumps({"r_hat": 1.5}))
    assert verify.verify_command(order, 0, "", tmp_path, tmp_path)[1] == 1


def test_csv_digests_must_repeat(tmp_path):
    store = tmp_path / "digests.json"
    assert verify.compare_digests(store, "code", {"a.csv": "1"}) == []
    assert verify.compare_digests(store, "code", {"a.csv": "1"}) == []
    assert verify.compare_digests(store, "code", {"a.csv": "2"}) == ["a.csv"]
    assert verify.compare_digests(store, "other-code", {"a.csv": "2"}) == []


def test_tracer_wraps_every_binding(tmp_path):
    import varint
    import varint.cli
    import varint.control
    import varint.flow

    originals = (varint.cli.solve_boundary_path, varint.control.solve_boundary_path,
                 varint.LagrangianModel.value_at, varint.flow.spla)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert varint.control.solve_boundary_path is varint.flow.solve_boundary_path
        assert varint.cli.solve_boundary_path is varint.flow.solve_boundary_path
        code = varint.cli.main(["bvp", "--config",
                                str(ROOT / "configs" / "spline_bvp_figure.json"),
                                "--out", str(tmp_path)])
        assert code == 0
        # with_position_term nests base.value_at inside value_at: one span
        L = varint.spline_lagrangian(1).with_position_term(
            lambda q: float(q[0] ** 2), lambda q: 2 * q, lambda q: 2 * np.eye(1))
        before = list(tracer.name_id).count(tracer.nid("lagrangian.value_at"))
        L.value_at(np.ones(1), np.ones(1), np.ones(1))
        after = list(tracer.name_id).count(tracer.nid("lagrangian.value_at"))
        assert after == before + 1
    finally:
        tracer.uninstall()
    assert (varint.cli.solve_boundary_path, varint.control.solve_boundary_path,
            varint.LagrangianModel.value_at, varint.flow.spla) == originals

    tr = dict(tracer.arrays(), names=tracer.names, counts=tracer.counts,
              stages=tracer.stage_table())
    m = spans.layer_metrics(tr, 1.0, 1.0)
    assert m["flow.solve_boundary_path.calls"] == 1
    assert m["flow.spsolve.calls"] >= 1
    assert m["cli.write_csv.calls"] == 1 and m["cli.write_csv.bytes"] > 0
    assert m["cli.load_scenarios.calls"] == 1
    assert m["lagrangian.from_sympy.calls"] >= 1
    assert m["discretization.partials.calls"] > 0
    assert m["jets.JetPoint.created"] > 0 and m["jets.PairState.created"] > 0
    assert m["flow.newton_iters"] >= 1 and m["flow.action_evals"] >= 1
