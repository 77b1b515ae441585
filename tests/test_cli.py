import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varint.cli import main

from oracles import dense_taylor_bvp_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


BVP_CFG = {
    "kind": "spline",
    "name": "figure-bvp",
    "scheme": "taylor",
    "n": 2,
    "grid": {"t0": 0.0, "T": 1.0, "N": 21},
    "boundary": {"q0": [0.0, 0.0], "v0": [10.0, 10.0],
                 "qN": [10.0, 0.0], "vN": [10.0, 20.0]},
}


class TestValidation:
    def test_missing_config(self, tmp_path, capsys):
        rc = main(["bvp", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "config"

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["bvp", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = dict(BVP_CFG)
        cfg["surprise"] = 1
        rc = main(["bvp", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "surprise" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_unknown_scheme_rejected(self, tmp_path, capsys):
        cfg = dict(BVP_CFG)
        cfg["scheme"] = "mystery"
        assert main(["bvp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2

    def test_wrong_kind_for_command(self, tmp_path, capsys):
        assert main(["ocp", "--config", write_config(tmp_path, BVP_CFG),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_bad_boundary_dimension(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BVP_CFG))
        cfg["boundary"]["q0"] = [0.0]
        assert main(["bvp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


OCP_CFG = {
    "kind": "ocp-custom",
    "name": "free",
    "model": {"name": "free-particle", "n": 1},
    "grid": {"t0": 0.0, "T": 1.0, "N": 4},
    "boundary": {"q0": [0.0], "v0": [0.0], "qN": [1.0], "vN": [0.0]},
}


ORDER_CFG = {
    "kind": "spline",
    "name": "order",
    "scheme": "taylor",
    "n": 1,
    "h_values": [0.64, 0.32, 0.16, 0.08],
    "trajectory": {"kind": "cubic", "coeffs": [[0.1], [0.4], [0.6], [1.1]]},
}

CUSTOM_ORDER_CFG = dict(ORDER_CFG, kind="custom-lagrangian",
                        lagrangian={"name": "spline", "n": 1})
del CUSTOM_ORDER_CFG["n"]


SIM_CFG = {
    "kind": "spline",
    "name": "sim",
    "scheme": "spline-exact",
    "n": 1,
    "grid": {"t0": 0.0, "T": 1.0, "N": 4},
    "initial": {"q0": [0.0], "v0": [0.0], "ddq0": [6.0], "d3q0": [-12.0]},
}


DROP = object()


def _edit(base, path, value):
    """Copy of config ``base`` with the field at ``path`` set to ``value``
    (removed for ``DROP``)."""
    cfg = json.loads(json.dumps(base))
    *keys, last = path
    obj = cfg
    for k in keys:
        obj = obj[k]
    if value is DROP:
        del obj[last]
    else:
        obj[last] = value
    return cfg


@pytest.mark.parametrize("command, cfg", [
    ("bvp", _edit(BVP_CFG, ["grid", "T"], "abc")),
    ("bvp", _edit(BVP_CFG, ["boundary", "q0"], DROP)),
    ("ocp", _edit(OCP_CFG, ["boundary", "vN"], DROP)),
    ("bvp", _edit(BVP_CFG, ["tolerances"], 5)),
    ("bvp", _edit(BVP_CFG, ["tolerances"], {"path": "abc"})),
    ("bvp", _edit(BVP_CFG, ["grid", "N"], 1)),
    ("bvp", _edit(BVP_CFG, ["boundary", "q0"], [float("nan"), 0.0])),
    ("bvp", _edit(BVP_CFG, ["boundary", "vN"], [10.0, float("inf")])),
    ("ocp", _edit(OCP_CFG, ["boundary", "q0"], [float("-inf")])),
    ("bvp", _edit(BVP_CFG, ["n"], "abc")),
    ("order", _edit(ORDER_CFG, ["n"], 0)),
    ("order", _edit(CUSTOM_ORDER_CFG, ["lagrangian", "n"], "abc")),
    ("order", _edit(CUSTOM_ORDER_CFG, ["lagrangian", "n"], 0)),
    ("ocp", _edit(OCP_CFG, ["model", "n"], "abc")),
    ("ocp", _edit(dict(OCP_CFG, boundary={"q0": [], "v0": [], "qN": [], "vN": []}),
                  ["model", "n"], 0)),
    ("order", _edit(ORDER_CFG, ["trajectory", "coeffs"], DROP)),
    ("order", _edit(ORDER_CFG, ["trajectory", "coeffs"], [[0.1], [0.4], [0.6]])),
    ("order", _edit(ORDER_CFG, ["h_values"], [0.64, 0.32, 0.32, 0.08])),
    ("order", _edit(ORDER_CFG, ["h_values"], [0.64, 0.32, 0.16, 0.0])),
    ("order", _edit(ORDER_CFG, ["h_values"], [8.0, 0.32, 0.16, 0.08])),
    ("bvp", _edit(BVP_CFG, ["seed"], 3)),
    ("bvp", _edit(BVP_CFG, ["tolerances"], {"newton": 1e-6})),
    ("simulate", _edit(SIM_CFG, ["tolerances"], {"path": 1e-3})),
    ("ocp", _edit(OCP_CFG, ["tolerances"], {"path": 1e-3})),
    ("order", _edit(ORDER_CFG, ["tolerances"], {"path": 1e-3})),
    ("bvp", {"scenarios": [BVP_CFG, _edit(BVP_CFG, ["boundary", "vN"], DROP)]}),
    ("bvp", _edit(BVP_CFG, ["scheme"], [])),
    ("order", _edit(CUSTOM_ORDER_CFG, ["lagrangian", "name"], [])),
    ("simulate", _edit(SIM_CFG, ["initial", "v0"], DROP)),
    ("ocp", _edit(OCP_CFG, ["grid"], {"t0": 5.0, "T": 10.0, "N": 4})),
    ("simulate", _edit(SIM_CFG, ["grid", "N"], True)),
    ("bvp", _edit(BVP_CFG, ["tolerances"], {"path": True})),
    ("order", _edit(ORDER_CFG, ["h_values"], [0.64, 0.32, 0.16, True])),
    # a field the command does not read is an error, not ignored
    ("order", _edit(ORDER_CFG, ["grid"], {"t0": 0.0, "T": 1.0, "N": 4})),
    ("bvp", _edit(BVP_CFG, ["h_values"], [0.64, 0.32, 0.16, 0.08])),
    ("simulate", _edit(SIM_CFG, ["boundary"],
                       {"q0": [0.0], "v0": [0.0], "qN": [1.0], "vN": [0.0]})),
    ("order", _edit(CUSTOM_ORDER_CFG, ["n"], 1)),
    ("ocp", _edit(OCP_CFG, ["params"], {"m1": 1.0})),
    # spline-exact is the exact action of 1/2 |qddot|^2 and no other L
    ("bvp", {k: v for k, v in BVP_CFG.items() if k != "n"}
     | {"kind": "custom-lagrangian", "scheme": "spline-exact",
        "lagrangian": {"name": "spline-potential", "n": 2}}),
    ("ocp", _edit(json.loads((CONFIGS / "twolink_ocp.json").read_text()),
                  ["scheme"], "spline-exact")),
    # simulate seeds from exactly one of (q1, v1) and (ddq0, d3q0)
    ("simulate", _edit(_edit(SIM_CFG, ["initial", "q1"], [0.0]), ["initial", "v1"], [1.0])),
    ("simulate", _edit(SIM_CFG, ["initial", "v1"], [1.0])),
], ids=["T-not-number", "bvp-boundary-missing", "ocp-boundary-missing",
        "tolerances-not-object", "tolerance-not-number", "bvp-N-1",
        "nan-boundary", "inf-boundary", "ocp-inf-boundary",
        "n-not-integer", "n-zero", "lagrangian-n-not-integer",
        "lagrangian-n-zero", "model-n-not-integer", "model-n-zero",
        "order-coeffs-missing", "order-coeffs-3-rows", "h-values-duplicate",
        "h-values-zero", "h-values-above-h-max", "seed-field",
        "newton-tolerance-field", "simulate-path-tolerance",
        "ocp-path-tolerance", "order-path-tolerance", "batch-second-invalid",
        "scheme-not-string", "lagrangian-name-not-string",
        "initial-v0-missing", "ocp-t0-nonzero", "grid-N-boolean",
        "path-tolerance-boolean", "h-values-boolean", "order-grid",
        "bvp-h-values", "simulate-boundary", "custom-lagrangian-n",
        "ocp-custom-params", "spline-exact-potential", "spline-exact-twolink",
        "initial-both-seed-forms", "initial-v1-without-q1"])
def test_config_errors_exit_2(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "config"
    assert list(out.iterdir()) == []


PENALTY_CFG = json.loads((CONFIGS / "twolink_ocp_penalty.json").read_text())


@pytest.mark.parametrize("path, value", [
    (["penalty", "width"], 0.0), (["penalty", "width"], -1e-6),
    (["penalty", "slope"], 0.0), (["penalty", "slope"], -1000.0),
    (["penalty", "lo_deg"], 170.0), (["penalty", "hi_deg"], -10.0),
    # a penalty that is not an object is an error, not "no penalty"
    (["penalty"], []), (["penalty"], False), (["penalty"], 0), (["penalty"], None),
], ids=["width-zero", "width-negative", "slope-zero", "slope-negative",
        "lo-equals-hi", "hi-below-lo", "penalty-list", "penalty-false",
        "penalty-zero", "penalty-null"])
def test_bad_penalty_exits_2_before_solving(tmp_path, capsys, monkeypatch, path, value):
    import varint.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(varint.cli, "solve_ocp", no_solve)
    out = tmp_path / "out"
    out.mkdir()
    cfg = _edit(PENALTY_CFG, path, value)
    rc = main(["ocp", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "config"
    assert list(out.iterdir()) == []


def test_empty_penalty_is_the_default_penalty(tmp_path, capsys, monkeypatch):
    import varint.cli
    from varint.control import JointLimitPenalty
    from varint.errors import NoConvergence
    problems = []

    def no_solve(problem, scheme):
        problems.append(problem)
        raise NoConvergence("not solved")

    monkeypatch.setattr(varint.cli, "solve_ocp", no_solve)
    cfg = _edit(PENALTY_CFG, ["penalty"], {})
    rc = main(["ocp", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert [p.penalty for p in problems] == [JointLimitPenalty(n=2)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, cfg", [
    ("simulate", _edit(SIM_CFG, ["grid", "T"], 1e300)),
    ("bvp", _edit(BVP_CFG, ["grid", "T"], 1e300)),
    # nodes too many to allocate: numpy refuses the array at once
    ("simulate", _edit(SIM_CFG, ["grid", "N"], 10**15)),
], ids=["simulate", "bvp", "simulate-N-too-large"])
def test_overflowing_grid_exits_1(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "solver"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("scheme", ["trapezoid-velocity", "midpoint-difference"])
def test_singular_wd_exits_1(tmp_path, capsys, scheme):
    # on 1/2 |qddot|^2 the Wd of both schemes has rank 1 of 2, and the
    # linear extrapolation already solves each step's minus-map inversion
    cfg = {"kind": "spline", "name": "sim", "scheme": scheme,
           "grid": {"T": 1, "N": 10},
           "initial": {"q0": [0], "v0": [0], "q1": [0.01], "v1": [0.2]}}
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "message": "minus-map inversion: Jacobian is singular", "type": "solver"}
    assert list(out.iterdir()) == []


FIGURE_CFG = json.loads((CONFIGS / "spline_bvp_figure.json").read_text())


@pytest.mark.parametrize("command, solver, scenarios", [
    ("bvp", "solve_boundary_path",
     [FIGURE_CFG, _edit(FIGURE_CFG, ["boundary", "vN"], DROP)]),
    ("simulate", "run_flow", [SIM_CFG, _edit(SIM_CFG, ["initial", "v0"], DROP)]),
    ("ocp", "solve_ocp", [OCP_CFG, _edit(OCP_CFG, ["grid", "t0"], 0.5)]),
    ("order", "estimate_order", [ORDER_CFG, _edit(ORDER_CFG, ["h_values"], [0.1])]),
], ids=["bvp", "simulate", "ocp", "order"])
def test_bad_later_scenario_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                                   command, solver, scenarios):
    # every scenario of a batch is checked before the first one is solved
    import varint.cli

    calls = []
    monkeypatch.setattr(varint.cli, solver, lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, {"scenarios": scenarios}),
               "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "config"
    assert calls == []
    assert not out.exists()


def test_repeated_scenario_name_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # two scenarios of one name would write the same two files, the later
    # one silently replacing the earlier
    import varint.cli

    calls = []
    monkeypatch.setattr(varint.cli, "solve_boundary_path", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    scenarios = [FIGURE_CFG, _edit(FIGURE_CFG, ["grid", "N"], 10)]
    rc = main(["bvp", "--config", write_config(tmp_path, {"scenarios": scenarios}),
               "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "config"
    assert "spline-bvp-figure" in error["message"]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
def test_out_naming_a_file_exits_2_before_solving(tmp_path, capsys, monkeypatch, below):
    import varint.cli

    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(varint.cli, "prepare_scenario", no_solve)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    rc = main(["bvp", "--config", str(CONFIGS / "spline_bvp_figure.json"),
               "--out", str(blocker.joinpath(*below))])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "config"
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_write_error_exits_1_and_leaves_no_files(tmp_path, capsys, monkeypatch, rerun):
    # the trajectory CSV is written, then the summary JSON fails; on a rerun
    # into the same directory the CSV overwrites the earlier run's
    config = write_config(tmp_path, BVP_CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("an earlier file")
    if rerun:
        assert main(["bvp", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
    write_text = Path.write_text

    def full_disk(self, *args, **kwargs):
        if self.suffix == ".json":
            raise OSError(28, "No space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    rc = main(["bvp", "--config", config, "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "output" and "No space left" in err["message"]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]


# leaf values a mutated config field may take
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2), max_size=4),
    st.dictionaries(st.sampled_from(["path", "q0", "name", "n", "x"]),
                    st.floats(-2.0, 2.0), max_size=2),
)

_BASES = [("bvp", BVP_CFG), ("simulate", SIM_CFG), ("ocp", OCP_CFG),
          ("order", ORDER_CFG), ("order", CUSTOM_ORDER_CFG)]


def _field_paths(obj, prefix=()):
    """Every path to a field of a config, nested objects included."""
    out = []
    for k, v in obj.items():
        out.append(prefix + (k,))
        if isinstance(v, dict):
            out.extend(_field_paths(v, prefix + (k,)))
    return out


@st.composite
def _fuzzed_config(draw):
    """(command, config file text): a shipped-style config with a few
    fields dropped, replaced or added, sometimes batched, sometimes not JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["simulate", "bvp", "ocp", "order"])), \
            draw(st.text(max_size=20))
    command, base = draw(st.sampled_from(_BASES))
    if draw(st.integers(0, 9)) == 0:
        command = draw(st.sampled_from(["simulate", "bvp", "ocp", "order"]))
    scenarios = []
    for i in range(draw(st.integers(1, 2))):
        cfg = json.loads(json.dumps(base))
        cfg["name"] = f"{cfg['name']}{i}"
        if "grid" in cfg:
            # at most 4 steps, so every run is cheap
            cfg["grid"]["N"] = draw(st.integers(2, 4))
        for _ in range(draw(st.integers(0, 3))):
            paths = _field_paths(cfg) + [("tolerances",), ("kind",), ("extra",)]
            path = draw(st.sampled_from(paths))
            if path == ("kind",):
                value = draw(st.sampled_from(["spline", "custom-lagrangian",
                                              "ocp-custom", "nope"]))
            elif path == ("tolerances",):
                value = {"path": draw(_JUNK)}
            else:
                value = draw(st.one_of(st.just(DROP), _JUNK))
            try:
                cfg = _edit(cfg, list(path), value)
            except (KeyError, TypeError):
                pass
        scenarios.append(cfg)
    doc = scenarios[0] if len(scenarios) == 1 else {"scenarios": scenarios}
    return command, json.dumps(doc)


# junk numbers may overflow inside a solve; only the exit contract is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_fuzzed_config())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_configs_keep_cli_contract(case):
    # any config ends in exit 0, 1 or 2; a failure prints exactly one JSON
    # error line and writes no file
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(text)
        out = Path(tmp) / "out"
        out.mkdir()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main([command, "--config", str(cfg_path), "--out", str(out)])
        lines = buf.getvalue().splitlines()
        assert rc in (0, 1, 2)
        if rc == 0:
            assert lines and all(json.loads(x)["status"] == "ok" for x in lines)
        else:
            assert len(lines) == 1
            err = json.loads(lines[0])["error"]
            assert err["type"] == ("config" if rc == 2 else "solver")
            assert list(out.iterdir()) == []


class TestBvpCommand:
    def test_figure_scenario_against_dense_oracle(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["bvp", "--config", write_config(tmp_path, BVP_CFG),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "figure-bvp_trajectory.csv")
        assert header == ["t", "q0", "q1", "v0", "v1"]
        assert rows.shape == (22, 5)
        from varint.jets import JetPoint, uniform_grid
        ref = dense_taylor_bvp_oracle(
            JetPoint([0.0, 0.0], ([10.0, 10.0],)),
            JetPoint([10.0, 0.0], ([10.0, 20.0],)),
            uniform_grid(0.0, 1.0, 21))
        assert np.max(np.abs(rows[:, 1:] - ref)) <= 1e-9
        summary = json.loads((out / "figure-bvp_summary.json").read_text())
        assert summary["residuals"]["del_max"] <= 1e-9
        # one solve of one continuation level (N = 21)
        its = summary["newton_iterations"]
        assert len(its) == 1 and len(its[0]) == 1 and its[0][0] >= 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BVP_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["bvp", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["bvp", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "figure-bvp_trajectory.csv").read_bytes()
        b = (out2 / "figure-bvp_trajectory.csv").read_bytes()
        assert a == b

    def test_shipped_figure_config(self, tmp_path, capsys):
        rc = main(["bvp", "--config", str(CONFIGS / "spline_bvp_figure.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "spline-bvp-figure_trajectory.csv").exists()


class TestSimulateCommand:
    def test_seeded_from_initial_jet(self, tmp_path, capsys):
        cfg = {
            "kind": "spline",
            "name": "sim",
            "scheme": "spline-exact",
            "n": 1,
            "grid": {"t0": 0.0, "T": 1.0, "N": 50},
            "initial": {"q0": [0.0], "v0": [0.0], "ddq0": [6.0], "d3q0": [-12.0]},
        }
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "sim_trajectory.csv")
        t = rows[:, 0]
        ref = 3 * t**2 - 2 * t**3
        assert np.max(np.abs(rows[:, 1] - ref)) <= 1e-9

    def test_seeded_from_two_states(self, tmp_path, capsys):
        cfg = {
            "kind": "custom-lagrangian",
            "name": "sim2",
            "scheme": "taylor",
            "lagrangian": {"name": "spline", "n": 1},
            "grid": {"t0": 0.0, "T": 1.0, "N": 10},
            "initial": {"q0": [0.0], "v0": [1.0], "q1": [0.1], "v1": [1.0]},
        }
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "sim2_trajectory.csv")
        assert np.allclose(rows[:, 1], rows[:, 0], atol=1e-12)


class TestOcpCommand:
    def test_free_particle(self, tmp_path, capsys):
        cfg = {
            "kind": "ocp-custom",
            "name": "free",
            "scheme": "spline-exact",
            "model": {"name": "free-particle", "n": 1},
            "grid": {"t0": 0.0, "T": 1.0, "N": 20},
            "boundary": {"q0": [0.0], "v0": [0.0], "qN": [1.0], "vN": [0.0]},
        }
        out = tmp_path / "out"
        assert main(["ocp", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "free_trajectory.csv")
        assert header == ["t", "q0", "v0", "u0"]
        t = rows[:, 0]
        assert np.max(np.abs(rows[:, 1] - (3 * t**2 - 2 * t**3))) <= 1e-9
        summary = json.loads((out / "free_summary.json").read_text())
        assert summary["cost"] == pytest.approx(6.0, rel=1e-6)
        # the cubic initial guess already solves the exact spline action
        assert summary["newton_iterations"] == [[0]]

    def test_two_link_small(self, tmp_path, capsys):
        cfg = {
            "kind": "ocp-twolink",
            "name": "arm",
            "scheme": "taylor-midpoint",
            "grid": {"t0": 0.0, "T": 2.0, "N": 16},
            "boundary": {"q0": [-1.5707963267948966, 0.0], "v0": [0.0, 0.0],
                         "qN": [-1.2707963267948966, 0.1], "vN": [0.0, 0.0]},
        }
        out = tmp_path / "out"
        assert main(["ocp", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "arm_trajectory.csv")
        assert header == ["t", "theta1", "theta2", "dtheta1", "dtheta2", "u1", "u2"]
        assert rows.shape == (17, 7)


class TestOrderCommand:
    def test_batch_with_workers(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["order", "--config", str(CONFIGS / "order_spline.json"),
                   "--out", str(out), "--workers", "2"])
        assert rc == 0
        for name, expected in (("order-taylor", 2.0), ("order-midpoint", 2.0)):
            doc = json.loads((out / f"{name}_order.json").read_text())
            assert doc["r_hat"] == pytest.approx(expected, abs=0.05)
            lines = (out / f"{name}_order.csv").read_text().splitlines()
            assert lines[0] == "h,error" and len(lines) == 7


class TestCheckCommand:
    def test_unknown_suite(self, capsys):
        assert main(["check", "not-a-suite"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "config" and "not-a-suite" in err["message"]

    def test_negative_seed(self, capsys):
        assert main(["check", "order", "--seed", "-1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "config" and "--seed" in err["message"]

    def test_order_suite_passes(self, capsys):
        assert main(["check", "order", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS order:")


class TestGoldenOutputs:
    """The spline scenarios' CSVs and ``check --seed 0`` are pinned byte for
    byte, so a speedup that claims identical outputs is checked, not assumed."""

    CHECK_SEED_0 = (
        "PASS legendre-match: spline max err 2.376e-10 (tol 1e-08), "
        "with potential 2.341e-09 (tol 1e-06)\n"
        "PASS oracles: action agreement 1.637e-11 (tol 1e-08), "
        "cubic recovery 0.000e+00 (tol 1e-12)\n"
        "PASS order: taylor: r_hat=2.000/2.000; midpoint-difference: r_hat=2.000/2.000\n"
        "PASS phi: max drift over N=1000: 1.322e-13 (tol 1e-12)\n"
        "PASS spline-exactness: max closed-form error 3.741e-14 (tol 1e-10)\n"
        "PASS symplectic: max defect 1.536e-08 (tol 1e-05)\n"
    )
    CSV_SHA256 = {
        "spline-bvp-figure_trajectory.csv":
            "8140f9a55c2001537fbdf3b00ccf4ce69c1379a5184159f8e03b89260b965efe",
        "spline-run_trajectory.csv":
            "33694b9f5cd2fb6e24caebf2f7466c7d32ed29765bdf8c99f2038e21d59a1607",
        "order-taylor_order.csv":
            "e8549250431278333f8696ff383c8942bfb84d6e50e8f02c955e0be2994e8f2f",
        "order-midpoint_order.csv":
            "6df318c36a28edcb2ba94fd4e96b8295ee8f8ea087b3aeb15bb1fdb2ff950d9a",
    }

    def test_check_seed_0_stdout(self, capsys):
        assert main(["check", "--seed", "0"]) == 0
        assert capsys.readouterr().out == self.CHECK_SEED_0

    def test_spline_csvs(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command, config in (("bvp", "spline_bvp_figure.json"),
                                ("simulate", "spline_simulate.json"),
                                ("order", "order_spline.json")):
            assert main([command, "--config", str(CONFIGS / config),
                         "--out", str(out)]) == 0
        for name, digest in self.CSV_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
