"""Batch command-line front end.

Scenario configurations come in as JSON, trajectories go out as CSV (17
significant digits, '.' decimal, newline-terminated rows), and run summaries
as JSON.  Identical configurations produce byte-identical CSV.
Subcommands: ``simulate`` (initial-value runs), ``bvp`` (two-point solves),
``ocp`` (optimal control), ``order`` (step-size sweeps), and ``check``
(invariant suites).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .bvp import H_MAX
from .control import (JointLimitPenalty, OCProblem, TwoLinkParams,
                      control_effort_cost, free_particle_model, solve_ocp,
                      solution_table, two_link_forces, two_link_model)
from .discretization import SCHEMES, make_scheme
from .errors import ConfigError, VarintError
from .flow import initial_pair, phi_values, run as run_flow, solve_boundary_path
from .jets import JetPoint, uniform_grid
from .lagrangian import named_lagrangian
from .order import cubic_trajectory, estimate_order

KINDS = ("spline", "custom-lagrangian", "ocp-twolink", "ocp-custom")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(obj: dict, allowed, where: str):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    _require(not unknown, f"unknown fields in {where}: {unknown}")


def _vector(obj, name, n=None):
    try:
        v = np.asarray(obj, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a numeric vector")
    _require(np.all(np.isfinite(v)), f"{name} must be finite")
    _require(n is None or v.size == n, f"{name} must have length {n}")
    return v


def _number(obj, name):
    _require(isinstance(obj, (int, float)), f"{name} must be a number")
    return float(_vector(obj, name, 1)[0])


def _dimension(obj, name):
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= 1,
             f"{name} must be a positive integer")
    return obj


def _boundary(cfg, command: str, n: int):
    """The four boundary vectors (q0, v0, qN, vN), all required."""
    b = cfg.raw.get("boundary")
    _require(isinstance(b, dict), f"{command} requires 'boundary'")
    keys = ("q0", "v0", "qN", "vN")
    _check_keys(b, keys, "boundary")
    missing = [k for k in keys if k not in b]
    _require(not missing, f"boundary is missing {missing}")
    return [_vector(b[k], f"boundary.{k}", n) for k in keys]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Validated scenario description; unknown fields are rejected."""

    kind: str
    name: str
    scheme: str
    raw: dict = field(repr=False)

    @staticmethod
    def parse(obj: dict) -> "ScenarioConfig":
        _require(isinstance(obj, dict), "scenario must be a JSON object")
        top_allowed = {"kind", "name", "scheme", "grid", "boundary", "initial",
                       "lagrangian", "n", "model", "params", "penalty",
                       "tolerances", "h_values", "trajectory"}
        _check_keys(obj, top_allowed, "scenario")
        kind = obj.get("kind")
        _require(kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}")
        name = obj.get("name")
        _require(isinstance(name, str) and name, "name must be a non-empty string")
        _require(all(c.isalnum() or c in "-_" for c in name),
                 "name may contain only alphanumerics, '-' and '_'")
        scheme = obj.get("scheme", "taylor")
        _require(isinstance(scheme, str) and scheme in SCHEMES,
                 f"scheme must be one of {tuple(SCHEMES)}")
        if "grid" in obj:
            g = obj["grid"]
            _check_keys(g, {"t0", "T", "N"}, "grid")
            _require(isinstance(g.get("N"), int) and g["N"] >= 1,
                     "grid.N must be a positive integer")
            _require(_number(g.get("T"), "grid.T") > _number(g.get("t0", 0.0), "grid.t0"),
                     "grid.T must exceed grid.t0")
        if "tolerances" in obj:
            _check_keys(obj["tolerances"], {"path"}, "tolerances")
            for k, v in obj["tolerances"].items():
                _require(_number(v, f"tolerances.{k}") > 0,
                         f"tolerances.{k} must be positive")
        return ScenarioConfig(kind, name, scheme, obj)


def _grid_of(cfg: ScenarioConfig):
    g = cfg.raw.get("grid")
    _require(g is not None, "scenario requires a grid")
    return uniform_grid(float(g.get("t0", 0.0)), float(g["T"]), int(g["N"]))


def _lagrangian_of(cfg: ScenarioConfig):
    if cfg.kind == "spline":
        return named_lagrangian("spline", _dimension(cfg.raw.get("n", 1), "n"))
    entry = cfg.raw.get("lagrangian")
    _require(isinstance(entry, dict), "custom-lagrangian requires a 'lagrangian' object")
    _check_keys(entry, {"name", "n"}, "lagrangian")
    _require(isinstance(entry.get("name"), str), "lagrangian.name must be a string")
    try:
        return named_lagrangian(entry["name"],
                                _dimension(entry.get("n", 1), "lagrangian.n"))
    except KeyError as exc:
        raise ConfigError(str(exc))


def _path_outputs(path):
    n = path.n
    header = ["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    return header, np.column_stack([path.grid.times, path.positions(),
                                    path.velocities()])


def _summary(cfg, path, cost=None, timings=None):
    phi = phi_values(path)
    out = {
        "name": cfg.name,
        "kind": cfg.kind,
        "scheme": cfg.scheme,
        "grid": {"t0": path.grid.t0, "h": path.grid.h, "N": path.grid.N},
        "residuals": {
            "del_max": float(np.max(path.diagnostics["del_residual"]))
            if len(path.diagnostics.get("del_residual", [])) else 0.0,
        },
        "invariants": {
            "phi_drift": float(np.max(np.abs(phi - phi[0]))) if len(phi) else 0.0,
        },
        "timings": timings or {},
    }
    if cost is not None:
        out["cost"] = float(cost)
    return out


def run_scenario(cfg: ScenarioConfig, command: str, outdir: Path):
    """Execute one validated scenario; returns its summary and a function
    that writes its output files.

    Outputs are held in memory until every scenario of a run has succeeded,
    so failures leave no partial files.
    """
    t_start = time.perf_counter()
    _require(command == "bvp" or "tolerances" not in cfg.raw,
             f"tolerances.path applies only to bvp, not {command}")
    if command == "order":
        return _run_order(cfg, outdir)

    if command in ("simulate", "bvp"):
        _require(cfg.kind in ("spline", "custom-lagrangian"),
                 f"{command} expects a spline or custom-lagrangian scenario")
        L = _lagrangian_of(cfg)
        Ld = make_scheme(cfg.scheme, L)
        grid = _grid_of(cfg)
        if command == "simulate":
            init = cfg.raw.get("initial")
            _require(isinstance(init, dict), "simulate requires 'initial'")
            _check_keys(init, {"q0", "v0", "q1", "v1", "ddq0", "d3q0"}, "initial")
            missing = [k for k in ("q0", "v0") if k not in init]
            _require(not missing, f"initial is missing {missing}")
            q0 = _vector(init["q0"], "initial.q0", L.n)
            v0 = _vector(init["v0"], "initial.v0", L.n)
            if "q1" in init:
                _require("v1" in init, "initial.v1 required with initial.q1")
                x0 = JetPoint(q0, (v0,))
                x1 = JetPoint(_vector(init["q1"], "initial.q1", L.n),
                              (_vector(init["v1"], "initial.v1", L.n),))
            else:
                _require("ddq0" in init and "d3q0" in init,
                         "initial needs (q1, v1) or (ddq0, d3q0)")
                jet = JetPoint(q0, (v0, _vector(init["ddq0"], "initial.ddq0", L.n),
                                    _vector(init["d3q0"], "initial.d3q0", L.n)))
                x0, x1 = initial_pair(L, jet, grid.h)
            path = run_flow(Ld, x0, x1, grid)
        else:
            _require(grid.N >= 2, "bvp requires grid.N >= 2")
            q0, v0, qN, vN = _boundary(cfg, "bvp", L.n)
            x0, xN = JetPoint(q0, (v0,)), JetPoint(qN, (vN,))
            tol = float(cfg.raw.get("tolerances", {}).get("path", 1e-10))
            path = solve_boundary_path(Ld, x0, xN, grid, tol=tol)
        header, rows = _path_outputs(path)
        summary = _summary(cfg, path,
                           timings={"solve_s": time.perf_counter() - t_start})
    elif command == "ocp":
        _require(cfg.kind in ("ocp-twolink", "ocp-custom"),
                 "ocp expects an ocp-twolink or ocp-custom scenario")
        problem, forces, labels = _ocp_problem_of(cfg)
        result = solve_ocp(problem, scheme=cfg.scheme)
        header, rows = solution_table(problem, result, forces=forces)
        if labels:
            header = labels
        path = result.path
        summary = _summary(cfg, path, cost=result.cost,
                           timings={"solve_s": time.perf_counter() - t_start})
    else:
        raise ConfigError(f"unknown command {command!r}")

    csv_path = outdir / f"{cfg.name}_trajectory.csv"
    json_path = outdir / f"{cfg.name}_summary.json"
    summary["outputs"] = [str(csv_path)]
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    summary["outputs"].append(str(json_path))

    def write():
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(csv_path, header, rows)
        json_path.write_text(text)

    return summary, write


def _ocp_problem_of(cfg: ScenarioConfig):
    g = cfg.raw.get("grid")
    _require(isinstance(g, dict), "ocp requires 'grid'")
    T, N = float(g["T"]), int(g["N"])
    _require(T > 0 and N >= 2, "ocp requires grid.T > 0 and grid.N >= 2")
    if cfg.kind == "ocp-twolink":
        pr = cfg.raw.get("params", {})
        _check_keys(pr, {"m1", "m2", "l1", "l2", "J1", "J2", "g"}, "params")
        pr = {k: _number(v, f"params.{k}") for k, v in pr.items()}
        _require(all(v > 0 for v in pr.values()), "params must be positive")
        params = TwoLinkParams(**pr)
        model = two_link_model(params)
        penalty = None
        pcfg = cfg.raw.get("penalty")
        if pcfg:
            _check_keys(pcfg, {"slope", "lo_deg", "hi_deg", "width"}, "penalty")
            penalty = JointLimitPenalty(
                n=2, slope=_number(pcfg.get("slope", 1000.0), "penalty.slope"),
                lo=math.radians(_number(pcfg.get("lo_deg", 0.0), "penalty.lo_deg")),
                hi=math.radians(_number(pcfg.get("hi_deg", 170.0), "penalty.hi_deg")),
                width=_number(pcfg.get("width", 1e-6), "penalty.width"))
        forces = lambda jet: two_link_forces(params, jet)
        labels = ["t", "theta1", "theta2", "dtheta1", "dtheta2", "u1", "u2"]
        n = 2
    else:
        entry = cfg.raw.get("model", {"name": "free-particle", "n": 1})
        _check_keys(entry, {"name", "n"}, "model")
        _require(entry.get("name") == "free-particle",
                 "ocp-custom supports the built-in 'free-particle' model")
        n = _dimension(entry.get("n", 1), "model.n")
        model = free_particle_model(n)
        penalty, forces, labels = None, None, None
    qa, va, qb, vb = _boundary(cfg, "ocp", n)
    problem = OCProblem(model, control_effort_cost(), qa=qa, va=va, qb=qb, vb=vb,
                        T=T, N=N, penalty=penalty)
    return problem, forces, labels


def _run_order(cfg: ScenarioConfig, outdir: Path):
    _require(cfg.kind in ("spline", "custom-lagrangian"),
             "order expects a spline or custom-lagrangian scenario")
    L = _lagrangian_of(cfg)
    Ld = make_scheme(cfg.scheme, L)
    hs = cfg.raw.get("h_values")
    _require(isinstance(hs, list) and len(hs) >= 4,
             "order requires 'h_values' with at least 4 entries")
    tr = cfg.raw.get("trajectory")
    _require(isinstance(tr, dict), "order requires 'trajectory'")
    _check_keys(tr, {"kind", "coeffs"}, "trajectory")
    _require(tr.get("kind") == "cubic", "trajectory.kind must be 'cubic'")
    _require("coeffs" in tr, "order requires 'trajectory.coeffs'")
    coeffs = _vector(tr["coeffs"], "trajectory.coeffs")
    _require(np.shape(tr["coeffs"]) == (4, L.n),
             f"trajectory.coeffs must be a (4, {L.n}) array")
    h_values = [_number(h, "h_values") for h in hs]
    _require(all(0.0 < h <= H_MAX for h in h_values),
             f"h_values must lie in (0, {H_MAX}]")
    _require(len(set(h_values)) == len(h_values), "h_values must be distinct")
    boundary = cubic_trajectory(coeffs.reshape(4, L.n))
    t0 = time.perf_counter()
    report = estimate_order(Ld, L, boundary, h_values, scheme_name=cfg.scheme)
    doc = report.to_dict()
    doc.update({"name": cfg.name,
                "timings": {"solve_s": time.perf_counter() - t0}})

    def write():
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{cfg.name}_order.csv").write_text(report.to_csv())
        (outdir / f"{cfg.name}_order.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n")

    return doc, write


def load_scenarios(config_path: str):
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if isinstance(obj, dict) and "scenarios" in obj:
        _check_keys(obj, {"scenarios"}, "batch config")
        _require(isinstance(obj["scenarios"], list) and obj["scenarios"],
                 "scenarios must be a non-empty list")
        return [ScenarioConfig.parse(s) for s in obj["scenarios"]]
    return [ScenarioConfig.parse(obj)]


def _error_json(exc) -> str:
    kind = "config" if isinstance(exc, ConfigError) else "solver"
    return json.dumps({"error": {"type": kind, "message": str(exc)}},
                      sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varint",
        description="variational integrators for second-order systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, desc in [("simulate", "initial-value run of a discrete scheme"),
                      ("bvp", "two-point boundary solve over a path"),
                      ("ocp", "boundary-value optimal control solve"),
                      ("order", "step-size error sweep for a scheme")]:
        p = sub.add_parser(cmd, help=desc)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent scenarios for batch configs")
    pc = sub.add_parser("check", help="run invariant suites")
    pc.add_argument("suites", nargs="*", default=[],
                    help=f"suites to run (default all): {sorted(checks.SUITES)}")
    pc.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "check":
        return checks.run_suites(args.suites or None, seed=args.seed)

    try:
        scenarios = load_scenarios(args.config)
    except ConfigError as exc:
        print(_error_json(exc))
        return 2

    outdir = Path(args.out)
    try:
        if args.workers > 1 and len(scenarios) > 1:
            with concurrent.futures.ThreadPoolExecutor(args.workers) as pool:
                futs = [pool.submit(run_scenario, c, args.command, outdir)
                        for c in scenarios]
                results = [f.result() for f in futs]
        else:
            results = [run_scenario(c, args.command, outdir)
                       for c in scenarios]
    except ConfigError as exc:
        print(_error_json(exc))
        return 2
    except (VarintError, ArithmeticError) as exc:
        # ArithmeticError: float overflow or division by zero in a solve
        # whose numbers are out of range (a huge grid.T, say)
        print(_error_json(exc))
        return 1
    for _, write in results:
        write()
    for res, _ in results:
        print(json.dumps({"name": res.get("name"), "status": "ok"}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
