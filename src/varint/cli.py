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
from pathlib import Path

import numpy as np

from . import checks
from .bvp import H_MAX
from .control import (JointLimitPenalty, OCProblem, TwoLinkParams,
                      control_effort_cost, free_particle_model, lift_cost, solve_ocp,
                      solution_table, two_link_forces, two_link_model)
from .discretization import SCHEMES, make_scheme
from .errors import ConfigError, VarintError
from .flow import initial_pair, run as run_flow, solve_boundary_path
from .jets import JetPoint, uniform_grid
from .lagrangian import named_lagrangian
from .order import cubic_trajectory, estimate_order


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(obj: dict, allowed, where: str, required=()):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    _require(not unknown, f"unknown fields in {where}: {unknown}")
    missing = [k for k in required if k not in obj]
    _require(not missing, f"{where} is missing {missing}")


def _vector(obj, name, n=None):
    try:
        v = np.asarray(obj, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a numeric vector")
    _require(np.all(np.isfinite(v)), f"{name} must be finite")
    _require(n is None or v.size == n, f"{name} must have length {n}")
    return v


def _number(obj, name):
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool),
             f"{name} must be a number")
    return float(_vector(obj, name, 1)[0])


def _dimension(obj, name, least=1):
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= least,
             f"{name} must be an integer of at least {least}")
    return obj


def _grid_of(cfg, min_N):
    """The scenario's (t0, T, N), N >= min_N; its grid or problem needs T > t0."""
    g = cfg.get("grid")
    _check_keys(g, {"t0", "T", "N"}, "grid")
    N = _dimension(g.get("N"), "grid.N", min_N)
    t0, T = _number(g.get("t0", 0.0), "grid.t0"), _number(g.get("T"), "grid.T")
    return t0, T, N


def _boundary(cfg, n: int):
    """The four boundary vectors (q0, v0, qN, vN), all required."""
    b = cfg.get("boundary")
    keys = ("q0", "v0", "qN", "vN")
    _check_keys(b, keys, "boundary", required=keys)
    return [_vector(b[k], f"boundary.{k}", n) for k in keys]


def _scheme_of(cfg):
    """The scenario's Lagrangian and its discrete scheme."""
    if cfg["kind"] == "spline":
        L = named_lagrangian("spline", _dimension(cfg.get("n", 1), "n"))
    else:
        entry = cfg.get("lagrangian")
        _check_keys(entry, {"name", "n"}, "lagrangian")
        _require(isinstance(entry.get("name"), str), "lagrangian.name must be a string")
        L = named_lagrangian(entry["name"], _dimension(entry.get("n", 1), "lagrangian.n"))
    return L, make_scheme(cfg["scheme"], L)


def _solved(cfg, path, table=None, **extra):
    """(summary, header, rows) of a solved path.  ``table`` replaces the
    (header, rows) of the nodes, and ``extra`` adds summary entries such as
    ``newton_iterations``: the path Newton iterations of each continuation
    level, one list per solve (penalty stage)."""
    n = path.n
    if table is None:
        table = (["t"] + [f"q{i}" for i in range(n)] + [f"v{i}" for i in range(n)],
                 np.column_stack([path.grid.times, path.nodes]))
    phi = path.diagnostics["phi"]
    return {
        "kind": cfg["kind"],
        "scheme": cfg["scheme"],
        "grid": {"t0": path.grid.t0, "h": path.grid.h, "N": path.grid.N},
        "residuals": {
            "del_max": float(np.max(path.diagnostics["del_residual"]))
            if len(path.diagnostics.get("del_residual", [])) else 0.0,
        },
        "invariants": {
            "phi_drift": float(np.max(np.abs(phi - phi[0]))) if len(phi) else 0.0,
        },
        **extra,
    }, *table


def _simulate(cfg):
    L, Ld = _scheme_of(cfg)
    grid = uniform_grid(*_grid_of(cfg, 1))
    init = cfg.get("initial")
    _check_keys(init, {"q0", "v0", "q1", "v1", "ddq0", "d3q0"}, "initial",
                required=("q0", "v0"))
    _require(set(init) - {"q0", "v0"} in ({"q1", "v1"}, {"ddq0", "d3q0"}),
             "initial needs exactly one of (q1, v1) or (ddq0, d3q0) with q0 and v0")
    q0 = _vector(init["q0"], "initial.q0", L.n)
    v0 = _vector(init["v0"], "initial.v0", L.n)
    if "q1" in init:
        x0 = JetPoint(q0, (v0,))
        x1 = JetPoint(_vector(init["q1"], "initial.q1", L.n),
                      (_vector(init["v1"], "initial.v1", L.n),))
        seeds = lambda: (x0, x1)
    else:
        jet = JetPoint(q0, (v0, _vector(init["ddq0"], "initial.ddq0", L.n),
                            _vector(init["d3q0"], "initial.d3q0", L.n)))
        seeds = lambda: initial_pair(L, jet, grid.h)

    def solve():
        path = run_flow(Ld, *seeds(), grid)
        return _solved(cfg, path)

    return solve


def _bvp(cfg):
    L, Ld = _scheme_of(cfg)
    grid = uniform_grid(*_grid_of(cfg, 2))
    q0, v0, qN, vN = _boundary(cfg, L.n)
    x0, xN = JetPoint(q0, (v0,)), JetPoint(qN, (vN,))
    tols = cfg.get("tolerances", {})
    _check_keys(tols, {"path"}, "tolerances")
    tol = _number(tols.get("path", 1e-10), "tolerances.path")
    _require(tol > 0, "tolerances.path must be positive")

    def solve():
        path = solve_boundary_path(Ld, x0, xN, grid, tol=tol)
        newton = [path.diagnostics["newton_iterations"]]
        return _solved(cfg, path, newton_iterations=newton)

    return solve


def _ocp(cfg):
    t0, T, N = _grid_of(cfg, 2)
    # the problem's horizon is [0, T] (so T > 0): a grid starting elsewhere
    # would be solved, and its times written, as if it started at 0
    _require(t0 == 0, "ocp requires grid.t0 = 0")
    if cfg["kind"] == "ocp-twolink":
        pr = cfg.get("params", {})
        _check_keys(pr, {"m1", "m2", "l1", "l2", "J1", "J2", "g"}, "params")
        pr = {k: _number(v, f"params.{k}") for k, v in pr.items()}
        params = TwoLinkParams(**pr)
        model = two_link_model(params)
        penalty = None
        if "penalty" in cfg:
            # the fields given replace the defaults of JointLimitPenalty
            fields = {"slope": "slope", "lo_deg": "lo", "hi_deg": "hi", "width": "width"}
            _check_keys(cfg["penalty"], fields, "penalty")
            kw = {fields[k]: _number(v, f"penalty.{k}") for k, v in cfg["penalty"].items()}
            kw.update({k: math.radians(kw[k]) for k in ("lo", "hi") if k in kw})
            penalty = JointLimitPenalty(n=2, **kw)
        forces = lambda jet: two_link_forces(params, jet)
        labels = ["t", "theta1", "theta2", "dtheta1", "dtheta2", "u1", "u2"]
        n = 2
    else:
        entry = cfg.get("model", {"name": "free-particle", "n": 1})
        _check_keys(entry, {"name", "n"}, "model")
        _require(entry.get("name") == "free-particle",
                 "ocp-custom supports the built-in 'free-particle' model")
        n = _dimension(entry.get("n", 1), "model.n")
        model = free_particle_model(n)
        penalty, forces, labels = None, None, None
    qa, va, qb, vb = _boundary(cfg, n)
    problem = OCProblem(model, control_effort_cost(), qa=qa, va=va, qb=qb, vb=vb,
                        T=T, N=N, penalty=penalty)
    if cfg["scheme"] == "spline-exact":
        # refused before the solve lifts it again; no other scheme needs it
        make_scheme(cfg["scheme"], lift_cost(problem))

    def solve():
        result = solve_ocp(problem, scheme=cfg["scheme"])
        header, rows = solution_table(problem, result, forces=forces)
        return _solved(cfg, result.path, (labels or header, rows),
                       cost=float(result.cost), newton_iterations=result.newton_iterations)

    return solve


def _order(cfg):
    L, Ld = _scheme_of(cfg)
    hs = cfg.get("h_values")
    _require(isinstance(hs, list) and len(hs) >= 4,
             "order requires 'h_values' with at least 4 entries")
    tr = cfg.get("trajectory")
    _check_keys(tr, {"kind", "coeffs"}, "trajectory", required=("coeffs",))
    _require(tr.get("kind") == "cubic", "trajectory.kind must be 'cubic'")
    coeffs = _vector(tr["coeffs"], "trajectory.coeffs")
    _require(np.shape(tr["coeffs"]) == (4, L.n),
             f"trajectory.coeffs must be a (4, {L.n}) array")
    h_values = [_number(h, "h_values") for h in hs]
    _require(all(0.0 < h <= H_MAX for h in h_values),
             f"h_values must lie in (0, {H_MAX}]")
    _require(len(set(h_values)) == len(h_values), "h_values must be distinct")
    boundary = cubic_trajectory(coeffs.reshape(4, L.n))

    def solve():
        report = estimate_order(Ld, L, boundary, h_values)
        return report.to_dict(), ["h", "error"], list(zip(report.h_values, report.errors))

    return solve


#: command: (help, builder, the fields it reads, the kinds it accepts).  Every
#: command reads kind, name and scheme, and each kind adds KIND_FIELDS; any
#: other field is a config error.
COMMANDS = {
    "simulate": ("initial-value run of a discrete scheme", _simulate,
                 ("grid", "initial"), ("spline", "custom-lagrangian")),
    "bvp": ("two-point boundary solve over a path", _bvp,
            ("grid", "boundary", "tolerances"), ("spline", "custom-lagrangian")),
    "ocp": ("boundary-value optimal control solve", _ocp,
            ("grid", "boundary"), ("ocp-twolink", "ocp-custom")),
    "order": ("step-size error sweep for a scheme", _order,
              ("h_values", "trajectory"), ("spline", "custom-lagrangian")),
}
KIND_FIELDS = {"spline": ("n",), "custom-lagrangian": ("lagrangian",),
               "ocp-twolink": ("params", "penalty"), "ocp-custom": ("model",)}


def prepare_scenario(cfg: dict, command: str, outdir: Path):
    """Check one scenario, raising every config error it has, and return a
    zero-argument function that solves it and returns its summary and its
    output files, a list of (path, function writing that path).

    Outputs are held in memory until every scenario of a run has succeeded,
    so failures leave no partial files.
    """
    _, build, fields, kinds = COMMANDS[command]
    _require(isinstance(cfg, dict), "scenario must be a JSON object")
    kind = cfg.get("kind")
    _require(kind in kinds, f"{command} expects kind one of {kinds}, got {kind!r}")
    unread = sorted(set(cfg) - {"kind", "name", "scheme", *fields, *KIND_FIELDS[kind]})
    _require(not unread, f"fields a {kind} {command} scenario does not read: {unread}")
    name = cfg.get("name")
    _require(isinstance(name, str) and name, "name must be a non-empty string")
    _require(all(c.isalnum() or c in "-_" for c in name),
             "name may contain only alphanumerics, '-' and '_'")
    scheme = cfg.get("scheme", "taylor")
    _require(isinstance(scheme, str) and scheme in SCHEMES,
             f"scheme must be one of {tuple(SCHEMES)}")
    try:
        solve = build(dict(cfg, scheme=scheme))
    except (KeyError, ValueError) as exc:
        # what the registries and constructors (a Lagrangian name, a scheme
        # for its model, a penalty) reject
        raise ConfigError(str(exc))
    files = ("order.csv", "order.json") if command == "order" else (
        "trajectory.csv", "summary.json")
    csv_path, json_path = (outdir / f"{name}_{f}" for f in files)

    def run():
        t_start = time.perf_counter()
        # no numpy warnings on stderr; errstate is per thread, so set it here
        with np.errstate(all="ignore"):
            summary, header, rows = solve()
        summary.update(name=name, outputs=[str(csv_path)],
                       timings={"solve_s": time.perf_counter() - t_start})
        text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        return summary, [(csv_path, lambda p: write_csv(p, header, rows)),
                         (json_path, lambda p: p.write_text(text))]

    return run


def load_scenarios(config_path: str):
    """The config's scenarios, each a dict that prepare_scenario checks."""
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
        return obj["scenarios"]
    return [obj]


def _error_json(exc) -> str:
    kind = ("config" if isinstance(exc, ConfigError)
            else "output" if isinstance(exc, OSError) else "solver")
    return json.dumps({"error": {"type": kind, "message": str(exc)}},
                      sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varint",
        description="variational integrators for second-order systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (desc, *_) in COMMANDS.items():
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

    try:
        if args.command == "check":
            _require(args.seed >= 0, "--seed must be a non-negative integer")
            with np.errstate(all="ignore"):
                return checks.run_suites(args.suites or None, seed=args.seed)
        _require(args.workers >= 1, "--workers must be a positive integer")
        scenarios = load_scenarios(args.config)
        outdir = Path(args.out)
        _require(not any(p.exists() and not p.is_dir() for p in (outdir, *outdir.parents)),
                 f"--out {args.out}: not a directory")
        # every scenario is checked before any is solved
        solves = [prepare_scenario(c, args.command, outdir) for c in scenarios]
        # scenarios of one name would write the same files
        names = [c["name"] for c in scenarios]
        repeated = sorted({name for name in names if names.count(name) > 1})
        _require(not repeated, f"scenario names must be distinct; repeated: {repeated}")
        if args.workers > 1 and len(solves) > 1:
            with concurrent.futures.ThreadPoolExecutor(args.workers) as pool:
                results = list(pool.map(lambda solve: solve(), solves))
        else:
            results = [solve() for solve in solves]
    except ConfigError as exc:
        print(_error_json(exc))
        return 2
    except (VarintError, ArithmeticError, MemoryError) as exc:
        # ArithmeticError: float overflow or division by zero in a solve
        # whose numbers are out of range (a huge grid.T, say); MemoryError:
        # arrays too large to allocate (a huge grid.N)
        print(_error_json(exc))
        return 1
    opened = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for _, files in results:
            for path, write in files:
                opened.append(path)
                write(path)
    except OSError as exc:
        # leave no partial output: remove every file this run opened, also
        # one that overwrote an earlier run's file of the same name
        for path in opened:
            path.unlink(missing_ok=True)
        print(_error_json(exc))
        return 1
    for res, _ in results:
        print(json.dumps({"name": res["name"], "status": "ok"}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
