"""In-memory span tracer for the benchmark's traced run, and its arithmetic.

Spans are recorded from outside the program, around the public calls into
each varint module.  varint's modules bind names at import (``control``
imports ``solve_boundary_path``, ``cli`` imports ``solve_ocp``, ``flow`` calls
``spla.spsolve``), so :func:`install` replaces every module binding of a
wrapped function and the methods of every subclass that defines them.

A span records its name, start, end, parent span and run id (one run per CLI
command).  Spans live in flat arrays while the program runs and are written
out once, at the end.  A call nested inside an open span of the same name
(``with_position_term`` models call ``base.value_at`` inside ``value_at``) is
not a span of its own: the outer span's self time absorbs it.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# (module, function, span name); every binding of the function in any varint
# module is replaced.  A callable name picks the span from the call arguments.
FUNCTIONS = [
    ("varint.control", "lift_cost", "control.lift_cost"),
    ("varint.control", "solve_ocp", "control.solve_ocp"),
    ("varint.flow", "solve_boundary_path", "flow.solve_boundary_path"),
    ("varint.flow", "step", "flow.step"),
    ("varint.flow", "run", "flow.run"),
    ("varint.bvp", "exact_Ld", lambda args, kwargs: "bvp.exact_Ld." + (
        args[4] if len(args) > 4 else kwargs.get("method", "regularized"))),
    ("varint.bvp", "integrate_el", "bvp.integrate_el"),
    ("varint.momentum", "legendre_match_errors", "momentum.legendre_match_errors"),
    ("varint.momentum", "fminus", "momentum.fminus"),
    ("varint.momentum", "symplectic_defect", "momentum.symplectic_defect"),
    ("varint.order", "estimate_order", "order.estimate_order"),
    ("varint.cli", "load_scenarios", "cli.load_scenarios"),
]

# (module, base class, methods, span prefix); the base and all its subclasses
METHODS = [
    ("varint.lagrangian", "LagrangianModel",
     ("value_at", "grad_at", "hess_at", "hess_full_at", "el4_at"), "lagrangian"),
    ("varint.discretization", "DiscreteLagrangian",
     ("value", "partials", "second_partials", "residual_scale"), "discretization"),
]

CLASSMETHODS = [
    ("varint.lagrangian", "LagrangianModel", "from_sympy", "lagrangian.from_sympy"),
    ("varint.lagrangian", "MechanicalModel", "from_sympy",
     "lagrangian.mechanical_from_sympy"),
]

CONSTRUCTORS = [
    ("varint.jets", "JetPoint", "jets.JetPoint.created"),
    ("varint.jets", "PairState", "jets.PairState.created"),
]


class _ModuleProxy:
    """Stands in for a module inside one importer, with some names replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """Records spans and counts; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.depth = []                  # open spans per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run = 0
        self.counts = {}
        self.stages = []                 # one entry per solve_boundary_path call
        self._undo = []

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return i

    def is_open(self, name: str) -> bool:
        return self.depth[self.nid(name)] > 0

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, before=None):
        """``fn`` recorded as a span; ``before(args, kwargs)`` runs first."""
        fixed = self.nid(name) if isinstance(name, str) else None
        depth, stack, clock = self.depth, self.stack, time.perf_counter
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            i = fixed if fixed is not None else self.nid(name(args, kwargs))
            if depth[i]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_id.append(i)
            parent.append(stack[-1])
            run_id.append(self.run)
            end.append(0.0)
            depth[i] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[i] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def replace(self, owner, attr, new):
        """Set ``owner.attr`` (a module or class attribute) until uninstall."""
        had, old = attr in vars(owner), vars(owner).get(attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old) if had
                          else delattr(owner, attr))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run_id": np.frombuffer(self.run_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def stage_table(self) -> list:
        """Per solve_boundary_path call: T and [h, jacobian sweeps, action
        sweeps] per level, in the order the levels ran."""
        return [{"T": st["T"], "levels": [[h, *c] for h, c in st["levels"].items()]}
                for st in self.stages]

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _rebind(tracer, orig, new):
    """Replace every binding of ``orig`` in the varint package."""
    for modname, mod in list(sys.modules.items()):
        if modname != "varint" and not modname.startswith("varint."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                tracer.replace(mod, attr, new)


def install(tracer: Tracer):
    """Wrap the public calls into each varint module (imports varint.cli)."""
    import importlib

    importlib.import_module("varint.cli")
    mod = sys.modules

    def stage_start(args, kwargs):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        tracer.stages.append({"T": grid.h * grid.N, "levels": {}})
        if tracer.is_open("control.solve_ocp"):
            tracer.count("control.stage_calls")

    def level(s):
        return tracer.stages[-1]["levels"].setdefault(s.h, [0, 0])

    def jacobian_sweep(args, kwargs):
        # whole-level second_partials sweeps are the path Newton iterations;
        # residual_scale evaluates second partials too and is not one
        if (tracer.is_open("flow.solve_boundary_path")
                and not tracer.is_open("discretization.residual_scale")):
            level(args[1] if len(args) > 1 else kwargs["s"])[0] += 1

    def action_sweep(args, kwargs):
        if (tracer.is_open("flow.solve_boundary_path")
                and not any(tracer.is_open(f"discretization.{m}") for m in
                            ("residual_scale", "partials", "second_partials"))):
            level(args[1] if len(args) > 1 else kwargs["s"])[1] += 1

    hooks = {"flow.solve_boundary_path": stage_start,
             "discretization.second_partials": jacobian_sweep,
             "discretization.value": action_sweep}

    for modname, fname, span in FUNCTIONS:
        orig = getattr(mod[modname], fname)
        _rebind(tracer, orig, tracer.wrap(orig, span, hooks.get(span)))

    bvp = mod["varint.bvp"]
    shooting = bvp.shooting_bvp

    def shooting_bvp(*args, return_substeps=False, **kwargs):
        jet, S = shooting(*args, return_substeps=True, **kwargs)
        tracer.count("bvp.shooting_bvp.substeps", S)
        return (jet, S) if return_substeps else jet

    _rebind(tracer, shooting, tracer.wrap(shooting_bvp, "bvp.shooting_bvp"))

    write_csv = mod["varint.cli"].write_csv

    def counted_write_csv(path, header, rows):
        write_csv(path, header, rows)
        tracer.count("cli.write_csv.bytes", os.path.getsize(path))

    _rebind(tracer, write_csv, tracer.wrap(counted_write_csv, "cli.write_csv"))

    for modname, clsname, methods, prefix in METHODS:
        for cls in _subclasses(getattr(mod[modname], clsname)):
            for m in methods:
                if m in vars(cls):
                    span = f"{prefix}.{m}"
                    tracer.replace(cls, m, tracer.wrap(vars(cls)[m], span,
                                                       hooks.get(span)))

    for modname, clsname, m, span in CLASSMETHODS:
        cls = getattr(mod[modname], clsname)
        tracer.replace(cls, m, classmethod(tracer.wrap(vars(cls)[m].__func__, span)))

    for modname, clsname, key in CONSTRUCTORS:
        cls = getattr(mod[modname], clsname)
        post_init = cls.__post_init__

        def counted(self, _post_init=post_init, _key=key):
            tracer.count(_key)
            return _post_init(self)

        tracer.replace(cls, "__post_init__", counted)

    flow = mod["varint.flow"]
    tracer.replace(flow, "spla", _ModuleProxy(
        flow.spla, spsolve=tracer.wrap(flow.spla.spsolve, "flow.spsolve")))

    checks = mod["varint.checks"]
    for suite, fn in list(checks.SUITES.items()):
        checks.SUITES[suite] = tracer.wrap(fn, f"checks.{suite}")
        tracer._undo.append(lambda s=suite, f=fn: checks.SUITES.__setitem__(s, f))


# -- arithmetic on recorded spans ----------------------------------------------

SUITES = ("spline-exactness", "legendre-match", "phi", "symplectic", "oracles",
          "order")

# every span install() can record; their self times and the unattributed
# remainder add up to the traced run
SPANS = ("control.lift_cost", "control.solve_ocp",
         "lagrangian.value_at", "lagrangian.grad_at", "lagrangian.hess_full_at",
         "lagrangian.hess_at", "lagrangian.el4_at", "lagrangian.from_sympy",
         "lagrangian.mechanical_from_sympy",
         "discretization.value", "discretization.partials",
         "discretization.second_partials", "discretization.residual_scale",
         "flow.solve_boundary_path", "flow.spsolve", "flow.step", "flow.run",
         "bvp.exact_Ld.regularized", "bvp.exact_Ld.shooting",
         "bvp.shooting_bvp", "bvp.integrate_el",
         "momentum.legendre_match_errors", "momentum.fminus",
         "momentum.symplectic_defect", "order.estimate_order",
         "cli.write_csv", "cli.load_scenarios") + tuple(f"checks.{s}" for s in SUITES)

# top-level spans whose inclusive time is reported too
INCLUSIVE = ("control.solve_ocp", "flow.solve_boundary_path", "flow.run",
             "bvp.exact_Ld.regularized", "bvp.exact_Ld.shooting",
             "momentum.legendre_match_errors", "momentum.symplectic_defect",
             "order.estimate_order") + tuple(f"checks.{s}" for s in SUITES)


def self_times(name_id, parent, start, end, n_names):
    """Per-name call counts, self seconds and inclusive seconds.

    A span's self time is its duration minus the durations of its children.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_s = dur - child
    return (np.bincount(name_id, minlength=n_names),
            np.bincount(name_id, weights=self_s, minlength=n_names),
            np.bincount(name_id, weights=dur, minlength=n_names))


def newton_levels(stages):
    """Per stage, [(N, newton iterations, action evaluations)] per level.

    Counts are whole-level sweeps: second_partials or value calls at one step
    size, divided by the level's pair count N = T / h.
    """
    out = []
    for st in stages:
        rows = []
        for h, jac, val in st["levels"]:
            N = int(round(st["T"] / h))
            rows.append((N, jac / N, val / N))
        out.append(rows)
    return out


def layer_metrics(trace: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """Every per-layer metric from one traced invocation.

    ``trace`` holds the span arrays (see :meth:`Tracer.arrays`) plus
    ``names``, ``counts`` and ``stages``.
    """
    names = list(trace["names"])
    calls, self_s, total_s = self_times(trace["name_id"], trace["parent"],
                                        trace["start"], trace["end"], len(names))
    idx = {n: i for i, n in enumerate(names)}

    def stat(span, kind):
        i = idx.get(span)
        if i is None:
            return 0.0 if kind != "calls" else 0
        return {"calls": int(calls[i]), "self_s": float(self_s[i]),
                "total_s": float(total_s[i])}[kind]

    counts = trace["counts"]
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = stat(span, "calls")
        m[f"{span}.self_s"] = stat(span, "self_s")

    dur_ms = (np.asarray(trace["end"]) - np.asarray(trace["start"])) * 1e3
    for method in ("regularized", "shooting"):
        span = f"bvp.exact_Ld.{method}"
        sel = dur_ms[np.asarray(trace["name_id"]) == idx[span]] if span in idx else []
        p50, p90 = np.percentile(sel, [50, 90]) if len(sel) else (0.0, 0.0)
        m[f"{span}.ms_p50"] = float(p50)
        m[f"{span}.ms_p90"] = float(p90)

    for span in INCLUSIVE:
        m[f"{span}.total_s"] = stat(span, "total_s")

    # stages: solve_boundary_path calls per solve_ocp; substeps: final shooting
    # substep counts after doubling, summed over shooting_bvp calls
    levels = newton_levels(trace["stages"])
    ocp_calls = stat("control.solve_ocp", "calls")
    m["control.stages"] = counts.get("control.stage_calls", 0) / max(ocp_calls, 1)
    m["flow.newton_iters"] = sum(it for st in levels for _, it, _ in st)
    m["flow.action_evals"] = sum(ev for st in levels for _, _, ev in st)
    m["jets.JetPoint.created"] = counts.get("jets.JetPoint.created", 0)
    m["jets.PairState.created"] = counts.get("jets.PairState.created", 0)
    m["bvp.shooting_bvp.substeps"] = counts.get("bvp.shooting_bvp.substeps", 0)
    m["cli.write_csv.bytes"] = counts.get("cli.write_csv.bytes", 0)

    attributed = float(np.sum(self_s))
    m["trace.run_s"] = traced_run_s
    m["trace.untraced_run_s"] = untraced_run_s
    m["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1.0
                                if untraced_run_s > 0 else 0.0)
    m["trace.unattributed_s"] = traced_run_s - attributed
    m["trace.spans"] = int(len(trace["start"]))
    return m


def shares(trace: dict, traced_run_s: float) -> dict:
    """Each span name's self time as a share of the traced run, plus the
    unattributed remainder; the shares sum to 1."""
    names = list(trace["names"])
    _, self_s, _ = self_times(trace["name_id"], trace["parent"], trace["start"],
                              trace["end"], len(names))
    out = {n: float(s) / traced_run_s for n, s in zip(names, self_s) if s > 0}
    out["unattributed"] = 1.0 - sum(out.values())
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
