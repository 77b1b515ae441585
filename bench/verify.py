"""Correctness checks on the outputs of each benchmarked CLI command.

Every command is checked after it runs; tolerances and reference values come
from ``workloads.json``.  A command is one operation, except ``check``, where
each suite is one.  Trajectory CSVs must also be byte-identical between any
two invocations of the same code, which the README promises.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path


def csv_files(v: dict) -> list:
    return list(v.get("csv", [])) + ([v["trajectory"]] if "trajectory" in v else [])


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path.name} has no data rows")
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _within(x, tol) -> bool:
    return abs(x) <= tol             # False for NaN


def _check_ocp(v: dict, outdir: Path, root: Path) -> list:
    header, rows = _read_csv(outdir / v["trajectory"])
    summary = json.loads((outdir / v["summary"]).read_text())
    boundary = json.loads((root / v["config"]).read_text())["boundary"]
    n = len(boundary["q0"])
    msgs = []
    if "endpoint_tol" in v:
        want = [(rows[0], boundary["q0"] + boundary["v0"]),
                (rows[-1], boundary["qN"] + boundary["vN"])]
        err = max(abs(row[1 + i] - w[i]) for row, w in want for i in range(2 * n))
        if not _within(err, v["endpoint_tol"]):
            msgs.append(f"endpoint error {err:.3e} > {v['endpoint_tol']:g}")
    if "del_max" in v:
        r = summary["residuals"]["del_max"]
        if not _within(r, v["del_max"]):
            msgs.append(f"max DEL residual {r:.3e} > {v['del_max']:g}")
    if "cost" in v:
        c = summary["cost"]
        if not _within(c - v["cost"], v["cost_rtol"] * abs(v["cost"])):
            msgs.append(f"cost {c!r} not within {v['cost_rtol']:g} rel of {v['cost']!r}")
    if "elbow_deg" in v:
        lo, hi = (math.radians(d) for d in v["elbow_deg"])
        elbow = [row[2] for row in rows]       # second configuration column
        slack = v["elbow_slack_rad"]
        if not (min(elbow) >= lo - slack and max(elbow) <= hi + slack):
            msgs.append(f"elbow range [{min(elbow):.4f}, {max(elbow):.4f}] rad leaves "
                        f"[{lo:.4f}, {hi:.4f}] by more than {slack:g}")
    return msgs


def _check_files(v: dict, outdir: Path, root: Path) -> list:
    return [f"{name} missing or empty" for name in csv_files(v)
            if not (outdir / name).is_file() or (outdir / name).stat().st_size == 0]


def _check_order(v: dict, outdir: Path, root: Path) -> list:
    msgs = _check_files(v, outdir, root)
    for name in v["reports"]:
        r = json.loads((outdir / name).read_text()).get("r_hat")
        if r is None or not _within(r - v["r_hat"], v["r_hat_tol"]):
            msgs.append(f"{name}: r_hat {r} not within {v['r_hat_tol']:g} of {v['r_hat']:g}")
    return msgs


CHECKERS = {"ocp": _check_ocp, "files": _check_files, "order": _check_order}


def verify_command(v: dict, code, stdout: str, outdir: Path, root: Path):
    """(operations, failed operations, messages) for one finished command.

    ``code`` is the CLI exit status, or None when the command raised.
    """
    if v["kind"] == "check":
        passed = {line.split()[1].rstrip(":") for line in stdout.splitlines()
                  if line.startswith("PASS ")}
        msgs = [f"suite {s} did not pass" for s in v["suites"] if s not in passed]
        failed = len(msgs)
        if code != 0 and failed == 0:
            msgs.append(f"check exited with {code}")
            failed = 1
        return len(v["suites"]), failed, msgs
    if code != 0:
        return 1, 1, [f"exited with {code}"]
    try:
        msgs = CHECKERS[v["kind"]](v, outdir, root)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        msgs = [f"unreadable output: {exc!r}"]
    return 1, int(bool(msgs)), msgs


def digests(v: dict, outdir: Path) -> dict:
    out = {}
    for name in csv_files(v):
        p = outdir / name
        if p.is_file():
            out[name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def source_digest(root: Path) -> str:
    """Digest of the program and its shipped configs: 'the same code'."""
    h = hashlib.sha256()
    for base in ("src", "configs"):
        for p in sorted((root / base).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def compare_digests(store: Path, key: str, found: dict) -> list:
    """Names whose digest differs from an earlier invocation of the same code.

    The first digest seen for a name under ``key`` is kept in ``store``.
    """
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    seen = known.setdefault(key, {})
    mismatched = [n for n, d in found.items() if seen.setdefault(n, d) != d]
    tmp = store.with_name(store.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, store)
    return mismatched
