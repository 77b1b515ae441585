"""Time-to-solution benchmark of the varint command line.

Run from the root of a checkout:

    python3 bench/run.py --workload swingup --seed 1 --seconds 20 --trace 0

Workloads are defined in ``bench/workloads.json``.  One closed-loop client
runs invocations one after another; each invocation is a fresh
single-threaded interpreter (``bench/worker.py``) that imports varint and
calls ``varint.cli.main(argv)`` for every command of the workload.  A fresh
interpreter is needed because every CLI user pays the cold sympy cache.

``--trace 0`` runs at least three invocations and keeps starting more while
the next one is expected to end within ``--seconds``, adds import-only
interpreters until there are three set-up samples, and reports the end-to-end
metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs one untraced invocation and then one
traced invocation, and reports the per-layer metrics (see ``spans.py``) with
the tracing overhead measured against the untraced one.

Outputs of every command are verified (``verify.py``); a command that exits
non-zero, raises or fails verification is a failed operation, and a failed
command's time is left out of ``run_s``.  Scratch output lives under
``.bench_out/`` in the checkout and is removed after each invocation; a result
file with the environment block is kept there.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_INVOCATIONS = 3         # per untraced run: run_s is their median
SETUP_SAMPLES = 3
DEADLINE_S = 170.0          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import verify  # noqa: E402


def command_ops(v: dict) -> int:
    return len(v["suites"]) if v["kind"] == "check" else 1


class Runner:
    """Spawns invocations of one workload and verifies what they wrote."""

    def __init__(self, workload: dict, thread_env: dict, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, **thread_env)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.code_key = verify.source_digest(ROOT)
        self.count = 0

    def _spawn(self, tmp: Path, commands, trace=False, setup_only=False):
        spec = {"commands": commands, "result": str(tmp / "result.json"),
                "setup_only": setup_only}
        if trace:
            spec["trace"] = str(tmp / "spans.npz")
        spec["t_spawn"] = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "invocation timed out"}
        if proc.returncode != 0:
            return {"error": f"worker exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}
        return json.loads((tmp / "result.json").read_text())

    def setup_only(self) -> float | None:
        tmp = self._tmp()
        try:
            return self._spawn(tmp, [], setup_only=True).get("setup_s")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _tmp(self) -> Path:
        self.count += 1
        tmp = OUT / f"tmp-{os.getpid()}-{self.count}"
        shutil.rmtree(tmp, ignore_errors=True)
        (tmp / "out").mkdir(parents=True)
        return tmp

    def invocation(self, trace=False) -> dict:
        """Run every command of the workload once in a fresh interpreter."""
        specs = self.workload["commands"]
        tmp = self._tmp()
        outdir = tmp / "out"
        argvs = [[a.format(out=outdir, seed=self.seed) for a in c["argv"]] for c in specs]
        inv = {"ops": 0, "failed": 0, "messages": [], "run_s": None,
               "all_commands_s": None}
        try:
            res = self._spawn(tmp, argvs, trace=trace)
            if "error" in res:
                inv["ops"] = inv["failed"] = sum(command_ops(c["verify"]) for c in specs)
                inv["messages"].append(res["error"])
                return inv
            ok_s, all_s = [], []
            for c, r in zip(specs, res["commands"]):
                v = c["verify"]
                ops, failed, msgs = verify.verify_command(v, r["code"], r["stdout"],
                                                          outdir, ROOT)
                changed = verify.compare_digests(OUT / "csv_digests.json",
                                                 self.code_key, verify.digests(v, outdir))
                if changed:
                    msgs.append(f"not byte-identical to an earlier invocation: {changed}")
                    failed = max(failed, 1)
                if r["error"]:
                    msgs.append(r["error"])
                inv["ops"] += ops
                inv["failed"] += failed
                inv["messages"] += [f"{c['argv'][0]}: {m}" for m in msgs]
                all_s.append(r["seconds"])
                if r["code"] == 0:
                    ok_s.append(r["seconds"])
            inv["run_s"] = sum(ok_s) if ok_s else None
            inv["all_commands_s"] = sum(all_s)
            inv["commands_s"] = all_s
            inv["setup_s"] = res["setup_s"]
            inv["peak_rss_mb"] = res["peak_rss_mb"]
            if trace:
                import numpy as np
                with np.load(tmp / "spans.npz") as z:
                    inv["trace"] = {k: z[k] for k in z.files}
                inv["trace"]["counts"] = res["counts"]
                inv["trace"]["stages"] = res["stages"]
            return inv
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def environment(seed: int, code_key: str, worker_env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_commit": commit, "source_digest": code_key,
            "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "worker_thread_env": {k: worker_env.get(k) for k in THREAD_VARS}}


def untraced(runner: Runner, seconds: float, start: float):
    invs = []
    while True:
        invs.append(runner.invocation())
        elapsed = time.monotonic() - start
        projected = elapsed * (len(invs) + 1) / len(invs)
        if projected > DEADLINE_S - 20.0 or (len(invs) >= MIN_INVOCATIONS
                                             and projected > seconds):
            break
    setups = [i["setup_s"] for i in invs if "setup_s" in i]
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < DEADLINE_S - 10.0:
        s = runner.setup_only()
        if s is not None:
            setups.append(s)
    run_s = [i["run_s"] for i in invs if i["run_s"] is not None]
    if not run_s:
        raise RuntimeError("no command completed: " + "; ".join(
            m for i in invs for m in i["messages"]))
    rss = [i["peak_rss_mb"] for i in invs if "peak_rss_mb" in i]
    attempted = sum(i["ops"] for i in invs)
    failed = sum(i["failed"] for i in invs)
    values = {"setup_s": statistics.median(setups), "run_s": statistics.median(run_s),
              "peak_rss_mb": statistics.median(rss),
              "ok_frac": (attempted - failed) / attempted}
    lines = [f"setup_s      {values['setup_s']:.4f} s   (median of {len(setups)} fresh interpreters)",
             f"run_s        {values['run_s']:.4f} s   (median of {len(run_s)} invocations)",
             f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB  (median of {len(rss)} invocations)",
             f"failed_frac  {failed / attempted:.4f}     ({failed} of {attempted} operations)",
             f"ok_frac      {values['ok_frac']:.4f}"]
    return invs, values, lines, {}


def traced(runner: Runner):
    import spans

    ref = runner.invocation()
    inv = runner.invocation(trace=True)
    invs = [ref, inv]
    if "trace" not in inv:
        raise RuntimeError("traced invocation failed: " + "; ".join(inv["messages"]))
    tr = inv.pop("trace")
    values = spans.layer_metrics(tr, inv["all_commands_s"], ref["all_commands_s"] or 0.0)
    share = spans.shares(tr, inv["all_commands_s"])
    levels = spans.newton_levels(tr["stages"])
    lines = [f"traced run_s {values['trace.run_s']:.4f} s, untraced {values['trace.untraced_run_s']:.4f} s, "
             f"overhead {100 * values['trace.overhead_frac']:.1f}%, "
             f"{values['trace.spans']} spans, unattributed {values['trace.unattributed_s']:.4f} s"]
    for k, st in enumerate(levels):
        lines.append(f"stage {k + 1}: " + ", ".join(
            f"N={N} iters={it:g} action_evals={ev:g}" for N, it, ev in st))
    lines += [f"share {name:40s} {100 * s:6.2f}%" for name, s in share.items() if s >= 0.001]
    return invs, values, lines, {"shares": share, "newton_levels": levels}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "varint" / "cli.py").is_file():
        print(f"bench: no varint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(config['workloads'])}")
    OUT.mkdir(exist_ok=True)
    runner = Runner(config["workloads"][args.workload], config["thread_env"],
                    args.seed, start + DEADLINE_S)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   cwd=ROOT, env=runner.env, check=True, capture_output=True)

    try:
        if args.trace:
            invs, values, lines, extra = traced(runner)
        else:
            invs, values, lines, extra = untraced(runner, args.seconds, start)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(i["ops"] for i in invs)
    failed = sum(i["failed"] for i in invs)
    messages = [m for i in invs for m in i["messages"]]

    env = environment(args.seed, runner.code_key, runner.env)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": failed, "messages": messages,
              "metrics": metrics, **extra,
              "invocations": [{k: v for k, v in i.items() if k != "trace"} for i in invs]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"invocations={len(invs)} operations={attempted} failed={failed}")
    for line in lines + [f"failure: {m}" for m in messages]:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
