"""One benchmark invocation, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds ``t_spawn`` (the parent's time.monotonic() just before the
spawn), ``result`` (where to write the result JSON), ``commands`` (argv lists
for varint.cli.main), and optionally ``trace`` (a path for the span file) or
``setup_only``.  The interpreter must start with ``src`` on PYTHONPATH.

Set-up is the time from the spawn until ``import varint.cli`` returns; it is
measured before anything else is imported.  Each command is then timed on its
own, with its standard output captured for verification.
"""

import json
import sys
import time


def run_commands(cli_main, commands, tracer=None):
    import io
    import traceback
    from contextlib import redirect_stdout

    results = []
    for argv in commands:
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.run += 1
        results.append({"argv": argv, "code": code, "seconds": seconds,
                        "stdout": buf.getvalue(), "error": error})
    return results


def main():
    spec = json.loads(sys.argv[1])
    import varint.cli  # set-up is what this import costs

    out = {"setup_s": time.monotonic() - spec["t_spawn"]}
    import resource

    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        out["commands"] = run_commands(varint.cli.main, spec["commands"], tracer)
        if tracer is not None:
            tracer.save(spec["trace"])
            out["counts"] = tracer.counts
            out["stages"] = tracer.stage_table()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
