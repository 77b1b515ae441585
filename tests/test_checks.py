"""``varint check`` shares its suites between the calling process and one
forked child: the same stdout and exit code as the inline loop on every
path, and no child left behind."""

import json
import os
import re
import time

import pytest

from varint import checks
from varint.cli import main
from varint.errors import NoConvergence


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(checks, "_cpus", lambda: count)


def _suites(monkeypatch, outcome):
    """Four suites of 0.1 s each, run on two CPUs, so that each process runs
    some; ``outcome(name, here)`` gives a suite's outcome, where ``here``
    says whether it runs in the calling process."""
    caller = os.getpid()

    def suite(name):
        def run(rng):
            time.sleep(0.1)
            return outcome(name, os.getpid() == caller)
        return run

    monkeypatch.setattr(checks, "SUITES", {name: suite(name) for name in "abcd"})
    _cpus(monkeypatch, 2)


def test_seed_0_stdout_is_the_same_on_one_cpu_and_two(monkeypatch, capsys):
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    out = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert main(["check", "--seed", "0"]) == 0
        out[cpus] = capsys.readouterr().out
    assert out[1] == out[2] and len(out[1].splitlines()) == len(checks.SUITES)
    assert len(forks) == 1


def test_one_suite_runs_inline(monkeypatch, capsys):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one suite"))
    _cpus(monkeypatch, 2)
    assert main(["check", "order", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("PASS order:")


def test_repeats_keep_the_requested_order(monkeypatch, capsys):
    _suites(monkeypatch, lambda name, here: (True, name * 2))
    assert checks.run_suites(["d", "a", "d", "b"]) == 0
    assert capsys.readouterr().out == "PASS d: dd\nPASS a: aa\nPASS d: dd\nPASS b: bb\n"


@pytest.mark.parametrize("side", ["child", "caller"])
def test_an_exception_ends_as_in_the_inline_loop(monkeypatch, capsys, side):
    # the first suite, in the printed order, that raises ends the run: the
    # lines before it, then one JSON solver line and exit 1
    def outcome(name, here):
        if here == (side == "caller"):
            raise NoConvergence(f"suite {name} did not converge", iterations=7)
        return True, "fine"

    _suites(monkeypatch, outcome)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    err = json.loads(lines[-1])["error"]
    assert err["type"] == "solver"
    first = re.fullmatch(r"suite (\w) did not converge", err["message"]).group(1)
    assert lines[:-1] == [f"PASS {name}: fine" for name in "abcd" if name < first]


def test_an_exception_from_the_child_keeps_its_fields(monkeypatch):
    def outcome(name, here):
        if not here:
            raise NoConvergence(f"suite {name}", iterations=7, residual_norm=0.5)
        return True, ""

    _suites(monkeypatch, outcome)
    with pytest.raises(NoConvergence) as info:
        checks.run_suites()
    assert (info.value.iterations, info.value.residual_norm) == (7, 0.5)


def test_a_failure_in_the_child_exits_1(monkeypatch, capsys):
    _suites(monkeypatch, lambda name, here: (here, "here" if here else "there"))
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL" in {line.split()[0] for line in lines}
    assert lines == [f"PASS {n}: here" if line.startswith("PASS") else f"FAIL {n}: there"
                     for n, line in zip("abcd", lines)]


def test_a_child_that_dies_raises_naming_its_suite(monkeypatch, capsys):
    def outcome(name, here):
        if not here:
            os._exit(3)
        return True, "here"

    _suites(monkeypatch, outcome)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    err = json.loads(lines[-1])["error"]
    assert err["type"] == "solver"
    held = re.search(r"suites \['(\w)'\] ended without their results", err["message"])
    assert lines[:-1] == [f"PASS {name}: here" for name in "abcd" if name < held.group(1)]


def test_an_interrupt_kills_and_reaps_the_child(monkeypatch):
    def outcome(name, here):
        if here:
            raise KeyboardInterrupt
        time.sleep(60)
        return True, ""

    _suites(monkeypatch, outcome)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        checks.run_suites()
    assert time.monotonic() - start < 30
