"""``varint check`` runs the suites of ``checks._CHILD`` in one forked child
and the rest in the calling process: the same stdout and exit code as the
inline loop on every path, and no child left behind."""

import collections
import json
import os
import re
import time

import pytest

from varint import checks
from varint.cli import main
from varint.errors import NoConvergence, VarintError
from varint.lagrangian import LagrangianModel


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(checks, "_cpus", lambda: count)


def _suites(monkeypatch, outcome):
    """Four suites of 0.1 s each, run on two CPUs, the child running b and
    c; ``outcome(name, here)`` gives a suite's outcome, where ``here`` says
    whether it runs in the calling process."""
    caller = os.getpid()

    def suite(name):
        def run(rng):
            time.sleep(0.1)
            return outcome(name, os.getpid() == caller)
        return run

    monkeypatch.setattr(checks, "SUITES", {name: suite(name) for name in "abcd"})
    monkeypatch.setattr(checks, "_CHILD", ("b", "c"))
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
    # one suite named twice prints two lines from one run, with no fork
    calls, order = [], checks.SUITES["order"]
    monkeypatch.setitem(checks.SUITES, "order", lambda rng: calls.append(rng) or order(rng))
    assert main(["check", "order", "order", "--seed", "0"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second and first.startswith("PASS order:") and len(calls) == 1


def test_each_distinct_suite_runs_once(monkeypatch, capsys, tmp_path):
    # a repeated name prints its line again but runs its suite once, in
    # the process whose share it is
    ran = tmp_path / "ran"

    def suite(name):
        def run(rng):
            with open(ran, "a") as out:
                out.write(name)
            return True, name
        return run

    monkeypatch.setattr(checks, "SUITES", {name: suite(name) for name in "abcd"})
    monkeypatch.setattr(checks, "_CHILD", ("b", "c"))
    for cpus in (1, 2):
        ran.write_text("")
        _cpus(monkeypatch, cpus)
        assert checks.run_suites(["d", "a", "d", "b"]) == 0
        assert capsys.readouterr().out == "PASS d: d\nPASS a: a\nPASS d: d\nPASS b: b\n"
        assert sorted(ran.read_text()) == ["a", "b", "d"]


def test_inline_suites_build_each_model_once(monkeypatch, capsys):
    # the six suites run on three models: each is derived and lambdified once
    built, make = collections.Counter(), LagrangianModel.from_sympy.__func__

    def counted(cls, n, expr, *args, name=None, **kwargs):
        built[name, n] += 1
        return make(cls, n, expr, *args, name=name, **kwargs)

    monkeypatch.setattr(LagrangianModel, "from_sympy", classmethod(counted))
    checks._model.cache_clear()
    _cpus(monkeypatch, 1)
    assert checks.run_suites(seed=0) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(checks.SUITES)
    assert built == {("spline", 1): 1, ("spline-potential", 1): 1, ("spline-velocity", 1): 1}


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
    # the caller does not take up the dead child's share
    assert "suites ['b', 'c'] ended without their results" in err["message"]
    assert lines[:-1] == ["PASS a: here"]


def test_a_child_that_dies_midway_sends_none_of_its_share(monkeypatch, capsys):
    # the child finishes b and dies in c: its share arrives whole or not at
    # all, so b's line is not printed and the error names both suites
    def outcome(name, here):
        if name == "c" and not here:
            os._exit(3)
        return True, "here" if here else "there"

    _suites(monkeypatch, outcome)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ["PASS a: here"]
    err = json.loads(lines[-1])["error"]
    assert "suites ['b', 'c'] ended without their results" in err["message"]
    with pytest.raises(VarintError, match=r"suites \['b', 'c'\] ended"):
        checks.run_suites()


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


def test_a_request_inside_one_share_runs_inline(monkeypatch, capsys):
    # each share alone prints the lines it prints in the full run, unforked
    _cpus(monkeypatch, 2)
    assert main(["check", "--seed", "0"]) == 0
    full = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one share"))
    for request in (["phi", "order"], ["oracles", "legendre-match"]):
        assert main(["check", *request, "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            line for name in request for line in full if line.startswith(f"PASS {name}:")]


def test_the_child_share_names_suites():
    assert set(checks._CHILD) <= set(checks.SUITES)
