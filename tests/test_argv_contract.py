"""The argv contract of `hvlab.options.parse`, over generated argv.

Every argv either parses to options inside their domains, with each rule between options kept, or
exits 2 with one line on stderr.  The argv are drawn from each subcommand's declared options, with
boundary values, text, wrong arity and options of other subcommands; they are only parsed, never
run.  This module imports no numpy, so that one test can run the property in a fresh interpreter
and find numpy still unloaded.

Every option a run takes is read: in each mode of each subcommand, two runs that differ only in one
option's value, both from the domain table, print different reports or write different files.
Only these runs load the library, and in process.
"""

import argparse
import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hvlab import options  # noqa: E402


def _subcommands() -> dict:
    """Each subcommand's options as the parser declares them, --help left out."""
    parser = options.build_parser()
    (sub,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {
        name: [action for action in subparser._actions if action.option_strings and action.dest != "help"]
        for name, subparser in sub.choices.items()
    }


SUBCOMMANDS = _subcommands()
ALL_ACTIONS = [action for actions in SUBCOMMANDS.values() for action in actions]

# zero, negative, huge, subnormal, non-finite, empty, text, wrong arity and zero vectors
BOUNDARY = ["0", "-1", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "", "abc", "1,0", "0,0,0", "0,0,0,0"]
NEAR = [
    "1", "2", "9", "10", "99", "100", "1e-320", "-nan", " ", "1.5", "0x10", "1_000", "1e6", "1,0,0", "-1,0,0",
    "1,0,0,0", "1,1e308,0", "1e-320,0,0", "1,,0", "1,0,nan", "1,1,1", "1,-1,1", "1,1,2", "1,1,x",
    "9223372036854775807", "9223372036854775808", "100000000000000000000", "1e-3", "0.0010000000000000002",
]
numbers = st.floats().map(repr) | st.integers(-(10**20), 10**20).map(str)
vectors = st.lists(st.floats() | st.integers(-3, 3), min_size=1, max_size=5).map(lambda xs: ",".join(map(str, xs)))
values = st.sampled_from(BOUNDARY + NEAR) | numbers | vectors | st.text(max_size=8)


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    own = st.sampled_from(SUBCOMMANDS[command])
    argv = [command]
    for action in draw(st.lists(own | st.sampled_from(ALL_ACTIONS), max_size=6)):
        flag = action.option_strings[-1]
        if action.nargs == 0:  # a switch
            argv.append(flag)
            continue
        form = draw(st.sampled_from(["equals", "separate", "missing"]))
        if form == "missing":  # wrong arity: no value, or the next option taken as one
            argv.append(flag)
        else:
            value = draw(values)
            argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
    return argv


def _count(low, high=math.inf):
    return lambda value: type(value) is int and low <= value <= high


def _floats(value) -> bool:
    return isinstance(value, list) and all(type(x) is float and math.isfinite(x) for x in value)


def _direction(value) -> bool:
    return _floats(value) and len(value) == 3 and any(value)


def _bool(value) -> bool:
    return type(value) is bool


_free = None  # any text: a choice (--state), the library checks it (--source) or a file (--rays, --dump-rays)
_seed = _count(0)
DIRECTIONS = ("1,2,3", "0.3,-0.2,0.9")

# each option's domain, written out apart from the parser, and two values in it whose runs must differ:
# (subcommand or None for all, dest) -> (test, (value, other value)); a switch's values are False and True
DOMAINS = {
    (None, "seed"): (_seed, ("1", "2")),
    ("chsh", "seed"): (lambda v: v is None or _seed(v), ("1", "2")),
    (None, "tol"): (lambda v: type(v) is float and 0.0 <= v <= options.MAX_TOL, ("1e-6", "1e-3")),  # a claim's width
    ("ks-color", "tol"): (lambda v: type(v) is float and 0.0 <= v < math.inf, ("1e-9", "1")),  # a threshold
    (None, "format"): (lambda v: v in ("json", "csv"), ("json", "csv")),
    (None, "quiet"): (_bool, (False, True)),
    (None, "optimize"): (_bool, (False, True)),
    ("ks-color", "peres"): (_bool, (False, True)),
    (None, "dim"): (lambda v: v in (2, 3, 4), ("2", "3")),
    ("vn-reconstruct", "trials"): (_count(1, options.MAX_VN_TRIALS), ("1", "2")),
    ("nosignal", "trials"): (_count(1, options.MAX_NOSIGNAL_TRIALS), ("1", "2")),
    ("dispersion", "steps"): (_count(2, options.MAX_STEPS), ("50", "60")),
    ("bell-hv", "samples"): (_count(100, options.MAX_BELL_HV_SAMPLES), ("100", "200")),
    ("wigner", "samples"): (_count(1, options.MAX_WIGNER_SAMPLES), ("1", "2")),
    ("simulate", "samples"): (_count(8, 2**63 - 1), ("1000", "2000")),
    ("chsh", "restarts"): (lambda v: v is None or _count(1, options.MAX_RESTARTS)(v), ("1", "2")),
    ("hardy", "grid"): (lambda v: v is None or _count(10, options.MAX_GRID)(v), ("10", "20")),
    ("bell-hv", "alpha"): (lambda v: type(v) is float and math.isfinite(v), ("0", "0.5")),
    ("bell-hv", "beta"): (lambda v: _floats(v) and len(v) == 3, ("1,1,0", "0,0,1")),
    ("bell-hv", "psi"): (lambda v: _floats(v) and len(v) % 2 == 0 and any(v), ("1,0,0,0", "0.6,0,0,0.8")),
    ("bell", "eta"): (lambda v: type(v) is tuple and len(v) == 3 and set(v) <= {1, -1}, ("1,1,1", "1,-1,1")),
    **{("hardy", dest): (lambda v: v is None or (type(v) is float and 0.0 < v < 1.0), ("0.3", "0.5"))
       for dest in ("p1", "p2")},
    ("simulate", "visibility"): (lambda v: type(v) is float and 0.0 <= v <= 1.0, ("0.9", "1")),
    **{("jauch-piron", dest): (_direction, DIRECTIONS) for dest in ("a_dir", "b_dir")},
    **{("bell", dest): (lambda v: v is None or _direction(v), DIRECTIONS) for dest in ("a_dir", "b_dir", "c_dir")},
    **{(command, dest): (lambda v: v is None or _direction(v), DIRECTIONS)
       for command in ("chsh", "simulate") for dest in options.CHSH_DIRECTIONS},
    ("chsh", "state"): (_free, ("singlet", "product")),
    ("simulate", "source"): (_free, ("singlet", "lhv:sign")),
    ("ks-color", "rays"): (_free, ("peres-minus-one-rotated.txt", "cli-sweep-seed-1-rays.txt")),
    ("ks-color", "dump_rays"): (_free, ("a.txt", "b.txt")),
}


def _domain(command: str, dest: str):
    return DOMAINS.get((command, dest), DOMAINS.get((None, dest)))


def _rules_hold(args) -> bool:
    """The rules between options: all directions or none, each mode's options, and no seed where none is taken."""
    if args.seed is not None and not any(action.dest == "seed" for action in SUBCOMMANDS[args.command]):
        return False
    if args.command == "bell":
        return len({args.a_dir is None, args.b_dir is None, args.c_dir is None}) == 1
    if args.command == "chsh":
        directions = {getattr(args, dest) is None for dest in options.CHSH_DIRECTIONS}
        if args.optimize:
            return directions == {True} and None not in (args.restarts, args.seed, args.tol)
        return len(directions) == 1 and args.restarts is None and args.seed is None and args.tol is not None
    if args.command == "hardy":
        if args.optimize:
            return args.p1 is None and args.p2 is None and args.grid is not None and args.tol is not None
        return args.grid is None and None not in (args.p1, args.p2, args.tol)
    if args.command == "simulate":  # chsh's rule without --optimize
        return len({getattr(args, dest) is None for dest in options.CHSH_DIRECTIONS}) == 1
    return True


def check_contract(argv: list) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = options.parse(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
            assert lines[0].startswith(f"{argv[0]}: "), (argv, lines)
            return
    assert err.getvalue() == "", (argv, err.getvalue())
    assert args.command == argv[0]
    for action in SUBCOMMANDS[argv[0]]:
        domain, _ = _domain(argv[0], action.dest)
        if domain is not None:
            assert domain(getattr(args, action.dest)), (argv, action.dest, getattr(args, action.dest))
    assert _rules_hold(args), (argv, vars(args))


@settings(max_examples=150, deadline=None, database=None)
@given(argvs())
def test_parse_keeps_the_contract(argv):
    check_contract(argv)


def check_each_boundary_value() -> None:
    """Every option that takes a value, alone with each boundary value."""
    for command, actions in SUBCOMMANDS.items():
        for action in actions:
            if action.nargs != 0 and action.choices is None:
                for value in BOUNDARY:
                    check_contract([command, f"{action.option_strings[-1]}={value}"])


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_value_option_has_a_declared_domain_or_is_left_to_the_library(command):
    for action in SUBCOMMANDS[command]:
        assert _domain(command, action.dest) is not None, (command, action.dest)


def test_boundary_values_keep_the_contract_without_numpy():
    # in an interpreter where nothing else loads numpy
    tests = Path(__file__).resolve().parent
    src = str(Path(options.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        f"import sys; sys.path.insert(0, {str(tests)!r})\n"
        "import test_argv_contract as t\n"
        "t.check_each_boundary_value()\n"
        "assert 'numpy' not in sys.modules, 'parsing loaded numpy'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


# Each run mode, by the argv that selects it, its sizes kept small; a switch it gives is the mode's own.
MODES = [
    ["vn-reconstruct", "--trials=2"],
    ["dispersion", "--steps=50"],
    ["jauch-piron"],
    ["bell-hv", "--samples=100"],
    ["ks-color", "--peres"],
    ["ks-color", "--rays=peres-minus-one-rotated.txt"],
    ["mermin"],
    ["bell"],
    ["bell", "--a-dir=1,0,0", "--b-dir=0,1,0", "--c-dir=0,0,1"],
    ["chsh"],
    ["chsh", "--a-dir=1,0,0", "--a-prime=0,1,0", "--b-dir=0,0,1", "--b-prime=1,1,1"],
    ["chsh", "--optimize", "--restarts=1"],
    ["wigner", "--samples=10"],
    ["ghz"],
    ["hardy"],
    ["hardy", "--optimize", "--grid=10"],
    ["nosignal", "--trials=20"],  # its one output is a roundoff-level maximum, which two seeds share at 2 trials
    ["simulate", "--samples=1000"],
    ["simulate", "--samples=1000", "--a-dir=0,1,0", "--a-prime=1,0,0", "--b-dir=1,1,0", "--b-prime=1,-1,0"],
]
READ_CASES = [(mode, action) for mode in MODES for action in SUBCOMMANDS[mode[0]]
              if not (action.nargs == 0 and action.option_strings[-1] in mode)]
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _with(mode: list, flag: str, value) -> list:
    """mode's argv with flag at value: a switch given or left out, another option appended."""
    if isinstance(value, bool):
        return [*mode, flag] if value else list(mode)
    return [*mode, f"{flag}={value}"]


def _takes(argv: list) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            options.parse(argv)
        except SystemExit:
            return False
    return True


def _outcome(argv: list, workdir: Path, monkeypatch) -> tuple:
    """argv's exit code and stdout, the echoed seed and wall_time_s left out, and each file it wrote; run in
    workdir, which holds the golden inputs."""
    from hvlab import cli

    workdir.mkdir()
    for path in INPUTS.iterdir():
        shutil.copy(path, workdir)
    before = set(workdir.iterdir())
    monkeypatch.chdir(workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    stdout = [line for line in out.getvalue().splitlines()
              if not line.startswith(('  "seed": ', "seed,", '  "wall_time_s": ', "wall_time_s,"))]
    return code, stdout, {path.name: path.read_text() for path in sorted(set(workdir.iterdir()) - before)}


@pytest.mark.parametrize("mode, action", READ_CASES,
                         ids=[f"{' '.join(mode)} {action.option_strings[-1]}" for mode, action in READ_CASES])
def test_each_option_a_run_takes_changes_the_run(mode, action, tmp_path, monkeypatch):
    first, second = (_with(mode, action.option_strings[-1], value) for value in _domain(mode[0], action.dest)[1])
    if _takes(second):  # the mode takes the option (a switch's first value leaves it out)
        assert _takes(first), first
        assert _outcome(first, tmp_path / "a", monkeypatch) != _outcome(second, tmp_path / "b", monkeypatch)


def test_every_option_is_taken_by_some_mode():
    taken = {(mode[0], action.dest) for mode, action in READ_CASES
             if _takes(_with(mode, action.option_strings[-1], _domain(mode[0], action.dest)[1][1]))}
    given = {(mode[0], action.dest) for mode in MODES for action in SUBCOMMANDS[mode[0]]
             if action.nargs == 0 and action.option_strings[-1] in mode}
    assert taken | given == {(command, action.dest) for command, actions in SUBCOMMANDS.items() for action in actions}
