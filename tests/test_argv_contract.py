"""The argv contract of `hvlab.options.parse`, over generated argv.

Every argv either parses to options inside their domains, with each rule between options kept, or
exits 2 with one line on stderr.  The argv are drawn from each subcommand's declared options, with
boundary values, text, wrong arity and options of other subcommands; they are only parsed, never
run.  This module imports no numpy, so that one test can run the property in a fresh interpreter
and find numpy still unloaded.
"""

import argparse
import contextlib
import io
import math
import os
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


# each option's domain, written out apart from the parser: (subcommand or None for all, dest) -> test
DOMAINS = {
    (None, "seed"): _count(0),
    (None, "tol"): lambda v: type(v) is float and 0.0 <= v <= options.MAX_TOL,  # a claim's width
    ("ks-color", "tol"): lambda v: type(v) is float and 0.0 <= v < math.inf,  # an orthogonality threshold
    (None, "format"): lambda v: v in ("json", "csv"),
    (None, "quiet"): lambda v: type(v) is bool,
    (None, "dim"): lambda v: v in (2, 3, 4),
    ("vn-reconstruct", "trials"): _count(1, options.MAX_VN_TRIALS),
    ("nosignal", "trials"): _count(1, options.MAX_NOSIGNAL_TRIALS),
    ("dispersion", "steps"): _count(2, options.MAX_STEPS),
    ("bell-hv", "samples"): _count(100, options.MAX_BELL_HV_SAMPLES),
    ("wigner", "samples"): _count(1, options.MAX_WIGNER_SAMPLES),
    ("simulate", "samples"): lambda v: v is None or _count(8, 2**63 - 1)(v),
    ("simulate", "seed"): lambda v: v is None or _count(0)(v),
    ("chsh", "restarts"): lambda v: v is None or _count(1, options.MAX_RESTARTS)(v),
    ("hardy", "grid"): lambda v: v is None or _count(10, options.MAX_GRID)(v),
    ("bell-hv", "alpha"): lambda v: type(v) is float and math.isfinite(v),
    ("bell-hv", "beta"): lambda v: _floats(v) and len(v) == 3,
    ("bell-hv", "psi"): lambda v: _floats(v) and len(v) % 2 == 0 and any(v),
    ("bell", "eta"): lambda v: type(v) is tuple and len(v) == 3 and set(v) <= {1, -1},
    **{("hardy", dest): lambda v: v is None or (type(v) is float and 0.0 < v < 1.0) for dest in ("p1", "p2")},
    ("simulate", "visibility"): lambda v: v is None or (type(v) is float and 0.0 <= v <= 1.0),
    **{("jauch-piron", dest): _direction for dest in ("a_dir", "b_dir")},
    **{("bell", dest): lambda v: v is None or _direction(v) for dest in ("a_dir", "b_dir", "c_dir")},
    **{("chsh", dest): lambda v: v is None or _direction(v) for dest in options.CHSH_DIRECTIONS},
}


def _rules_hold(args) -> bool:
    """The rules between options: all directions or none, and each mode's options."""
    if args.command == "bell":
        return len({args.a_dir is None, args.b_dir is None, args.c_dir is None}) == 1
    if args.command == "chsh":
        directions = {getattr(args, dest) is None for dest in options.CHSH_DIRECTIONS}
        if args.optimize:
            return directions == {True} and args.restarts is not None and args.tol is not None
        return len(directions) == 1 and args.restarts is None and args.tol is not None
    if args.command == "hardy":
        if args.optimize:
            return args.p1 is None and args.p2 is None and args.grid is not None and args.tol is not None
        return args.grid is None and None not in (args.p1, args.p2, args.tol)
    if args.command == "simulate":
        flags = [args.source, args.visibility, args.samples, args.seed]
        return flags == [None] * 4 if args.config else None not in flags
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
        domain = DOMAINS.get((argv[0], action.dest), DOMAINS.get((None, action.dest)))
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
    # an option with no domain here takes any text; the library checks it (--source, --state
    # choices) or it names a file (--rays, --dump-rays, --config)
    free = {"source", "state", "rays", "dump_rays", "config", "optimize", "peres"}
    for action in SUBCOMMANDS[command]:
        declared = (command, action.dest) in DOMAINS or (None, action.dest) in DOMAINS
        assert declared or action.dest in free, (command, action.dest)


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
