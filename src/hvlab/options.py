"""Command-line front end: every verification as a subcommand.

Reports are JSON (canonical) or CSV (flat name,value projection) on stdout.
Each report carries the inputs, the computed numbers, and a list of claims
whose pass/fail is recomputable from the numbers in the same report.  Exit
codes: 0 all claims pass, 1 a declared bound or claim failed, 2 input error.
All numbers are printed with 9 significant digits; for a fixed argv the
JSON output is byte-identical apart from wall_time_s.  Every subcommand
takes --format and --quiet; --seed, --tol and --samples belong only to the
runs that read them (--seed to those that draw), each with its own default;
an option a run does not take exits 2.
"""

# This module holds the parser and every check that reads only argv, and imports no numpy:
# an argv error exits 2 with one line on stderr, `<subcommand>: <message>`, before any numeric
# module loads, and only a valid argv imports `hvlab.cli` to run.  Each option's domain is its
# argparse `type`, so a bad value reads `<subcommand>: argument --opt: <problem>`; a rule between
# options is a subcommand's `check`.  The handlers there normalize and compute.

from __future__ import annotations

import argparse
import math

from . import __version__

EPILOG = (
    "An input error exits 2 with one line on stderr before any computation runs. "
    "Options must be spelled in full: --tol, not --to. "
    "A value that starts with '-' must be given as --opt=VALUE, for example --beta=-1,0,0."
)

# Accepted sizes, read by the options and by the library functions that take them.  The smallest:
# the dispersion scan's two endpoints, one CHSH restart, a 10 x 10 Hardy grid to zoom from, 100
# bell-hv samples, and 1 for any other count (no run passes on no evidence).  The largest bound
# memory (dispersion holds every step's state, chsh --optimize four settings per restart, hardy
# --optimize each grid axis and grid^2 points), or, for the sample and trial counts, time: each is
# about a minute's run on one core (2-core VM, Python 3.11, numpy 2.4).
MIN_STEPS, MAX_STEPS = 2, 10**6
MIN_RESTARTS, MAX_RESTARTS = 1, 10**5
MIN_GRID, MAX_GRID = 10, 10**4
MIN_BELL_HV_SAMPLES, MAX_BELL_HV_SAMPLES = 100, 10**10
MAX_WIGNER_SAMPLES = 3 * 10**8
MAX_NOSIGNAL_TRIALS = 4 * 10**6
MAX_VN_TRIALS = 2 * 10**5
# `ks-color --rays`: the ray count bounds the n(n - 1)/2 pair tests in time (2 x 10^4 rays, about half a
# minute), and the pair and triad counts bound the structure and the search in memory (10^5 triads,
# about 40 MB); each is checked as the rays, pairs or triads are read or found.
MAX_RAYS = 2 * 10**4
MAX_ORTHOGONAL_PAIRS = MAX_TRIADS = 10**5

# The widest claim a --tol may set, on every subcommand whose --tol is a claim's width (`ks-color
# --tol` is an orthogonality threshold, with no upper limit).  Every claim compares numbers of order
# one (correlators, probabilities, S up to 2 sqrt 2, entries of unit-trace or +-1-valued matrices), so
# a width of 1e-3 still fails a number wrong in its third digit, where a width of 1 or more passes
# almost any number; the widest pinned value is `mermin --tol=1e-3`.
MAX_TOL = 1e-3

# A campaign's pair count, `simulate --samples` here and `n_pairs` in `simlab`.
MIN_PAIRS = 8  # two samples per setting pair, as the ddof=1 standard error needs
MAX_PAIRS = 2**63 - 1  # the binomial draw takes its counts as int64

CHSH_DIRECTIONS = ("a_dir", "a_prime", "b_dir", "b_prime")


def check_n_pairs(n_pairs: int) -> None:
    import numbers  # here, not at the top: argv parsing never needs it

    if not isinstance(n_pairs, numbers.Integral):  # numpy's own message would not name n_pairs
        raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
    if n_pairs < MIN_PAIRS:
        raise ValueError(f"n_pairs must be at least {MIN_PAIRS} (two per setting pair), got {n_pairs}")
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"n_pairs must be at most 2**63 - 1, got {n_pairs}")


# option types: each takes the option's text and returns its value, or raises
# ArgumentTypeError, which argparse prefixes with `argument --opt: `


def _count(low: int, high: float = math.inf):
    """The type of an integer in [low, high]: a size, a count or a seed."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # int()'s own message names neither the option nor its text
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # float()'s own message names neither the option nor its text
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _inside_unit(text: str) -> float:
    """A number strictly inside (0, 1): a Hardy parameter."""
    value = _finite(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly inside (0, 1), got {text!r}")
    return value


def _unit_interval(text: str) -> float:
    """A number in [0, 1]: a visibility."""
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _tol(high: float = math.inf):
    """The type of a tolerance in [0, high]."""

    def tol(text: str) -> float:
        value = _finite(text)
        if value < 0.0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high:g}, got {text!r}")
        return value

    return tol


def _components(text: str) -> list[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:  # float()'s own message names neither the option nor its text
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"components must be finite, got {text!r}")
    return parts


def _vec3(text: str) -> list[float]:
    parts = _components(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects three comma-separated components, got {text!r}")
    return parts


def _nonzero(parts: list[float], text: str) -> list[float]:
    if not any(parts):
        raise argparse.ArgumentTypeError(f"cannot be the zero vector, got {text!r}")
    return parts


def _direction(text: str) -> list[float]:
    """A finite nonzero 3-vector; the handler normalizes it."""
    return _nonzero(_vec3(text), text)


def _psi(text: str) -> list[float]:
    parts = _components(text)
    if len(parts) % 2 != 0:
        raise argparse.ArgumentTypeError(f"must be re,im pairs, got {text!r}")
    return _nonzero(parts, text)


def _eta(text: str) -> tuple:
    try:
        etas = tuple(int(e) for e in text.split(","))
    except ValueError:  # int()'s own message names neither the option nor its value
        etas = ()
    if len(etas) != 3 or not set(etas) <= {1, -1}:
        raise argparse.ArgumentTypeError(f"must be three comma-separated values of +-1, got {text!r}")
    return etas


# rules between options, each run on the parsed options and raising ValueError


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _all_or_none(args, *dests: str) -> None:
    """All of the named direction options or none of them."""
    given = [getattr(args, dest) is not None for dest in dests]
    if any(given) and not all(given):
        raise ValueError(f"provide all of {', '.join(map(_option, dests))} or none")


def _mode_options(args, mode: str, defaults: dict, unused=()) -> None:
    """Reject the options `mode` does not read (given ones are not None); default the rest."""
    for dest in unused:
        if getattr(args, dest) is not None:
            raise ValueError(f"{_option(dest)} has no effect {mode}")
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _check_chsh(args) -> None:
    if args.optimize:
        _mode_options(args, "with --optimize", {"restarts": 20, "tol": 1e-6, "seed": 0}, CHSH_DIRECTIONS)
    else:
        _mode_options(args, "without --optimize", {"tol": 1e-10}, ("restarts", "seed"))
        _all_or_none(args, *CHSH_DIRECTIONS)


def _check_hardy(args) -> None:
    if args.optimize:
        _mode_options(args, "with --optimize", {"grid": 100, "tol": 1e-6}, ("p1", "p2"))
    else:
        _mode_options(args, "without --optimize", {"p1": 0.5, "p2": 0.5, "tol": 1e-10}, ("grid",))


def _one_line(message: str) -> str:
    """message with each unprintable character escaped: argparse quotes some argv text, not all."""
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in message)


class _Parser(argparse.ArgumentParser):
    """argparse's errors as one line, `<subcommand>: <message>` (`hvlab: ...` before one); no abbreviations."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.prog.rsplit(' ', 1)[-1]}: {_one_line(message)}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser, its limits read from this module's constants when it is built."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true")
    common.set_defaults(check=lambda args: None, seed=None)  # types check domains; seed None: no draw

    parser = _Parser(prog="hvlab", description=__doc__, epilog=EPILOG)
    parser.add_argument("--version", action="version", version=f"hvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vn-reconstruct", parents=[common], help="rebuild density operators from expectation oracles")
    p.add_argument("--dim", type=int, choices=(2, 3, 4), default=3)
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    p.add_argument("--trials", type=_count(1, MAX_VN_TRIALS), default=10, help=f"default 10, 1 to {MAX_VN_TRIALS}")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-10, help=f"default 1e-10, 0 to {MAX_TOL:g}")

    p = sub.add_parser("dispersion", parents=[common], help="scan <phi|rho|phi> along a rotation arc and exhibit a witness")
    p.add_argument("--dim", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    p.add_argument("--steps", type=_count(MIN_STEPS, MAX_STEPS), default=1000,
                   help=f"default 1000, {MIN_STEPS} to {MAX_STEPS}")

    p = sub.add_parser("jauch-piron", parents=[common], help="projector-intersection contradiction for two directions")
    p.add_argument("--a-dir", type=_direction, default="0,0,1")
    p.add_argument("--b-dir", type=_direction, default="1,0,0")

    p = sub.add_parser("bell-hv", parents=[common], help="spin-1/2 hidden-variable model: exact and Monte Carlo averages")
    p.add_argument("--alpha", type=_finite, default="0.0")
    p.add_argument("--beta", type=_vec3, default="1,1,0")
    p.add_argument("--psi", type=_psi, default="1,0,0,0", help="state as re,im pairs")
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    p.add_argument("--samples", type=_count(MIN_BELL_HV_SAMPLES, MAX_BELL_HV_SAMPLES), default=10**6,
                   help=f"default 10^6, {MIN_BELL_HV_SAMPLES} to {MAX_BELL_HV_SAMPLES}")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-10, help=f"default 1e-10, 0 to {MAX_TOL:g}")

    p = sub.add_parser("ks-color", parents=[common], help="Kochen-Specker colorability search")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--peres", action="store_true")
    group.add_argument("--rays", metavar="FILE", help=f"one ray per line, at most {MAX_RAYS} rays, "
                       f"{MAX_ORTHOGONAL_PAIRS} orthogonal pairs and {MAX_TRIADS} triads")
    p.add_argument("--dump-rays", metavar="FILE", default=None, help="write the canonical ray set to FILE")
    p.add_argument("--tol", type=_tol(), default=1e-9, help="default 1e-9, at least 0; a threshold, not a claim width")

    p = sub.add_parser("mermin", parents=[common], help="two-qubit operator square and 512-assignment search")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-12, help=f"default 1e-12, 0 to {MAX_TOL:g}")

    p = sub.add_parser("bell", parents=[common], help="original three-correlator inequality")
    for flag in ("--a-dir", "--b-dir", "--c-dir"):
        p.add_argument(flag, type=_direction, default=None)
    p.add_argument("--eta", type=_eta, default="1,1,1")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-10, help=f"default 1e-10, 0 to {MAX_TOL:g}")
    p.set_defaults(check=lambda args: _all_or_none(args, "a_dir", "b_dir", "c_dir"))

    p = sub.add_parser("chsh", parents=[common], help="CHSH value or optimization over settings")
    p.add_argument("--state", choices=("singlet", "product"), default="singlet")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--restarts", type=_count(MIN_RESTARTS, MAX_RESTARTS), default=None,
                   help=f"default 20, {MIN_RESTARTS} to {MAX_RESTARTS}; only with --optimize")
    p.add_argument("--seed", type=_count(0), default=None, help="default 0, at least 0; only with --optimize")
    for flag in ("--a-dir", "--a-prime", "--b-dir", "--b-prime"):
        p.add_argument(flag, type=_direction, default=None, help="not with --optimize")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=None,
                   help=f"default 1e-6 with --optimize, else 1e-10; 0 to {MAX_TOL:g}")
    p.set_defaults(check=_check_chsh)

    p = sub.add_parser("wigner", parents=[common], help="joint-weight correlators and the CHSH bound")
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    p.add_argument("--samples", type=_count(1, MAX_WIGNER_SAMPLES), default=10**4,
                   help=f"default 10^4, 1 to {MAX_WIGNER_SAMPLES}")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-12, help=f"default 1e-12, 0 to {MAX_TOL:g}")

    p = sub.add_parser("ghz", parents=[common], help="three-qubit parity identities and 64-assignment search")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-12, help=f"default 1e-12, 0 to {MAX_TOL:g}")

    p = sub.add_parser("hardy", parents=[common], help="Hardy state construction or probability maximization")
    p.add_argument("--p1", type=_inside_unit, default=None, help="default 0.5, inside (0, 1); not with --optimize")
    p.add_argument("--p2", type=_inside_unit, default=None, help="default 0.5, inside (0, 1); not with --optimize")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--grid", type=_count(MIN_GRID, MAX_GRID), default=None,
                   help=f"default 100, {MIN_GRID} to {MAX_GRID}; only with --optimize")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=None,
                   help=f"default 1e-6 with --optimize, else 1e-10; 0 to {MAX_TOL:g}")
    p.set_defaults(check=_check_hardy)

    p = sub.add_parser("nosignal", parents=[common], help="remote measurement leaves expectations unchanged")
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    p.add_argument("--trials", type=_count(1, MAX_NOSIGNAL_TRIALS), default=1000,
                   help=f"default 1000, 1 to {MAX_NOSIGNAL_TRIALS}")
    p.add_argument("--tol", type=_tol(MAX_TOL), default=1e-12, help=f"default 1e-12, 0 to {MAX_TOL:g}")

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo correlation experiment")
    p.add_argument("--source", default="singlet", help="default singlet, or lhv:<strategy>")
    p.add_argument("--visibility", type=_unit_interval, default=1.0, help="default 1.0, 0 to 1")
    p.add_argument("--samples", type=_count(MIN_PAIRS, MAX_PAIRS), default=10**6,
                   help=f"default 10^6, {MIN_PAIRS} to 2^63 - 1")
    p.add_argument("--seed", type=_count(0), default=0, help="default 0, at least 0")
    for flag in ("--a-dir", "--a-prime", "--b-dir", "--b-prime"):
        p.add_argument(flag, type=_direction, default=None)
    p.set_defaults(check=lambda args: _all_or_none(args, *CHSH_DIRECTIONS))

    return parser


def parse(argv=None) -> argparse.Namespace:
    """The checked options of argv; SystemExit (2, after one line on stderr) if no run can take them."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        args.check(args)
    except ValueError as exc:
        parser.exit(2, f"{args.command}: {_one_line(str(exc))}\n")
    return args


def main(argv=None) -> int:
    """The console script and `python -m hvlab`: check argv, then load the library and run it."""
    try:
        args = parse(argv)
    except SystemExit as exc:  # an input error, --help or --version
        return int(exc.code) if exc.code is not None else 0
    from .cli import run

    return run(args)
