"""Past parsing: generated argvs run through `hvlab.cli.main` in process.

`mermin`, `ghz`, `bell`, `chsh` and `hardy` (without --optimize) get directions with components
from 1e-300 to 1e300, p1 and p2 next to 0 and 1, every --eta, boundary --tol values and --format
csv.  `jauch-piron` gets such directions and pairs next to parallel and antiparallel, on both sides
of its guard; `ks-color` gets `--peres` or small ray files (zero, NaN, infinite and 1e+-300
components, lines of the wrong arity, `#` comments, blank lines), with and without `--dump-rays`.
The numpy subcommands `nosignal`, `vn-reconstruct`, `dispersion`, `wigner` and `bell-hv` get sizes
near their least, any seed, every --dim, and `bell-hv` values, directions and states with components
from 1e-300 to 1e300.
Every run ends in one of two ways: exit 0 or 1 with a report that makes at least one claim, every
claim finite, or exit 2 with one line on stderr and nothing on stdout.  No run may warn or raise.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hvlab import cli  # noqa: E402

components = st.just(0.0) | st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((1.0, -1.0)), st.floats(1.0, 9.999), st.integers(-300, 299),
)
directions = st.lists(components, min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v)))
near_edges = st.sampled_from(
    [5e-324, 1e-320, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, math.nextafter(1.0, 0.0), 0.0, 1.0]
) | st.floats(0.0, 1.0)
tols = st.sampled_from(["0", "5e-324", "1e-300", "1e-12", "1e-10", "1", "1e300"])
etas = st.lists(st.sampled_from(("1", "-1")), min_size=3, max_size=3).map(",".join)

# mostly rays of small integer components, many of them orthogonal, or of floats in [-10, 10]; now and
# then a line that is a comment, blank, of the wrong arity, or with a component that is NaN, infinite or
# from 1e-300 to 1e300 (a squared length that overflows or underflows is rejected)
rays = st.lists(st.integers(-2, 2).map(float) | st.floats(-10.0, 10.0), min_size=3, max_size=3).map(
    lambda v: " ".join(map(repr, v))
)
bad_components = components.map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e-300", "5e-324"])
odd_lines = st.lists(bad_components, min_size=1, max_size=4).map(" ".join) | st.sampled_from(["", "# a comment"])
ray_lines = st.tuples(st.one_of(rays, rays, rays, rays, odd_lines), st.sampled_from(["", "  # a comment"]))
ray_files = st.lists(ray_lines.map("".join), max_size=8).map(lambda lines: "".join(f"{line}\n" for line in lines))


@st.composite
def direction_pairs(draw) -> list:
    """--a-dir and --b-dir: two drawn directions, or b next to a or -a, one component moved by 1e-16 to 1e-2
    of the largest."""
    a = draw(st.lists(components, min_size=3, max_size=3))
    if draw(st.booleans()):
        b = draw(directions)
    else:
        moved = [draw(st.sampled_from((1.0, -1.0))) * x for x in a]
        moved[draw(st.integers(0, 2))] += 10.0 ** draw(st.integers(-16, -2)) * max(map(abs, a))
        b = ",".join(map(repr, moved))
    return [f"--a-dir={','.join(map(repr, a))}", f"--b-dir={b}"]


def _flags(draw, names, values) -> list:
    """All of the named options with drawn values, or none of them."""
    if not draw(st.booleans()):
        return []
    return [f"--{name}={draw(values)}" for name in names]


@st.composite
def argvs(draw) -> tuple:
    """(argv, ray file text or None); `{dir}` in argv stands for a directory that holds the ray file as rays.txt."""
    command = draw(st.sampled_from(["mermin", "ghz", "bell", "chsh", "hardy", "jauch-piron", "ks-color"]))
    argv, ray_file = [command], None
    if command == "bell":
        argv += _flags(draw, ("a-dir", "b-dir", "c-dir"), directions) + [f"--eta={draw(etas)}"]
    elif command == "chsh":
        argv += [f"--state={draw(st.sampled_from(['singlet', 'product']))}"]
        argv += _flags(draw, ("a-dir", "a-prime", "b-dir", "b-prime"), directions)
    elif command == "hardy":
        argv += [f"--p1={draw(near_edges)!r}", f"--p2={draw(near_edges)!r}"]
    elif command == "jauch-piron":
        argv += draw(direction_pairs()) if draw(st.booleans()) else []
    elif command == "ks-color":
        if draw(st.booleans()):
            argv.append("--peres")
        else:
            ray_file = draw(ray_files)
            argv.append("--rays={dir}/rays.txt")
        if draw(st.booleans()):
            argv.append("--dump-rays={dir}/dump.txt")
    if command != "jauch-piron" and draw(st.booleans()):
        argv.append(f"--tol={draw(tols)}")
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv, ray_file


def _claims(text: str, csv: bool) -> list:
    """Each claim's (value, target, tol) from a printed report."""
    if not csv:
        return [(c["value"], c["target"], c["tol"]) for c in json.loads(text)["claims"]]
    rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
    count = len({name.split(".")[1] for name in rows if name.startswith("claims.")})
    return [tuple(float(rows[f"claims.{i}.{key}"]) for key in ("value", "target", "tol")) for i in range(count)]


@st.composite
def numpy_argvs(draw) -> tuple:
    """(argv, None) of a numpy subcommand, sizes near their least."""
    command = draw(st.sampled_from(["nosignal", "vn-reconstruct", "dispersion", "wigner", "bell-hv"]))
    argv = [command, f"--seed={draw(st.integers(0, 2**32))}"]
    if command in ("vn-reconstruct", "dispersion"):
        argv.append(f"--dim={draw(st.sampled_from([2, 3, 4]))}")
    if command == "nosignal":
        argv.append(f"--trials={draw(st.integers(1, 3) | st.sampled_from([255, 256, 257]))}")
    elif command == "vn-reconstruct":
        argv.append(f"--trials={draw(st.integers(1, 3))}")
    elif command == "dispersion":
        argv.append(f"--steps={draw(st.integers(2, 5))}")
    elif command == "wigner":
        argv.append(f"--samples={draw(st.integers(1, 5))}")
    else:
        qubit = st.lists(components, min_size=4, max_size=4)  # re,im pairs
        psi = st.one_of(qubit, qubit, qubit, st.lists(components, min_size=2, max_size=8))
        argv += [f"--alpha={draw(components)!r}", f"--beta={draw(directions)}", f"--samples={draw(st.integers(100, 110))}"]
        argv.append(f"--psi={','.join(map(repr, draw(psi)))}")
    if command != "dispersion" and draw(st.booleans()):
        argv.append(f"--tol={draw(tols)}")
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv, None


def _check_run(template, ray_file):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        if ray_file is not None:
            Path(workdir, "rays.txt").write_text(ray_file)
        argv = [arg.replace("{dir}", workdir) for arg in template]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert err.getvalue().startswith(f"{argv[0]}: ") and err.getvalue().endswith("\n"), (argv, err.getvalue())
        return
    assert code in (0, 1) and err.getvalue() == "", (argv, code, err.getvalue())
    claims = _claims(out.getvalue(), "--format=csv" in argv)
    assert all(math.isfinite(x) for claim in claims for x in claim), (argv, claims)
    # An uncolorable ray file is the one run with no claim: its verdict is the search's alone, with no
    # certificate that a claim could check (ROADMAP, Kochen-Specker UNSAT certificates).
    uncolored = {'    "satisfiable": false,', "outputs.satisfiable,false"} & set(out.getvalue().splitlines())
    assert claims or (uncolored and "--peres" not in argv), (argv, out.getvalue())


@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
def test_run_exits_with_finite_claims_or_one_line(case):
    _check_run(*case)


@settings(max_examples=300, deadline=None, database=None)
@given(numpy_argvs())
def test_numpy_run_exits_with_finite_claims_or_one_line(case):
    _check_run(*case)
