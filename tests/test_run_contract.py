"""Past parsing: generated argvs of the numpy-free subcommands run through `hvlab.cli.main` in process.

`mermin`, `ghz`, `bell`, `chsh` and `hardy` (without --optimize) get directions with components
from 1e-300 to 1e300, p1 and p2 next to 0 and 1, every --eta, boundary --tol values and --format
csv.  Every run ends in one of two ways: exit 0 or 1 with a report whose every claim is finite,
or exit 2 with one line on stderr and nothing on stdout.  No run may warn or raise.
"""

import contextlib
import io
import json
import math
import warnings

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


def _flags(draw, names, values) -> list:
    """All of the named options with drawn values, or none of them."""
    if not draw(st.booleans()):
        return []
    return [f"--{name}={draw(values)}" for name in names]


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(["mermin", "ghz", "bell", "chsh", "hardy"]))
    argv = [command]
    if command == "bell":
        argv += _flags(draw, ("a-dir", "b-dir", "c-dir"), directions) + [f"--eta={draw(etas)}"]
    elif command == "chsh":
        argv += [f"--state={draw(st.sampled_from(['singlet', 'product']))}"]
        argv += _flags(draw, ("a-dir", "a-prime", "b-dir", "b-prime"), directions)
    elif command == "hardy":
        argv += [f"--p1={draw(near_edges)!r}", f"--p2={draw(near_edges)!r}"]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(tols)}")
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv


def _claims(text: str, csv: bool) -> list:
    """Each claim's (value, target, tol) from a printed report."""
    if not csv:
        return [(c["value"], c["target"], c["tol"]) for c in json.loads(text)["claims"]]
    rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
    count = len({name.split(".")[1] for name in rows if name.startswith("claims.")})
    return [tuple(float(rows[f"claims.{i}.{key}"]) for key in ("value", "target", "tol")) for i in range(count)]


@settings(max_examples=300, deadline=None, database=None)
@given(argvs())
def test_run_exits_with_finite_claims_or_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
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
