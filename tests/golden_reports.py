"""The golden report corpus: fixed argvs of every subcommand, and what each prints.

Each case runs as `python -m hvlab ARGV` in a fresh process, in a new directory that holds a copy of
each file of `tests/golden/inputs/`, so an argv names them by their bare names.  Its file under
`tests/golden/` holds the argv, the exit code, stderr and stdout, with the `wall_time_s` line of the
report left out, then each file the run wrote there (`--dump-rays`).

The runs that draw (those that take `--seed`: `vn-reconstruct`, `dispersion`, `bell-hv`, `wigner`,
`nosignal`, `simulate`, `chsh --optimize`) read numpy's random streams, which a numpy release may
change (NEP 19), so the corpus records the numpy version it was written with in
`tests/golden/numpy-version`.  `tests/test_golden.py` compares every case with its file byte for
byte, except a drawing case under another numpy version: that one compares the exit code, stderr,
the verdict and the `inputs`.

Regenerate every file after a deliberate report change, and review the diff:

    python tests/golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
NUMPY_VERSION = GOLDEN / "numpy-version"
SRC = Path(__file__).resolve().parents[1] / "src"

CHSH_SETTINGS = ("--a-dir=0.3,-0.2,0.9", "--a-prime=-0.5,0.8,0.1", "--b-dir=0.7,0.7,-0.1", "--b-prime=0,-1,2")
HUGE_SETTINGS = ("--a-dir=1e200,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1")

# (name, argv): the name is the file's stem
CASES = [
    ("mermin", ["mermin"]),
    ("mermin-tol", ["mermin", "--tol=1e-3"]),
    ("ghz", ["ghz"]),
    ("bell", ["bell"]),  # the README's trine line
    ("bell-eta", ["bell", "--eta=1,-1,1"]),
    ("bell-directions", ["bell", "--a-dir=1,2,3", "--b-dir=-1,0.5,2", "--c-dir=0,0,1", "--eta=-1,1,-1"]),
    ("chsh", ["chsh"]),
    ("chsh-product", ["chsh", "--state=product"]),
    ("chsh-settings", ["chsh", *CHSH_SETTINGS]),
    ("chsh-product-settings", ["chsh", "--state=product", *CHSH_SETTINGS]),
    ("chsh-huge-direction", ["chsh", *HUGE_SETTINGS]),
    ("chsh-tiny-direction", ["chsh", "--a-dir=1e-200,0,0", *HUGE_SETTINGS[1:]]),
    ("hardy", ["hardy"]),
    ("hardy-p1-p2", ["hardy", "--p1=0.3", "--p2=0.8"]),
    ("hardy-near-zero", ["hardy", "--p1=1e-300", "--p2=0.5"]),
    ("hardy-optimize", ["hardy", "--optimize"]),  # the README's line
    ("hardy-optimize-grid", ["hardy", "--optimize", "--grid=40", "--tol=1e-5"]),
    ("jauch-piron", ["jauch-piron"]),
    ("jauch-piron-directions", ["jauch-piron", "--a-dir=1,2,3", "--b-dir=0,1,0"]),
    ("jauch-piron-oblique", ["jauch-piron", "--a-dir=0.3,-0.2,0.9", "--b-dir=-0.5,0.8,0.1"]),
    ("jauch-piron-near-parallel", ["jauch-piron", "--a-dir=1,0,0", "--b-dir=1,1e-3,0"]),
    ("ks-color-peres", ["ks-color", "--peres"]),  # the README's line
    ("ks-color-peres-tol-1", ["ks-color", "--peres", "--tol=1"]),  # every pair orthogonal: FAIL, exit 1
    # a colorable set: the coloring and the canonical rays written back
    ("ks-color-rays", ["ks-color", "--rays=peres-minus-one-rotated.txt", "--dump-rays=dump.txt"]),
    # the drawing subcommands, at fixed seeds and small sizes; 300 trials are a full and a partial block
    ("nosignal", ["nosignal", "--seed=3", "--trials=300"]),
    ("vn-reconstruct-dim-2", ["vn-reconstruct", "--dim=2", "--seed=5"]),
    ("vn-reconstruct-dim-4", ["vn-reconstruct", "--dim=4", "--seed=6", "--trials=4"]),
    ("dispersion-dim-3", ["dispersion", "--dim=3", "--seed=7", "--steps=50"]),
    ("dispersion-dim-4", ["dispersion", "--dim=4", "--seed=8", "--steps=50"]),
    ("bell-hv", ["bell-hv", "--alpha=0.5", "--beta=0.3,-0.4,1.2", "--psi=0.6,0,0,0.8", "--samples=1000",
                 "--seed=9"]),
    ("wigner", ["wigner", "--seed=10", "--samples=200"]),
    ("simulate-singlet", ["simulate", "--visibility=0.9", "--samples=4000", "--seed=11"]),
    ("simulate-lhv", ["simulate", "--source=lhv:sign", "--samples=4000", "--seed=12"]),
    ("chsh-optimize", ["chsh", "--optimize", "--restarts=3", "--seed=13"]),
    # bench/cli_sweep.py's valid argvs at --seed 1, its ray file committed as an input; the four
    # that do not depend on the seed (ks-color --peres, mermin, ghz, hardy --optimize) are cases above
    ("cli-sweep-vn-reconstruct", ["vn-reconstruct", "--dim=4", "--seed=1016164991"]),
    ("cli-sweep-dispersion", ["dispersion", "--dim=4", "--seed=1099128569"]),
    ("cli-sweep-jauch-piron", ["jauch-piron", "--a-dir=0.7918482140228322,0.39041102059734734,-0.4696335176975643",
                               "--b-dir=0.7785526742713855,0.4884356759263698,0.3940638576008009"]),
    ("cli-sweep-bell-hv", ["bell-hv", "--alpha=0.02842224131579679",
                           "--beta=0.5467129866124469,-0.7364540870016669,-0.16290994799305278",
                           "--psi=-0.5854461656240543,0.04823527061460023,0.7271897427974355,-0.3551355006121299",
                           "--seed=1621709875"]),
    ("cli-sweep-ks-color-rays", ["ks-color", "--rays=cli-sweep-seed-1-rays.txt", "--dump-rays=rays-dump.txt"]),
    ("cli-sweep-bell", ["bell", "--a-dir=0.5311368831348725,0.7971927168145042,0.2870146052584823",
                        "--b-dir=-0.6780416591268121,0.6062972398172713,-0.41552757487141345",
                        "--c-dir=0.5293937585660738,-0.6453855611838974,0.5506539074651438", "--eta=-1,-1,1"]),
    ("cli-sweep-chsh-singlet", ["chsh", "--state=singlet",
                                "--a-dir=-0.7484942500707006,0.12900704904817298,0.6504717817914792",
                                "--a-prime=-0.6576034932137375,-0.7414184366669389,0.13362764490719053",
                                "--b-dir=-0.5062050622475878,0.25541345623911904,0.8237234981029153",
                                "--b-prime=-0.7966947735513853,0.12292044870025269,0.5917499481091956"]),
    ("cli-sweep-chsh-product", ["chsh", "--state=product",
                                "--a-dir=-0.25977068725385194,-0.7079222110822473,0.6567840840794512",
                                "--a-prime=0.2552374840563434,0.9022137862259958,-0.34765516057775014",
                                "--b-dir=-0.9551870653466926,-0.07091345906885764,-0.2873829353271742",
                                "--b-prime=0.4269123452594472,0.10661900365920315,-0.8979856555222904"]),
    ("cli-sweep-chsh-optimize-singlet", ["chsh", "--optimize"]),
    ("cli-sweep-chsh-optimize-product", ["chsh", "--optimize", "--state=product"]),
    ("cli-sweep-wigner", ["wigner", "--seed=2041105245"]),
    ("cli-sweep-hardy", ["hardy", "--p1=0.8180238412778827", "--p2=0.08020920566793752"]),
    ("cli-sweep-nosignal", ["nosignal", "--seed=74845286"]),
    ("cli-sweep-simulate-singlet", ["simulate", "--visibility=0.9650975626787112", "--seed=309580411"]),
    ("cli-sweep-simulate-lhv", ["simulate", "--source=lhv:sign", "--seed=309580412"]),
    # each subcommand once as CSV
    *((f"{argv[0]}-csv", [*argv, "--format=csv"]) for argv in (
        ["mermin"], ["ghz"], ["bell"], ["chsh"], ["hardy"], ["jauch-piron"], ["ks-color", "--peres"],
        ["nosignal", "--seed=3", "--trials=300"],
    )),
    # malformed argvs: exit 2 with one line on stderr
    ("bad-chsh-two-settings", ["chsh", "--a-dir=1,0,0", "--b-dir=0,1,0"]),
    ("bad-bell-eta", ["bell", "--eta=1,2,1"]),
    ("bad-mermin-seed", ["mermin", "--seed=7"]),  # a run that draws nothing takes no --seed
    ("bad-chsh-seed-without-optimize", ["chsh", "--seed=5"]),
    ("bad-mermin-tol", ["mermin", "--tol=-1"]),
    ("bad-nosignal-tol-above-limit", ["nosignal", "--tol=1e308"]),
    ("bad-ghz-prefix", ["ghz", "--to", "1e-3"]),
    ("bad-hardy-grid-without-optimize", ["hardy", "--grid=50"]),
    ("bad-chsh-zero-direction", ["chsh", "--a-dir=0,0,0", *HUGE_SETTINGS[1:]]),
    ("bad-jauch-piron-parallel", ["jauch-piron", "--a-dir=1,0,0", "--b-dir=1,1e-9,0"]),
    ("bad-ks-color-nan-ray", ["ks-color", "--rays=nan-ray.txt"]),
    ("bad-ks-color-two-components", ["ks-color", "--rays=two-components.txt"]),
]


def draws(argv: list) -> bool:
    """Whether the run of argv reads a random stream: exactly when it takes a seed, from --seed or
    its default (a `simulate --config` run takes its file's, and the corpus has none)."""
    from hvlab import options

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return options.parse(argv).seed is not None
    except SystemExit:  # an argv error, which exits before any draw
        return False


def render(argv: list) -> str:
    """The case file's text for argv, run now in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryDirectory() as workdir:
        for path in INPUTS.iterdir():
            shutil.copy(path, workdir)
        proc = subprocess.run([sys.executable, "-m", "hvlab", *argv], capture_output=True, text=True, env=env,
                              cwd=workdir, timeout=300)
        written = sorted(path for path in Path(workdir).iterdir() if not (INPUTS / path.name).exists())
        files = "".join(f"--- file {path.name}\n{path.read_text()}" for path in written)
    stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                     if not line.startswith(('  "wall_time_s": ', "wall_time_s,")))
    return f"$ hvlab {shlex.join(argv)}\nexit {proc.returncode}\n--- stderr\n{proc.stderr}--- stdout\n{stdout}{files}"


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {GOLDEN / f"{name}.txt" for name, _ in CASES}:
        stale.unlink()
    for name, argv in CASES:
        (GOLDEN / f"{name}.txt").write_text(render(argv))
    NUMPY_VERSION.write_text(version("numpy") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
