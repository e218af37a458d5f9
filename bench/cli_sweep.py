"""cli-sweep: every hvlab subcommand as a user runs it, one fresh process each.

A round runs all 13 subcommands with seeded arguments (the three
`--optimize` runs included), checks each report against independent
computations, and then runs five malformed invocations whose correct
outcome is exit 2 with a one-line message.  Four of those fail on the
current program and are counted as failed operations.

With tracing, each valid argv also runs in process through `hvlab.cli.main`,
untraced and then with the library functions the handlers call wrapped in
spans; the in-process report must equal the fresh-process one.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import oracle as orc
from timing import Timer, Tracer, run_child

OPTIMIZE_LABELS = ("chsh-optimize-singlet", "chsh-optimize-product", "hardy-optimize")
SUBCOMMANDS = ("vn-reconstruct", "dispersion", "jauch-piron", "bell-hv", "ks-color", "mermin", "bell",
               "chsh", "wigner", "ghz", "hardy", "nosignal", "simulate")
TOL = 1e-8  # reports carry 9 significant digits


def _close(x, want, tol=TOL):
    return abs(x - want) <= tol * max(1.0, abs(want))


class Op(NamedTuple):
    """One invocation: its argv, and a check of its report (None: must exit 2)."""

    label: str
    argv: list
    check: Callable | None = None


class CliSweep:
    scaled = True  # interpreter start, imports and Python loops, like the probe

    def __init__(self, workdir, env, seed, trace):
        self.workdir = Path(workdir)
        self.env = env
        self.seed = seed
        self.trace = trace

    # ------------------------------------------------------------------ inputs

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]
        ops = []

        dim = int(rng.integers(2, 5))
        ops.append(Op("vn-reconstruct", ["vn-reconstruct", f"--dim={dim}", f"--seed={seeds[0]}"],
                      self._check_vn))
        ops.append(Op("dispersion", ["dispersion", f"--dim={int(rng.integers(2, 5))}", f"--seed={seeds[1]}"],
                      self._check_dispersion))
        a, b = orc.unit_vectors(rng, 2)
        ops.append(Op("jauch-piron", ["jauch-piron", f"--a-dir={orc.vec_arg(a)}", f"--b-dir={orc.vec_arg(b)}"],
                      partial(self._check_jauch, a=a, b=b)))
        alpha, beta, psi = float(rng.normal()), rng.normal(size=3), orc.pure_states(rng, 1, 2)[0]
        psi_arg = orc.vec_arg(np.column_stack([psi.real, psi.imag]).ravel())
        ops.append(Op("bell-hv", ["bell-hv", f"--alpha={alpha!r}", f"--beta={orc.vec_arg(beta)}",
                                  f"--psi={psi_arg}", f"--seed={seeds[2]}"],
                      partial(self._check_bell_hv, alpha=alpha, beta=beta, psi=psi)))
        ops.append(Op("ks-color-peres", ["ks-color", "--peres"], self._check_ks_peres))
        rays = orc.peres_rays() @ orc.rotation(rng).T
        rays = np.delete(rays[rng.permutation(len(rays))], int(rng.integers(len(rays))), axis=0)
        ray_file, dump_file = self.workdir / "rays.txt", self.workdir / "rays-dump.txt"
        ray_file.write_text("".join(" ".join(repr(float(x)) for x in ray) + "\n" for ray in rays))
        ops.append(Op("ks-color-rays", ["ks-color", f"--rays={ray_file}", f"--dump-rays={dump_file}"],
                      partial(self._check_ks_rays, rays=rays, dump_file=dump_file)))
        ops.append(Op("mermin", ["mermin"], self._check_mermin))
        dirs, etas = orc.unit_vectors(rng, 3), [int(e) for e in rng.choice((1, -1), size=3)]
        ops.append(Op("bell", ["bell", *(f"--{n}-dir={orc.vec_arg(d)}" for n, d in zip("abc", dirs)),
                               f"--eta={','.join(map(str, etas))}"],
                      partial(self._check_bell, dirs=dirs, etas=etas)))
        for state, psi in (("singlet", orc.SINGLET), ("product", orc.PRODUCT_00)):
            settings = orc.unit_vectors(rng, 4)
            flags = [f"--{n}={orc.vec_arg(v)}" for n, v in zip(("a-dir", "a-prime", "b-dir", "b-prime"), settings)]
            ops.append(Op(f"chsh-{state}", ["chsh", f"--state={state}", *flags],
                          partial(self._check_chsh, psi=psi, settings=settings)))
        # The optimizer keeps its default seed: with some seeds it misses the
        # maximum (seed 1228853484 gives S* = 2.35 on the singlet), a fault
        # that a seeded argument would turn into failures on some seeds only.
        ops.append(Op("chsh-optimize-singlet", ["chsh", "--optimize"],
                      partial(self._check_chsh_optimize, psi=orc.SINGLET)))
        ops.append(Op("chsh-optimize-product", ["chsh", "--optimize", "--state=product"],
                      partial(self._check_chsh_optimize, psi=orc.PRODUCT_00)))
        ops.append(Op("wigner", ["wigner", f"--seed={seeds[3]}"], self._check_wigner))
        ops.append(Op("ghz", ["ghz"], self._check_ghz))
        p1, p2 = (float(p) for p in rng.uniform(0.02, 0.98, size=2))
        ops.append(Op("hardy", ["hardy", f"--p1={p1!r}", f"--p2={p2!r}"],
                      partial(self._check_hardy, p1=p1, p2=p2)))
        ops.append(Op("hardy-optimize", ["hardy", "--optimize"], self._check_hardy_optimize))
        ops.append(Op("nosignal", ["nosignal", f"--seed={seeds[4]}"], self._check_nosignal))
        visibility = float(rng.uniform(0.8, 1.0))
        ops.append(Op("simulate-singlet", ["simulate", f"--visibility={visibility!r}", f"--seed={seeds[5]}"],
                      partial(self._check_simulate, visibility=visibility)))
        ops.append(Op("simulate-lhv", ["simulate", "--source=lhv:sign", f"--seed={seeds[5] + 1}"],
                      partial(self._check_simulate, visibility=None)))

        # Malformed invocations: fixed, independent of the seed.
        nan_file = self.workdir / "rays-nan.txt"
        nan_file.write_text("nan 0 0\n1 0 0\n0 1 0\n")
        ops += [
            Op("bad-simulate-samples-3", ["simulate", "--samples=3"]),
            Op("bad-chsh-nan-setting", ["chsh", "--a-dir=nan,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0",
                                        "--b-prime=0,0,1"]),
            Op("bad-ks-color-nan-ray", ["ks-color", f"--rays={nan_file}"]),
            Op("bad-wigner-samples-0", ["wigner", "--samples=0"]),
            Op("bad-chsh-two-settings", ["chsh", "--a-dir=1,0,0", "--b-dir=0,1,0"]),
        ]
        self.ops = ops

    # ------------------------------------------------------------------ rounds

    def run_round(self, checks):
        timer = Timer()
        peak, failed = 0.0, 0
        fresh = {}
        counters = {"invocations": 0, "claims": 0, "ks_nodes": 0, "pairs": 0}
        for op in self.ops:
            timer.begin(op.label)
            child = run_child([sys.executable, "-m", "hvlab", *op.argv], self.workdir, self.env)
            timer.add(child.seconds)
            peak = max(peak, child.peak_rss_mb)
            counters["invocations"] += 1
            if op.check is None:
                lines = child.stderr.strip().splitlines()
                if not (child.returncode == 2 and len(lines) == 1 and "Traceback" not in child.stderr
                        and not child.stdout.strip()):
                    failed += 1
                continue
            try:
                report = json.loads(child.stdout)
            except ValueError:
                failed += 1
                print(f"{op.label}: exit {child.returncode}, no report: {child.stderr[-300:]}", file=sys.stderr)
                continue
            fresh[op.label] = child.stdout
            counters["claims"] += len(report["claims"])
            counters["ks_nodes"] += report["outputs"].get("nodes_explored", 0)
            counters["pairs"] += report["inputs"].get("n_pairs", 0)
            self._check_claims(report, child.returncode, checks, op.label)
            op.check(report, checks)
        timer.begin()

        result = {
            "timer": timer,
            "attempted": len(self.ops),
            "failed": failed,
            "counters": counters,
            "peak_rss_mb": peak,
        }
        if self.trace:
            result.update(self._in_process(checks, fresh, timer.parts))
        return result

    def _in_process(self, checks, fresh, fresh_seconds):
        import hvlab.cli

        valid = [op for op in self.ops if op.check is not None]
        timer = self._run_in_process(Timer(), valid, checks, fresh)
        tracer = Tracer()
        library = {
            name: fn for name, fn in vars(hvlab.cli).items()
            if inspect.isfunction(fn) and fn.__module__.startswith("hvlab.") and fn.__module__ != "hvlab.cli"
        }
        for name, fn in library.items():
            setattr(hvlab.cli, name, self._traced(tracer, fn))
        try:
            self._run_in_process(tracer, valid, checks, fresh)
        finally:
            for name, fn in library.items():
                setattr(hvlab.cli, name, fn)
        extras = {
            f"cli.{sub}.s": timer.parts[sub] / sum(op.argv[0] == sub for op in valid) for sub in SUBCOMMANDS
        }
        extras["cli.startup_s"] = (sum(fresh_seconds[op.label] for op in valid) - timer.wall) / len(valid)
        extras["cli.invocations"] = len(self.ops)
        extras["optimize_s"] = sum(fresh_seconds[label] for label in OPTIMIZE_LABELS)
        return {"compare": (timer, tracer), "spans": tracer.spans, "extras": extras}

    @staticmethod
    def _traced(tracer, fn):
        layer = fn.__module__.split(".", 1)[1]
        if fn.__name__ == "simulate_chsh":
            def traced(config):
                source = "lhv" if config.source.startswith("lhv:") else "singlet"
                return tracer.call(f"simlab.simulate_chsh.{source}", fn, config)
            return traced
        return tracer.wrap(f"{layer}.{fn.__name__}", fn)

    def _run_in_process(self, t, ops, checks, fresh):
        import hvlab.cli

        for op in ops:
            out = io.StringIO()
            t.begin(op.argv[0])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t.call(f"cli.{op.argv[0]}", hvlab.cli.main, op.argv)
            if op.label in fresh:
                checks(_without_wall_time(out.getvalue()) == _without_wall_time(fresh[op.label]),
                       f"{op.label}: in-process report differs from the fresh-process one")
        t.begin()
        return t

    # ------------------------------------------------------------------ checks

    @staticmethod
    def _check_claims(report, returncode, checks, label):
        recomputed = [orc.claim_holds(c) for c in report["claims"]]
        checks(all(ok == c["pass"] for ok, c in zip(recomputed, report["claims"])),
               f"{label}: a claim's pass does not follow from its numbers")
        checks(report["verdict"] == "PASS" and all(recomputed) and returncode == 0,
               f"{label}: verdict {report['verdict']}, exit {returncode}")

    @staticmethod
    def _check_vn(r, checks):
        o = r["outputs"]
        checks(o["max_reconstruction_error"] <= 1e-10, "vn-reconstruct: reconstruction error")
        checks(0.01 < o["witness_value_min"] <= o["witness_value_max"] < 0.99, "vn-reconstruct: witness range")

    @staticmethod
    def _check_dispersion(r, checks):
        o = r["outputs"]
        checks(o["endpoint_deviation"] <= 1e-12 and o["max_adjacent_jump"] <= o["jump_bound"]
               and 0.01 < o["witness_value"] < 0.99
               and -1e-12 <= o["value_min"] <= o["value_max"] <= 1 + 1e-12, "dispersion outputs")

    @staticmethod
    def _check_jauch(r, checks, a, b):
        o = r["outputs"]
        checks(np.allclose(r["inputs"]["a"], a, atol=TOL) and np.allclose(r["inputs"]["b"], b, atol=TOL),
               "jauch-piron: directions not echoed")
        checks(o["completeness_deviation"] <= 1e-10 and o["cross_ranks"] == [0, 0, 0, 0],
               "jauch-piron: intersections")

    @staticmethod
    def _check_bell_hv(r, checks, alpha, beta, psi):
        o = r["outputs"]
        m = orc.qubit_expectation(beta, psi)
        norm = float(np.linalg.norm(beta))
        n = r["inputs"]["n_samples"]
        sigma = math.sqrt(max(norm**2 - m**2, 0.0) / n)
        checks(_close(o["exact_average"], alpha + m), "bell-hv: exact average != alpha + <psi|beta.sigma|psi>")
        checks(_close(o["eigenvalues"][0], alpha + norm) and _close(o["eigenvalues"][1], alpha - norm),
               "bell-hv: eigenvalues != alpha +- |beta|")
        checks(abs(o["mc_estimate"] - (alpha + m)) <= 5 * sigma + TOL, "bell-hv: MC estimate beyond 5 sigma")

    @staticmethod
    def _check_ks_peres(r, checks):
        pairs, triads = orc.orthogonality(orc.peres_rays())
        o = r["outputs"]
        checks(o["n_rays"] == 33 and o["n_orthogonal_pairs"] == len(pairs) and o["n_triads"] == len(triads),
               "ks-color --peres: structure")
        checks(o["satisfiable"] is False, "ks-color --peres: the 33 rays were colored")

    @staticmethod
    def _check_ks_rays(r, checks, rays, dump_file):
        pairs, triads = orc.orthogonality(rays)
        o = r["outputs"]
        checks(o["n_rays"] == len(rays) and o["n_orthogonal_pairs"] == len(pairs)
               and o["n_triads"] == len(triads), "ks-color --rays: structure")
        checks(o["satisfiable"] is True and orc.coloring_valid(pairs, triads, o["coloring"]),
               "ks-color --rays: one-ray deletion not colored validly")
        dumped = np.loadtxt(dump_file, ndmin=2)
        want = np.array([orc.canonical(v) for v in rays])
        checks(dumped.shape == want.shape and np.max(np.abs(dumped - want)) <= 1e-11,
               "ks-color --dump-rays: dumped rays differ from the canonical input")

    @staticmethod
    def _check_mermin(r, checks):
        o = r["outputs"]
        checks(o["assignments_checked"] == 512 and o["assignments_satisfying"] == 0, "mermin: search")
        checks(max(o["max_product_deviation"], o["max_square_deviation"]) <= 1e-12, "mermin: identities")
        checks(np.prod(o["row_signs"]) * np.prod(o["col_signs"]) == -1, "mermin: sign parity")

    @staticmethod
    def _check_bell(r, checks, dirs, etas):
        a, b, c = dirs
        ea, eb, ec = etas
        want = -(ea * eb * a @ b + ea * ec * a @ c + eb * ec * b @ c)
        checks(_close(r["outputs"]["lhs"], want), "bell: lhs differs from the singlet value")

    @staticmethod
    def _check_chsh(r, checks, psi, settings):
        t = orc.correlation_tensor(psi)
        want = orc.chsh_from_tensor(t, settings)
        s = r["outputs"]["s_value"]
        checks(_close(s, want), f"chsh: S = {s}, a.Tb gives {want}")
        checks(s <= orc.horodecki_bound(t) + TOL, "chsh: S above the Horodecki bound")
        a, ap, b, bp = settings
        got = r["outputs"]["correlators"]
        for key, x, y in (("ab", a, b), ("ab_prime", a, bp), ("a_prime_b", ap, b), ("a_prime_b_prime", ap, bp)):
            checks(_close(got[key], x @ t @ y), f"chsh: correlator {key}")

    @staticmethod
    def _check_chsh_optimize(r, checks, psi):
        t = orc.correlation_tensor(psi)
        bound = orc.horodecki_bound(t)
        o = r["outputs"]
        s = o["s_star"]
        checks(abs(s - bound) <= 1e-6 and s <= bound + TOL, f"chsh --optimize: S* = {s}, S_max = {bound}")
        settings = np.array([o["settings"][k] for k in ("a", "a_prime", "b", "b_prime")])
        checks(_close(orc.chsh_from_tensor(t, settings), s, 1e-7), "chsh --optimize: S* != S at its settings")

    @staticmethod
    def _check_wigner(r, checks):
        o = r["outputs"]
        ex = o["example_correlators"]
        example = abs(ex["ab"] - ex["ab_prime"]) + abs(ex["a_prime_b"] + ex["a_prime_b_prime"])
        checks(_close(o["vertex_max_s"], 2.0) and o["random_max_s"] <= 2.0 + 1e-12 and example <= 2.0 + TOL,
               "wigner: joint-weight S above 2")

    @staticmethod
    def _check_ghz(r, checks):
        o = r["outputs"]
        checks(o["assignments_checked"] == 64 and o["assignments_satisfying"] == orc.ghz_satisfying(-1)
               and o["satisfying_with_flipped_constraint"] == orc.ghz_satisfying(1), "ghz: assignment counts")
        checks(max(o["stabilizer_deviations"].values()) <= 1e-12, "ghz: stabilizer identities")

    @staticmethod
    def _check_hardy(r, checks, p1, p2):
        o = r["outputs"]
        checks(_close(o["p"], orc.hardy_closed_form(p1, p2)), "hardy: p != closed form")
        checks(max(o["condition_residuals"]) <= 1e-10, "hardy: orthogonality conditions")

    @staticmethod
    def _check_hardy_optimize(r, checks):
        o = r["outputs"]
        checks(abs(o["p1"] - 1 / orc.PHI) <= 1e-6 and abs(o["p2"] - 1 / orc.PHI) <= 1e-6,
               "hardy --optimize: argmax is not 1/golden ratio")
        checks(abs(o["p_max"] - orc.PHI**-5) <= 1e-7, "hardy --optimize: maximum is not golden ratio^-5")

    @staticmethod
    def _check_nosignal(r, checks):
        checks(r["outputs"]["max_deviation"] <= 1e-12, "nosignal: deviation above 1e-12")

    @staticmethod
    def _check_simulate(r, checks, visibility):
        """visibility None: the lhv:sign source."""
        settings = np.array(r["inputs"]["settings"])
        checks(np.allclose(settings, orc.CHSH_OPTIMAL, atol=TOL), "simulate: settings are not the defaults")
        check_campaign(r["outputs"], r["inputs"]["n_pairs"], settings, visibility, checks, "simulate")


PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def check_campaign(out, n_pairs, settings, visibility, checks, label):
    """Correlators within 5 sigma of the exact ones; S within 5 sigma of V 2 sqrt 2
    for the singlet source, at most 2 + 5 sigma for the lhv:sign source."""
    a, ap, b, bp = settings
    pairs = ((a, b), (a, bp), (ap, b), (ap, bp))
    if visibility is None:
        exact = np.array([orc.sign_lhv_correlator(x, y) for x, y in pairs])
    else:
        exact = np.array([-visibility * float(x @ y) for x, y in pairs])
    counts = [(n_pairs - k + 3) // 4 for k in range(4)]
    sigma = np.sqrt((1.0 - exact**2) / counts)
    got = np.array([out["correlators"][k] for k in PAIR_NAMES])
    checks(np.all(np.abs(got - exact) <= 5 * sigma + TOL), f"{label}: a correlator is beyond 5 sigma")
    s = abs(got[0] - got[1]) + abs(got[2] + got[3])
    sigma_s = float(np.sqrt(np.sum(sigma**2)))
    checks(_close(out["s_value"], s, 1e-7), f"{label}: S does not follow from the correlators")
    if visibility is None:
        checks(s <= 2.0 + 5 * sigma_s, f"{label}: local S = {s} above 2 + 5 sigma")
    else:
        checks(abs(s - visibility * orc.TSIRELSON) <= 5 * sigma_s, f"{label}: S = {s} beyond 5 sigma of V 2 sqrt 2")


def _without_wall_time(text):
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return report
