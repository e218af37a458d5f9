"""kernel-sweep: acceptance-scale loops over hvlab's scalar public API, in process.

Most of a round is a CHSH scan (ChshSettings + chsh_value) over random
setting quadruples on the singlet and on random pure states.  The rest are
smaller loops over correlation_tensor, a Hardy grid, density
reconstruction with its dispersion witness, the no-signalling identity,
joint-weight CHSH values, the hidden-variable average, the Jauch-Piron
contradiction and Kochen-Specker colorings.  No optimizer and no bulk
sampling run here.
"""

from __future__ import annotations

import resource

import numpy as np

import oracle as orc
from timing import Timer, Tracer

SCAN_STATES = 4  # the singlet and three random pure states
SCAN_PER_STATE = 2500
SCAN_PART = 100  # quadruples per timed part of the scan
SINGLET_PAIRS = 500
TENSOR_STATES = 100
HARDY_GRID = 50
RHOS_PER_DIM = 20
NOSIGNAL_TRIALS = 200
WIGNER_WEIGHTS = 500
BELL_HV_CASES = 200
JAUCH_PIRON_PAIRS = 20
KS_PERMUTATIONS = 20
MICRO_REPEATS = 5


class KernelSweep:
    scaled = True  # interpreter-bound, like the probe

    def __init__(self, workdir, env, seed, trace):
        self.seed = seed
        self.trace = trace
        import hvlab

        self.hl = hvlab

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.scan_states = np.vstack([orc.SINGLET, orc.pure_states(rng, SCAN_STATES - 1, 4)])
        self.scan_settings = orc.unit_vectors(rng, SCAN_STATES * SCAN_PER_STATE * 4).reshape(
            SCAN_STATES, SCAN_PER_STATE, 4, 3
        )
        self.singlet_pairs = orc.unit_vectors(rng, 2 * SINGLET_PAIRS).reshape(SINGLET_PAIRS, 2, 3)
        self.tensor_states = orc.pure_states(rng, TENSOR_STATES, 4)
        self.hardy_p = np.sort(rng.uniform(0.02, 0.98, size=(2, HARDY_GRID)), axis=1)
        self.rhos = [orc.density_matrix(rng, dim) for dim in (2, 3, 4) for _ in range(RHOS_PER_DIM)]
        eye2 = np.eye(2, dtype=complex)
        self.nosignal = []
        for _ in range(NOSIGNAL_TRIALS):
            a, b = orc.unit_vectors(rng, 2)
            half = 0.5 * orc.sigma(b)
            projs = [np.kron(eye2, 0.5 * eye2 + half), np.kron(eye2, 0.5 * eye2 - half)]
            self.nosignal.append((orc.density_matrix(rng, 4), np.kron(orc.sigma(a), eye2), projs))
        self.wigner = rng.dirichlet(np.full(16, 0.5), size=WIGNER_WEIGHTS)
        self.bell_hv = [
            (float(rng.normal()), rng.normal(size=3), orc.pure_states(rng, 1, 2)[0])
            for _ in range(BELL_HV_CASES)
        ]
        self.jauch_piron = orc.unit_vectors(rng, 2 * JAUCH_PIRON_PAIRS).reshape(JAUCH_PIRON_PAIRS, 2, 3)
        peres = orc.peres_rays()
        self.ks_unsat = [peres[rng.permutation(len(peres))] for _ in range(KS_PERMUTATIONS)]
        base = peres[rng.permutation(len(peres))]
        self.ks_sat = [np.delete(base, i, axis=0) for i in range(len(base))]
        self.expected = None

    # ------------------------------------------------------------------ passes

    def _pass(self, t):
        """One pass over every input, timed by `t`; returns the outputs."""
        hl = self.hl
        out = {"scan": np.empty((SCAN_STATES, SCAN_PER_STATE))}
        for k, psi in enumerate(self.scan_states):
            row = out["scan"][k]
            for i, (a, ap, b, bp) in enumerate(self.scan_settings[k]):
                if i % SCAN_PART == 0:
                    t.begin(f"chsh_scan.{k}.{i // SCAN_PART}")
                settings = t.call("nonlocality.ChshSettings", hl.ChshSettings, a, ap, b, bp)
                row[i] = t.call("nonlocality.chsh_value", hl.chsh_value, psi, settings)

        singlet = self.scan_states[0]
        t.begin("qm_correlator")
        out["corr"] = np.array([t.call("nonlocality.qm_correlator", hl.qm_correlator, singlet, a, b)
                                for a, b in self.singlet_pairs])
        t.begin("correlation_tensor")
        out["tensors"] = np.array([t.call("nonlocality.correlation_tensor", hl.correlation_tensor, psi)
                                   for psi in self.tensor_states])
        t.begin("hardy_build")
        p1s, p2s = self.hardy_p
        out["hardy"] = np.array([[t.call("nonlocality.hardy_build", hl.hardy_build, p1, p2).p for p2 in p2s]
                                 for p1 in p1s])
        t.begin("ensembles")
        out["rebuilt"], out["witnesses"] = [], []
        for rho in self.rhos:
            oracle = t.call("ensembles.oracle_from_density", hl.oracle_from_density, rho)
            out["rebuilt"].append(t.call("ensembles.reconstruct_density", hl.reconstruct_density, oracle))
            out["witnesses"].append(t.call("ensembles.dispersion_free_witness", hl.dispersion_free_witness, rho))
        t.begin("no_signalling_check")
        out["nosignal"] = [t.call("nonlocality.no_signalling_check", hl.no_signalling_check, rho, a, projs)
                           for rho, a, projs in self.nosignal]
        t.begin("chsh_from_wigner")
        out["wigner"] = np.array([t.call("hvmodels.chsh_from_wigner", hl.chsh_from_wigner, w)
                                  for w in self.wigner])
        t.begin("bell_hv_average_exact")
        out["bell_hv"] = np.array([t.call("hvmodels.bell_hv_average_exact", hl.bell_hv_average_exact, *case)
                                   for case in self.bell_hv])
        t.begin("jauch_piron")
        out["jauch"] = [t.call("ensembles.jauch_piron_contradiction", hl.jauch_piron_contradiction, a, b)
                        for a, b in self.jauch_piron]
        t.begin("ks_color")
        out["ks"] = []
        for rays in self.ks_unsat + self.ks_sat:
            structure = t.call("contextuality.orthogonality_structure", hl.orthogonality_structure, rays)
            out["ks"].append(t.call("contextuality.ks_color", hl.ks_color, structure))
        t.begin()
        return out

    def _expected(self):
        """Oracle values; they depend only on the inputs."""
        p1, p2 = np.meshgrid(*self.hardy_p, indexing="ij")
        return {
            "scan_tensors": [orc.correlation_tensor(psi) for psi in self.scan_states],
            "tensors": np.array([orc.correlation_tensor(psi) for psi in self.tensor_states]),
            "hardy": orc.hardy_closed_form(p1, p2),
            "wigner": orc.wigner_chsh(self.wigner),
            "bell_hv": np.array([alpha + orc.qubit_expectation(beta, psi) for alpha, beta, psi in self.bell_hv]),
            "ks_sat": [orc.orthogonality(rays) for rays in self.ks_sat],
        }

    def _check(self, checks, out):
        """Checks the outputs of one pass; returns (operations, counters)."""
        want = self.expected
        for k, t in enumerate(want["scan_tensors"]):
            scan = out["scan"][k]
            checks(np.max(np.abs(scan - orc.chsh_from_tensor(t, self.scan_settings[k]))) <= 1e-12,
                   f"chsh_value differs from a.Tb on state {k}")
            checks(scan.max() <= orc.horodecki_bound(t) + 1e-12, f"CHSH above the Horodecki bound, state {k}")
        a, b = self.singlet_pairs[:, 0], self.singlet_pairs[:, 1]
        checks(np.max(np.abs(out["corr"] + np.sum(a * b, axis=1))) <= 1e-12, "singlet correlator != -a.b")
        checks(np.max(np.abs(out["tensors"] - want["tensors"])) <= 1e-12, "correlation_tensor differs")
        checks(np.max(np.abs(out["hardy"] - want["hardy"])) <= 1e-12, "hardy_build p != closed form")
        checks(out["hardy"].max() <= orc.PHI**-5 + 1e-12, "Hardy probability above golden-ratio^-5")
        for rho, got, phi in zip(self.rhos, out["rebuilt"], out["witnesses"]):
            checks(np.max(np.abs(got - rho)) <= 1e-10, f"reconstruction error, dim {len(rho)}")
            val = float(np.vdot(phi, rho @ phi).real)
            checks(abs(np.linalg.norm(phi) - 1.0) <= 1e-10 and 0.01 < val < 0.99,
                   f"dispersion witness value {val}")
        checks(max(out["nosignal"]) <= 1e-12, f"no-signalling deviation {max(out['nosignal'])}")
        checks(np.max(np.abs(out["wigner"] - want["wigner"])) <= 1e-12, "chsh_from_wigner differs")
        checks(out["wigner"].max() <= 2.0 + 1e-12, "joint-weight S above 2")
        checks(np.max(np.abs(out["bell_hv"] - want["bell_hv"])) <= 1e-12, "bell_hv_average_exact differs")
        for rep in out["jauch"]:
            checks(rep.all_intersections_zero and rep.completeness_dev <= 1e-10
                   and all(r == 0 for row in rep.cross_ranks for r in row), "Jauch-Piron report")
        n_unsat = len(self.ks_unsat)
        checks(not any(r.satisfiable for r in out["ks"][:n_unsat]), "a permutation of the 33 rays colored")
        for r, (pairs, triads) in zip(out["ks"][n_unsat:], want["ks_sat"]):
            checks(r.satisfiable and orc.coloring_valid(pairs, triads, r.colors),
                   "one-ray deletion not colored validly")
        # One operation per checked result; a density reconstruction and its witness are one.
        ops = out["scan"].size + out["hardy"].size + sum(
            len(out[key]) for key in ("corr", "tensors", "rebuilt", "nosignal", "wigner", "bell_hv", "jauch", "ks"))
        counters = {
            "ks_nodes": sum(r.nodes_explored for r in out["ks"]),
            "ks_satisfiable": sum(bool(r.satisfiable) for r in out["ks"]),
        }
        return ops, counters

    def _micro(self, t):
        """Per-call cost of the qmath kernels under the kernel-sweep calls."""
        q = self.hl.qmath
        settings = self.scan_settings[0, :100].reshape(-1, 3)
        paulis = [orc.sigma(v) for v in settings]
        for _ in range(MICRO_REPEATS):
            for psi in [*self.scan_states, *self.tensor_states]:
                t.call("qmath.assert_state_vector", q.assert_state_vector, psi)
            for rho in self.rhos + [trial[0] for trial in self.nosignal]:
                t.call("qmath.assert_density_operator", q.assert_density_operator, rho)
            for v in settings:
                t.call("qmath.sigma_dot", q.sigma_dot, v)
            for a, b in zip(paulis[0::2], paulis[1::2]):
                t.call("qmath.kron", q.kron, a, b)

    def run_round(self, checks):
        if self.expected is None:
            self.expected = self._expected()
        timer = Timer()
        ops, counters = self._check(checks, self._pass(timer))
        result = {
            "timer": timer,
            "attempted": ops,
            "failed": 0,
            "counters": counters,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.trace:
            tracer = Tracer()
            _, traced_counters = self._check(checks, self._pass(tracer))
            checks(traced_counters == counters, "traced pass counters differ")
            micro = Tracer()
            self._micro(micro)
            scan_s = sum(s for part, s in timer.parts.items() if part.startswith("chsh_scan."))
            result.update(
                compare=(timer, tracer),
                spans=tracer.spans,
                micro_spans=micro.spans,
                extras={"chsh_settings_per_s": SCAN_STATES * SCAN_PER_STATE / scan_s,
                        "contextuality.ks_color.nodes": counters["ks_nodes"]},
            )
        return result
