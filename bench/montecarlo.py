"""montecarlo: bulk sampling campaigns, each in its own child process.

A round runs simulate_chsh on the singlet source (10^7 pairs, visibility
0.9546) and on the lhv:sign source (10^7 pairs), then bell_hv_average_mc
on three cases at 10^6 samples.  The settings are the optimal CHSH
settings under a seeded random rotation, so the singlet S is still
V 2 sqrt 2.  Each campaign is a separate process so that its peak RSS is
its own; the time reported is the time inside the library calls.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import oracle as orc
from cli_sweep import check_campaign
from timing import Timer, run_child

N_PAIRS = 10**7
VISIBILITY = 0.9546
BELL_HV_CASES = 3
BELL_HV_SAMPLES = 10**6
CAMPAIGN = Path(__file__).resolve().parent / "campaign.py"


class MonteCarlo:
    # Bulk numpy over 10^7-element arrays does not slow with the probe when the
    # host drifts (scaled times spread more than raw ones), so times stay raw.
    scaled = False

    def __init__(self, workdir, env, seed, trace):
        self.workdir = Path(workdir)
        self.env = env
        self.seed = seed
        self.trace = trace

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.settings = orc.CHSH_OPTIMAL @ orc.rotation(rng).T
        seeds = [int(s) for s in rng.integers(0, 2**31, size=2 + BELL_HV_CASES)]
        settings = self.settings.tolist()
        self.cases = [
            (float(rng.normal()), rng.normal(size=3), orc.pure_states(rng, 1, 2)[0])
            for _ in range(BELL_HV_CASES)
        ]
        jobs = {
            "singlet": {"kind": "simulate", "source": "singlet", "visibility": VISIBILITY,
                        "n_pairs": N_PAIRS, "seed": seeds[0], "settings": settings},
            "lhv": {"kind": "simulate", "source": "lhv:sign", "visibility": 1.0,
                    "n_pairs": N_PAIRS, "seed": seeds[1], "settings": settings},
            "bell_hv": {"kind": "bell_hv", "cases": [
                {"alpha": alpha, "beta": beta.tolist(), "psi_re": psi.real.tolist(),
                 "psi_im": psi.imag.tolist(), "n_samples": BELL_HV_SAMPLES, "seed": seed}
                for (alpha, beta, psi), seed in zip(self.cases, seeds[2:])
            ]},
        }
        self.job_files = {}
        for name, job in jobs.items():
            path = self.workdir / f"job-{name}.json"
            path.write_text(json.dumps(job))
            self.job_files[name] = path

    def _campaign(self, name, traced):
        argv = [sys.executable, str(CAMPAIGN), str(self.job_files[name]), "1" if traced else "0"]
        child = run_child(argv, self.workdir, self.env)
        if child.returncode != 0:
            raise RuntimeError(f"campaign {name} exited {child.returncode}: {child.stderr[-500:]}")
        return json.loads(child.stdout.strip().splitlines()[-1]), child.peak_rss_mb

    def run_round(self, checks):
        timer = Timer()
        peak, failed = 0.0, 0
        counters = {"pairs": 0, "samples": 0}
        sampling, pairs, rss = {}, {}, {}
        for name in self.job_files:
            timer.begin(name)
            try:
                out, rss[name] = self._campaign(name, traced=False)
            except (RuntimeError, ValueError, IndexError) as exc:
                failed += 1
                print(exc, file=sys.stderr)
                continue
            timer.add(out["wall"])
            peak = max(peak, rss[name])
            sampling[name] = out["sampling_s"]
            pairs[name] = out["result"].get("n_pairs", 0)
            self._check(name, out["result"], checks)
            counters["pairs"] += pairs[name]
            counters["samples"] += sum(c["n_samples"] for c in out["result"].get("cases", ()))
        timer.begin()
        result = {"timer": timer, "attempted": len(self.job_files), "failed": failed,
                  "counters": counters, "peak_rss_mb": peak}
        if self.trace:
            spans, traced = [], Timer()
            for name in self.job_files:
                traced.begin(name)
                out, _ = self._campaign(name, traced=True)
                traced.add(out["wall"])
                offset = len(spans)
                spans += [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in out["spans"]]
            traced.begin()
            result.update(compare=(timer, traced), spans=spans, extras={
                "singlet_pairs_per_s": pairs["singlet"] / sampling["singlet"],
                "lhv_pairs_per_s": pairs["lhv"] / sampling["lhv"],
                "singlet_peak_rss_mb": rss["singlet"],
                "lhv_peak_rss_mb": rss["lhv"],
                "simlab.simulate_chsh.singlet.pairs": pairs["singlet"],
                "simlab.simulate_chsh.lhv.pairs": pairs["lhv"],
                "hvmodels.bell_hv_average_mc.samples_per_s": counters["samples"] / sampling["bell_hv"],
            })
        return result

    def _check(self, name, result, checks):
        if name == "bell_hv":
            for (alpha, beta, psi), (estimate, stderr) in zip(self.cases, result["estimates"]):
                m = orc.qubit_expectation(beta, psi)
                sigma = math.sqrt(max(float(beta @ beta) - m * m, 0.0) / BELL_HV_SAMPLES)
                checks(abs(estimate - (alpha + m)) <= 5 * sigma, f"bell_hv_average_mc beyond 5 sigma: {estimate}")
            return
        checks(result["n_pairs"] == N_PAIRS and np.allclose(result["settings"], self.settings, atol=1e-12),
               f"{name}: report does not echo its configuration")
        check_campaign(result, N_PAIRS, self.settings, VISIBILITY if name == "singlet" else None, checks, name)
