"""One Monte Carlo campaign of the montecarlo workload, in its own process.

    python3 bench/campaign.py JOB.json TRACE

JOB.json holds the generated inputs (see montecarlo.py).  TRACE is 1 to
record spans.  The last line of stdout is a JSON object: the time inside
the program's calls (`wall`), the part of it spent sampling
(`sampling_s`), the spans, and the report fields the checks need.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from hvlab import ChshSettings, ExperimentConfig, bell_hv_average_mc, simulate_chsh
from timing import Timer, Tracer


def simulate(t, job):
    settings = t.call("nonlocality.ChshSettings", ChshSettings, *np.array(job["settings"]))
    config = t.call("simlab.ExperimentConfig", ExperimentConfig, settings=settings, n_pairs=job["n_pairs"],
                    visibility=job["visibility"], seed=job["seed"], source=job["source"])
    before = t.wall
    tag = "lhv" if job["source"].startswith("lhv:") else "singlet"
    report = t.call(f"simlab.simulate_chsh.{tag}", simulate_chsh, config)
    result = {"n_pairs": report.n_pairs, "settings": [list(v) for v in report.settings],
              "correlators": report.correlators, "s_value": report.s_value}
    return result, t.wall - before


def bell_hv(t, job):
    estimates = []
    for case in job["cases"]:
        psi = np.array(case["psi_re"]) + 1j * np.array(case["psi_im"])
        estimates.append(t.call("hvmodels.bell_hv_average_mc", bell_hv_average_mc, case["alpha"],
                                np.array(case["beta"]), psi, case["n_samples"], case["seed"]))
    return {"estimates": estimates, "cases": job["cases"]}, t.wall


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    t = Tracer() if argv[2] == "1" else Timer()
    result, sampling_s = {"simulate": simulate, "bell_hv": bell_hv}[job["kind"]](t, job)
    print(json.dumps({"wall": t.wall, "sampling_s": sampling_s, "spans": getattr(t, "spans", []),
                      "result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
