"""hvlab benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  Set-up is timed first: a fresh interpreter importing `hvlab` and
`hvlab.cli`, plus the generation of the workload's inputs from `--seed`,
eleven times; `setup_s` is the median.  Then whole rounds of the workload
repeat, on the same inputs, until `--seconds` have passed (at least three
rounds).  Each round checks every output against an independent
computation or a required property.

A round's time inside the program's calls is split into parts (an
invocation, a loop, a campaign), and the reference probe of `timing.py`
runs between parts.  `wall_s` is the sum over parts of the part's median
time over rounds, each time scaled to reference speed on the workloads
whose work slows with the probe (cli-sweep, kernel-sweep); `setup_s` is
scaled too.  The raw seconds are on stderr and in the traced run.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` each round also runs a traced pass,
and the object has the per-layer metrics.  The spans of a traced run are
written to `bench/out/trace-<workload>-<seed>.json`.  Metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import timing
from oracle import Checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 11
MIN_ROUNDS = 3


def load_workloads():
    import cli_sweep
    import kernel_sweep
    import montecarlo

    return {
        "cli-sweep": cli_sweep.CliSweep,
        "kernel-sweep": kernel_sweep.KernelSweep,
        "montecarlo": montecarlo.MonteCarlo,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload, workdir, env) -> tuple[float, float]:
    """Median over repeats of (fresh interpreter importing hvlab and hvlab.cli
    + input generation), scaled to reference speed and raw.  One untimed
    import first writes the byte-code cache."""
    argv = [sys.executable, "-c", "import hvlab, hvlab.cli"]
    warm = timing.run_child(argv, workdir, env)
    if warm.returncode != 0:
        raise SystemExit(f"cannot import hvlab from {ROOT / 'src'}:\n{warm.stderr}")
    raw, scaled = [], []
    ref = timing.probe()
    for _ in range(SETUP_REPEATS):
        child = timing.run_child(argv, workdir, env)
        t0 = perf_counter()
        workload.prepare()
        seconds = child.seconds + perf_counter() - t0
        ref, before = timing.probe(), ref
        raw.append(seconds)
        scaled.append(seconds * timing.PROBE_S / (0.5 * (before + ref)))
    return statistics.median(scaled), statistics.median(raw)


def wall_s(timers, scaled=False) -> float:
    """Sum over parts of the part's median time over rounds (one Timer per
    round); scaled: each time at reference speed."""
    def seconds(t, part):
        return t.parts[part] * (timing.PROBE_S / t.refs[part] if scaled else 1.0)

    return sum(statistics.median(seconds(t, part) for t in timers) for part in timers[0].parts)


def per_layer_metrics(spec, rounds) -> dict:
    """Per-layer values: span statistics per round, workload extras, and the
    tracing overhead.  A function the workload never calls reads 0 calls.

    Function metrics use every span, micro-timing spans included; a layer's
    self time uses only the spans of the workload's own traced pass."""
    n = len(rounds)
    spans = [s for r in rounds for s in r["spans"]]
    stats = timing.span_stats(spans + [s for r in rounds for s in r.get("micro_spans", ())])
    values = {}
    for name in spec:
        base, _, suffix = name.rpartition(".")
        if base in stats and suffix in ("us", "s", "calls"):
            calls, own = stats[base]
            values[name] = {"us": own / calls * 1e6, "s": own / calls, "calls": calls / n}[suffix]
    for layer, own in timing.layer_self_seconds(spans).items():
        values[f"{layer}.self_s"] = own / n
    for key in rounds[0]["extras"]:
        values[key] = statistics.median(r["extras"][key] for r in rounds)
    values["wall_raw_s"] = wall_s([r["timer"] for r in rounds])
    untraced, traced = zip(*(r["compare"] for r in rounds))
    values["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    values["trace.spans"] = len(spans) / n
    unknown = sorted(set(values) - set(spec))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    values = {name: values.get(name, 0) for name in spec}
    # Counts repeat exactly in every round (checked), so they are whole numbers.
    return {name: round(values[name]) if spec[name] == "count" else values[name] for name in spec}


def call_counts(spans) -> dict:
    return {name: calls for name, (calls, _) in timing.span_stats(spans).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hvlab" / "__init__.py").is_file():
        print(f"no hvlab source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec_file[key]}
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2

    # One CPU for the whole process tree, so that the reference probe runs on
    # the CPU where the measured work runs; on a shared host they drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        env = child_env()
        sys.path.insert(0, str(ROOT / "src"))
        workload = workloads[args.workload](workdir, env, args.seed, bool(args.trace))
        setup_s, setup_raw_s = measure_setup(workload, workdir, env)

        checks = Checks()
        rounds = []
        start = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            rounds.append(workload.run_round(checks))
        for r in rounds[1:]:
            checks(r["counters"] == rounds[0]["counters"], "deterministic counters differ between rounds")
            if args.trace:
                checks(call_counts(r["spans"]) == call_counts(rounds[0]["spans"]),
                       "traced call counts differ between rounds")

        if args.trace:
            values = per_layer_metrics(units, rounds)
            trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "fields": ["name", "start_s", "end_s", "parent"],
                "rounds": [r["spans"] for r in rounds],
            }))
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s([r["timer"] for r in rounds], workload.scaled),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            if set(values) != set(units):
                raise SystemExit(f"end-to-end metrics {sorted(values)} do not match BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timers = [r["timer"] for r in rounds]
    print(f"rounds {len(rounds)}; raw seconds: setup {setup_raw_s:.4f}, wall {wall_s(timers):.4f}; "
          f"at reference speed: setup {setup_s:.4f}, wall {wall_s(timers, True):.4f}", file=sys.stderr)
    for message in checks.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": checks.ok,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
