#!/usr/bin/env python3
"""Repository benchmark for the SDSRP DTN simulator.

Builds the simulator and the benchmark driver from source, runs one
workload, checks every run against the pins in pins.json and prints the
metrics named in BENCHMARK.json. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload table2-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # everything
    python3 perfbench/run.py --pin        # regenerate pins.json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the run's spans under .bench_build/traces/. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("table2-sweep", "table3-taxi", "const-density-100k")
# Scenario seeds --pin pins per workload; --seed n runs scenario seed
# pins["seeds"][n % len(pins["seeds"])].
PIN_SEEDS = tuple(range(1, 11))


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    """Build, work and trace outputs: CARGO_TARGET_DIR when set (relative
    paths resolve against the repository root), else .bench_build."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds perfbench_driver and dtn_sweepd."""
    bdir = build_root() / "cmake"
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").exists():
        rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(bdir),
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=log, stderr=log)
        if rc != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", str(bdir), "-j", jobs,
                          "--target", "perfbench_driver", "dtn_sweepd"],
                         stdout=log, stderr=log)
    if rc != 0:
        fail("build failed", 2)
    return bdir / "perfbench_driver", bdir / "dtn_tools" / "dtn_sweepd"


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout else "unknown"


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_driver(driver, sweepd, workload, scenario_seed, *, trace=False,
               smoke=False, describe=False, spans=None, required=True):
    """One driver process in a fresh work directory that is removed
    afterwards. Returns its JSON object, or None when the process failed
    and `required` is false."""
    workdir = build_root() / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [str(driver), "--workload", workload,
           "--scenario-seed", str(scenario_seed),
           "--sweepd", str(sweepd), "--workdir", str(workdir)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--describe"] if describe else []
    cmd += ["--spans", str(spans)] if spans else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        if required:
            fail(f"driver failed on {workload} (exit {proc.returncode})")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_times(spans_path):
    """Per span name: calls, total and self seconds (self = duration minus
    the part of it covered by child spans)."""
    spans = json.loads(Path(spans_path).read_text())
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    table = {}
    for s, c in zip(spans, child):
        dur = s["end_ns"] - s["start_ns"]
        calls, total, own = table.get(s["name"], (0, 0, 0))
        table[s["name"]] = (calls + 1, total + dur, own + dur - c)
    return table


def pin_for(pins, workload, scenario_seed, smoke):
    if smoke:
        return pins["smoke"][workload]
    return pins["workloads"][workload][str(scenario_seed)]


def regenerate_pins(driver, sweepd):
    pins = {"seeds": list(PIN_SEEDS), "workloads": {}, "smoke": {}}
    for w in WORKLOADS:
        pins["workloads"][w] = {}
        for s in PIN_SEEDS:
            desc = run_driver(driver, sweepd, w, s, describe=True)
            out = run_driver(driver, sweepd, w, s)
            pins["workloads"][w][str(s)] = {
                "fingerprint": desc["fingerprint"],
                "digest": out["rep"]["digest"]}
            print(f"{w} seed {s}: {pins['workloads'][w][str(s)]}", flush=True)
        desc = run_driver(driver, sweepd, w, PIN_SEEDS[0], smoke=True,
                          describe=True)
        out = run_driver(driver, sweepd, w, PIN_SEEDS[0], smoke=True)
        pins["smoke"][w] = {"fingerprint": desc["fingerprint"],
                            "digest": out["rep"]["digest"]}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")


def measure(driver, sweepd, pins, units, workload, seed, seconds, trace,
            smoke):
    """Runs one workload in one mode, prints its metrics and returns the
    result object (printed as the last stdout line)."""
    scenario_seed = pins["seeds"][seed % len(pins["seeds"])]
    pin = pin_for(pins, workload, scenario_seed, smoke)

    # A workload whose scenario no longer matches its pin has changed
    # meaning: refuse to report numbers under the old label.
    desc = run_driver(driver, sweepd, workload, scenario_seed, smoke=smoke,
                      describe=True)
    if desc["fingerprint"] != pin["fingerprint"]:
        fail(f"{workload}: scenario fingerprint {desc['fingerprint']} "
             f"differs from the pinned {pin['fingerprint']}; the workload "
             "changed meaning (regenerate pins.json with --pin if intended)",
             3)

    failed = 0
    attempted = 0
    spans = None
    if trace:
        spans = build_root() / "traces" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        out = run_driver(driver, sweepd, workload, scenario_seed, trace=True,
                         smoke=smoke, spans=spans)
        for check in out["checks"]:
            attempted += 1
            if "digest" in check:
                failed += check["digest"] != pin["digest"]
            else:
                failed += not check["ok"]
        values = out["layers"]
        units = units[1]
    else:
        # Each repetition runs in a fresh driver process until the time is
        # up; a process that fails counts as a failed run.
        outs = []
        start = time.monotonic()
        while not outs or time.monotonic() - start < seconds:
            attempted += 1
            out = run_driver(driver, sweepd, workload, scenario_seed,
                             smoke=smoke, required=False)
            if out is None:
                failed += 1
                if attempted >= 3 and not outs:
                    fail(f"{workload}: every repetition failed")
                continue
            failed += out["rep"]["digest"] != pin["digest"]
            outs.append(out)
        reps = [o["rep"] for o in outs]
        values = {
            "steps_per_s": statistics.median(r["steps_per_s"] for r in reps),
            "setup_s": statistics.median(s for o in outs for s in o["setup_s"]),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        }
        units = units[0]

    print(f"perfbench {workload} seed {seed} (scenario seed {scenario_seed}) "
          f"hardware_threads={out['hardware_threads']} "
          f"git_describe={git_describe()} fingerprint={desc['fingerprint']}")
    if not trace:
        if workload == "table2-sweep":
            runs_per_s = statistics.median(r["runs"] / r["wall_s"] for r in reps)
            print(f"  {'sweep_runs_per_s':34s} {runs_per_s:.6g} 1/s")
        print(f"  {'repetitions':34s} {len(reps)} (one process each)")
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"driver did not report {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checked runs failed)")
    if spans is not None:
        print("  spans (calls, total s, self s):")
        for name, (calls, total, own) in sorted(self_times(spans).items()):
            print(f"    {name:34s} {calls:6d} {total / 1e9:10.4f} "
                  f"{own / 1e9:10.4f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in both modes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short horizons (the benchmark's smoke test)")
    ap.add_argument("--pins", default=str(PINS), help="pin file to check")
    ap.add_argument("--pin", action="store_true",
                    help="regenerate pins.json instead of measuring")
    args = ap.parse_args()

    units = declared_metrics()
    driver, sweepd = build()
    if args.pin:
        regenerate_pins(driver, sweepd)
        return
    if args.workload is None:
        ap.error("--workload is required")
    pins = json.loads(Path(args.pins).read_text())
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    for workload, trace in runs:
        res = measure(driver, sweepd, pins, units, workload, args.seed,
                      args.seconds, trace, args.smoke)
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
