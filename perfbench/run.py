#!/usr/bin/env python3
"""The CAMEO simulator's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|tiny] [--write-expected]

It builds the `perfbench` binary (perfbench/Cargo.toml, a package of its
own that calls the simulator's public API) into $CARGO_TARGET_DIR, by
default .bench_build, and then:

  --trace 0  runs one untimed serial warm-up pass, then repeats untraced
             passes in the measured configuration, each in a fresh
             process, until --seconds have passed (at least three), and
             reports the median of each end-to-end metric;
  --trace 1  runs one untraced pass in the measured configuration, then
             untraced and traced serial passes in turn for --seconds (at
             least two of each), then the layer replays, and reports the
             per-layer metrics.

Every point's simulated statistics must repeat exactly across passes,
match the traced pass and (on sweep-fig13) a serial pass, equal the
expected record stored for the default seed, and pass the conservation
checks. A point that fails any of this counts as failed. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. spec.json describes every workload and metric.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
MIN_PASSES = 3
MAX_PASSES = 50
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Builds the perfbench binary and returns its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    return (Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench").resolve()


def run_child(binary, args):
    """Runs one perfbench process. Returns its record, with the process's
    CPU seconds added, or None if it failed."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run([str(binary), *args], capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench {' '.join(args)}: timed out", file=sys.stderr)
        return None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench {' '.join(args)}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return record


def expected_path(workload, size):
    return HERE / "expected" / f"{workload}.{size}.json"


def load_expected(workload, seed, size):
    """The stored statistics of every point, if this seed has a record."""
    path = expected_path(workload, size)
    if seed != SPEC["default_seed"] or not path.exists():
        return None
    record = json.loads(path.read_text())
    return record["points"] if record["seed"] == seed else None


class Checks:
    """Counts points attempted and failed across the passes of one run."""

    def __init__(self, expected):
        self.expected = expected
        self.reference = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what, count=1):
        self.attempted += count
        self.failed += count
        self.problems.append(what)

    def process_failed(self, label, workload):
        self.fail(f"{label}: the perfbench process failed", WORKLOADS[workload]["points"])

    def points(self, label, record):
        """Checks every point of one pass: its own checks, then equality
        with the expected record (or, without one, the first pass)."""
        seen = set()
        for point in record["pass"]["points"]:
            key = point["key"]
            seen.add(key)
            why = None if point["ok"] else point["error"]
            if why is None:
                reference = self.reference.setdefault(key, point["stats"])
                if point["stats"] != reference:
                    why = ("statistics differ from the expected record" if self.expected
                           else "statistics differ from the first pass")
            if why is None:
                self.attempted += 1
            else:
                self.fail(f"{label} {key}: {why}")
        missing = sorted(set(self.expected or {}) - seen)
        if missing:
            self.fail(f"{label}: points missing from the pass: {missing}", len(missing))

    def replay(self, label, replay):
        """A replay must match its organization and re-run the point to
        the same statistics."""
        why = replay["error"]
        if why is None and replay["stats"] != self.reference.get(replay["key"]):
            why = "the capturing run's statistics differ from the passes"
        if why is None:
            self.attempted += 1
        else:
            self.fail(f"{label}: {why}")


def cameo_speedup(records, stats_by_key):
    """Gmean over benchmarks of Baseline CPI / CAMEO CPI (simulated)."""
    cpi = {}
    for point in records[0]["pass"]["points"]:
        stats = stats_by_key.get(point["key"])
        if stats and point["org"] in ("Baseline", "CAMEO"):
            cpi[(point["bench"], point["org"])] = stats["execution_cycles"] / stats["instructions"]
    ratios = [cpi[(b, "Baseline")] / cpi[(b, "CAMEO")]
              for (b, org) in cpi if org == "CAMEO" and (b, "Baseline") in cpi]
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else None


def end_to_end(args, binary, expected):
    base = ["run", "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    checks = Checks(expected)
    # The first pass after a build or an idle spell starts cold (page
    # cache, free page lists), so it is checked but not timed. It runs
    # point after point, which on the sweep pool is the serial pass the
    # pooled passes must agree with.
    serial = run_child(binary, base + ["--serial"])
    if serial is None:
        checks.process_failed("serial warm-up pass", args.workload)
        return checks, None, []
    checks.points("serial warm-up pass", serial)
    passes = []
    attempts = 0
    start = time.monotonic()
    while attempts < MIN_PASSES or (time.monotonic() - start < args.seconds
                                    and attempts < MAX_PASSES):
        attempts += 1
        record = run_child(binary, base)
        if record is None:
            checks.process_failed(f"pass {attempts}", args.workload)
            if not passes:
                break
        else:
            checks.points(f"pass {attempts}", record)
            passes.append(record)
    if not passes:
        return checks, None, passes

    def median(get):
        return statistics.median(get(r) for r in passes)

    values = {
        "wall_s": median(lambda r: r["pass"]["wall_s"]),
        "setup_s": median(lambda r: r["pass"]["setup_s"]),
        "measured_ns_per_access": median(lambda r: r["pass"]["measured_ns_per_access"]),
        "cpu_s": median(lambda r: r["cpu_s"]),
        "peak_rss_mib": median(lambda r: r["peak_rss_mib"]),
        "cameo_speedup": cameo_speedup(passes, checks.reference),
    }
    return checks, values, passes


def per_layer(args, binary, expected):
    """One pass in the measured configuration (for the harness metrics),
    then alternating untraced and traced serial passes for --seconds (at
    least two of each), then the layer replays. Host-time layer metrics
    are medians over the traced passes."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    checks = Checks(expected)

    def child(label, mode, *extra):
        record = run_child(binary, [mode, *base, *extra])
        if record is None:
            checks.process_failed(label, args.workload)
        elif mode != "replay":
            checks.points(label, record)
        return record

    measured = child("measured-configuration pass", "run")
    pooled = measured is not None and measured["pass"]["jobs"] > 1
    untraced = [measured] if measured is not None and not pooled else []
    traced = []
    spans = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    start = time.monotonic()
    while len(traced) < 2 or (time.monotonic() - start < args.seconds
                              and len(traced) < MAX_PASSES):
        if len(untraced) <= len(traced):
            untraced.append(child(f"untraced pass {len(untraced) + 1}", "run", "--serial"))
        extra = [] if traced else ["--spans", str(spans)]
        traced.append(child(f"traced pass {len(traced) + 1}", "trace", *extra))
    replay = child("replay", "replay")
    if replay is not None:
        for r in replay["replays"]:
            checks.replay(f"replay of {r['key']}", r)
    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]
    if measured is None or not untraced or not traced or replay is None:
        return checks, None, traced

    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers.update(replay["layers"])
    layers["trace.overhead"] = (statistics.median(r["pass"]["wall_s"] for r in traced)
                                / statistics.median(r["pass"]["wall_s"] for r in untraced) - 1)
    layers["sim.harness.efficiency"] = measured["pass"]["efficiency"]
    layers["sim.harness.busy_ns_per_access"] = measured["pass"]["busy_ns_per_access"]
    return checks, layers, traced


def print_phases(passes):
    """Phase accounting: setup + warmup + measured + residue = jobs x wall."""
    keys = ["build_s", "prefill_s", "warmup_s", "measured_s", "residue_s"]
    med = {k: statistics.median(r["pass"]["phases"][k] for r in passes) for k in keys}
    jobs = passes[0]["pass"]["jobs"]
    wall = statistics.median(r["pass"]["wall_s"] for r in passes)
    parts = ", ".join(f"{k[:-2]} {med[k]:.4f} s" for k in keys)
    print(f"phases (median of {len(passes)} passes): {parts}; jobs x wall = {jobs} x {wall:.4f} s")


def write_expected(args, checks):
    if args.seed != SPEC["default_seed"] or checks.failed:
        sys.exit("perfbench: --write-expected needs the default seed and a passing run")
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "points": checks.reference}
    path = expected_path(args.workload, args.size)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def seed(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} is not an unsigned 64-bit integer")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's statistics as the default seed's expected record")
    args = parser.parse_args()

    binary = build()
    expected = None if args.write_expected else load_expected(args.workload, args.seed, args.size)
    if args.trace:
        checks, values, traced = per_layer(args, binary, expected)
        specs = SPEC["per_layer"]
    else:
        checks, values, passes = end_to_end(args, binary, expected)
        specs = SPEC["end_to_end"]

    print(f"{args.workload} seed {args.seed} ({args.size}): {checks.attempted} points attempted, "
          f"{checks.failed} failed; expected record: {'yes' if expected else 'none for this seed'}")
    for problem in checks.problems:
        print(f"  FAILED {problem}")
    if values is None:
        sys.exit("perfbench: no pass completed")
    if args.trace:
        first = traced[0]
        print(f"{len(traced)} traced passes (medians); first: {first['samples']} sampled accesses "
              f"(1 in {first['every']}), clock read {first['read_cost_ns']:.1f} ns, "
              f"spans in perfbench/out/")
    else:
        print_phases(passes)
        accesses = passes[0]["pass"]["measured_accesses"]
        print(f"{len(passes)} passes of {accesses} measured accesses each; cameo_speedup is "
              f"simulated and unvalidated (no reference results to state an error against)")
    for spec in specs:
        print(f"  {spec['name']:40} {values[spec['name']]:14.6g} {spec['unit']}")
    if args.write_expected:
        write_expected(args, checks)

    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
