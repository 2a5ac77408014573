#!/usr/bin/env python3
"""Builds and runs bench_pipeline, the repository's end-to-end benchmark.

Run from the repository root:

  python3 bench_pipeline/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
      Builds (once) the library, bgpcu_classify and bench_pipeline, writes the
      seeded MRT archive in a process of its own, runs workload W in another,
      and prints the workload's result line as the last line of stdout.
      --trace 1 reports the per-layer metrics and writes the spans to
      <build>/traces/W-seedN.jsonl. --out appends a detail record (host,
      n / median / quartiles per metric, validity readings) to FILE.
  python3 bench_pipeline/run.py --selftest
  python3 bench_pipeline/run.py --gen-only DIR --seed N
      Writes the archive to DIR for driving the shipped tools by hand.
  python3 bench_pipeline/run.py --compare A.jsonl B.jsonl
      Median of each workload x end-to-end metric in A and in B, the relative
      change next to the metric's bound from BENCHMARK.json; exits 1 when a
      change is worse than its bound.

The build goes to $CARGO_TARGET_DIR/bench_pipeline (default .bench_build).
Exit status: 0 on success, 1 on a build, run or correctness failure, 2 on
bad arguments.
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
WORKLOADS = ("batch_classify", "live_tail", "lifecycle")
# Update-only days each workload reads (day 0 is always written).
LIVE_DAYS = {"batch_classify": 0, "lifecycle": 4, "live_tail": 8}
RUN_LIMIT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve() / "bench_pipeline"


def run_quiet(cmd, timeout):
    """Runs cmd with its output captured; prints the tail to stderr on failure.
    Returns the exit status."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stdout.decode(errors="replace").splitlines()[-40:]
        log(f"{' '.join(map(str, cmd[:3]))} ... failed:\n" + "\n".join(tail))
    return proc.returncode


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, timeout=300) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if run_quiet(["cmake", "--build", str(out), "--target", "bench_pipeline",
                  "bgpcu_classify", "-j", jobs], timeout=840) != 0:
        return None
    return out


def commit():
    if not (ROOT / ".git").exists():
        return ""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return proc.stdout.decode().strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def run_workload(args, out):
    started = time.monotonic()
    bench = out / "bench_pipeline"
    run_dir = out / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        archive = run_dir / "archive"
        gen = [str(bench), "--gen-only", str(archive), "--seed", str(args.seed),
               "--live-days", str(LIVE_DAYS[args.workload])]
        status = run_quiet(gen, timeout=120)
        if status != 0:
            return status
        # Write the archive back now, not while the workload is timed.
        os.sync()
        cmd = [str(bench), "--workload", args.workload, "--archive", str(archive),
               "--work-dir", str(run_dir / "work"),
               "--classify-bin", str(out / "bgpcu" / "bgpcu_classify"),
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--commit", commit()]
        if args.trace:
            traces = out / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
        if args.out:
            cmd += ["--out", str(Path(args.out).resolve())]
        remaining = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
        try:
            return subprocess.run(cmd, timeout=remaining).returncode
        except subprocess.TimeoutExpired:
            log(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # Commit the deletions now: freeing hundreds of MB leaves the
        # filesystem work that would otherwise land in the next run's timing.
        os.sync()


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a, path_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    def medians(path):
        values = {}
        for rec in load_records(path):
            if rec.get("traced"):
                continue
            for name, m in rec["metrics"].items():
                if name in metrics:
                    values.setdefault((rec["workload"], name), []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in values.items()}

    a, b = medians(path_a), medians(path_b)
    worse_than_bound = False
    print(f"{'workload':16} {'metric':18} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        (va, na), (vb, nb) = a[key], b[key]
        change = (vb - va) / va if va else 0.0
        worse = change if metrics[name]["better"] == "lower" else -change
        bound = metrics[name]["bound"]
        verdict = "ok" if worse <= bound else "WORSE"
        worse_than_bound |= worse > bound
        print(f"{workload:16} {name:18} {va:12.6g} {vb:12.6g} {change:+8.2%} {bound:6.0%}  "
              f"{verdict} (n={na}/{nb})")
    missing = sorted(set(a) ^ set(b))
    if missing:
        print(f"only in one file: {missing}")
    return 1 if worse_than_bound else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--gen-only", metavar="DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not (args.selftest or args.gen_only or args.workload):
        parser.print_usage(sys.stderr)
        return 2
    out = build()
    if out is None:
        return 1
    bench = out / "bench_pipeline"
    if args.selftest:
        return subprocess.run([str(bench), "--selftest"], timeout=60).returncode
    if args.gen_only:
        return subprocess.run([str(bench), "--gen-only", args.gen_only, "--seed",
                               str(args.seed)], timeout=300).returncode
    return run_workload(args, out)


if __name__ == "__main__":
    sys.exit(main())
