#!/usr/bin/env python3
"""Build and run the sampler benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

builds bin/rsj.exe and perfbench/bench.exe from source into .bench_build,
runs the workload in a scratch directory under .bench_build and passes the
benchmark's output through; the last stdout line is the JSON result.

Spread check (repeats one workload with seeds 1..N and prints each metric's
median, quartiles and spread against its bound in BENCHMARK.json):

    python3 perfbench/run.py --repeat 10 --workload serve_warm [--seed-base 1]
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_warm", "serve_churn", "batch_scan")

# The root dune file's hygiene greps do not cover this directory, so the
# benchmark keeps the same rules itself.
HYGIENE = [
    (re.compile(r"Domain\.spawn"), "spawns a domain (only the pool may)"),
    (re.compile(r"Unix\.gettimeofday|Sys\.time\b|Mtime\."), "reads a clock outside Rsj_obs.Clock"),
    (re.compile(r"Unix\.(socket|bind|listen|accept|connect)\b"), "opens a socket outside Client"),
]


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_hygiene():
    for name in sorted(os.listdir(HERE)):
        if not name.endswith((".ml", ".mli")):
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for pattern, what in HYGIENE:
                    if pattern.search(line):
                        die("%s:%d %s" % (name, lineno, what), 3)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from a full checkout of the repository" % need, 2)
    check_hygiene()
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "release",
           "./bin/rsj.exe", "./perfbench/bench.exe"]
    # Dune's shared cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL, env=env)
    except FileNotFoundError:
        die("dune not found on PATH", 2)
    if done.returncode != 0:
        die("build failed", 3)
    return (os.path.join(BUILD, "default", "bin", "rsj.exe"),
            os.path.join(BUILD, "default", "perfbench", "bench.exe"))


def run_once(workload, seed, seconds, trace, capture=False):
    rsj, bench = build()
    work = os.path.join(BUILD, "perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # RSJ_* knobs would change what the in-process probe measures.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RSJ_")}
    argv = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--rsj", rsj]
    child = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE if capture else None)

    def forward(signum, _frame):
        child.send_signal(signal.SIGTERM)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate()
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work, ignore_errors=True)
    return child.returncode, (out.decode() if capture else None)


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    for i in range(args.repeat):
        seed = args.seed_base + i
        code, out = run_once(args.workload, seed, seconds, args.trace, capture=True)
        if code != 0:
            die("run with seed %d exited %d" % (seed, code), 1)
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        print("%s seed %d: correct=%s attempted=%d failed=%d  %s" %
              (time.strftime("%H:%M:%S"), seed, result["correct"], result["attempted"], result["failed"],
               " ".join("%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"]) for m in metrics)),
              flush=True)
    print("\n%s, %d runs of %s s, seeds %d..%d" %
          (args.workload, len(runs), seconds, args.seed_base, args.seed_base + len(runs) - 1))
    print("%-26s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = "" if bound is None or spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print("%-26s %12.5g %12.5g %12.5g %8.4f %6s%s" %
              (m["name"], q1, med, q3, spread, "-" if bound is None else bound, flag))
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("failed/attempted per run: " + ", ".join("%d/%d" % s for s in shares))
    print("all correct: %s" % all(r["correct"] for r in runs))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    p.add_argument("--repeat", type=int, help="repeat the workload with seeds seed-base.. and summarise")
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args()
    if args.repeat:
        args.trace = args.trace or 0
        repeat(args)
        return
    if args.seed is None or args.seconds is None or args.trace is None:
        p.error("--seed, --seconds and --trace are required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
