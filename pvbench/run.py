#!/usr/bin/env python3
"""Build pvbench from the checkout it sits in, then run one workload.

    python3 pvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout. The pathview libraries and the pvbench
harness are built (incrementally) into .bench_build/pvbench; build output
goes to stderr, so the last line on stdout is the harness's JSON result.
--trace 1 selects the traced run, which reports the per-layer metrics and
writes its trace files to .bench_build/pvbench/trace/.
"""
import argparse
import os
import shutil
import subprocess
import sys

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
BUILD = os.path.join(".bench_build", "pvbench")


def build():
    """Configure once, then build pvbench; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PKG, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pvbench",
                    "-j", str(os.cpu_count() or 1)],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(ROOT, BUILD, "pvbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"pvbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--spec", "BENCHMARK.json",
           "--workdir", os.path.join(BUILD, "work", a.workload)]
    if a.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace")]
    env = dict(os.environ)
    env.pop("PATHVIEW_TRACE", None)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("pvbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
