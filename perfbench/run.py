#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sched-update --seed 1 --seconds 10 --trace 0

Workloads: fleet-tcp, sched-update, b4-scale, and fleet-sim, which is not
in BENCHMARK.json (see RATIONALE.md, "Known failure"). The script builds
the Go package in this directory against the checkout it sits in, keeping
every Go cache and temporary file under <checkout>/.bench_build, then runs
it from the checkout root with the same arguments. The benchmark prints a
human-readable report and, as its last line, one JSON result object; it
exits non-zero when a correctness check fails. RATIONALE.md describes the
workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def find_go():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT")
    for cand in ([os.path.join(goroot, "bin", "go")] if goroot else []) + ["/usr/local/go/bin/go"]:
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod in %s; run from a full checkout" % ROOT)
    go = find_go()
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                      ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[name] = os.path.join(BUILD, sub)
        os.makedirs(env[name], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off", GOENV="off")
    binary = os.path.join(BUILD, "perfbench")
    done = subprocess.run([go, "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: build failed")
    return binary


def main():
    binary = build()
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
