#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hoqri-walmart8 --seed 1 --seconds 30 --trace 0

builds the Go package in perfbench/ (its own module, which reaches the
program's packages through a replace directive) into the build directory
($CARGO_TARGET_DIR, default .bench_build), then runs it with the given
arguments. Every Go cache and temporary file stays inside the build
directory. The last line of standard output is the result JSON.

    python3 perfbench/run.py compare BASE.txt NEW.txt

compares the captured output of runs of two commits: per workload and
metric it prints the medians and their change, and refuses (exit 2) when
the two sides were measured at different CPU counts.
"""

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def source_id():
    """The commit, or without git a digest of the Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(args):
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--out", os.path.join(build, "out"), "--commit", source_id()] + args
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def parse_capture(path):
    """Stamps and results of every run in a captured stdout file."""
    stamps, results = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("stamp "):
                stamps.append(json.loads(line[len("stamp "):]))
            elif line.startswith('{"correct"'):
                results.append((stamps[-1]["workload"], json.loads(line)))
    return stamps, results


def compare(base_path, new_path):
    sides = [parse_capture(base_path), parse_capture(new_path)]
    cpus = {(s["nproc"], s["gomaxprocs"]) for stamps, _ in sides for s in stamps}
    if len(cpus) != 1:
        print("refusing to compare runs taken at different CPU counts (nproc, GOMAXPROCS): %s"
              % sorted(cpus), file=sys.stderr)
        return 2
    values = {}
    for side, (_, results) in enumerate(sides):
        for workload, res in results:
            for name, m in res["metrics"].items():
                values.setdefault((workload, name, m["unit"]), ([], []))[side].append(m["value"])
    for (workload, name, unit), (base, new) in sorted(values.items()):
        if not base or not new:
            continue
        b, n = statistics.median(base), statistics.median(new)
        change = (n - b) / b * 100 if b else float("nan")
        print("%-16s %-28s %14.6g %14.6g %s  %+.1f%%  (n=%d/%d)"
              % (workload, name, b, n, unit, change, len(base), len(new)))
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return compare(sys.argv[2], sys.argv[3])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
