#!/usr/bin/env python3
"""Build the EnCore benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn-paper --seed 1 --seconds 10 --trace 0

Every argument is passed on to perfbench/main.exe (see perfbench/README.md).
The build goes to the checkout's _build directory with dune's shared cache
off, so nothing is read from or written to outside the checkout.  Build
output goes to standard error; the last line of standard output is the
run's JSON result.  Exits 2 without a result when the directory is not an
EnCore checkout.
"""

import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run_timeout_s(argv):
    """A run's time limit: a set-up allowance plus a multiple of
    --seconds, at most 175 s, so that a stuck run is stopped (and its
    scratch directory removed) before a caller's 180 s limit."""
    seconds = 10
    if "--seconds" in argv:
        try:
            seconds = int(argv[argv.index("--seconds") + 1])
        except (IndexError, ValueError):
            pass
    return min(175, 55 + 12 * max(seconds, 1))


def remove_scratch(argv, pid):
    """Remove the scratch directory of a killed run, .bench_tmp/<workload>-<pid>:
    its own clean-up does not run when it is killed."""
    if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
        workload = argv[argv.index("--workload") + 1]
        shutil.rmtree(os.path.join(".bench_tmp", "%s-%d" % (workload, pid)),
                      ignore_errors=True)
    try:
        os.rmdir(".bench_tmp")
    except OSError:
        pass


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: not the root of an EnCore checkout "
              "(needs dune-project, lib/ and perfbench/)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    argv = sys.argv[1:]
    timeout = run_timeout_s(argv)
    with subprocess.Popen([EXE] + argv + ["--commit", source_id()]) as run:
        try:
            run.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            run.kill()
            run.wait()
            print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
            remove_scratch(argv, run.pid)
            return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
