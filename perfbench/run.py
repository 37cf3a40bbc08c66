#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the compiler.  It builds
perfbench.exe and the cmoc-worker binary with dune (the shared dune
cache is disabled, so nothing is written outside the checkout), then
runs perfbench.exe with the same arguments.  The last line of standard
output is the benchmark's JSON result; build output goes to standard
error.  It exits non-zero without a result when the checkout cannot be
built or the run fails.
"""

import os
import signal
import subprocess
import sys

TARGETS = ["./perfbench/perfbench.exe", "./bin/cmoc_worker.exe"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout, kill the group
    (perfbench and any worker it spawned) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout of the compiler",
              file=sys.stderr)
        return 1
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", "_build", *TARGETS]
    try:
        if run(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return run([EXE, *argv], RUN_TIMEOUT_S, env=env)
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
