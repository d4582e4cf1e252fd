#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/bench.ml).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench.exe with dune in the checkout this file belongs to, then
runs it there with the given arguments.  The last line bench.exe prints
is the JSON result; the exit code is bench.exe's (non-zero on a failed
build or a wrong answer).
"""
import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The shared dune cache lives outside the checkout; keep the build inside.
env = dict(os.environ, DUNE_CACHE="disabled")
build = subprocess.run(
    ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/bench.exe"],
    cwd=root, env=env, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode if build.returncode > 0 else 1)
exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
# The whole stack is one OCaml domain: its threads take turns on one
# runtime lock, so it runs OCaml code on one core at a time.  Left free
# on a 2-vCPU VM, every handoff of that lock to a thread on the other,
# idle vCPU waits for the hypervisor to schedule it.  Measured that way,
# lifecycle-churn ran 3-4 times slower and varied by a quarter between
# identical runs; pinned, runs agree within a few percent.  Pin the
# benchmark (daemons and clients) to one CPU so that runs measure the
# stack rather than the host's scheduler.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
run = subprocess.run([exe] + sys.argv[1:], cwd=root)
sys.exit(run.returncode if run.returncode >= 0 else 1)
