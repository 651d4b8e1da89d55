#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig7_unixbench --seed 42 \
        --seconds 20 --trace 0

The arguments are passed to perfbench/main.exe unchanged (see main.ml).
Build output goes to stderr; the last stdout line is the JSON result.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the repository root "
            "(no dune-project and lib/ here)\n")
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    # Keep freed large blocks (each scenario's 32 MiB simulated DRAM) in
    # the process instead of unmapping them: otherwise a fig7 pass takes
    # about 300k page faults, whose cost under a hypervisor varies from run
    # to run far more than the simulator's own work does.
    run_env = dict(os.environ,
                   MALLOC_MMAP_THRESHOLD_=str(1 << 30),
                   MALLOC_TRIM_THRESHOLD_=str(1 << 31),
                   MALLOC_TOP_PAD_=str(64 << 20))
    os.execve(exe, [exe] + sys.argv[1:], run_env)


if __name__ == "__main__":
    sys.exit(main())
