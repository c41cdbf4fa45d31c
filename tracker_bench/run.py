#!/usr/bin/env python3
"""Builds the benchmark and the repository's `mi-server` from source, then
runs one workload and passes its report through.

    python3 tracker_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. Builds go to `$CARGO_TARGET_DIR`
(default `target/`); the sessions' scratch files go to a directory inside
it. The last line of standard output is the JSON result. Exits nonzero,
without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The engine child every out-of-process session spawns, built the
        # way users build it: in the repository's own workspace.
        [os.path.join(ROOT, "Cargo.toml"), "-p", "mi", "--bin", "mi_server"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest, *rest in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        try:
            built = subprocess.run(cmd + rest, env=env, stdout=sys.stderr).returncode == 0
        except OSError as e:
            print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
            built = False
        if not built:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return 2
    scratch = os.path.join(target, "tracker-bench-tmp")
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    # The benchmark and every engine or host child it spawns share one
    # CPU. On a virtual machine a hand-off to a thread waiting on another
    # CPU waits for the hypervisor to wake that CPU, which made round
    # times vary by half between runs; a same-CPU switch does not.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        print(f"run.py: running unpinned: {e}", file=sys.stderr)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "tracker-bench"), "--server", os.path.join(release, "mi_server")]
    return subprocess.run(cmd + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
