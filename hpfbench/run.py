#!/usr/bin/env python3
"""Build and run the hpfc end-to-end benchmark.

    python3 hpfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the benchmark executable (CMake, Release) under the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset; later calls
only check that the build is up to date. The executable's last stdout line
is the result: one JSON object with the keys correct, attempted, failed
and metrics. The exit code is the executable's (0 when every check
passed); a build failure or a timeout exits non-zero without a result.

Clean-up is enforced here as well as in the executable: the run gets its
own process group, this script adopts orphaned descendants, and after the
run every leftover process is killed and reaped and every snapshot
directory the run left under .bench_out is removed.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("remap_loop", "proc_fused", "compile_corpus", "checkpoint_restore")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(message):
    print(f"hpfbench: {message}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the benchmark; returns the executable."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "hpfbench"
    source_dir = root / "hpfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(source_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                       "hpfbench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    exe = build_dir / "hpfbench"
    return exe if exe.exists() else None


def adopt_orphans():
    """Makes this process the reaper of its orphaned descendants (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    """Kills whatever is left of the run's process group and reaps it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    exe = build(root)
    if exe is None:
        log("build failed")
        return 3

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(exe), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if args.inject:
        command += ["--inject", args.inject]

    adopt_orphans()
    child = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        stdout, code = b"", 4
    finally:
        reap_group(child.pid)
        shutil.rmtree(out_dir / f"snap-{child.pid}", ignore_errors=True)

    if code == 4 or not stdout.strip():
        return code or 5
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
