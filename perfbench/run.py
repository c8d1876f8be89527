#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload app_mix|fault_grid \
        --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (the simulator library, the
fleet_runner worker binary and the benchmark program) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build, builds it, and
runs it. Its stdout passes through; the last line is
the JSON result. Build output and the simulator's stderr warnings go
to log files in the build directory. Exits non-zero, without a
result, if the build fails (for example when the simulator sources
are not present).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def run_timeout(budget_s):
    """Generous ceiling for one measured run of a `budget_s` budget. The
    benchmark stops itself long before this (a warm-up pass plus the
    budget plus half a pass), so hitting it means the program hung."""
    return 2 * budget_s + 90


def fail(msg, log=None):
    print("perfbench: " + msg, file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a result is
    attributable even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def revision(root):
    rev = "none"
    if shutil.which("git") and os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "-C", root, "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    return "git:%s src:%s" % (rev, source_digest(root))


def build(src_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", src_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                # Leave no half-configured cache behind.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed", log)
        r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                            "--target", "perfbench", "fleet_runner"],
                           stdout=out, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build failed", log)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["app_mix", "fault_grid"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(src_dir, build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--runner", os.path.join(build_dir, "fleet_runner"),
           "--work-dir", build_dir,
           "--revision", revision(root)]
    err_log = os.path.join(build_dir,
                           "perfbench-%s.stderr.log" % args.workload)
    sys.stdout.flush()
    with open(err_log, "w") as err:
        # Own process group, so a hung run's fleet workers die with it.
        proc = subprocess.Popen(cmd, stderr=err, start_new_session=True)
        timeout = run_timeout(args.seconds)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("run exceeded %.0f s" % timeout)
    if code != 0:
        print("perfbench: benchmark exited %d (stderr in %s)" % (code, err_log),
              file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
