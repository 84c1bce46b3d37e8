#!/usr/bin/env python3
"""Build sflowd and the load generator, then run one benchmark workload.

    python3 sflowbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sflowbench/run.py --selfcheck

Run from the repository root.  Builds into .bench_build/ (CMake, the
package in this directory), writes sockets and span traces under
.bench_run/, and prints the generator's output: a host/phase record line,
then the result line (the last line of stdout).  Build output goes to
stderr.  Extra flags (--sessions, --closed-requests, --open-samples)
are passed through for calibration; see README.md.

--selfcheck runs every workload small (one session, a short stream), plain
and traced, through the correctness gate, and exits non-zero unless each is
correct with no failed request.
"""
import json
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(ROOT, ".bench_run")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "sflowbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha():
    """Digest of everything the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "sflowbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def generator(args):
    return [os.path.join(BUILD, "sflowbench"), *args,
            "--sflowd", os.path.join(BUILD, "sflowd"),
            "--run-dir", os.path.relpath(RUN, os.getcwd()),
            "--git-sha", git_sha(), "--source-sha", source_sha()]


def selfcheck():
    workloads = subprocess.run([os.path.join(BUILD, "sflowbench"), "--list"],
                               capture_output=True, text=True,
                               check=True).stdout.split()
    status = 0
    for workload in workloads:
        for trace in ("0", "1"):
            out = subprocess.run(
                generator(["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", trace,
                           "--sessions", "1", "--closed-requests", "200",
                           "--open-samples", "100"]),
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = (out.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0)
            print(f"{workload} trace {trace}: "
                  f"{'ok' if ok else 'FAIL'} ({result.get('attempted', 0)} "
                  f"requests)")
            if not ok:
                print(out.stderr[-2000:], file=sys.stderr)
                status = 1
    return status


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(RUN, exist_ok=True)
    if sys.argv[1:] == ["--selfcheck"]:
        return selfcheck()
    return subprocess.run(generator(sys.argv[1:])).returncode


if __name__ == "__main__":
    sys.exit(main())
