#!/usr/bin/env python3
"""End-to-end SDEA benchmark: builds the library and the runner from
source, checks the runner's own arithmetic, then runs one workload.

    python3 perfbench/run.py --workload fit_pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Build files, scratch files and results go
under .bench_build/. The last line of stdout is the JSON result; the exit
code is 0 only when every output check held. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fit_pipeline", "serve_open", "stream_refresh")
BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD = REPO / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Content hash of everything the benchmark builds: the checkout is
    not a git repository, so this stands in for the commit."""
    h = hashlib.sha1()
    roots = [REPO / "src", BENCH_DIR]
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(REPO)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(2, f"library sources not found under {REPO / 'src'}")
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                  "sdea_perfbench", "perfbench_selftest"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(3, f"build failed (full log: {log})")


def selftest():
    if subprocess.call([str(CMAKE_DIR / "perfbench_selftest")],
                       stdout=sys.stderr) != 0:
        fail(4, "benchmark arithmetic self-test failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only build and run the arithmetic self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build()
    selftest()
    if args.selftest:
        return 0

    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = dict(os.environ)
    env.setdefault("SDEA_LOG_LEVEL", "warning")
    cmd = [str(CMAKE_DIR / "sdea_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--out-dir", str(BUILD / "results"),
           "--commit", source_id()]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(5, f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        # The runner died before its result: show what it printed, but no
        # result line.
        print("\n".join(lines), file=sys.stderr)
        fail(6, f"workload {args.workload} ended without a result "
                f"(exit {proc.returncode})")
    # A failed output check still prints its result ("correct": false) and
    # exits nonzero.
    print("\n".join(lines), flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
