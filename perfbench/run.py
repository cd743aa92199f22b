#!/usr/bin/env python3
"""Builds and runs the repository benchmark (upsbench) for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--expect-digest HEX]

Run from the root of a checkout. The simulator library and the benchmark
program are built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); spans and the temporary trace file go to
its out/ directory. The last line of stdout is the result JSON, printed only
when every output check passed; any failure exits non-zero without it.

At the default seed and full size the run must reproduce the digest of the
simulated outputs stored in digests.json; other seeds keep the invariant
checks only. selftest.py checks this script at tiny sizes.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary stops starting iterations at --seconds; this only catches a hang.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    sys.stdout.flush()
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = ROOT / target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir),
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        # Build chatter goes to stderr so the result stays stdout's last line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return build_dir


def expected_digest(args):
    if args.expect_digest is not None:
        return args.expect_digest
    stored = json.loads((HERE / "digests.json").read_text())
    if args.size == stored["size"] and args.seed == stored["seed"]:
        return stored["digests"].get(args.workload)
    return None


def run(cmd):
    """Runs cmd in its own process group and returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        die(f"timed out after {RUN_TIMEOUT_S} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--expect-digest")
    args = ap.parse_args()

    build_dir = build()
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "upsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--size", args.size,
           "--out-dir", str(out_dir)]
    digest = expected_digest(args)
    if digest:
        cmd += ["--expect-digest", digest]

    code, out = run(cmd)
    sys.stdout.write(out)
    if code != 0:
        die(f"upsbench exited with {code}", code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die("no result line", 3)
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        die("malformed or incorrect result", 3)


if __name__ == "__main__":
    main()
