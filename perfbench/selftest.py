#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, an untraced and a traced run must print
exactly the declared end-to-end or per-layer metrics, each with its declared
unit. A run given its own digest must pass, and one given a wrong digest must
exit non-zero without printing a result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    return p.returncode, p.stdout.strip().splitlines()


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            code, lines = run(w, trace)
            if code != 0:
                failures.append(f"{w} trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                failures.append(f"{w} trace={trace}: metrics {printed} != "
                                f"declared {declared[trace]}")
            if not lines[0].startswith("# context: "):
                failures.append(f"{w} trace={trace}: no machine context line")

    w = bench["workloads"][0]["name"]
    code, lines = run(w, 0)
    digest = next(l.split()[-1] for l in lines if l.startswith("# digest: "))
    code, _ = run(w, 0, "--expect-digest", digest)
    if code != 0:
        failures.append(f"{w}: its own digest {digest} was rejected")
    wrong = "%016x" % (int(digest, 16) ^ 1)
    code, lines = run(w, 0, "--expect-digest", wrong)
    if code == 0 or any(l.startswith('{"correct"') for l in lines):
        failures.append(f"{w}: a wrong digest did not fail the run")

    for f in failures:
        print("selftest: FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
