#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record-reference

Run from the root of the repository. The benchmark executable is built
from source with dune first; its last line of standard output is the
result JSON. --selfcheck runs every workload of BENCHMARK.json at tiny
sizes, untraced and traced, and checks that every metric BENCHMARK.json
names is emitted, finite and in its unit.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
                       env=env)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {r.returncode})")


def selfcheck():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = [EXE, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--scale", "40"]
            r = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=170)
            label = f"{w['name']} trace {trace}"
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{label}: exit {r.returncode}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{label}: correct={res['correct']} attempted={res['attempted']}")
            got = res["metrics"]
            for m in spec[key]:
                v = got.get(m["name"])
                if v is None:
                    problems.append(f"{label}: {m['name']} missing")
                elif not math.isfinite(v["value"]) or v["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} = {v}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"selfcheck: {label}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    print(json.dumps({"selfcheck": "ok" if not problems else "FAILED", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    build()
    if sys.argv[1:] == ["--selfcheck"]:
        sys.exit(selfcheck())
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
