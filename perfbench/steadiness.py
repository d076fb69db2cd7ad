"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/steadiness.py --workloads c6-train mnist-train \
        --seeds 101-110 [--seconds N] [--trace 0]

Runs the benchmark once per (workload, seed), one process at a time, from
the repository root.  For each workload and metric it prints the median,
the quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as a share
of the median, and the bound from BENCHMARK.json; a spread above a third
of its bound is marked.  All results also go to
perfbench/out/steadiness-<first seed>-<last seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"], wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / abs(q2)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, record, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "result": result,
                         "detail": record["detail"], "problems": record["problems"]})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}",
                  file=sys.stderr, flush=True)
        rows = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            rows[name] = {"median": med, "spread": iqr, "bound": bounds.get(name),
                          "values": values}
        walls = [r["wall_s"] for r in runs]
        report["workloads"][workload] = {"metrics": rows, "runs": runs,
                                         "wall_s_max": max(walls),
                                         "wall_s_median": statistics.median(walls)}
        print(f"\n{workload}: wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, all correct: "
              f"{all(r['result']['correct'] for r in runs)}")
        print("| metric | median | spread | bound | spread < bound/3 |")
        print("|---|---|---|---|---|")
        for name, row in rows.items():
            ok = "" if row["bound"] is None else (
                "yes" if row["spread"] < row["bound"] / 3 else "NO")
            print(f"| {name} | {row['median']:.6g} | {row['spread']:.4f} | "
                  f"{row['bound']} | {ok} |")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out",
                        f"steadiness-{args.seeds[0]}-{args.seeds[-1]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
