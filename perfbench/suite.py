"""Run every workload over several seeds and summarise the results.

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/BENCH_1.json

Each run is a separate `perfbench/run.py` process of run_seconds from
BENCHMARK.json, over every workload listed there, seeds in the outer loop
and workloads in the inner one. For every end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median, next to the bound from
BENCHMARK.json. With --trace-seed it adds one traced run per workload: the
per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result "
                           f"(exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    record = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text(encoding="utf-8"))
    return result


def check_summary(checks: list[dict]) -> dict[str, bool | None]:
    """Each distinct check name -> False if any instance of it failed, else
    None (unverifiable) if any could not be made, else True."""
    oks: dict[str, list] = {}
    for check in checks:
        oks.setdefault(check["name"], []).append(check["ok"])
    return {name: False if False in seen else None if None in seen else True
            for name, seen in oks.items()}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range, lo-hi")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run_one(workload, seed, seconds, 0)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()),
                  flush=True)

    summary: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload, results in runs.items():
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in results)
        first = results[0]["record"]
        entry = {"correct": all(r["correct"] for r in results),
                 "checks": check_summary([c for r in results
                                          for c in r["record"]["checks"]]),
                 "shape": first["shape"],
                 "quality": {str(r["record"]["seed"]): r["record"]["quality"]
                             for r in results},
                 "metrics": {}}
        print(f"\n{workload}: metric median q1 q3 spread bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarise(values)
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            flag = ""
            if stats["bound"]:
                if stats["spread"] > stats["bound"]:
                    flag = "  OVER BOUND"
                elif stats["spread"] > stats["bound"] / 3:
                    flag = "  over a third of the bound"
            print(f"  {name:14s} {stats['median']:.5g} {stats['q1']:.5g} "
                  f"{stats['q3']:.5g} {stats['spread']:.4f} "
                  f"{stats['bound']}{flag}")
        summary["workloads"][workload] = entry
    summary["environment"] = runs[workloads[0]][0]["record"]["environment"]

    if args.trace_seed is not None:
        summary["traced"] = {}
        for workload in workloads:
            result = run_one(workload, args.trace_seed, seconds, 1)
            ok &= result["correct"] and result["exit_code"] == 0
            record = result["record"]
            summary["traced"][workload] = {
                "seed": args.trace_seed, "correct": result["correct"],
                "per_layer": {k: v["value"]
                              for k, v in result["metrics"].items()},
                "layers_self_ms_per_item":
                    record["trace"]["layers_self_ms_per_item"],
                "absent_layers": record["trace"]["absent_layers"],
                "count_errors": record["trace"]["count_errors"],
                "shape": record["shape"],
                "checks": check_summary(record["checks"]),
            }
            print(f"traced {workload}: correct={result['correct']} overhead "
                  f"{result['metrics']['trace.overhead_pct']['value']:.2f}%")

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
