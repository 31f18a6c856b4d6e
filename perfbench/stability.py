"""Stability check: do two sets of runs of one commit agree within the bounds?

    python3 perfbench/stability.py

For each workload it makes two sets of runs; a set is one ``run.py --trace 0``
run per seed 1..10 and one ``--trace 1`` run at seed 1.  For each end-to-end
metric it prints the spread of a set, (Q3 - Q1) / median with the quartiles
of ``statistics.quantiles(values, n=4)``, and how far the median moved from
the first set to the second.  It fails when a spread exceeds the metric's
bound, when a median moves by more than the bound in either direction, or
when a count of the traced runs differs between sets.  The spread of
setup_s is printed but not gated: the exhaustive workload's set-up is an
interpreter start alone, which varies by about 30 % from run to run however
many starts a run takes the median of; its median must still hold between
sets.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print("\n".join(lines[:-1]))
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "ratio")]
    seconds = bench["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        medians: dict[str, list[float]] = {name: [] for name in bounds}
        counters = []
        for set_no in range(SETS):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in SEEDS:
                metrics = run_once(workload, seed, seconds, 0)["metrics"]
                for name in bounds:
                    values[name].append(metrics[name]["value"])
                print(workload, set_no, seed,
                      " ".join(f"{n}={metrics[n]['value']:.4g}" for n in bounds), flush=True)
            for name, bound in bounds.items():
                s = spread(values[name])
                medians[name].append(statistics.median(values[name]))
                flag = "" if s <= bound / 3 else " (above a third of the bound)"
                if s > bound and name != "setup_s":
                    ok, flag = False, " SPREAD ABOVE BOUND"
                print(f"{workload} set {set_no} {name}: median {medians[name][-1]:.6g}, "
                      f"spread {s:.4f} of bound {bound}{flag}", flush=True)
            metrics = run_once(workload, SEEDS[0], seconds, 1)["metrics"]
            counters.append({n: metrics[n]["value"] for n in counted})
        for name, bound in bounds.items():
            first, *rest = medians[name]
            for later in rest:
                moved = (later - first) / first
                flag = ""
                if abs(moved) > bound:
                    ok, flag = False, " MOVED BEYOND BOUND"
                print(f"{workload} {name}: median moved {moved:+.4f} (bound {bound}){flag}")
        if any(c != counters[0] for c in counters[1:]):
            ok = False
            print(f"{workload}: counters differ between sets: {counters}")
        else:
            print(f"{workload}: {len(counted)} counters identical across {SETS} sets")
    print("stable" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
