"""cycleiso benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --quick                 # self-check on reduced inputs

Run it from anywhere; it uses the sources under ``src/`` of the checkout it
sits in.  Each run first sets up at least ``SETUP_REPS`` times and for at
least ``SETUP_SECONDS`` (a fresh interpreter that imports cycleiso and
generates and writes the seeded input) and reports the median as
``setup_s``.  It then repeats passes, each in a fresh
interpreter, until ``--seconds`` have gone by (always at least one pass;
one order-8 exhaustive pass alone takes longer than a run's measuring time).

Every reported time is scaled to a fixed reference host speed (``speed.py``):
the shared host this was written on runs at two speeds about 1.8 times
apart, and the raw times (printed too) spread accordingly.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the run's passes.  With ``--trace 1`` it alternates traced and untraced
passes and reports the per-layer metrics of the traced ones, plus
``trace.overhead_pct``, the median time ratio of adjacent traced and
untraced passes.  The exhaustive workload makes one traced order-8 pass
and then measures that ratio on order-7 pairs for ``--seconds``, so the
run stays within its time limit.
Counts must repeat exactly across the traced passes of one run.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A failed correctness
gate makes the exit code 1; a checkout without ``src/cycleiso`` makes it 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import speed
from workloads import (
    DEFAULT_SEED, HERE, ROOT, SRC, WORK, WORKLOADS, child_env, tail_level, work_dir,
)

#: set-up repetitions per run; the interpreter start that is all of the
#: exhaustive workload's set-up varies by about 30 % from one start to the next
SETUP_REPS = 9
SETUP_SECONDS = 3.0
#: a run must end within 180 s; children are stopped at this many seconds
RUN_DEADLINE_S = 170.0


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(key: str) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json names under key."""
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


class Run:
    """One workload at one seed: set-up repetitions, then passes."""

    def __init__(self, workload: str, seed: int, quick: bool, started: float):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.quick = quick
        self.started = started
        self.dir = work_dir(workload, seed, quick)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.count = 0
        self.digests: dict[int | None, set[str]] = {}  # output sha256 by enumeration order
        self.spans = None  # span file of the latest traced full-size pass

    def _spawn(self, script: str, args: list[str]) -> float | None:
        """Seconds the child took, or None if it failed or was stopped."""
        timeout = max(1.0, RUN_DEADLINE_S - (perf_counter() - self.started))
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / script), *args],
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.messages.append(f"{script} stopped after {timeout:.0f} s")
            return None
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.messages.append(f"{script} exited {proc.returncode}: {tail[0]}")
            return None
        return elapsed

    def setup(self) -> list[float]:
        """Set-up times at the reference host speed."""
        times = []
        digests = set()
        args = ["--workload", self.workload, "--seed", str(self.seed), "--out", str(self.dir)]
        begun = perf_counter()
        reps = 1 if self.quick else SETUP_REPS
        while reps > 0 or (not self.quick and perf_counter() - begun < SETUP_SECONDS):
            reps -= 1
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir.mkdir(parents=True)
            before = speed.bracket()
            elapsed = self._spawn("gen.py", args + (["--quick"] if self.quick else []))
            self.attempted += 1
            if elapsed is None:
                self.failed += 1
                continue
            times.append(elapsed * speed.factor(before + speed.bracket()))
            digests.add(tuple(
                hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(self.dir.iterdir())
            ))
        if len(digests) > 1:
            self.failed += 1
            self.messages.append("set-up repetitions wrote different inputs for one seed")
        return times

    def one_pass(self, trace: bool, order: int | None = None) -> dict | None:
        self.count += 1
        result = self.dir / f"pass-{self.count}.json"
        args = ["--workload", self.workload, "--input", str(self.dir),
                "--seed", str(self.seed), "--result", str(result)]
        if self.spec["kind"] == "enumerate":
            default = self.spec["quick_order" if self.quick else "order"]
            args += ["--order", str(order or default)]
        if self.quick:
            args.append("--quick")
        spans = result.with_suffix(".spans.tsv")
        if trace:
            args += ["--spans", str(spans)]
        if self._spawn("one_pass.py", args) is None or not result.is_file():
            self.attempted += 1
            self.failed += 1
            return None
        out = json.loads(result.read_text())
        self.digests.setdefault(order, set()).add(out["sha256"])
        self.attempted += max(1, out["graphs"])
        self.failed += out["failed"]
        self.messages += out["messages"]
        if trace and order is None:
            self.spans = spans
        return out

    def finish(self) -> None:
        if self.spans is not None and self.spans.is_file():
            shutil.copyfile(self.spans, WORK / f"spans-{self.workload}.tsv")
        shutil.rmtree(self.dir, ignore_errors=True)


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def measure(run: Run, seconds: float) -> dict[str, list[float]]:
    setups = run.setup()
    walls, rates, rss, raw, cpu = [], [], [], [], []
    begun = perf_counter()
    while not walls or (not run.quick and perf_counter() - begun < seconds):
        out = run.one_pass(trace=False)
        if out is None:
            break
        walls.append(out["wall_s"] * out["speed_factor"])
        rates.append(out["graphs"] / walls[-1])
        rss.append(out["peak_rss_mb"])
        raw.append(out["wall_s"])
        cpu.append(out["cpu_s"])
    if not walls:
        return {}
    med, q1, q3 = summary(raw)
    print(f"{run.workload} raw wall {med:.6g} s (quartiles {q1:.6g} .. {q3:.6g}), "
          f"cpu {statistics.median(cpu):.6g} s, host speed factor "
          f"{statistics.median(w / r for w, r in zip(walls, raw)):.4g}")
    return {"wall_s": walls, "graphs_per_s": rates, "setup_s": setups, "peak_rss_mb": rss}


def scaled_layers(out: dict, units: dict[str, str]) -> dict[str, float]:
    """The per-layer metrics of a traced pass, times at the reference speed."""
    return {
        name: value * out["speed_factor"] if units.get(name) in ("s", "ms") else value
        for name, value in out["layers"].items()
    }


def measure_traced(run: Run, seconds: float, units: dict[str, str]) -> dict[str, list[float]]:
    run.setup()
    layers: list[dict] = []
    ratios = []  # traced / untraced time of adjacent passes over one input
    probe = None if run.quick else run.spec.get("probe_order")
    if probe is not None:
        out = run.one_pass(trace=True)
        if out is not None:
            layers.append(scaled_layers(out, units))
    begun = perf_counter()
    while not ratios or (not run.quick and perf_counter() - begun < seconds):
        a = run.one_pass(trace=True, order=probe)
        b = run.one_pass(trace=False, order=probe)
        if a is None or b is None:
            break
        if probe is None:
            layers.append(scaled_layers(a, units))
        ratios.append(a["wall_s"] * a["speed_factor"] / (b["wall_s"] * b["speed_factor"]))
    if not layers or not ratios:
        return {}
    series: dict[str, list[float]] = {}
    for name in layers[0]:
        series[name] = [m[name] for m in layers]
        if units.get(name) in ("count", "ratio") and len(set(series[name])) > 1:
            run.failed += 1
            run.messages.append(f"count {name} differs between traced passes: {series[name]}")
    series["trace.overhead_pct"] = [100.0 * (statistics.median(ratios) - 1.0)]
    return series


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    started = perf_counter()
    run = Run(workload, seed, quick, started)
    units = declared_units("per_layer" if trace else "end_to_end")
    try:
        series = measure_traced(run, seconds, units) if trace else measure(run, seconds)
    finally:
        run.finish()
    metrics = {}
    calls = int(series.get("survey.check.calls", [0])[0])
    for name, unit in units.items():
        if name not in series:
            continue
        med, q1, q3 = summary(series[name])
        metrics[name] = {"value": int(med) if unit == "count" else med, "unit": unit}
        print(f"{workload} {name} {med:.6g} {unit} "
              f"(median of {len(series[name])}; quartiles {q1:.6g} .. {q3:.6g})")
        if name == "survey.check.tail_ms" and calls:
            print(f"{workload} survey.check.tail_ms is the {tail_level(calls):g}th percentile "
                  f"of {calls} check_graph calls")
    for order, digests in run.digests.items():
        print(f"{workload} output sha256{'' if order is None else f' (order {order})'}: "
              + ", ".join(sorted(digests)))
        if len(digests) > 1:
            run.failed += 1
            run.messages.append("passes over one input gave different outputs")
    if set(series) != set(units):
        run.messages.append(f"measured metrics {sorted(series)} differ from BENCHMARK.json")
    correct = run.failed == 0 and set(series) == set(units)
    for msg in dict.fromkeys(run.messages):
        print(f"{workload} gate: {msg}")
    if run.attempted:
        print(f"{workload} fail_rate {run.failed / run.attempted:.6g} "
              f"({run.failed} failed of {run.attempted} attempted)")
    return {"correct": correct, "attempted": max(1, run.attempted), "failed": run.failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload on a reduced input, untraced and traced")
    args = ap.parse_args()
    if not (SRC / "cycleiso" / "__init__.py").is_file():
        print(f"error: no cycleiso sources under {SRC}", file=sys.stderr)
        return 2
    name = args.workload or ("all" if args.quick else None)
    if name is None:
        ap.error("--workload is required without --quick")
    if name != "all" and name not in WORKLOADS:
        ap.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if name == "all" else [name]
    modes = [False, True] if args.quick else [bool(args.trace)]
    results = {
        (w, t): run_workload(w, args.seed, args.seconds, t, args.quick)
        for w in names for t in modes
    }
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for (w, _), r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
