"""One pass of a workload in a fresh interpreter, as every CLI call is.

    python3 perfbench/one_pass.py --workload W --input DIR --seed N --result FILE
        [--quick] [--order N] [--spans FILE]

The survey workloads call ``cycleiso.cli.main`` with the command line a user
would type, capturing stdout; construct-mix calls ``construct`` and then
``verify`` on every input graph.  The timer starts at that first call and
stops once the output is complete and has passed the correctness gate.
The result file holds the time, the gate's verdict, the peak resident
memory of this process and, with --spans (which turns tracing on), the
per-layer metrics; the spans themselves go to the --spans file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import speed
from workloads import NODE_BUDGET, SRC, WORKLOADS

import cycleiso
from check import check_survey, pinned

if Path(cycleiso.__file__).resolve().parent != SRC / "cycleiso":
    sys.exit(f"cycleiso was imported from {cycleiso.__file__}, not from {SRC}")

from cycleiso import cli, constructive, graphs, isolation  # noqa: E402


def survey_argv(workload: str, inp: Path, order: int | None) -> list[str]:
    spec = WORKLOADS[workload]
    if spec["kind"] == "enumerate":
        return ["survey", "--enumerate", str(order), "--bound-c4", "--format", "csv"]
    argv = ["survey", "--file", str(inp / "input.g6")]
    if spec["k"] == 4:
        argv += ["--bound-c4", "--exclude", str(inp / "exclude.g6")]
    else:
        argv += ["--conjecture", "-k", str(spec["k"])]
    return argv + ["--budget", str(NODE_BUDGET), "--format", "csv"]


def run_survey(workload: str, inp: Path, order: int | None) -> tuple[int, int, list[str], str]:
    argv = survey_argv(workload, inp, order)
    inputs = meta = None
    if WORKLOADS[workload]["kind"] == "ingest":
        inputs = (inp / "input.g6").read_text().split()
        meta = json.loads((inp / "meta.json").read_text())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    records, failed, messages = check_survey(out, rc, inputs, meta, order)
    return records, failed, messages, hashlib.sha256(out.encode()).hexdigest()


def run_construct(parsed: list[graphs.Graph]) -> tuple[int, int, list[str], str]:
    digest = hashlib.sha256()
    bad = 0
    for g in parsed:
        try:
            d, trace = constructive.construct(g)
        except ValueError as exc:  # a rejected component or an unbudgeted fallback
            bad += 1
            digest.update(f"error {exc}\n".encode())
            continue
        labels = trace.labels
        ok = (
            isolation.verify(g, d, 4).valid
            and d.bit_count() <= (g.m + 1) // 6
            and "fallback" not in labels
        )
        bad += not ok
        digest.update(f"{d} {'|'.join(labels)}\n".encode())
    messages = [f"{bad} sets invalid, over floor((m+1)/6) or from the fallback"] if bad else []
    return len(parsed), bad, messages, digest.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--order", type=int, help="enumeration order (exhaustive workload)")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args()
    inp = Path(args.input)
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "construct":
        parsed = [graphs.parse_graph6(line) for line in (inp / "input.g6").read_text().split()]
    # the program is single-threaded (workers=1); a long switch interval
    # only keeps the sampler's chunks whole
    sys.setswitchinterval(0.05)
    sampler = speed.Sampler()
    sampler.start()
    cpu = time.process_time()
    started = perf_counter()
    if spec["kind"] == "construct":
        records, failed, messages, digest = run_construct(parsed)
    else:
        records, failed, messages, digest = run_survey(args.workload, inp, args.order)
    wall = perf_counter() - started
    cpu = time.process_time() - cpu
    samples = sampler.stop()

    pin = pinned(args.workload, args.seed, args.quick)
    default_order = spec.get("quick_order" if args.quick else "order")
    if pin is not None and args.order == default_order and digest != pin:
        failed += 1
        messages.append(f"output sha256 {digest} != pinned {pin}")
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "speed_factor": speed.factor(samples),
        "graphs": records,
        "failed": failed,
        "messages": messages,
        "sha256": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
