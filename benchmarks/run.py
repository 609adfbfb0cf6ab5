"""End-to-end benchmark of the robpareto CLI, with an optional traced run.

    python3 benchmarks/run.py --workload classify-phantom --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 36 --trace 1

Run from the repository root; the package is imported from ./src.  Each
operation is one in-process call to ``robpareto.cli.main(argv)`` with stdout
and stderr captured.  The load is a closed loop: one client, one process, no
threads, each operation issued when the previous one has returned.
ROBPARETO_THREADS is cleared so classify runs single-threaded.

Workloads (see BENCHMARK.json for why each was chosen):

- classify-phantom: ``classify <file>`` on a lattice-resolution-5 phantom
  (6,189 candidates, 3 scenarios) whose shift triple and kernel width the
  seed picks.  Throughput items: candidates.
- sweep-phantom: ``sweep --phantom default --p <four p values>``.
  Throughput items: candidates x p values.
- report-random: ``report --random 1 --seed <k>``, k derived from the seed.
  Throughput items: instances.

With ``--trace 0`` the run reports the end-to-end metrics:

- throughput: work items per second of busy time;
- op_p50_s, op_p95_s: median and 95th percentile of operation wall time.
  Only report-random runs the 200 operations that put ten samples beyond
  p95; with fewer, op_p95_s is the highest percentile that has ten samples
  beyond it, and the median below 20 operations;
- setup_s: median over repeated set-ups of importing the package and
  generating the inputs;
- peak_rss_mb: peak resident memory of the process.

The failed-operation ratio is printed as fail_ratio and carried by the
``failed`` and ``attempted`` counts.  With ``--trace 1`` the run spends half
of ``--seconds`` untraced and half traced, reports the per-layer metrics of
the traced half and the tracing overhead (traced minus untraced median
operation time), and writes the spans to ``.bench_out/spans/``.  Every
operation's output is checked outside the timer by ``checks.py``; a failed
check counts as a failed operation.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with the seed, Python and numpy
versions, CPU count and environment, is appended to
``.bench_out/results.jsonl`` (or ``--results``), which ``compare.py`` reads.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from layertrace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("classify-phantom", "sweep-phantom", "report-random")

# classify-phantom variants: (shift triple, kernel width).  All share one
# lattice, so the candidate count does not depend on the seed; these four
# classified within 6% of each other's time on a 2-CPU x86-64 machine.
CLASSIFY_VARIANTS = (
    ((-3, 0, 3), 2.0),
    ((-3, 0, 3), 1.5),
    ((-2, 0, 3), 1.5),
    ((-3, 0, 2), 2.5),
)
SWEEP_PS = ("1", "1.5", "2", "3", "5", "10", "inf")
# Set-ups per run: about 2 s of set-up on a 2-CPU x86-64 machine, so the
# median spans the machine's short speed swings.  The count is fixed, not
# timed, because each set-up leaves a little memory behind and a timed count
# would make peak_rss_mb follow the machine's speed.
SETUP_REPEATS = {"classify-phantom": 5, "sweep-phantom": 45, "report-random": 45}


@dataclass(frozen=True)
class Sizes:
    classify_resolution: int = 5
    sweep_p_count: int = 4
    setup_repeats: int | None = None  # None: SETUP_REPEATS of the workload


# the self-test runs every workload at these sizes
TINY = Sizes(classify_resolution=2, sweep_p_count=1, setup_repeats=1)


@dataclass
class Prepared:
    """A workload's generated inputs."""

    argv: Callable[[int], list]  # operation index -> CLI arguments
    checker: Callable[[], Callable[[str], list]]  # builds the stdout -> problems check
    work_per_op: float
    work_item: str  # what one throughput item is
    inputs: dict  # description of the inputs, for the result record


# ---------------------------------------------------------------------------
# set-up

def import_package():
    """Import robpareto from ./src afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "robpareto" or n.startswith("robpareto.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("robpareto.cli")


def prepare(workload: str, seed: int, sizes: Sizes) -> Prepared:
    """Generate the inputs of one workload from its seed."""
    rng = np.random.default_rng(seed)
    if workload == "classify-phantom":
        from robpareto.core import instance_to_dict
        from robpareto.phantom import PhantomConfig, generate

        shifts, width = CLASSIFY_VARIANTS[int(rng.integers(len(CLASSIFY_VARIANTS)))]
        cfg = PhantomConfig(lattice_resolution=sizes.classify_resolution, shifts=shifts, kernel_width=width)
        data = instance_to_dict(generate(cfg))
        path = os.path.join(OUT, "inputs", "classify-phantom.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)

        def checker():
            with open(path, encoding="utf-8") as fh:
                labels, _, values = checks.table_from_instance(json.load(fh))
            return lambda out: checks.check_classify(out, labels, values)

        candidates = len(data["candidates"]["explicit"])
        return Prepared(
            argv=lambda i: ["classify", path], checker=checker,
            work_per_op=float(candidates), work_item="candidate",
            inputs={"shifts": list(shifts), "kernel_width": width,
                    "lattice_resolution": sizes.classify_resolution, "candidates": candidates},
        )
    if workload == "sweep-phantom":
        picks = rng.choice(len(SWEEP_PS), size=sizes.sweep_p_count, replace=False)
        ps = [SWEEP_PS[k] for k in sorted(picks)]

        def checker():
            labels, sids, values = checks.phantom_table()
            return lambda out: checks.check_sweep(out, ps, labels, sids, values)

        candidates = checks.PHANTOM_CANDIDATES
        return Prepared(
            argv=lambda i: ["sweep", "--phantom", "default", "--p", ",".join(ps)], checker=checker,
            work_per_op=float(candidates * len(ps)), work_item="candidate x p value",
            inputs={"p": ps, "candidates": candidates},
        )
    if workload == "report-random":
        base = int(rng.integers(1 << 30))
        return Prepared(
            argv=lambda i: ["report", "--random", "1", "--seed", str(base + i)],
            checker=lambda: lambda out: checks.check_report(out, 1),
            work_per_op=1.0, work_item="random instance",
            inputs={"report_seeds_from": base},
        )
    raise ValueError(f"unknown workload {workload!r}")


def timed_setup(workload: str, seed: int, sizes: Sizes):
    """Import and generate inputs repeatedly; the last set-up is kept."""
    times = []
    for _ in range(sizes.setup_repeats or SETUP_REPEATS[workload]):
        t0 = time.perf_counter()
        cli = import_package()
        prepared = prepare(workload, seed, sizes)
        times.append(time.perf_counter() - t0)
    return cli, prepared, times


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Phase:
    times: list
    failures: list  # (operation index, problem)
    busy: float = 0.0  # sum of times


def run_phase(cli, prepared: Prepared, check, seconds: float, first_op: int = 0,
              tracer: Tracer | None = None) -> Phase:
    """Closed loop: issue operations until the next one would overrun ``seconds``."""
    phase = Phase([], [])
    i = first_op
    while not phase.times or phase.busy + phase.times[-1] <= seconds:
        argv = prepared.argv(i)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = i
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an operation that raises counts as failed
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        phase.times.append(time.perf_counter() - t0)
        phase.busy += phase.times[-1]
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if problem is None:
            problems = check(out.getvalue())
            problem = "; ".join(problems[:3]) if problems else None
        if problem is not None:
            phase.failures.append((i, problem))
        i += 1
    return phase


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def tail(values) -> float:
    """The 95th percentile, or, where fewer than ten samples lie beyond it, the
    highest percentile that has ten beyond it; the median below 20 samples."""
    n = len(values)
    return percentile(values, min(95.0, 100.0 * (1.0 - 10.0 / n)) if n >= 20 else 50.0)


def end_to_end_metrics(phase: Phase, prepared: Prepared, setup_times) -> dict:
    return {
        "throughput": (prepared.work_per_op * len(phase.times) / phase.busy, "items/s"),
        "op_p50_s": (percentile(phase.times, 50), "s"),
        "op_p95_s": (tail(phase.times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()):
    """One benchmark run; returns (record, tracer or None)."""
    cli, prepared, setup_times = timed_setup(workload, seed, sizes)
    check = prepared.checker()
    tracer = None
    if not trace:
        phase = run_phase(cli, prepared, check, seconds)
        phases = [phase]
        metrics = end_to_end_metrics(phase, prepared, setup_times)
    else:
        plain = run_phase(cli, prepared, check, seconds / 2.0)
        with Tracer() as tracer:
            traced = run_phase(cli, prepared, check, seconds / 2.0, first_op=len(plain.times), tracer=tracer)
        phases = [plain, traced]
        metrics = tracer.layer_metrics()
        p50 = {"untraced": percentile(plain.times, 50), "traced": percentile(traced.times, 50)}
        metrics["trace.overhead_s"] = (p50["traced"] - p50["untraced"], "s")
    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_times_s": phases[-1].times,
        "failures": [f"op {i}: {p}" for i, p in failures[:10]],
        "inputs": prepared.inputs,
        "throughput_item": prepared.work_item,
        "setup_times_s": setup_times,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "robpareto_threads_cleared": "ROBPARETO_THREADS" not in os.environ,
            "machine": platform.machine(),
        },
    }
    if trace:
        record["op_p50_s"] = p50
        record["layer_shares"] = tracer.layer_shares()
    return record, tracer


# ---------------------------------------------------------------------------
# output

def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} ROBPARETO_THREADS cleared={env['robpareto_threads_cleared']}")
    print(f"# inputs: {json.dumps(record['inputs'])}; one throughput item = one {record['throughput_item']}")
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_ratio':44s} {record['fail_ratio']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["trace"]:
        p50 = record["op_p50_s"]
        print(f"# tracing overhead: traced op_p50_s {p50['traced']:.6g} s - untraced {p50['untraced']:.6g} s")
        print("# layer self-time shares of traced operation time:")
        for layer, share in record["layer_shares"].items():
            print(f"#   {layer:12s} {share:7.1%}")
    for line in record["failures"]:
        print(f"# FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results.jsonl"),
                        help="JSON-lines file the full result record is appended to")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "robpareto", "__init__.py")):
        print(f"error: no robpareto package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", args.results]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    os.environ.pop("ROBPARETO_THREADS", None)
    sys.path.insert(0, SRC)
    record, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        spans = os.path.join(OUT, "spans", f"{args.workload}.csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.write_csv(spans)
        print(f"# spans written to {os.path.relpath(spans, ROOT)}")
    print_report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
