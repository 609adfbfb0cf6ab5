"""Fast self-test of the benchmark at tiny sizes (about 10 s).

    python3 benchmarks/selftest.py          # or: python -m pytest benchmarks/selftest.py

Runs every workload untraced and traced at phantom resolution 2, a single
p value and sub-second runs; checks that every metric named in
BENCHMARK.json is emitted, that the output checks accept the program's real
outputs and catch deliberately corrupted ones, that the reference phantom
agrees with the program's, and that compare.py reaches the expected
verdicts.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# per-layer metrics each workload must drive above zero
CALLED_LAYERS = {
    "classify-phantom": ("efficiency.classify.calls", "efficiency.classify.self_s",
                         "geometry.image_dominates.calls.plain", "geometry.image_dominates.calls.hull",
                         "core.instance_from_dict.s", "efficiency.pareto_filter_max.calls"),
    "sweep-phantom": ("scalarize.worst_case.calls", "solve.minimize_scalarized.calls", "solve.evaluations",
                      "phantom.generate.s", "core.objective_scale.s", "core.Instance.image.calls"),
    "report-random": ("testing.harness.calls", "testing.random_instance.s", "linprog.lp_solve.calls",
                      "geometry.signed_distance.calls", "efficiency.classify.calls"),
}


def _stdout(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_every_metric_emitted():
    os.environ.pop("ROBPARETO_THREADS", None)
    for workload in run.WORKLOADS:
        for trace, spec in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
            record, _ = run.run_workload(workload, seed=3, seconds=0.4, trace=trace, sizes=run.TINY)
            assert record["correct"] and record["failed"] == 0, record["failures"]
            assert record["environment"]["robpareto_threads_cleared"]
            got = record["metrics"]
            assert sorted(got) == sorted(m["name"] for m in spec), workload
            for m in spec:
                assert got[m["name"]]["unit"] == m["unit"], (workload, m["name"])
            if trace:
                for name in CALLED_LAYERS[workload]:
                    assert got[name]["value"] > 0, (workload, name)
            else:
                assert all(v["value"] > 0 for v in got.values()), (workload, got)


def test_classify_check_catches_corruption():
    cli = run.import_package()
    prepared = run.prepare("classify-phantom", 3, run.TINY)
    check = prepared.checker()
    text = _stdout(cli, prepared.argv(0))
    assert check(text) == []
    header, *rows = text.splitlines()

    def parse(i):
        fields = rows[i].split(",", 5)
        return fields[0], fields[1:5], dict(p.split(":", 1) for p in fields[5].split("; ") if p)

    def corrupt(i, label, flags, doms):
        lines = list(rows)
        lines[i] = ",".join([label] + flags + ["; ".join(f"{k}:{v}" for k, v in doms.items())])
        return "\n".join([header] + lines) + "\n"

    efficient = next(i for i in range(len(rows)) if parse(i)[1][0] == "true")
    dominated = next(i for i in range(len(rows)) if parse(i)[1][0] == "false")
    label, flags, doms = parse(efficient)
    other, other_flags, other_doms = parse(dominated)
    # an efficient row relabelled dominated, naming a dominator that cannot dominate it
    doms = dict(doms, robust=other, set_valued=other, convex_hull=doms.get("convex_hull", other))
    assert check(corrupt(efficient, label, ["false", "false", flags[2], "false"], doms))
    # a dominated row relabelled efficient
    kept = {k: v for k, v in other_doms.items() if k not in ("robust", "set_valued")}
    assert check(corrupt(dominated, other, ["true", other_flags[1], other_flags[2], "true"], kept))
    # a dominated row whose robust dominator is the row itself
    assert check(corrupt(dominated, other, other_flags, dict(other_doms, robust=other)))


def test_sweep_check_catches_corruption():
    cli = run.import_package()
    prepared = run.prepare("sweep-phantom", 3, run.TINY)
    check = prepared.checker()
    text = _stdout(cli, prepared.argv(0))
    assert check(text) == []
    fields = dict(part.split("=", 1) for part in text.split())
    assert check(text.replace(f"best={fields['best']}", "best=uniform"))
    assert check(text.replace(f"value={fields['value']}", f"value={float(fields['value']) * 1.001:.10g}"))


def test_report_check_catches_corruption():
    cli = run.import_package()
    prepared = run.prepare("report-random", 3, run.TINY)
    check = prepared.checker()
    text = _stdout(cli, prepared.argv(0))
    assert check(text) == []
    assert check(text.replace("0 with violations", "1 with violations"))


def test_reference_phantom_matches_program():
    run.import_package()
    from robpareto.phantom import PhantomConfig, generate

    inst = generate(PhantomConfig(lattice_resolution=2))
    labels, sids, values = checks.phantom_table(checks.PhantomModel(resolution=2))
    assert labels == inst.candidate_list()
    assert sids == list(inst.scenarios.ids)
    program = np.array([inst.image(c).values for c in labels])
    np.testing.assert_allclose(values, program, rtol=1e-12, atol=1e-12)
    assert checks.PHANTOM_CANDIDATES == 18565


def test_compare_verdicts():
    throughput = {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}
    base = [100.0 + k for k in range(10)]

    def judge(new):
        return compare.verdict(throughput, base, new, list(zip(base, new)), 0, 0)[0]

    assert judge([v * 1.5 for v in base]) == "improved"
    assert judge(list(base)) == "no worse"
    assert judge([v * 0.7 for v in base]) == "worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(throughput, noisy, noisy, list(zip(noisy, noisy)), 0, 0)[0] == "unresolved"


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc!r}")
    sys.exit(1 if failed else 0)
