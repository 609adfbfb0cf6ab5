"""Command line front end.

Subcommands: classify (efficiency CSV), scalarize (worst-case minimization),
sweep (p-norm study with figure data), phantom (generated fixture emission),
report (witness re-verification and randomized self-checks).

Each option is declared only on the subcommands that read it (build_parser).
Each cmd_* function returns a Run, its stdout text and {file name: text}
artifacts; _finish alone writes it, with --emit as files plus manifest.json.

Exit codes are a stable contract: 0 success, 1 report found violations,
2 input error, 3 empty or degenerate model, 4 I/O failure, 5 internal
failure (a stalled LP solve or a violated internal invariant, reported in
one line).  Output files are written atomically
(temp file + rename) so partial artifacts never land under the final name.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Instance,
    builtin_instance,
    candidate_label,
    instance_from_dict,
    instance_json,
    with_step,
)
from .efficiency import LABELS, EfficiencyReport, classify
from .geometry import EQ_TOL, STRICT_TOL, check_tolerances
from .phantom import PhantomConfig, generate as generate_phantom
from .scalarize import (
    Chebyshev,
    Scalarizer,
    WeightedPNorm,
    WeightedSum,
    constructive_scalarizer,
    epigraph_form,
)
from .solve import StudyEntry, minimize_scalarized, p_norm_study
from .testing import harness, random_instance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

CSV_HEADER = (
    "candidate",
    "robust_efficient",
    "convex_hull_efficient",
    "objectivewise_efficient",
    "set_valued_minimizer",
    "dominator",
)


class CliError(Exception):
    """Failure with a designated exit code; message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class RunManifest:
    """Everything needed to reconstruct a run."""

    command: str
    source: str
    scalarizers: list = field(default_factory=list)
    step: Optional[float] = None
    eq_tol: float = EQ_TOL
    strict_tol: float = STRICT_TOL
    seed: Optional[int] = None
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output plumbing

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write in {directory!r}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CliError(EXIT_IO, f"cannot write {path!r}: {exc}") from None


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing helpers

def _load_instance(args) -> tuple:
    """Resolve the instance source and apply --step; returns (instance, source label)."""
    sources = [s for s in (args.instance, args.builtin, args.phantom) if s is not None]
    if len(sources) != 1:
        raise CliError(EXIT_INPUT, "exactly one of an instance file, --builtin, or --phantom is required")

    if args.builtin is not None:
        try:
            inst, source = builtin_instance(args.builtin), f"builtin:{args.builtin}"
        except KeyError as exc:
            raise CliError(EXIT_INPUT, str(exc.args[0])) from None
    elif args.phantom is not None:
        if args.phantom != "default":
            raise CliError(EXIT_INPUT, f"unknown phantom configuration {args.phantom!r}; only 'default' is defined")
        inst, source = generate_phantom(PhantomConfig()), "phantom:default"
    else:
        path = args.instance
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read instance file {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_INPUT, f"instance file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CliError(EXIT_INPUT, f"instance file {path!r} must hold a JSON object")

        # degenerate models get their own exit code before full validation
        cands = data.get("candidates")
        if isinstance(cands, dict) and cands.get("explicit") == []:
            raise CliError(EXIT_DEGENERATE, f"instance file {path!r} has no candidates")
        scen = data.get("scenarios")
        if scen == [] or (isinstance(scen, dict) and scen.get("ids") == []):
            raise CliError(EXIT_DEGENERATE, f"instance file {path!r} has no scenarios")

        try:
            inst, source = instance_from_dict(data), path
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(EXIT_INPUT, f"instance file {path!r}: {exc}") from None
    if args.step is not None:
        try:
            inst = with_step(inst, args.step)
        except ValueError as exc:
            raise CliError(EXIT_INPUT, f"--step {args.step} on {source}: {exc}") from None
    return inst, source


def _check_tolerances(args) -> None:
    """--eq-tol and --strict-tol as an input error, before any work."""
    try:
        check_tolerances(args.eq_tol, args.strict_tol)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from None


def _parse_candidate(text: str, instance: Instance):
    """Candidate from CLI text: explicit id verbatim, simplex coords '/'-joined."""
    from .core import ExplicitCandidates

    if isinstance(instance.candidates, ExplicitCandidates):
        raw = text
    else:
        parts = text.split("/")
        try:
            raw = [float(p) for p in parts] if len(parts) > 1 else float(text)
        except ValueError:
            raise CliError(EXIT_INPUT, f"cannot parse candidate coordinates {text!r}") from None
    try:
        return instance.resolve_candidate(raw)
    except (KeyError, ValueError) as exc:
        raise CliError(EXIT_INPUT, f"unknown candidate {text!r}: {exc}") from None


def _split_params(text: str) -> dict:
    """'p=2,w=1,ref=0' -> {'p': ['2'], ...}; bare segments extend the previous
    key, so 'w=0.5,0.5' yields w=['0.5', '0.5']."""
    params: dict = {}
    key = None
    for seg in text.split(","):
        if "=" in seg:
            key, val = seg.split("=", 1)
            key = key.strip()
            if key in params:
                raise CliError(EXIT_INPUT, f"duplicate scalarizer parameter {key!r}")
            params[key] = [val.strip()]
        elif key is not None:
            params[key].append(seg.strip())
        else:
            raise CliError(EXIT_INPUT, f"malformed scalarizer parameters {text!r}")
    return params


def _floats(vals, what: str) -> list:
    try:
        return [float(v) for v in vals]
    except ValueError:
        raise CliError(EXIT_INPUT, f"cannot parse {what} from {vals!r}") from None


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise CliError(EXIT_INPUT, f"cannot parse p value {text!r}") from None


def parse_scalarizer(text: str, instance: Instance) -> Scalarizer:
    """Scalarizer from a spec string.

    Forms: 'wsum:w=0.5,0.5', 'pnorm:p=2,w=1,ref=0', 'chebyshev:w=1,ref=0',
    'construct:anchor=<candidate>,mode=plain|hull'.  Length-one weight and
    reference vectors broadcast to the objective count.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params = _split_params(rest) if rest else {}
    n = instance.n
    try:
        if kind == "wsum":
            if "w" not in params:
                raise CliError(EXIT_INPUT, f"scalarizer {text!r} needs w=")
            return WeightedSum(_floats(params["w"], "weights"), n=n)
        if kind == "pnorm":
            p = _parse_p(params.get("p", ["2"])[0])
            w = _floats(params.get("w", ["1"]), "weights")
            ref = _floats(params.get("ref", ["0"]), "reference point")
            return WeightedPNorm(w, p, ref=ref, n=n)
        if kind == "chebyshev":
            w = _floats(params.get("w", ["1"]), "weights")
            ref = _floats(params.get("ref", ["0"]), "reference point")
            return Chebyshev(w, ref=ref, n=n)
        if kind == "construct":
            if "anchor" not in params:
                raise CliError(EXIT_INPUT, f"scalarizer {text!r} needs anchor=")
            mode = params.get("mode", ["plain"])[0]
            if mode not in ("plain", "hull"):
                raise CliError(EXIT_INPUT, f"construct mode must be plain or hull, got {mode!r}")
            anchor = _parse_candidate(",".join(params["anchor"]), instance)
            return constructive_scalarizer(instance, anchor, mode=mode)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"invalid scalarizer {text!r}: {exc}") from None
    raise CliError(EXIT_INPUT, f"unknown scalarizer kind {kind!r} (wsum, pnorm, chebyshev, construct)")


# ---------------------------------------------------------------------------
# figure rendering

_SVG_SIZE = 480
_SVG_MARGIN = 60


def _level_curve(u: WeightedPNorm, level: float, samples: int = 128) -> Optional[np.ndarray]:
    """Points of {y >= ref : u(y) = level} for a two-objective p-norm."""
    if u.n != 2 or level <= 0:
        return None
    if math.isinf(u.p):
        dx, dy = level / u.w[0], level / u.w[1]
        pts = [(0.0, dy), (dx, dy), (dx, 0.0)]
        return u.ref + np.asarray(pts)
    total = u.n * level ** u.p
    t = np.linspace(0.0, math.pi / 2.0, samples)
    d1 = (total * np.cos(t) ** 2 / u.w[0]) ** (1.0 / u.p)
    d2 = (total * np.sin(t) ** 2 / u.w[1]) ** (1.0 / u.p)
    return u.ref + np.column_stack([d1, d2])


def svg_scatter(points: np.ndarray, labels, title: str, subtitle: str,
                curve: Optional[np.ndarray] = None, axis_names=("f1", "f2")) -> str:
    """Standalone SVG: scenario points of one image plus an optional level curve."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    allpts = pts if curve is None else np.vstack([pts, curve])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    lo = lo - 0.08 * span
    hi = hi + 0.08 * span
    span = hi - lo

    inner = _SVG_SIZE - 2 * _SVG_MARGIN

    def px(v, axis):
        frac = (v - lo[axis]) / span[axis]
        if axis == 0:
            return _SVG_MARGIN + frac * inner
        return _SVG_SIZE - _SVG_MARGIN - frac * inner

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<text x="{_SVG_SIZE / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<text x="{_SVG_SIZE / 2:.1f}" y="42" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11" fill="#555">{subtitle}</text>',
    ]
    # axes with min/mid/max ticks
    x0, y0 = _SVG_MARGIN, _SVG_SIZE - _SVG_MARGIN
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{_SVG_SIZE - _SVG_MARGIN}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_SVG_MARGIN}" stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        vx = lo[0] + frac * span[0]
        vy = lo[1] + frac * span[1]
        tx = px(vx, 0)
        ty = px(vy, 1)
        out.append(f'<line x1="{tx:.1f}" y1="{y0}" x2="{tx:.1f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(f'<text x="{tx:.1f}" y="{y0 + 18}" text-anchor="middle" font-family="sans-serif" '
                   f'font-size="10">{format(vx, ".4g")}</text>')
        out.append(f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8}" y="{ty + 3:.1f}" text-anchor="end" font-family="sans-serif" '
                   f'font-size="10">{format(vy, ".4g")}</text>')
    out.append(f'<text x="{_SVG_SIZE / 2:.1f}" y="{_SVG_SIZE - 16}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{axis_names[0]}</text>')
    out.append(f'<text x="18" y="{_SVG_SIZE / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 18 {_SVG_SIZE / 2:.1f})">{axis_names[1]}</text>')

    if curve is not None:
        path = " ".join(f"{px(p[0], 0):.2f},{px(p[1], 1):.2f}" for p in curve)
        out.append(f'<polyline points="{path}" fill="none" stroke="#d62728" '
                   f'stroke-width="1.5" stroke-dasharray="6 3"/>')
    for (x, y), label in zip(pts, labels):
        cx, cy = px(x, 0), px(y, 1)
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="#1f77b4"/>')
        out.append(f'<text x="{cx + 8:.2f}" y="{cy - 6:.2f}" font-family="sans-serif" '
                   f'font-size="10">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def classification_csv(report: EfficiencyReport) -> str:
    labels = [candidate_label(c) for c in report.candidates]
    columns = [report.dominator_index(kind).tolist() for kind in LABELS]
    rows = [list(CSV_HEADER)]
    for label, *doms in zip(labels, *columns):
        rows.append([label, *("true" if i < 0 else "false" for i in doms),
                     "; ".join(f"{kind}:{labels[i]}" for kind, i in zip(LABELS, doms) if i >= 0)])
    return _csv_text(rows)


@dataclass
class Run:
    """One subcommand's results.  With --emit, files are written with the
    manifest and a summary, if any, replaces stdout by 'wrote <first file>:
    <summary>'.  A failure goes to stderr and makes the run exit 1."""

    stdout: str
    source: str = ""
    files: dict = field(default_factory=dict)
    summary: Optional[str] = None
    scalarizers: list = field(default_factory=list)
    failure: Optional[str] = None


def cmd_classify(args) -> Run:
    _check_tolerances(args)
    instance, source = _load_instance(args)
    report = classify(instance, eq_tol=args.eq_tol, strict_tol=args.strict_tol)
    text = classification_csv(report)
    counts = {k: len(report.efficient(k)) for k in LABELS}
    summary = f"{len(report.candidates)} candidates, " + ", ".join(f"{k}={v}" for k, v in counts.items())
    return Run(text, source, {"classify.csv": text}, summary)


def cmd_scalarize(args) -> Run:
    instance, source = _load_instance(args)
    records = []
    blocks = []
    for spec in args.u:
        u = parse_scalarizer(spec, instance)
        res = minimize_scalarized(instance, u)
        lines = [
            f"u: {u.name}",
            f"best: {candidate_label(res.best)}",
            f"value: {_fmt(res.value)}",
            f"method: {res.method}",
            f"worst_scenario: {res.worst_scenario}",
            f"evaluations: {res.evaluations}",
        ]
        record = {
            "u": u.name, "best": candidate_label(res.best), "value": res.value,
            "method": res.method, "worst_scenario": res.worst_scenario,
            "evaluations": res.evaluations,
        }
        if args.trace:
            ev = epigraph_form(instance, u, candidate=res.best)
            lines += [f"trace: s={sid} u={_fmt(v)}" for sid, v in ev.per_scenario]
            record["trace"] = {sid: v for sid, v in ev.per_scenario}
        records.append(record)
        blocks.append("\n".join(lines))
    files = {"scalarize.json": json.dumps(records, indent=2, sort_keys=True) + "\n"}
    return Run("\n\n".join(blocks) + "\n", source, files, scalarizers=list(args.u))


def _ptag(p: float) -> str:
    return "inf" if math.isinf(p) else _fmt(p)


def _sweep_files(entry: StudyEntry, scaled: bool) -> dict:
    """Figure data of one study entry: the optimal image as CSV, plus an SVG
    scatter with the optimal level curve when there are two objectives."""
    sids = entry.image.scenario_ids
    values = entry.scaled if scaled else entry.image.values
    tag = _ptag(entry.p)
    names = [f"f{i + 1}" + ("_scaled" if scaled else "") for i in range(values.shape[1])]

    rows = [["scenario_id"] + names]
    for sid, y in zip(sids, values):
        rows.append([sid] + [_fmt(v) for v in y])
    files = {f"sweep_p{tag}.csv": _csv_text(rows)}

    if values.shape[1] == 2:
        # the study scalarizer divides by the global scale, so in scaled
        # coordinates its level sets are plain p-balls
        u_fig = WeightedPNorm(np.ones(2), entry.p, n=2) if scaled else entry.scalarizer
        curve = _level_curve(u_fig, entry.result.value)
        title = f"optimal image under the p={tag} worst-case norm"
        sub = (f"best {candidate_label(entry.result.best)}, value {_fmt(entry.result.value)}, "
               f"sup radius {_fmt(entry.sup_radius)}")
        files[f"sweep_p{tag}.svg"] = svg_scatter(values, sids, title, sub, curve=curve, axis_names=tuple(names))
    return files


def cmd_sweep(args) -> Run:
    parts = [s for s in (args.p or "").split(",") if s.strip()]
    if not parts:
        raise CliError(EXIT_INPUT, "--p needs a nonempty comma-separated list, e.g. --p 1,2,10")
    ps = [_parse_p(s) for s in parts]
    if not all(p >= 1 for p in ps):
        raise CliError(EXIT_INPUT, f"--p values must be >= 1 (or inf), got {args.p!r}")
    instance, source = _load_instance(args)
    entries = p_norm_study(instance, ps=ps)
    lines = [f"p={_ptag(e.p)} best={candidate_label(e.result.best)} value={_fmt(e.result.value)} "
             f"worst_scenario={e.result.worst_scenario} sup_radius={_fmt(e.sup_radius)} "
             f"one_norm_worst={_fmt(e.one_norm_worst)}\n" for e in entries]
    files = {}
    for e in entries:
        files.update(_sweep_files(e, args.scaled))
    scalarizers = [f"pnorm:p={_ptag(e.p)},scaled=unit-box" for e in entries]
    return Run("".join(lines), source, files, scalarizers=scalarizers)


def cmd_phantom(args) -> Run:
    instance = generate_phantom(PhantomConfig())
    text = instance_json(instance)
    summary = f"{len(instance.candidate_list())} candidates, {len(instance.scenarios.ids)} scenarios"
    return Run(text, "phantom:default", {"phantom.json": text}, summary)


def cmd_report(args) -> Run:
    _check_tolerances(args)
    if args.random is not None and args.random < 0:
        raise CliError(EXIT_INPUT, f"--random needs a count >= 0, got {args.random}")
    lines = []
    failed = []

    def check(inst, name) -> bool:
        violations = harness(inst, eq_tol=args.eq_tol, strict_tol=args.strict_tol)
        if violations:
            failed.append(name)
            lines.append(f"{name}: {len(violations)} violations")
            lines.extend(f"  {v}" for v in violations)
        return not violations

    sourced = bool(args.instance or args.builtin or args.phantom)
    if sourced:
        instance, source = _load_instance(args)
        if check(instance, source):
            lines.append(f"{source}: certificates and scalarizer bounds verified")
    count = args.random if args.random is not None else (0 if sourced else 20)
    if count:
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        for i in range(count):
            check(random_instance(rng, name=f"random-{i}"), f"random-{i}")
        lines.append(f"random harness: {count} instances, {len(failed)} with violations")
    failure = f"self-check FAILED on {len(failed)} of {sourced + count} instances" if failed else None
    return Run("".join(line + "\n" for line in lines), failure=failure)


def _finish(args, run: Run, t0: float) -> int:
    """Write a run's output: stdout, or with --emit its files and manifest."""
    out = getattr(args, "emit", None)
    if out is None:
        sys.stdout.write(run.stdout)
    else:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot create output directory {out!r}: {exc}") from None
        if not os.path.isdir(out) or not os.access(out, os.W_OK):
            raise CliError(EXIT_IO, f"output directory {out!r} is not writable")
        paths = []
        for name, text in run.files.items():
            paths.append(os.path.join(out, name))
            _atomic_write(paths[-1], text)
        # an option the subcommand does not take keeps its RunManifest default
        recorded = {k: getattr(args, k) for k in ("step", "eq_tol", "strict_tol", "seed") if hasattr(args, k)}
        manifest = RunManifest(
            command=args.command, source=run.source, scalarizers=run.scalarizers,
            outputs=paths, wall_clock_s=round(time.perf_counter() - t0, 6), **recorded,
        )
        _atomic_write(os.path.join(out, "manifest.json"), manifest.to_json())
        sys.stdout.write(run.stdout if run.summary is None else f"wrote {paths[0]}: {run.summary}\n")
    if run.failure is not None:
        print(run.failure, file=sys.stderr)
        return 1
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # parse_args keeps no state, so one parser serves every main call
def build_parser() -> argparse.ArgumentParser:
    # each option sits on exactly the subcommands that read it
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("instance", nargs="?", default=None,
                        help="instance JSON file")
    source.add_argument("--builtin", metavar="NAME", default=None,
                        help="built-in instance (problem-1, problem-2)")
    source.add_argument("--phantom", metavar="NAME", default=None,
                        help="generated dose fixture ('default')")
    source.add_argument("--step", type=float, default=None,
                        help="simplex lattice step override")

    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--eq-tol", dest="eq_tol", type=float, default=EQ_TOL,
                            help="componentwise comparison tolerance")
    tolerances.add_argument("--strict-tol", dest="strict_tol", type=float, default=STRICT_TOL,
                            help="strict improvement margin")

    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", metavar="DIR", default=None,
                      help="directory for output files and the run manifest")

    parser = argparse.ArgumentParser(
        prog="robpareto",
        description="Robust multiobjective efficiency certificates and worst-case scalarization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[source, tolerances, emit],
                       help="label every candidate with the four efficiency notions (CSV)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scalarize", parents=[source, emit],
                       help="minimize a worst-case scalarized objective")
    p.add_argument("--u", action="append", required=True, metavar="SPEC",
                   help="scalarizer spec, e.g. pnorm:p=2,w=1,ref=0 or wsum:w=0.5,0.5 "
                        "or construct:anchor=<candidate>,mode=hull (repeatable)")
    p.add_argument("--trace", action="store_true",
                   help="print per-scenario scalar values at the optimum")
    p.set_defaults(func=cmd_scalarize)

    p = sub.add_parser("sweep", parents=[source, emit],
                       help="p-norm study: optimum per p with figure data")
    p.add_argument("--p", required=True, metavar="LIST",
                   help="comma-separated p values, e.g. 1,2,10")
    p.add_argument("--scaled", action="store_true",
                   help="emit figure data in unit-box scaled objective coordinates")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phantom", parents=[emit],
                       help="emit the generated dose fixture as an instance file")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("report", parents=[source, tolerances],
                       help="re-verify certificates; optionally run the randomized harness")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="also check N random instances (default 20 when no instance is given)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the random instances (default 0)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return _finish(args, args.func(args), t0)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except RuntimeError as exc:  # SolverStalledError and invariant violations
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
