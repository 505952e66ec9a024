"""Command-line experiment runner.

    mirrorflow run --problem nbp --system sapdmd --alpha 2 --tf 200 --out out/
    mirrorflow verify
    mirrorflow list [filter]

``run`` integrates the chosen flow over [t0, tf], writes ``trajectory.csv``
(one row per sample), ``summary.json`` (certificate value, fitted slopes,
bound-check ratios, warnings, runtime) and ``plot.gp`` (a gnuplot script
regenerating the log-log figures from the CSV). A comma-separated
``--alpha 2,4,6`` sweep runs the values one after another on one problem
and one reference solution, each writing to its own ``alpha_<a>``
subdirectory. ``verify`` executes the acceptance suite and exits nonzero on
any failure.
"""

from __future__ import annotations

import argparse
import json
import inspect
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import acceptance
from .dynamics import SYSTEMS, SystemParams, build_field, check_params, mismatch
from .errors import MirrorflowError, ParameterError, UsageError
from .integrator import IntegratorConfig, integrate
from .numerics import SeededRng
from .problems import PROBLEMS, problem_from_spec, reference_solution
from .diagnostics import evaluate_run

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mirrorflow",
                                description="accelerated primal-dual mirror dynamics runner")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one experiment and write artifacts")
    # no flag has a default: a flag overrides the config file, which overrides the defaults,
    # each stated once: on SystemParams and IntegratorConfig, or in _validate and _settings
    run.add_argument("--problem", help="catalogue name; omit when --config carries problem_spec")
    run.add_argument("--system", choices=sorted(SYSTEMS), help="flow to integrate, here or in --config")
    run.add_argument("--alpha", help="value or comma-separated sweep, e.g. 2,4,6")
    run.add_argument("--beta", type=float)
    run.add_argument("--t0", type=float)
    run.add_argument("--tf", type=float)
    run.add_argument("--mu0", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory, here or in --config")
    run.add_argument("--rel-tol", type=float)
    run.add_argument("--abs-tol", type=float)
    run.add_argument("--max-steps", type=int)
    run.add_argument("--config", help="JSON config file; flags override its entries")

    sub.add_parser("verify", help="run the acceptance suite")

    lst = sub.add_parser("list", help="print the problem and system catalogue")
    lst.add_argument("filter", nargs="?", default="")
    return p


# the type each run entry takes, as its flag parses it; a JSON bool is none of them
_WHOLE = ("seed", "max_steps")  # a float such as 3.0 counts, as SeededRng takes it
_ENTRY_TYPES = {**dict.fromkeys(("problem", "system", "out"), (str, "a string")),
                **dict.fromkeys(_WHOLE, ((int, float), "a whole number")),
                **dict.fromkeys(("beta", "t0", "tf", "mu0", "rel_tol", "abs_tol"),
                                ((int, float), "a number")),
                "alpha": ((str, int, float), "a number or a comma-separated string")}


def _load_config(args) -> dict:
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON text
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(merged, dict):
            raise UsageError(f"config {args.config} holds a {type(merged).__name__}, not an object")
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            merged[key] = val
    if "problem_spec" in merged and not merged.get("problem"):
        merged["problem"] = "custom"
    for key, (types, what) in _ENTRY_TYPES.items():
        val = merged.get(key)
        if key in merged and (isinstance(val, bool) or not isinstance(val, types) or key in _WHOLE
                              and isinstance(val, float) and not val.is_integer()):
            raise UsageError(f"config {key!r} must be {what}, got {val!r}")
    return merged


def _validate(cfg: dict) -> tuple:
    """Build the problem and each alpha's settings, check them and settle cfg's seed,
    before any output is written; returns (problem, [settings])."""
    name = cfg.get("problem")
    if "problem_spec" not in cfg and not name:
        raise UsageError("no problem given: use --problem or a config problem_spec")
    if "problem_spec" not in cfg and name not in PROBLEMS:
        raise UsageError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}")
    try:  # a ParameterError is a ValueError, as is a value that is not a number
        # SeededRng's range check, for a problem that draws no numbers too
        cfg["seed"] = SeededRng(cfg.get("seed", 1)).seed
        problem = problem_from_spec(cfg["problem_spec"]) if "problem_spec" in cfg \
            else PROBLEMS[name](cfg["seed"])
        if reason := mismatch(cfg["system"], problem):
            raise ParameterError(reason)
        alphas = [float(a) for a in str(cfg.get("alpha", "2")).split(",") if a.strip()]
        if not alphas:
            raise ParameterError("no alpha given")
        dirs = [f"alpha_{a:g}" for a in alphas]
        if len(set(dirs)) < len(dirs):
            raise ParameterError(f"alphas {cfg['alpha']} repeat an output directory: "
                                 f"{', '.join(dirs)}")
        return problem, [_settings(cfg, alpha) for alpha in alphas]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _settings(cfg: dict, alpha: float):
    """One job's SystemParams, IntegratorConfig (a key the config lacks keeps its dataclass
    default) and final time; raises ParameterError on a value the system does not take."""
    def given(cast, *keys):
        return {key: cast(cfg[key]) for key in keys if key in cfg}

    system, tf = cfg["system"], float(cfg.get("tf", 100.0))
    mu0 = float(cfg.get("mu0", 0.1)) if SYSTEMS[system].smoothed else None
    params = SystemParams(alpha=alpha, mu0=mu0, **given(float, "beta", "t0"))
    check_params(system, params)
    if not params.t0 < tf < math.inf:
        raise ParameterError(f"need a finite tf > t0, got [{params.t0}, {tf}]")
    icfg = IntegratorConfig(**given(float, "rel_tol", "abs_tol"), **given(int, "max_steps"))
    return params, icfg, tf


def run_single(cfg: dict, problem, ref, settings, out_dir: Path) -> dict:
    """Integrate one alpha's flow on the built problem, evaluate it against
    the reference solution and write its outputs to out_dir."""
    started = time.perf_counter()
    params, icfg, tf = settings
    field = build_field(cfg["system"], problem, params)
    traj = integrate(field.rhs, field.initial_state, params.t0, tf, icfg)
    report = evaluate_run(field, traj, ref)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv", report)
    summary = {
        "problem": cfg["problem"],
        "system": cfg["system"],
        "alpha": params.alpha,
        "beta": params.beta,
        "t0": params.t0,
        "tf": tf,
        "mu0": params.mu0,
        "seed": cfg["seed"],
        "f_star": ref.f_star,
        "v0": report.v0,
        "slope_gap": report.slope_gap,
        "slope_feasibility": report.slope_feasibility,
        "feasibility_max_violation": report.feasibility_max_violation,
        "bound_checks": {c.name: {"max_ratio": c.max_ratio, "ok": c.ok, "note": c.note}
                         for c in report.bound_checks},
        "warnings": report.warnings,
        "integrator": {"steps_accepted": traj.steps_accepted,
                       "steps_rejected": traj.steps_rejected,
                       "rel_tol": icfg.rel_tol, "abs_tol": icfg.abs_tol},
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    (out_dir / "summary.json").write_text(_strict_json(summary))
    _write_plot_script(out_dir / "plot.gp", cfg["problem"], cfg["system"], params.alpha)
    return summary


def _strict_json(summary: dict) -> str:
    """summary as RFC 8259 JSON, which has no NaN or infinity: such a float is null."""
    def finite(v):
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(summary), indent=2, allow_nan=False)


_CSV_COLUMNS = ("t", "gap", "lagrangian_gap", "feasibility", "lyapunov", "mu",
                "x_norm", "lambda_norm")


def _write_csv(path: Path, report):
    rows = np.column_stack([
        report.times, report.primal_gap, report.lagrangian_gap, report.feasibility,
        report.lyapunov, report.mu, report.x_norm, report.lambda_norm,
    ])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\r\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\r\n")


def _write_plot_script(path: Path, problem: str, system: str, alpha: float):
    title = f"{system} on {problem} (alpha = {alpha:g})"
    script = f"""# gnuplot script; run:  gnuplot plot.gp
set terminal pngcairo size 1200,420
set output 'figures.png'
set multiplot layout 1,3 title '{title}'
set logscale xy
set datafile separator ','
set xlabel 't'
set format y '10^{{%T}}'
set key top right
set title 'objective gap'
plot 'trajectory.csv' every ::1 using 1:($2 > 0 ? $2 : NaN) with lines lw 2 title '|f - f*|', \\
     'trajectory.csv' every ::1 using 1:(column(5)/($1*$1)) with lines dt 2 title 'C/t^2'
set title 'feasibility'
plot 'trajectory.csv' every ::1 using 1:($4 > 0 ? $4 : NaN) with lines lw 2 title 'residual'
set title 'energy'
plot 'trajectory.csv' every ::1 using 1:($5 > 0 ? $5 : NaN) with lines lw 2 title 'V(t)'
unset multiplot
"""
    path.write_text(script)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    for key in ("system", "out"):
        if not cfg.get(key):
            raise UsageError(f"no {key} given: use --{key} or a config {key!r} entry")
    out_root = Path(cfg["out"])
    existing = next(p for p in (out_root, *out_root.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"--out {out_root}: {existing} exists and is not a directory")
    problem, jobs = _validate(cfg)
    ref = reference_solution(problem)
    if len(jobs) == 1:
        summary = run_single(cfg, problem, ref, jobs[0], out_root)
        print(_strict_json(summary))
        return 0
    failures = 0
    for settings in jobs:
        a = settings[0].alpha
        try:
            summary = run_single(cfg, problem, ref, settings, out_root / f"alpha_{a:g}")
            print(f"alpha={a:g}: ok (v0={summary['v0']:.4g}, "
                  f"slope={summary['slope_gap']:.3f})")
        except Exception as exc:  # one failed job must not hide the others' status
            failures += 1
            print(f"alpha={a:g}: FAILED ({type(exc).__name__}: {exc})")
            if not isinstance(exc, MirrorflowError):  # a defect: keep where it happened
                traceback.print_exception(exc, file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(_args) -> int:
    results = acceptance.run_acceptance()
    failed = [r for r in results if not r.passed]
    print()
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def cmd_list(args) -> int:
    needle = args.filter.lower()
    for name in sorted(PROBLEMS):
        if needle and needle not in name:
            continue
        kind = "smoothed" if PROBLEMS[name](1).is_smoothed else "smooth"
        note = " ".join(inspect.getdoc(PROBLEMS[name]).split()).split(". ")[0].rstrip(".")
        print(f"{name:22s} {kind:9s} {note}")
    if not needle:
        print()
        for name, spec in sorted(SYSTEMS.items()):
            kind = "smoothed" if spec.smoothed else "smooth"
            print(f"{name:10s} {kind:9s} for {spec.problem.__name__}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_list(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MirrorflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
