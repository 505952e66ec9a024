"""Command-line experiment runner.

    mirrorflow run --problem nbp --system sapdmd --alpha 2 --tf 200 --out out/
    mirrorflow verify
    mirrorflow list [filter]

``run`` integrates the chosen flow over [t0, tf], writes ``trajectory.csv``
(one row per sample), ``summary.json`` (certificate value, fitted slopes,
bound-check ratios, warnings, runtime) and ``plot.gp`` (a gnuplot script
regenerating the log-log figures from the CSV). A comma-separated
``--alpha 2,4,6`` sweep runs each value as an independent job in a thread
pool capped by the MIRRORFLOW_THREADS environment variable, each writing to
its own subdirectory. ``verify`` executes the acceptance suite and exits
nonzero on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance
from .dynamics import SYSTEMS, SystemParams, build_field, check_params, mismatch
from .errors import MirrorflowError, ParameterError, UsageError
from .integrator import IntegratorConfig, integrate
from .problems import PROBLEMS, problem_from_spec, reference_solution
from .smoothing import MuSchedule
from .diagnostics import evaluate_run

_CATALOGUE_NOTES = {
    "scalar": "one-dimensional quadratic with a single equality constraint",
    "logregress": "centralized logistic loss on the unit 4-simplex, two equality constraints",
    "dis_log": "4-agent ring, logistic losses, simplex/orthant/sphere/half-space local sets",
    "d_sp": "10-agent ring, quadratic costs, box sets, shared per-coordinate supply",
    "nbp": "nonnegative l1 recovery from 10 orthonormal Gaussian measurements in R^40",
    "d_bp_r": "row-partitioned l1 recovery, 5 agents with affine local sets, R^60 signal",
    "d_bp_c": "column-partitioned l1 recovery, 10 agents coupled by shared measurements",
    "consensus_quadratic": "two Euclidean quadratic agents on one weighted edge",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mirrorflow",
                                description="accelerated primal-dual mirror dynamics runner")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one experiment and write artifacts")
    run.add_argument("--problem", default=None, help="catalogue name; omit when --config carries problem_spec")
    run.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    run.add_argument("--alpha", default="2", help="value or comma-separated sweep, e.g. 2,4,6")
    run.add_argument("--beta", type=float, default=1.0)
    run.add_argument("--t0", type=float, default=1.0)
    run.add_argument("--tf", type=float, default=100.0)
    run.add_argument("--mu0", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", required=True)
    run.add_argument("--rel-tol", type=float, default=1e-6)
    run.add_argument("--abs-tol", type=float, default=1e-8)
    run.add_argument("--max-steps", type=int, default=3_000_000)
    run.add_argument("--config", help="JSON config file; flags override its entries")

    sub.add_parser("verify", help="run the acceptance suite")

    lst = sub.add_parser("list", help="print the problem and system catalogue")
    lst.add_argument("filter", nargs="?", default="")
    return p


def _load_config(args) -> dict:
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged.update(json.load(fh))
    for key in ("problem", "system", "alpha", "beta", "t0", "tf", "mu0", "seed",
                "out", "rel_tol", "abs_tol", "max_steps"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if "problem_spec" in merged and not merged.get("problem"):
        merged["problem"] = "custom"
    return merged


def _validate(cfg: dict) -> list:
    """Build the problem once and check that the system accepts it and every
    alpha's settings, before any output is written; returns the alphas."""
    name = cfg.get("problem")
    if "problem_spec" not in cfg and not name:
        raise UsageError("no problem given: use --problem or a config problem_spec")
    if "problem_spec" not in cfg and name not in PROBLEMS:
        raise UsageError(
            f"unknown problem {name!r}; available: {', '.join(sorted(PROBLEMS))}")
    if reason := mismatch(cfg["system"], _build_problem(cfg)):
        raise UsageError(reason)
    try:  # a ParameterError is a ValueError, as is a value that is not a number
        alphas = [float(a) for a in str(cfg.get("alpha", "2")).split(",") if a.strip()]
        if not alphas:
            raise ParameterError("no alpha given")
        for alpha in alphas:
            _settings(cfg, alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return alphas


def _build_problem(cfg: dict):
    """The inline problem_spec when given, else the catalogue entry."""
    if "problem_spec" in cfg:
        return problem_from_spec(cfg["problem_spec"])
    return PROBLEMS[cfg["problem"]](cfg.get("seed", 1))


def _settings(cfg: dict, alpha: float):
    """One job's SystemParams (with its mu schedule), IntegratorConfig and
    final time; raises ParameterError on a value the system does not take."""
    system, t0, tf = cfg["system"], float(cfg.get("t0", 1.0)), float(cfg.get("tf", 100.0))
    mu = MuSchedule(float(cfg.get("mu0", 0.1)), alpha, t0) if SYSTEMS[system].smoothed else None
    params = SystemParams(alpha=alpha, beta=float(cfg.get("beta", 1.0)), t0=t0, mu=mu)
    check_params(system, params)
    if not tf > t0:
        raise ParameterError(f"need tf > t0, got [{t0}, {tf}]")
    icfg = IntegratorConfig(rel_tol=float(cfg.get("rel_tol", 1e-6)),
                            abs_tol=float(cfg.get("abs_tol", 1e-8)),
                            max_steps=int(cfg.get("max_steps", 3_000_000)))
    return params, icfg, tf


def run_single(cfg: dict, out_dir: Path) -> dict:
    started = time.time()
    problem = _build_problem(cfg)
    cfg = {**cfg, "problem": cfg.get("problem", "custom")}
    alpha = float(cfg["alpha"])
    params, icfg, tf = _settings(cfg, alpha)
    field = build_field(cfg["system"], problem, params)
    ref = reference_solution(problem, tol=1e-8)
    traj = integrate(field.rhs, field.initial_state, params.t0, tf, icfg)
    report = evaluate_run(field, traj, ref)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv", report)
    summary = {
        "problem": cfg["problem"],
        "system": cfg["system"],
        "alpha": alpha,
        "beta": params.beta,
        "t0": params.t0,
        "tf": tf,
        "mu0": params.mu.mu0 if params.mu else None,
        "seed": int(cfg.get("seed", 1)),
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
        "runtime_seconds": round(time.time() - started, 3),
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=True)
    _write_plot_script(out_dir / "plot.gp", cfg["problem"], cfg["system"], alpha)
    return summary


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
    alphas = _validate(cfg)
    out_root = Path(cfg["out"])
    if len(alphas) == 1:
        summary = run_single({**cfg, "alpha": alphas[0]}, out_root)
        print(json.dumps(summary, indent=2))
        return 0
    max_workers = int(os.environ.get("MIRRORFLOW_THREADS", os.cpu_count() or 1))
    max_workers = max(1, min(max_workers, len(alphas)))
    jobs = {}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for a in alphas:
            sub = out_root / f"alpha_{a:g}"
            jobs[a] = pool.submit(run_single, {**cfg, "alpha": a}, sub)
    failures = 0
    for a, job in jobs.items():
        try:
            summary = job.result()
            print(f"alpha={a:g}: ok (v0={summary['v0']:.4g}, "
                  f"slope={summary['slope_gap']:.3f})")
        except Exception as exc:  # one failed job must not hide the others' status
            failures += 1
            print(f"alpha={a:g}: FAILED ({type(exc).__name__}: {exc})")
            if not isinstance(exc, MirrorflowError):  # a defect: keep where it happened
                traceback.print_exception(exc, file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(_args) -> int:
    results = acceptance.run_acceptance(verbose=True)
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
        print(f"{name:22s} {kind:9s} {_CATALOGUE_NOTES.get(name, '')}")
    if not needle:
        print()
        for name, spec in sorted(SYSTEMS.items()):
            tag = "smoothed" if spec.smoothed else "smooth"
            print(f"{name:10s} {tag:9s} for {spec.problem.__name__}")
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
