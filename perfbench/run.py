"""Benchmark of ``mirrorflow run``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dbp-col --seed 1 --seconds 20 --trace 0

Run it from a source checkout: the program is imported from the checkout's
``src/`` and is not installed. A run repeats rounds of the workload's
command lines, each a fresh process, one at a time, until ``--seconds``
have passed. Every output is checked (see checks.py). The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count (problem, alpha)
runs, and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``).

A traced run starts with one untraced round, whose step and evaluation
counts each traced round must repeat exactly, and reports the per-layer
metrics as medians over the traced rounds. The difference of the two rounds'
wall times, the tracing overhead, goes to standard error.

``--seed`` sets the order in which a round runs its command lines. The
problem instances are fixed by each workload (the seeds of the acceptance
suite's runs), so the step and evaluation counts repeat across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TIMEOUT_S = 170


@dataclass(frozen=True)
class Job:
    """One ``mirrorflow run`` command line: several alphas make a sweep."""

    problem: str
    system: str
    alphas: tuple
    tf: float
    seed: int = 1
    beta: float = 1.0
    mu0: float = 0.1
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8

    def argv(self, out: Path) -> list:
        return ["run", "--problem", self.problem, "--system", self.system,
                "--alpha", ",".join(f"{a:g}" for a in self.alphas),
                "--beta", f"{self.beta:g}", "--mu0", f"{self.mu0:g}", "--seed", str(self.seed),
                "--tf", f"{self.tf:g}", "--rel-tol", f"{self.rel_tol:g}",
                "--abs-tol", f"{self.abs_tol:g}", "--out", str(out)]

    def label(self, alpha: float) -> str:
        return f"{self.problem}/{self.system} alpha={alpha:g}"


# criterion 7's smoothed distributed runs and the smooth and centralized
# catalogue with criterion 6's nbp configuration. Horizons are cut so that a
# round takes 5 to 13 s on a 2-core box and a run holds several rounds.
WORKLOADS = {
    "dbp-col": (Job("d_bp_c", "sadmd", (3.0,), tf=25.0, seed=54, mu0=1000.0,
                    rel_tol=1e-4, abs_tol=1e-6),),
    "dbp-row": (Job("d_bp_r", "sadpdmd", (3.0,), tf=20.0, seed=1, mu0=10.0,
                    rel_tol=1e-4, abs_tol=1e-6),),
    "catalogue": (
        Job("scalar", "apdmd", (2.0,), tf=100.0),
        Job("logregress", "apdmd", (2.0, 4.0, 6.0), tf=100.0),
        Job("dis_log", "adpdmd", (3.0, 4.0), tf=20.0),
        Job("d_sp", "admd", (3.0,), tf=20.0),
        Job("nbp", "sapdmd", (4.0,), tf=100.0, beta=10.0, mu0=0.1),
    ),
}
THREADS = "2"  # MIRRORFLOW_THREADS: the sweep pool size

class Bench:
    """One benchmark run of a workload: processes, outputs and checks."""

    def __init__(self, jobs, run_dir: Path, env: dict):
        self.jobs, self.run_dir, self.env = jobs, run_dir, env
        self.rounds = 0
        self._problems = {}

    def run_round(self, traced: bool) -> dict:
        """Run every command line once; returns its wall time and outputs."""
        self.rounds += 1
        wall, procs = 0.0, []
        for i, job in enumerate(self.jobs):
            out = self.run_dir / f"round{self.rounds}" / f"{i}-{job.problem}"
            out.mkdir(parents=True)
            sidecar = out / "launch.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(sidecar),
                   *(["--trace"] if traced else []), *job.argv(out)]
            launched = perf_counter()
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
            wall += perf_counter() - launched
            if proc.returncode != 0:
                print(f"{' '.join(job.argv(out))} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
            side = json.loads(sidecar.read_text()) if sidecar.exists() else None
            procs.append((job, out, side, launched))
        return {"wall": wall, "procs": procs}

    def problem(self, job: Job):
        """The problem object and the benchmark's own f* for a job, built once."""
        key = (job.problem, job.seed)
        if key not in self._problems:
            import mirrorflow

            built = mirrorflow.PROBLEMS[job.problem](job.seed)
            self._problems[key] = (built, checks.own_f_star(job.problem, built))
        return self._problems[key]

    def check_round(self, rnd: dict) -> tuple:
        """Check every output of a round; returns ({(job, alpha): counts}, failed)."""
        counts, failed = {}, 0
        for job, out, side, _ in rnd["procs"]:
            evals = {e["alpha"]: e for e in side["jobs"]} if side else {}
            problem, f_star = self.problem(job)
            for alpha in job.alphas:
                sub = out / f"alpha_{alpha:g}" if len(job.alphas) > 1 else out
                if not (sub / "summary.json").exists() or alpha not in evals:
                    failed += 1
                    continue
                label = job.label(alpha)
                summary = json.loads((sub / "summary.json").read_text())
                cols = checks.read_trajectory(sub / "trajectory.csv")
                checks.check_certificate(cols, alpha, checks.kappa_of(job.problem, problem.dim),
                                         label)
                checks.check_lyapunov_monotone(cols, label)
                checks.check_f_star(summary["f_star"], f_star, label)
                steps = summary["integrator"]
                n = evals[alpha]["rhs_evals"]
                checks.check_eval_count(n, steps["steps_accepted"], steps["steps_rejected"], label)
                counts[(job, alpha)] = (steps["steps_accepted"], steps["steps_rejected"], n)
                if "samples" in evals[alpha]:
                    self.check_traced(job, alpha, evals[alpha], problem, f_star, side, cols, out)
        return counts, failed

    def check_traced(self, job, alpha, entry, problem, f_star, side, cols, out):
        """Set membership of the traced job's sampled x(t) and its final gap."""
        import numpy as np

        label = job.label(alpha)
        i = side["jobs"].index(entry)
        with np.load(out / "launch.npz") as arrays:
            times, xs = arrays[f"t_{i}"], arrays[f"x_{i}"]
        checks.check_membership(problem, times, xs, label)
        checks.check_final_gap(job.problem, problem, f_star, xs[-1], cols["gap"][-1], label)


def setup_time(rnd: dict) -> float:
    """Seconds the round spent before integrating, summed over (problem, alpha).

    Per process: from its launch to the start of its first job's
    ``run_single`` (interpreter, imports, argument parsing), plus, per job
    that integrated, from the start of its ``run_single`` to its call of
    ``integrate`` (problem build, ``build_field``, ``reference_solution``).
    Each process is fresh, so every set-up is a cold one. Both clocks are
    CLOCK_MONOTONIC, shared by the processes.
    """
    total = 0.0
    for _, _, side, launched in rnd["procs"]:
        jobs = [e for e in side["jobs"] if "integrating" in e] if side else []
        if jobs:
            total += min(e["started"] for e in side["jobs"]) - launched
            total += sum(e["integrating"] - e["started"] for e in jobs)
    return total


def end_to_end(bench: Bench, seconds: float) -> tuple:
    rounds, start = [], perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(bench.run_round(traced=False))
    results = [bench.check_round(r) for r in rounds]
    for counts, _ in results[1:]:
        if counts != results[0][0]:
            raise checks.CheckError("step or evaluation counts differ between rounds")
    failed = sum(f for _, f in results)
    print("round wall and set-up times (s): "
          + " ".join(f"{r['wall']:.3f}/{setup_time(r):.3f}" for r in rounds), file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "setup_s": statistics.median(setup_time(r) for r in rounds),
        "rhs_evals": sum(n for _, _, n in results[0][0].values()),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    return metrics, len(rounds), failed


def per_layer(bench: Bench, seconds: float) -> tuple:
    start = perf_counter()
    reference = bench.run_round(traced=False)
    want, failed = bench.check_round(reference)
    rounds = []
    while not rounds or perf_counter() - start < seconds:
        rounds.append(bench.run_round(traced=True))
    for rnd in rounds:
        counts, f = bench.check_round(rnd)
        failed += f
        if counts != want:
            raise checks.CheckError("traced step or evaluation counts differ from the untraced "
                                    f"run's: {counts} against {want}")
    overhead = statistics.median(r["wall"] for r in rounds) - reference["wall"]
    print(f"tracing overhead: {overhead:.3f} s on {reference['wall']:.3f} s untraced "
          f"({100 * overhead / reference['wall']:.1f}%)", file=sys.stderr)
    per_round = [layer_metrics(r) for r in rounds]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    return metrics, len(rounds) + 1, failed


def layer_metrics(rnd: dict) -> dict:
    """The per-layer metrics of one traced round, from its processes' sidecars."""
    spans, jobs, import_s = {}, [], 0.0
    sweep_jobs = sweep_wall = all_jobs = all_wall = 0.0
    for job, _, side, _ in rnd["procs"]:
        if side is None:  # the process failed; check_round counted it
            continue
        import_s += side["import_s"]
        jobs += [e for e in side["jobs"] if "accepted" in e]  # the others failed
        for key, (calls, total, own) in side["spans"].items():
            row = spans.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        job_s, cmd_s = side["spans"].get("cli.run_single", [0, 0.0])[1], side["main_s"]
        all_jobs, all_wall = all_jobs + job_s, all_wall + cmd_s
        if len(job.alphas) > 1:
            sweep_jobs, sweep_wall = sweep_jobs + job_s, sweep_wall + cmd_s

    def row(key):
        return spans.get(key, [0, 0.0, 0.0])

    def per(num, den):
        return num / den if den else 0.0

    def us_per_call(key):
        calls, total, _ = row(key)
        return per(1e6 * total, calls)

    accepted = sum(j["accepted"] for j in jobs)
    rejected = sum(j["rejected"] for j in jobs)
    evals = sum(j["rhs_evals"] for j in jobs)
    rhs_calls, _, rhs_self = row("dynamics")
    return {
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": per(accepted, accepted + rejected),
        "integrator.overhead_us_per_eval": per(1e6 * row("integrator")[2], evals),
        "dynamics.rhs_us_per_eval": per(1e6 * rhs_self, rhs_calls),
        "mirror_maps.calls": row("mirror_maps")[0],
        "mirror_maps.us_per_call": us_per_call("mirror_maps"),
        "problems.grad_calls": row("problems.grad")[0],
        "problems.grad_us_per_call": us_per_call("problems.grad"),
        "graph.apply_us_per_call": us_per_call("graph.apply"),
        "mirrorflow.import_s": import_s,
        "problems.build_s": row("problems.build")[1],
        "oracle.reference_s": row("oracle")[1],
        "dynamics.field_build_s": row("dynamics.build")[1],
        "diagnostics.evaluate_s": row("diagnostics")[1],
        "diagnostics.us_per_sample": per(1e6 * row("diagnostics")[1],
                                         sum(j["samples"] for j in jobs)),
        "cli.write_s": row("cli.run_single")[2],
        "cli.sweep_speedup": per(sweep_jobs, sweep_wall) if sweep_wall else per(all_jobs, all_wall),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mirrorflow" / "cli.py").is_file():
        print(f"error: no mirrorflow sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))  # for the problem data the checks read
    jobs = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(jobs)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, MIRRORFLOW_THREADS=THREADS,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    bench = Bench(jobs, run_dir, env)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, rounds, failed = measure(bench, args.seconds)
        if set(metrics) != set(units):
            raise RuntimeError(f"measured metrics {sorted(metrics)} are not those of "
                               f"BENCHMARK.json, {sorted(units)}")
        correct = True
    except checks.CheckError as exc:
        print(f"check failed: {exc}\noutputs kept in {run_dir}", file=sys.stderr)
        metrics, rounds, failed, correct = {}, bench.rounds, 0, False
    attempted = rounds * sum(len(job.alphas) for job in jobs)
    if correct:
        shutil.rmtree(run_dir)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
