"""Run one ``mirrorflow`` command line in this process, as its console script does.

    python3 perfbench/launch.py SIDECAR [--trace] run --problem ... --out DIR

The command line goes to ``mirrorflow.cli.main`` unchanged. Every vector
field it builds gets a call counter on its rhs, one extra Python frame per
evaluation. With ``--trace`` the calls into each module's public functions
are also timed (see tracer.py) and each job's sampled x(t) is kept. When the
command returns, SIDECAR receives, as JSON, the wall times of the import and
of ``main`` and, per job, the alpha, the rhs evaluation count, the step
counts and the clock readings at the job's start and at the start of its
integration; traced, also the span table and the number of samples.
SIDECAR.npz receives the traced jobs' sample times and states.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import replace
from itertools import count
from pathlib import Path


def install_counters(cli, jobs: list, tracer=None):
    """Count each field's rhs calls and note when each job starts and integrates.

    A job's entry gets ``started``, the ``time.perf_counter()`` at the start
    of its ``run_single``, and ``integrating``, the same clock when its
    ``integrate`` is called. On Linux that clock is CLOCK_MONOTONIC, shared
    by every process, so the caller can subtract its own launch time.
    Traced, the rhs is also timed and each job's sampled x(t) is kept.
    """
    build_field, integrate, run_single = cli.build_field, cli.integrate, cli.run_single
    local = threading.local()

    def stamped_run_single(*args, **kwargs):
        local.started = time.perf_counter()
        return run_single(*args, **kwargs)

    def counting_build_field(system, problem, params):
        field = build_field(system, problem, params)
        rhs, calls = field.rhs, count()

        def counted(t, y):
            next(calls)
            return rhs(t, y)

        f = tracer.wrap("dynamics", counted) if tracer else counted
        jobs.append({"alpha": params.alpha, "dim": problem.dim, "calls": calls, "rhs": f,
                     "started": local.started})
        return replace(field, rhs=f)

    def recording_integrate(f, *args, **kwargs):
        job = next(j for j in jobs if j["rhs"] is f)
        job["integrating"] = time.perf_counter()
        traj = integrate(f, *args, **kwargs)
        job.update(accepted=traj.steps_accepted, rejected=traj.steps_rejected)
        if tracer:
            job.update(times=traj.times, x=traj.states[:, :job["dim"]].copy())
        return traj

    cli.run_single = stamped_run_single
    cli.build_field = counting_build_field
    cli.integrate = recording_integrate


def install_tracer(cli, tracer):
    """Route the calls into each module's public functions through spans."""
    from mirrorflow import graph, mirror_maps, problems

    hot = "dynamics"  # per-evaluation layers are recorded only inside the rhs
    for cls in (problems.ConsensusProblem, problems.MonotropicProblem):
        cls.map_stacked = tracer.wrap("mirror_maps", cls.map_stacked, parent=hot)
        cls.grad_stacked = tracer.wrap("problems.grad", cls.grad_stacked, parent=hot)
    problems.ConstrainedProblem.grad = tracer.wrap(
        "problems.grad", problems.ConstrainedProblem.grad, parent=hot)
    for cls in vars(mirror_maps).values():
        if isinstance(cls, type) and "grad_conjugate" in vars(cls):
            cls.grad_conjugate = tracer.wrap("mirror_maps", vars(cls)["grad_conjugate"], parent=hot)
    graph.LiftedLaplacian.apply = tracer.wrap("graph.apply", graph.LiftedLaplacian.apply,
                                              parent=hot)
    for name, build in list(problems.PROBLEMS.items()):
        problems.PROBLEMS[name] = tracer.wrap("problems.build", build)
    cli.build_field = tracer.wrap("dynamics.build", cli.build_field)
    cli.integrate = tracer.wrap("integrator", cli.integrate)
    cli.reference_solution = tracer.wrap("oracle", cli.reference_solution)
    cli.evaluate_run = tracer.wrap("diagnostics", cli.evaluate_run)
    cli.run_single = tracer.wrap("cli.run_single", cli.run_single)


def main(args: list) -> int:
    sidecar = Path(args[0])
    traced = args[1] == "--trace"
    argv = args[2:] if traced else args[1:]
    start = time.perf_counter()
    import mirrorflow.cli as cli
    import_s = time.perf_counter() - start

    jobs: list = []
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
    install_counters(cli, jobs, tracer)
    if tracer:
        install_tracer(cli, tracer)

    start = time.perf_counter()
    code = cli.main(argv)
    record = {"import_s": import_s, "main_s": time.perf_counter() - start, "jobs": []}
    arrays = {}
    for i, job in enumerate(jobs):
        # a count() that has been advanced n times yields n next
        entry = {"alpha": job["alpha"], "rhs_evals": next(job["calls"]),
                 "started": job["started"]}
        if "accepted" in job:  # integrate returned
            entry.update(integrating=job["integrating"], accepted=job["accepted"],
                         rejected=job["rejected"])
        if "times" in job:
            entry["samples"] = int(job["times"].size)
            arrays[f"t_{i}"], arrays[f"x_{i}"] = job["times"], job["x"]
        record["jobs"].append(entry)
    if tracer is not None:
        record["spans"] = tracer.totals()
        import numpy as np

        np.savez(sidecar.with_suffix(".npz"), **arrays)
    sidecar.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
