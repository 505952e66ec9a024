"""run.py turns the processes' sidecars into metrics, failed jobs included.

    python3 -m pytest perfbench/tests
"""

import pytest

import run

JOB = run.Job("logregress", "apdmd", (2.0, 4.0), tf=100.0)


def sidecar(failed: bool) -> dict:
    """A traced sidecar of a two-alpha sweep; the second job may have failed."""
    ok = {"alpha": 2.0, "rhs_evals": 601, "started": 10.5, "integrating": 10.75,
          "accepted": 100, "rejected": 0, "samples": 50}
    second = ({"alpha": 4.0, "rhs_evals": 7, "started": 10.5} if failed
              else {**ok, "alpha": 4.0, "integrating": 10.5})
    spans = {"dynamics": [608, 0.02, 0.01], "integrator": [2, 0.05, 0.03],
             "diagnostics": [1, 0.01, 0.01], "cli.run_single": [2, 0.2, 0.05]}
    return {"import_s": 0.25, "main_s": 0.4, "jobs": [ok, second], "spans": spans}


def test_layer_metrics_skip_a_job_that_failed_after_build_field():
    rnd = {"wall": 1.0, "procs": [(JOB, None, sidecar(failed=True), 10.0)]}
    metrics = run.layer_metrics(rnd)
    assert metrics["integrator.steps_accepted"] == 100
    assert metrics["integrator.accept_ratio"] == 1.0
    assert metrics["diagnostics.us_per_sample"] == pytest.approx(1e6 * 0.01 / 50)


def test_layer_metrics_skip_a_process_that_left_no_sidecar():
    rnd = {"wall": 1.0, "procs": [(JOB, None, sidecar(failed=False), 10.0), (JOB, None, None, 11.0)]}
    assert run.layer_metrics(rnd)["integrator.steps_accepted"] == 200


def test_setup_time_counts_the_launch_once_and_each_job_to_its_integration():
    rnd = {"wall": 1.0, "procs": [(JOB, None, sidecar(failed=False), 10.0)]}
    # launch to the first start: 0.5 s; the jobs: 0.25 s and 0 s
    assert run.setup_time(rnd) == pytest.approx(0.75)
    rnd = {"wall": 1.0, "procs": [(JOB, None, sidecar(failed=True), 10.0), (JOB, None, None, 11.0)]}
    assert run.setup_time(rnd) == pytest.approx(0.75)
