import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorflow
from mirrorflow import cli
from mirrorflow.cli import _validate, main
from mirrorflow.dynamics import SYSTEMS, SystemParams, build_field
from mirrorflow.errors import ParameterError, UsageError
from mirrorflow.problems import PROBLEMS, reference_solution
from mirrorflow.smoothing import MuSchedule

# (shape, smoothed) of every catalogue problem and of what each system accepts
_PROBLEM_KINDS = {
    "scalar": ("centralized", False), "logregress": ("centralized", False),
    "nbp": ("centralized", True), "dis_log": ("consensus", False),
    "d_bp_r": ("consensus", True), "consensus_quadratic": ("consensus", False),
    "d_sp": ("monotropic", False), "d_bp_c": ("monotropic", True),
}
_SYSTEM_KINDS = {
    "apdmd": ("centralized", False), "apdpd": ("centralized", False),
    "sapdmd": ("centralized", True), "adpdmd": ("consensus", False),
    "sadpdmd": ("consensus", True), "admd": ("monotropic", False),
    "sadmd": ("monotropic", True),
}
# systems that also need a projection mirror map; no catalogue problem has one
_PROJECTION_SYSTEMS = {"apdpd"}


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "scalar_run"
    code = main(["run", "--problem", "scalar", "--system", "apdmd",
                 "--alpha", "2", "--tf", "20", "--out", str(out)])
    assert code == 0
    csv = (out / "trajectory.csv").read_text()
    header = csv.splitlines()[0]
    assert header == "t,gap,lagrangian_gap,feasibility,lyapunov,mu,x_norm,lambda_norm"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "scalar"
    assert summary["bound_checks"]["lagrangian_gap_rate"]["ok"]
    assert (out / "plot.gp").exists()


def test_run_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--problem", "scalar", "--system", "apdmd",
                     "--alpha", "2", "--tf", "15", "--out", str(out)]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_unknown_problem_is_usage_error(capsys):
    code = main(["run", "--problem", "nope", "--system", "apdmd",
                 "--alpha", "2", "--out", "/tmp/x"])
    assert code == 2
    err = capsys.readouterr().err
    assert "logregress" in err  # the error lists the available problems


def test_incompatible_system_rejected_before_compute(tmp_path):
    code = main(["run", "--problem", "nbp", "--system", "apdmd",
                 "--alpha", "2", "--out", str(tmp_path)])
    assert code == 2
    assert not any(tmp_path.iterdir())


def test_alpha_sweep_writes_subdirectories(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRRORFLOW_THREADS", "2")
    out = tmp_path / "sweep"
    code = main(["run", "--problem", "scalar", "--system", "apdmd",
                 "--alpha", "2,3", "--tf", "10", "--out", str(out)])
    assert code == 0
    assert (out / "alpha_2" / "summary.json").exists()
    assert (out / "alpha_3" / "summary.json").exists()


def test_list_catalogue(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for name in ("logregress", "nbp", "d_bp_c", "apdmd", "sadmd"):
        assert name in text


def test_list_filter_and_unknown(capsys):
    assert main(["list", "log"]) == 0
    text = capsys.readouterr().out
    assert "logregress" in text and "nbp" not in text
    assert main(["list", "zzz"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "scalar", "system": "apdmd",
                               "alpha": "2", "tf": 10.0}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--problem", "scalar",
                 "--system", "apdmd", "--alpha", "2", "--tf", "12",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tf"] == 12.0


def test_inline_problem_spec(tmp_path):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "system": "apdmd",
        "alpha": "2",
        "tf": 10.0,
        "problem_spec": {
            "a": [[1.0, 1.0]],
            "b": [2.0],
            "objective": {"kind": "quadratic", "q": [[0.5, 0.0], [0.0, 0.5]]},
            "set": {"kind": "box", "lo": [-5.0, -5.0], "hi": [5.0, 5.0]},
        },
    }))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--system", "apdmd",
                 "--alpha", "2", "--tf", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "custom"
    assert summary["bound_checks"]["lagrangian_gap_rate"]["ok"]


def test_verify_table_format(monkeypatch, capsys):
    from mirrorflow import acceptance

    def fake_pass():
        return acceptance.CriterionResult("stub pass", True, 0.01, ["  ok fine"])

    def fake_fail():
        return acceptance.CriterionResult("stub fail", False, 0.01, ["  BAD broken"])

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [fake_pass, fake_fail])
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[PASS] stub pass" in out and "[FAIL] stub fail" in out
    assert "1/2 criteria passed" in out


def test_shape_mismatch_is_usage_error(tmp_path):
    code = main(["run", "--problem", "dis_log", "--system", "apdmd",
                 "--alpha", "2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_compatibility_tables_cover_the_catalogue():
    assert set(_PROBLEM_KINDS) == set(PROBLEMS)
    assert set(_SYSTEM_KINDS) == set(SYSTEMS)


@pytest.mark.parametrize("system", sorted(_SYSTEM_KINDS))
@pytest.mark.parametrize("problem", sorted(_PROBLEM_KINDS))
def test_validate_accepts_exactly_the_compatible_pairs(problem, system, tmp_path):
    # the API accepts the same pairs as the CLI, and rejects the others with the same reason
    cfg = {"problem": problem, "system": system, "seed": 1}
    smoothed = _SYSTEM_KINDS[system][1]
    params = SystemParams(alpha=3.0, mu=MuSchedule(0.1, 3.0) if smoothed else None)
    if _PROBLEM_KINDS[problem] == _SYSTEM_KINDS[system] and system not in _PROJECTION_SYSTEMS:
        _validate(cfg)
        assert build_field(system, PROBLEMS[problem](1), params).kind == system
        return
    with pytest.raises(UsageError) as cli_error:
        _validate(cfg)
    with pytest.raises(ParameterError) as api_error:
        build_field(system, PROBLEMS[problem](1), params)
    assert str(api_error.value) == str(cli_error.value)
    out = tmp_path / "x"
    code = main(["run", "--problem", problem, "--system", system, "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("problem, system, flags", [
    ("d_sp", "admd", ["--beta", "2"]),
    ("d_bp_c", "sadmd", ["--mu0", "0"]),
    ("scalar", "apdmd", ["--alpha", "1"]),
    ("scalar", "apdmd", ["--alpha", "1,2"]),
    ("scalar", "apdmd", ["--tf", "0.5"]),
    ("scalar", "apdmd", ["--rel-tol", "0"]),
    ("scalar", "apdmd", ["--alpha", "x"]),
    ("scalar", "apdmd", ["--alpha", ","]),
], ids=["admd-beta", "sadmd-mu0", "alpha", "alpha-sweep", "tf-before-t0", "rel-tol",
        "alpha-not-a-number", "no-alpha"])
def test_bad_run_parameters_are_usage_errors(problem, system, flags, tmp_path):
    # rejected before any job runs: exit 2 and no output directory
    out = tmp_path / "x"
    code = main(["run", "--problem", problem, "--system", system, *flags, "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_inline_spec_with_distributed_system_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({"problem_spec": {
        "a": [[1.0, 1.0]], "b": [2.0],
        "objective": {"kind": "quadratic", "q": [[0.5, 0.0], [0.0, 0.5]]},
    }}))
    for system in ("adpdmd", "admd"):
        out = tmp_path / system
        code = main(["run", "--config", str(cfg), "--system", system, "--out", str(out)])
        assert code == 2
        assert "expects a" in capsys.readouterr().err
        assert not out.exists()


def test_apdpd_needs_a_projection_map():
    with pytest.raises(UsageError, match="needs a ProjectionMap mirror map"):
        _validate({"problem": "scalar", "system": "apdpd", "seed": 1})
    spec = {"a": [[1.0, 1.0]], "b": [2.0],
            "objective": {"kind": "quadratic", "q": [[0.5, 0.0], [0.0, 0.5]]},
            "set": {"kind": "box", "lo": [-5.0, -5.0], "hi": [5.0, 5.0]}}
    _validate({"problem_spec": spec, "system": "apdpd"})


def test_sweep_reports_every_job_when_one_raises(tmp_path, monkeypatch, capsys):
    real = cli.run_single

    def flaky(cfg, out_dir):
        if cfg["alpha"] == 3.0:
            raise RuntimeError("boom")
        return real(cfg, out_dir)

    monkeypatch.setattr(cli, "run_single", flaky)
    monkeypatch.setenv("MIRRORFLOW_THREADS", "2")
    out = tmp_path / "sweep"
    code = main(["run", "--problem", "scalar", "--system", "apdmd",
                 "--alpha", "2,3", "--tf", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "alpha=2: ok" in captured.out
    assert "alpha=3: FAILED (RuntimeError: boom)" in captured.out
    assert "in flaky" in captured.err  # the traceback of the unexpected error
    assert (out / "alpha_2" / "summary.json").exists()


_FRESH_RUN = """
import json, sys
from mirrorflow.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


@pytest.mark.parametrize("problem, system, extra, solves_lp", [
    ("scalar", "apdmd", [], False),
    ("nbp", "sapdmd", ["--beta", "10"], True),
])
def test_scipy_is_loaded_only_to_solve_an_lp(problem, system, extra, solves_lp, tmp_path):
    src = str(Path(mirrorflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    argv = ["run", "--problem", problem, "--system", system, "--tf", "5",
            "--out", str(out), *extra]
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, *argv], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert ("scipy.optimize" in result["scipy"]) == solves_lp
    if not solves_lp:
        assert result["scipy"] == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["f_star"] == reference_solution(PROBLEMS[problem](1)).f_star
