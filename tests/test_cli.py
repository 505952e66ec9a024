import ast
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
from mirrorflow.integrator import IntegratorConfig
from mirrorflow.errors import ParameterError, UsageError
from mirrorflow.problems import PROBLEMS, reference_solution

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
    for run in ("a", "b"):
        out = tmp_path / run
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


def test_alpha_sweep_writes_subdirectories(tmp_path):
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
    cfg.write_text(json.dumps({"problem": "scalar", "system": "apdmd", "alpha": "3",
                               "beta": 2, "tf": 10.0, "rel_tol": 1e-5}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--system", "apdmd", "--tf", "12",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tf"] == 12.0  # the flag wins over the file
    # values set only in the file are honoured, not replaced by flag defaults
    assert (summary["alpha"], summary["beta"]) == (3.0, 2.0)
    assert summary["integrator"]["rel_tol"] == 1e-5
    assert summary["integrator"]["abs_tol"] == 1e-8  # set nowhere: the default


def test_config_file_carries_system_and_out(tmp_path):
    out = tmp_path / "from_file"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "scalar", "system": "apdmd", "tf": 5.0,
                               "out": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["system"], summary["tf"]) == ("apdmd", 5.0)


@pytest.mark.parametrize("missing", ["system", "out"])
def test_run_without_system_or_out_is_usage_error(missing, tmp_path, capsys):
    entries = {"problem": "scalar", "system": "apdmd", "tf": 5.0, "out": str(tmp_path / "out")}
    del entries[missing]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"no {missing} given" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_l1_spec_over_a_box_fails_before_any_output(tmp_path, capsys):
    # the l1 oracle models free space and the orthant only; a box used to be
    # treated as free space, with f* = 1 below the true 1.5
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"problem_spec": {
        "a": [[1, 2]], "b": [2], "objective": {"kind": "l1"},
        "set": {"kind": "box", "lo": [-3, -3], "hi": [3, 0.5]}}}))
    out = tmp_path / "out"
    assert main(["run", "--system", "sapdmd", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'box'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_below_a_file_is_usage_error_before_any_computation(out, tmp_path, monkeypatch,
                                                                 capsys):
    (tmp_path / "taken").write_text("a file")

    def no_solve(*_args, **_kwargs):
        raise AssertionError("reference solved before --out was checked")

    monkeypatch.setattr(cli, "reference_solution", no_solve)
    code = main(["run", "--problem", "scalar", "--system", "apdmd",
                 "--out", str(tmp_path / out)])
    assert code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "a file"


def test_summary_is_strict_json(tmp_path, capsys):
    # too few samples for the slope fits, which are NaN: JSON has no NaN
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "short"
    assert main(["run", "--problem", "scalar", "--system", "apdmd", "--tf", "1.3",
                 "--out", str(out)]) == 0
    for text in ((out / "summary.json").read_text(), capsys.readouterr().out):
        summary = json.loads(text, parse_constant=refuse)
        assert summary["slope_gap"] is None and summary["slope_feasibility"] is None


def test_settings_leave_each_default_to_its_dataclass():
    assert cli._settings({"system": "apdmd"}, 2.0) == \
        (SystemParams(alpha=2.0), IntegratorConfig(), 100.0)


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
    params = SystemParams(alpha=3.0, mu0=0.1 if smoothed else None)
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
    ("scalar", "apdmd", ["--alpha", "2,2.0,3"]),
    ("scalar", "apdmd", ["--alpha", "2,2.0000001"]),
    ("scalar", "apdmd", ["--tf", "inf"]),
    ("scalar", "apdmd", ["--alpha", "inf"]),
    ("scalar", "apdmd", ["--beta", "inf"]),
    ("scalar", "apdmd", ["--rel-tol", "inf"]),
    ("nbp", "sapdmd", ["--beta", "10", "--mu0", "inf"]),
    ("d_sp", "admd", ["--seed", "-1"]),
    ("scalar", "apdmd", ["--seed", "-1"]),
], ids=["admd-beta", "sadmd-mu0", "alpha", "alpha-sweep", "tf-before-t0", "rel-tol",
        "alpha-not-a-number", "no-alpha", "alpha-repeated", "alpha-same-directory", "tf-inf",
        "alpha-inf", "beta-inf", "rel-tol-inf", "sapdmd-mu0-inf", "seed-negative",
        "seed-negative-seedless"])
def test_bad_run_parameters_are_usage_errors(problem, system, flags, tmp_path, capsys):
    # rejected before any job runs: exit 2, nothing on stdout and no output directory
    out = tmp_path / "x"
    code = main(["run", "--problem", problem, "--system", system, *flags, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == ""
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

    def flaky(cfg, problem, ref, settings, out_dir):
        if settings[0].alpha == 3.0:
            raise RuntimeError("boom")
        return real(cfg, problem, ref, settings, out_dir)

    monkeypatch.setattr(cli, "run_single", flaky)
    out = tmp_path / "sweep"
    code = main(["run", "--problem", "scalar", "--system", "apdmd",
                 "--alpha", "2,3", "--tf", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "alpha=2: ok" in captured.out
    assert "alpha=3: FAILED (RuntimeError: boom)" in captured.out
    assert "in flaky" in captured.err  # the traceback of the unexpected error
    assert (out / "alpha_2" / "summary.json").exists()


def _outputs(out: Path) -> dict:
    """A run's three files, with the runtime taken out of the summary."""
    summary = json.loads((out / "summary.json").read_text())
    del summary["runtime_seconds"]
    return {"trajectory.csv": (out / "trajectory.csv").read_bytes(),
            "plot.gp": (out / "plot.gp").read_bytes(), "summary.json": summary}


@pytest.mark.parametrize("problem, system, alphas, flags", [
    ("nbp", "sapdmd", ["4", "2"], ["--beta", "10", "--tf", "10"]),
    # alpha 4 fails after its NegEntropyMap clamps; alpha 2 shares that map
    ("nbp", "sapdmd", ["4", "2"], ["--beta", "1000", "--rel-tol", "1e-2",
                                   "--abs-tol", "1e-4", "--tf", "10"]),
    ("dis_log", "adpdmd", ["4", "3"], ["--tf", "5"]),
], ids=["nbp", "nbp-clamped-job-fails", "dis_log"])
def test_sweep_jobs_equal_single_runs(problem, system, alphas, flags, tmp_path):
    argv = ["run", "--problem", problem, "--system", system, *flags]
    sweep = tmp_path / "sweep"
    sweep_code = main([*argv, "--alpha", ",".join(alphas), "--out", str(sweep)])
    codes = []
    for a in alphas:
        single = tmp_path / a
        codes.append(main([*argv, "--alpha", a, "--out", str(single)]))
        if codes[-1] == 0:
            assert _outputs(sweep / f"alpha_{a}") == _outputs(single)
        else:
            assert not (sweep / f"alpha_{a}").exists()
    assert sweep_code == max(codes)
    assert 0 in codes


def test_sweep_builds_the_problem_and_solves_the_reference_once(tmp_path, monkeypatch):
    calls = {"build": 0, "reference": 0}
    build, solve = PROBLEMS["scalar"], cli.reference_solution

    def counting_build(seed=1):
        calls["build"] += 1
        return build(seed)

    def counting_solve(problem, **kwargs):
        calls["reference"] += 1
        return solve(problem, **kwargs)

    monkeypatch.setitem(PROBLEMS, "scalar", counting_build)
    monkeypatch.setattr(cli, "reference_solution", counting_solve)
    assert main(["run", "--problem", "scalar", "--system", "apdmd", "--alpha", "2,3,4",
                 "--tf", "5", "--out", str(tmp_path / "sweep")]) == 0
    assert calls == {"build": 1, "reference": 1}


def test_benchmark_launcher_counts_each_sweep_job(tmp_path):
    # perfbench/launch.py replaces cli.run_single, build_field and integrate
    root = Path(mirrorflow.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    sidecar = tmp_path / "launch.json"
    subprocess.run([sys.executable, str(root / "perfbench" / "launch.py"), str(sidecar),
                    "run", "--problem", "scalar", "--system", "apdmd", "--alpha", "2,3",
                    "--tf", "5", "--out", str(tmp_path / "sweep")],
                   env=env, capture_output=True, text=True, check=True)
    jobs = json.loads(sidecar.read_text())["jobs"]
    assert [j["alpha"] for j in jobs] == [2.0, 3.0]
    for job in jobs:
        assert job["rhs_evals"] > 0
        assert job["started"] <= job["integrating"]


_FRESH_RUN = """
import json, sys
from mirrorflow.cli import main
code = main(sys.argv[1:])
loaded = {name: sorted(m for m in sys.modules if (m + ".").startswith(name + "."))
          for name in ("scipy", "numpy.random")}
print(json.dumps({"code": code, **loaded}))
"""


@pytest.mark.parametrize("problem, system, extra", [
    ("scalar", "apdmd", []),
    ("nbp", "sapdmd", ["--beta", "10"]),
    ("d_bp_c", "sadmd", ["--seed", "54"]),
])
def test_no_run_loads_scipy(problem, system, extra, tmp_path):
    # the l1 route solves its LP too, and the seeded builders draw their
    # instances: the package runs on numpy alone, without numpy.random
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
    assert result["scipy"] == []
    assert result["numpy.random"] == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["f_star"] == reference_solution(PROBLEMS[problem](summary["seed"])).f_star


def _package_nodes():
    package = Path(mirrorflow.__file__).resolve().parent
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def _imported(node) -> list:
    """The dotted names an import statement binds from, absolute imports only."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_package_module_imports_scipy():
    offenders = [f"{name}:{node.lineno} {n}" for name, node in _package_nodes()
                 for n in _imported(node) if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_no_package_module_uses_numpy_random():
    # SeededRng computes the Philox stream itself; numpy.random costs ~5 MiB
    offenders = []
    for name, node in _package_nodes():
        offenders += [f"{name}:{node.lineno} {n}" for n in _imported(node)
                      if n.split(".")[:2] == ["numpy", "random"]]
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            offenders.append(f"{name}:{node.lineno} {node.value.id}.random")
    assert offenders == []


_QUADRATIC = {"kind": "quadratic", "q": [[0.5, 0.0], [0.0, 0.5]]}


@pytest.mark.parametrize("config, message", [
    ({"problem_spec": {"b": [1.0]}}, "problem_spec needs 'a'"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": _QUADRATIC,
                       "set": {"kind": "box", "lo": [0.0, 0.0]}}}, "problem_spec set needs 'hi'"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": _QUADRATIC,
                       "set": {"kind": "sphere", "center": [0.0, 0.0]}}},
     "problem_spec set needs 'radius'"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": {"kind": "quadratic"}}},
     "problem_spec objective needs 'q'"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": {"kind": "logistic"}}},
     "problem_spec objective needs 'w'"),
    ({"problem_spec": [1, 2]}, "problem_spec must be a JSON object, got list"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": _QUADRATIC, "set": "box"}},
     "problem_spec set must be a JSON object, got str"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": "quadratic"}},
     "problem_spec objective must be a JSON object, got str"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": {"kind": "quadratic",
                                                                      "q": {"x": 1}}}},
     "problem_spec objective 'q' is not numeric: {'x': 1}"),
    ({"problem_spec": {"a": [[1.0, 1.0]], "b": [2.0], "objective": _QUADRATIC,
                       "set": {"kind": "sphere", "center": [0.0, 0.0], "radius": [1.0, 2.0]}}},
     "problem_spec set 'radius' is not a number: [1.0, 2.0]"),
    ([1], "holds a list, not an object"),
    ("{not json", "cannot read config"),
    (None, "cannot read config"),
], ids=["spec-no-a", "box-no-hi", "sphere-no-radius", "quadratic-no-q", "logistic-no-w",
        "spec-list", "set-string", "objective-string", "q-not-numeric", "radius-not-a-number",
        "config-list", "config-not-json", "config-missing"])
def test_malformed_config_is_usage_error(config, message, tmp_path, capsys):
    # rejected before any output: exit 2 and a message naming the key or the type
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    code = main(["run", "--system", "apdmd", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"system": ["apdmd"]}, "config 'system' must be a string, got ['apdmd']"),
    ({"problem": ["scalar"]}, "config 'problem' must be a string, got ['scalar']"),
    ({"out": 5}, "config 'out' must be a string, got 5"),
    ({"seed": 1.5}, "config 'seed' must be a whole number, got 1.5"),
    ({"seed": True}, "config 'seed' must be a whole number, got True"),
    ({"seed": "3"}, "config 'seed' must be a whole number, got '3'"),
    ({"max_steps": 1.5}, "config 'max_steps' must be a whole number, got 1.5"),
    ({"max_steps": float("inf")}, "config 'max_steps' must be a whole number, got inf"),
    ({"tf": [10.0]}, "config 'tf' must be a number, got [10.0]"),
    ({"alpha": None}, "config 'alpha' must be a number or a comma-separated string, got None"),
], ids=["system-list", "problem-list", "out-number", "seed-float", "seed-bool", "seed-string",
        "max-steps-float", "max-steps-inf", "tf-list", "alpha-null"])
def test_config_entry_of_the_wrong_type_is_usage_error(entry, message, tmp_path, monkeypatch,
                                                       capsys):
    # rejected before any output: exit 2, the message on stderr, and no --out
    monkeypatch.chdir(tmp_path)  # where a numeric out would be created
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "scalar", "system": "apdmd", "tf": 10.0,
                                "out": str(out), **entry}))
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "5").exists()


def test_whole_number_floats_are_taken_for_seed_and_max_steps(tmp_path):
    # 3.0 is the seed 3, as SeededRng takes it, and 1e6 steps is an integer count
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "d_sp", "system": "admd", "tf": 5.0,
                                "seed": 3.0, "max_steps": 1e6, "out": str(tmp_path / "f")}))
    assert main(["run", "--config", str(path)]) == 0
    assert main(["run", "--problem", "d_sp", "--system", "admd", "--tf", "5", "--seed", "3",
                 "--out", str(tmp_path / "i")]) == 0
    assert json.loads((tmp_path / "f" / "summary.json").read_text())["seed"] == 3
    assert (tmp_path / "f" / "trajectory.csv").read_bytes() \
        == (tmp_path / "i" / "trajectory.csv").read_bytes()
