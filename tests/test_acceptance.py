"""Acceptance gate: every release criterion at its stated tolerance.

Each test runs one criterion end to end and prints its detail lines, so a
failure shows exactly which sub-check broke and by how much.
"""

import re

import pytest

from mirrorflow import acceptance, dynamics
from mirrorflow.dynamics import SystemParams
from mirrorflow.errors import IntegrationError, OracleError
from mirrorflow.problems import build_dis_logistic, build_dist_qp, build_scalar


def _assert(result):
    print()
    print(result.line())
    for line in result.details:
        print(line)
    assert result.passed, "\n".join([result.name] + result.details)


def test_criterion_1_unit_property_suites():
    _assert(acceptance.criterion_1())


def test_criterion_2_scalar_sanity():
    _assert(acceptance.criterion_2())


def test_criterion_3_centralized_logistic():
    _assert(acceptance.criterion_3())


def test_criterion_4_distributed_logistic():
    _assert(acceptance.criterion_4())


def test_criterion_5_distributed_quadratic():
    _assert(acceptance.criterion_5())


def test_criterion_6_smoothed_nonnegative_recovery():
    _assert(acceptance.criterion_6())


def test_criterion_7_distributed_smoothed_recovery():
    _assert(acceptance.criterion_7())


def test_criterion_8_first_second_order_agreement():
    _assert(acceptance.criterion_8())


def test_criterion_9_oracle_independence():
    _assert(acceptance.criterion_9())


def test_negative_control_tampered_slack():
    _assert(acceptance.negative_control())


def test_poison_reaches_every_field_builder():
    # criterion 9 poisons the builders by module name and in the table that
    # build_field dispatches through; neither route may stay callable
    params = SystemParams(alpha=3.0)
    problems = [build_scalar(), build_dis_logistic(), build_dist_qp(1)]
    table, names = dict(dynamics._BUILDERS), {n: getattr(dynamics, n) for n in dir(dynamics)}
    with acceptance.dynamics_poisoned():
        assert set(dynamics._BUILDERS) == {type(p) for p in problems}
        for problem, kind in zip(problems, ["apdmd", "adpdmd", "admd"]):
            with pytest.raises(AssertionError, match="mirror dynamics invoked"):
                dynamics._BUILDERS[type(problem)](problem, params, kind)
            with pytest.raises(AssertionError, match="mirror dynamics invoked"):
                dynamics.build_field(kind, problem, params)
        with pytest.raises(AssertionError, match="mirror dynamics invoked"):
            dynamics.apdmd_second_order_field(problems[0], params)
    assert dynamics._BUILDERS == table
    assert {n: getattr(dynamics, n) for n in dir(dynamics)} == names
    assert dynamics.build_field("apdmd", problems[0], params).kind == "apdmd"


def test_a_raising_criterion_fails_and_the_rest_still_run(monkeypatch, capsys):
    @acceptance._criterion("7 diverges")
    def diverges(c):
        raise IntegrationError("exceeded max_steps = 10", t=83.4)

    @acceptance._criterion("8 unsolved")
    def unsolved(c):
        raise OracleError("no convergence")

    @acceptance._criterion("9 passes")
    def passes(c):
        c.expect(True, "fine")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [diverges, unsolved, passes])
    results = acceptance.run_acceptance()
    assert [(r.name, r.passed) for r in results] == \
        [("7 diverges", False), ("8 unsolved", False), ("9 passes", True)]
    assert results[0].details == ["  BAD IntegrationError at t = 83.4: exceeded max_steps = 10"]
    assert results[1].details == ["  BAD OracleError: no convergence"]
    out = capsys.readouterr().out
    assert "[FAIL] 7 diverges" in out and "[PASS] 9 passes" in out


def test_a_criterion_that_raises_keeps_the_lines_it_recorded():
    @acceptance._criterion("7 half done")
    def half_done(c):
        c.expect(True, "row: support recovered")
        raise IntegrationError("exceeded max_steps = 10", t=83.4)

    result = half_done()
    assert not result.passed
    assert result.details == ["  ok  row: support recovered",
                              "  BAD IntegrationError at t = 83.4: exceeded max_steps = 10"]


def test_the_harness_checks_a_budget_after_the_body_lines(monkeypatch, capsys):
    @acceptance._criterion("1 over budget", budget=0.0)
    def over_budget(c):
        c.expect(True, "fine")

    @acceptance._criterion("2 unbudgeted")
    def unbudgeted(c):
        c.expect(True, "fine")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [over_budget, unbudgeted])
    over, free = acceptance.run_acceptance()
    assert not over.passed and free.passed
    assert over.details[0] == "  ok  fine" and len(over.details) == 2
    assert re.fullmatch(r"  BAD runtime \d+\.\ds < 0s", over.details[1])
    assert free.details == ["  ok  fine"]
    assert "[FAIL] 1 over budget" in capsys.readouterr().out
