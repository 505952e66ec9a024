"""The benchmark's output checks pass on sound outputs and refuse corrupted ones.

    python3 -m pytest perfbench/tests

No workload runs: the trajectories are synthetic and the problems are the
catalogue's, built in memory.
"""

import math

import numpy as np
import pytest

import checks
import mirrorflow

ALPHA = 3.0


def trajectory():
    """Columns of a sound run: V(t) falls, the gap sits at half its certificate."""
    t = np.geomspace(1.0, 100.0, 81)
    lyap = 2.0 + 1.0 / t
    mu = 0.1 * t ** (-2 * ALPHA)
    kappa = 15.0
    gap = 0.5 * ALPHA**2 * lyap[0] / t**2 - 4 * kappa * mu
    return {"t": t, "gap": np.abs(gap), "lagrangian_gap": gap, "lyapunov": lyap, "mu": mu}, kappa


def test_sound_trajectory_passes():
    cols, kappa = trajectory()
    assert checks.check_certificate(cols, ALPHA, kappa, "run") == pytest.approx(0.5)
    checks.check_lyapunov_monotone(cols, "run")


def test_raised_lyapunov_row_is_refused():
    cols, _ = trajectory()
    cols["lyapunov"][40] = cols["lyapunov"][39] * (1 + 1e-5)
    with pytest.raises(checks.CheckError, match="sample 40"):
        checks.check_lyapunov_monotone(cols, "run")


def test_nan_lyapunov_is_refused():
    cols, _ = trajectory()
    cols["lyapunov"][10] = math.nan
    with pytest.raises(checks.CheckError):
        checks.check_lyapunov_monotone(cols, "run")


@pytest.mark.parametrize("v0", [math.inf, math.nan])
def test_infinite_or_missing_v0_is_refused(v0):
    cols, kappa = trajectory()
    cols["lyapunov"][:] = v0  # an all-inf column would pass both checks trivially
    with pytest.raises(checks.CheckError, match="V\\(t0\\)"):
        checks.check_certificate(cols, ALPHA, kappa, "run")
    with pytest.raises(checks.CheckError, match="lyapunov starts at"):
        checks.check_lyapunov_monotone(cols, "run")


def test_zero_v0_is_refused():
    cols, kappa = trajectory()
    cols["lyapunov"][0] = 0.0
    with pytest.raises(checks.CheckError, match="not positive"):
        checks.check_certificate(cols, ALPHA, kappa, "run")


def test_gap_scaled_past_the_certificate_is_refused():
    cols, kappa = trajectory()
    cols["lagrangian_gap"][60:] *= 2.2  # ratio 0.5 -> 1.1 > 1.05
    with pytest.raises(checks.CheckError, match="certificate broken at sample 60"):
        checks.check_certificate(cols, ALPHA, kappa, "run")


def test_read_trajectory_parses_the_program_format(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text("t,gap,lyapunov\r\n1,0.5,inf\r\n2,0.25,1.5\r\n")
    cols = checks.read_trajectory(path)
    assert cols["t"].tolist() == [1.0, 2.0]
    assert math.isinf(cols["lyapunov"][0])


@pytest.mark.parametrize("name,seed", [("scalar", 1), ("logregress", 1), ("dis_log", 1),
                                       ("d_sp", 1), ("nbp", 1), ("d_bp_r", 1), ("d_bp_c", 54)])
def test_f_star_shifted_by_1e_4_is_refused(name, seed):
    problem = mirrorflow.PROBLEMS[name](seed)
    own = checks.own_f_star(name, problem)
    checks.check_f_star(own, own, name)
    with pytest.raises(checks.CheckError, match="f_star"):
        checks.check_f_star(own + 1e-4, own, name)


@pytest.mark.parametrize("name,seed", [("nbp", 1), ("d_bp_r", 1), ("d_bp_c", 54)])
def test_own_lp_optimum_agrees_with_the_program_oracle(name, seed):
    problem = mirrorflow.PROBLEMS[name](seed)
    reported = mirrorflow.reference_solution(problem).f_star
    checks.check_f_star(reported, checks.own_f_star(name, problem), name)


def test_state_pushed_out_of_the_simplex_is_refused():
    problem = mirrorflow.PROBLEMS["logregress"]()
    times = np.array([1.0, 2.0, 3.0])
    xs = np.full((3, 4), 0.25)
    assert checks.check_membership(problem, times, xs, "lr") < 1e-15
    xs[2, 0] += 1e-6
    with pytest.raises(checks.CheckError, match="simplex set at sample 2"):
        checks.check_membership(problem, times, xs, "lr")


def test_each_set_kind_refuses_a_point_outside_it():
    problem = mirrorflow.PROBLEMS["dis_log"]()  # simplex, orthant, sphere, half-space
    inside = np.full(4, 0.25)
    for agent, (block, mirror) in enumerate(checks.agent_blocks(problem)):
        kind, data = checks.set_of(mirror)
        assert checks.violation(kind, data, inside[None, :])[0] <= checks.SET_TOL
        outside = {"simplex": [0.5, 0.5, 0.5, -0.5], "orthant": [-1e-3, 1, 1, 1],
                   "sphere": [10.0, 0, 0, 0], "halfspace": [2.0, 2, 2, 2]}[kind]
        assert checks.violation(kind, data, np.array([outside]))[0] > checks.SET_TOL, agent
    box = mirrorflow.PROBLEMS["d_sp"](1)
    kind, (lo, hi) = checks.set_of(box.mirrors[0])
    assert checks.violation(kind, (lo, hi), np.array([hi + 1e-6]))[0] > checks.SET_TOL
    row = mirrorflow.PROBLEMS["d_bp_r"](1)
    kind, (a, b) = checks.set_of(row.mirrors[0])
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    assert checks.violation(kind, (a, b), np.array([x]))[0] < 1e-12
    assert checks.violation(kind, (a, b), np.array([x + 1e-3]))[0] > checks.SET_TOL


def test_final_gap_must_match_the_csv():
    problem = mirrorflow.PROBLEMS["scalar"]()
    x = np.array([0.9])
    gap = abs(0.5 * 0.81 - 0.5)
    checks.check_final_gap("scalar", problem, 0.5, x, gap, "scalar")
    with pytest.raises(checks.CheckError):
        checks.check_final_gap("scalar", problem, 0.5, x, gap + 1e-4, "scalar")


def test_eval_count_outside_the_bracket_is_refused():
    accepted, rejected = 100, 7
    checks.check_eval_count(1 + 6 * accepted + rejected, accepted, rejected, "run")
    checks.check_eval_count(1 + 6 * (accepted + rejected), accepted, rejected, "run")
    for bad in (6 * accepted + rejected, 2 + 6 * (accepted + rejected)):
        with pytest.raises(checks.CheckError, match="rhs evaluations outside"):
            checks.check_eval_count(bad, accepted, rejected, "run")
