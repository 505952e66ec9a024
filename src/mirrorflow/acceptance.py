"""Acceptance suite: every release gate as an executable check.

Each criterion body runs a pinned, deterministic configuration and records
one detail line per sub-check on the CriterionResult it is handed. The
``_criterion`` harness owns the rest: it times the body, adds the line
``runtime ...s < ...s`` for a criterion with a whole-criterion budget, and
turns a package error raised in the body into a BAD line after the lines
already recorded. The CLI ``verify`` command prints the pass/fail table;
the pytest acceptance module asserts each criterion individually.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as _dyn
from .diagnostics import evaluate_run, rate_fit
from .dynamics import SystemParams, build_field
from .errors import MirrorflowError
from .integrator import IntegratorConfig, integrate
from .mirror_maps import EuclideanMap, ItakuraSaitoMap, NegEntropyMap, SimplexEntropyMap
from .numerics import SeededRng
from .problems import (
    PROBLEMS,
    ConstrainedProblem,
    SmoothObjective,
    build_consensus_quadratic,
    build_dis_logistic,
    build_dist_qp,
    build_dbp_col,
    build_dbp_row,
    build_logistic_centralized,
    build_nbp,
    build_scalar,
    reference_solution,
)
from .projections import AffineSet, Box, HalfSpace, PositiveOrthant, Simplex, Sphere
from .smoothing import smooth_abs, smooth_abs_grad


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    details: list = field(default_factory=list)

    def expect(self, condition: bool, message: str):
        """Record one sub-check; a false condition fails the criterion."""
        self.details.append(f"  {'ok ' if condition else 'BAD'} {message}")
        self.passed = self.passed and bool(condition)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}  ({self.runtime:.1f}s)"


def _criterion(name: str, budget: float | None = None):
    """Name a criterion whose body records its sub-checks on the result ``c``.

    The harness times the body. A MirrorflowError raised in it fails the
    criterion with a BAD line naming the error (and for an IntegrationError
    its failure time) after the lines already recorded, so ``verify`` still
    runs the criteria after it. Given a budget in seconds, the last line
    checks the whole criterion's runtime against it.
    """
    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            c = CriterionResult(name, True, 0.0)
            start = time.perf_counter()
            try:
                body(c)
            except MirrorflowError as exc:
                at = f" at t = {exc.t:.6g}" if getattr(exc, "t", None) is not None else ""
                c.expect(False, f"{type(exc).__name__}{at}: {exc}")
            c.runtime = time.perf_counter() - start
            if budget is not None:
                c.expect(c.runtime < budget, f"runtime {c.runtime:.1f}s < {budget:g}s")
            return c
        return run
    return wrap


def _run(problem, ref, system, tf, **settings):
    """Integrate ``system`` on ``problem`` to ``tf`` and evaluate it against ``ref``.

    ``settings`` are ``SystemParams`` fields and the ``IntegratorConfig``
    tolerances a criterion sets; the rest keep their defaults.
    """
    tolerances = {k: settings.pop(k) for k in ("rel_tol", "abs_tol") if k in settings}
    fld = build_field(system, problem, SystemParams(**settings))
    traj = integrate(fld.rhs, fld.initial_state, fld.params.t0, tf, IntegratorConfig(**tolerances))
    return fld, traj, evaluate_run(fld, traj, ref)


@_criterion("1 unit property suites", budget=30)
def criterion_1(c):
    """Unit property suites at the module-invariant tolerances."""
    rng = SeededRng(2024)

    maps = [EuclideanMap(4), NegEntropyMap(4), ItakuraSaitoMap(4), SimplexEntropyMap(4)]

    def draw(map_, scale=3.0):
        u = scale * rng.normal(map_.dim)
        return -np.abs(u) - 1e-3 if map_.kind == "itakura_saito" else u

    worst_range = 0.0
    worst_mono = 0.0
    for m in maps:
        for _ in range(10_000):
            u1, u2 = draw(m), draw(m)
            g1 = m.grad_conjugate(u1)
            worst_range = max(worst_range, m.set_violation(g1))
            worst_mono = min(worst_mono, float((g1 - m.grad_conjugate(u2)) @ (u1 - u2)))
    c.expect(worst_range <= 1e-10, f"mirror range violation {worst_range:.2e} <= 1e-10")
    c.expect(worst_mono >= -1e-12, f"mirror monotonicity {worst_mono:.2e} >= -1e-12")

    worst_fenchel = 0.0
    for m in maps:
        for _ in range(300):
            u = draw(m, scale=2.0)
            if np.max(np.abs(u)) > 10:
                continue
            x = m.grad_conjugate(u)
            worst_fenchel = max(worst_fenchel, abs(m.psi(x) + m.conjugate(u) - u @ x))
    c.expect(worst_fenchel <= 1e-8, f"Fenchel identity gap {worst_fenchel:.2e} <= 1e-8")

    worst_hess = 0.0
    eps = 1e-6
    for m in maps:
        for _ in range(25):
            u = draw(m, scale=1.0)
            h = m.hessian_conjugate(u)
            fd = np.zeros_like(h)
            for j in range(m.dim):
                e = np.zeros(m.dim)
                e[j] = eps
                fd[:, j] = (m.grad_conjugate(u + e) - m.grad_conjugate(u - e)) / (2 * eps)
            worst_hess = max(worst_hess, float(np.max(np.abs(h - fd)))
                             / max(1.0, float(np.max(np.abs(h)))))
    c.expect(worst_hess <= 1e-5, f"conjugate Hessian vs finite differences {worst_hess:.2e} <= 1e-5")

    projectors = [
        Box(lo=np.zeros(3), hi=np.ones(3)),
        Sphere(center=np.array([0.5, -0.5, 0.0]), radius=1.5),
        AffineSet(a=np.array([[1.0, 1.0, 0.0]]), b=np.array([1.0])),
        HalfSpace(a=np.array([1.0, -1.0, 2.0]), b=0.5),
        Simplex(3),
        PositiveOrthant(3),
    ]
    worst_idem = worst_vari = worst_nonexp = 0.0
    for p in projectors:
        for _ in range(400):
            u, w = 4.0 * rng.normal(3), 4.0 * rng.normal(3)
            pu, pw = p.project(u), p.project(w)
            worst_idem = max(worst_idem, float(np.max(np.abs(p.project(pu) - pu))))
            z = p.project(2.0 * rng.normal(3))
            worst_vari = max(worst_vari, float((pu - z) @ (pu - u)))
            worst_nonexp = max(worst_nonexp,
                               float(np.linalg.norm(pu - pw) - np.linalg.norm(u - w)))
    c.expect(worst_idem <= 1e-12, f"projection idempotence {worst_idem:.2e} <= 1e-12")
    c.expect(worst_vari <= 1e-12, f"projection variational inequality {worst_vari:.2e} <= 1e-12")
    c.expect(worst_nonexp <= 1e-12, f"projection nonexpansiveness {worst_nonexp:.2e} <= 1e-12")

    grid = np.linspace(-3.0, 3.0, 2001)
    sandwich_ok = True
    mono_ok = True
    prev_vals = None
    for mu in (1.0, 0.1, 0.01):
        ga = smooth_abs(grid, mu) - np.abs(grid)
        sandwich_ok &= bool(np.all(ga >= -1e-14) and np.all(ga <= mu / 4 + 1e-14))
        vals = smooth_abs(grid, mu)
        if prev_vals is not None:
            mono_ok &= bool(np.all(prev_vals >= vals - 1e-14))
        prev_vals = vals
    c.expect(sandwich_ok, "smoothing sandwich 0 <= surrogate - exact <= mu/4")
    c.expect(mono_ok, "surrogate nondecreasing in mu")
    grad_ok = abs(smooth_abs_grad(0.7, 1e-9) - 1.0) <= 1e-12 and smooth_abs_grad(0.0, 1e-9) == 0.0
    c.expect(grad_ok, "gradient consistency as mu -> 0")
    lip_ok = True
    for _ in range(2000):
        s = float(3.0 * rng.normal())
        m1, m2 = float(rng.uniform() + 1e-3), float(rng.uniform() + 1e-3)
        lip_ok &= abs(float(smooth_abs(s, m1)) - float(smooth_abs(s, m2))) <= 0.25 * abs(m1 - m2) + 1e-14
    c.expect(lip_ok, "surrogate 1/4-Lipschitz in mu")

    from .graph import consensus_residual, laplacian, lift, ring

    g = ring(5)
    lap = laplacian(g)
    c.expect(bool(np.allclose(lap.sum(axis=1), 0.0)), "Laplacian rows sum to zero")
    lifted = lift(g, 3)
    kern_ok = abs(consensus_residual(lifted, np.tile(rng.normal(3), 5))) <= 1e-12
    c.expect(kern_ok, "lifted Laplacian kernel contains consensus states")
    edge_ok = True
    for _ in range(50):
        x = rng.normal(15)
        blocks = x.reshape(5, 3)
        direct = sum(g.adjacency[i, j] * float(np.sum((blocks[i] - blocks[j]) ** 2))
                     for i in range(5) for j in range(i + 1, 5))
        edge_ok &= abs(consensus_residual(lifted, x) - direct) <= 1e-10
    c.expect(edge_ok, "consensus residual equals the edge sum")


@_criterion("2 scalar sanity flow", budget=5)
def criterion_2(c):
    """Scalar sanity flow: rate bound, energy monotonicity, fitted slope."""
    problem = build_scalar()
    ref = reference_solution(problem, 1e-10)
    _, traj, rep = _run(problem, ref, "apdmd", 100.0, alpha=2.0)
    gap_check = rep.check("lagrangian_gap_rate")
    c.expect(gap_check.ok, f"gap * t^2 <= 1.05 alpha^2 V0 (max ratio {gap_check.max_ratio:.3f})")
    lyap = rep.check("lyapunov_monotone")
    c.expect(lyap.ok, "Lyapunov energy nonincreasing")
    slope = rate_fit(traj.times, rep.lagrangian_gap)
    c.expect(slope <= -1.8, f"fitted gap slope {slope:.2f} <= -1.8")


@_criterion("3 centralized logistic")
def criterion_3(c):
    """Centralized logistic run at alpha in {2, 4, 6}."""
    problem = build_logistic_centralized()
    ref = reference_solution(problem, 1e-9)
    c.expect(abs(ref.f_star - np.log(1 + np.exp(-1))) <= 1e-9,
             "f* equals log(1 + e^-1)")
    for alpha in (2.0, 4.0, 6.0):
        t_alpha = time.perf_counter()
        fld, traj, rep = _run(problem, ref, "apdmd", 100.0, alpha=alpha)
        xs = traj.states[:, :4]
        sum_dev = float(np.max(np.abs(xs.sum(axis=1) - 1.0)))
        min_coord = float(np.min(xs))
        c.expect(sum_dev <= 1e-6, f"alpha={alpha:g}: |1.x - 1| max {sum_dev:.2e} <= 1e-6")
        c.expect(min_coord >= -1e-8, f"alpha={alpha:g}: min coordinate {min_coord:.2e} >= -1e-8")
        bound = 1.05 * np.sqrt(2 * alpha**2 * rep.v0 / fld.params.beta) / traj.times
        ratio = float(np.max(rep.feasibility / bound))
        c.expect(ratio <= 1.0, f"alpha={alpha:g}: ||Ax-b|| within 1.05 sqrt(2 a^2 V0/b)/t "
                               f"(max ratio {ratio:.3f})")
        c.expect(rep.slope_feasibility <= -0.9,
                 f"alpha={alpha:g}: feasibility slope {rep.slope_feasibility:.2f} <= -0.9")
        c.expect(time.perf_counter() - t_alpha < 30.0, f"alpha={alpha:g}: runtime < 30s")


@_criterion("4 distributed logistic ring", budget=60)
def criterion_4(c):
    """Distributed logistic ring: consensus bound at T and set feasibility."""
    problem = build_dis_logistic()
    ref = reference_solution(problem, 1e-8)
    alpha, tf = 3.0, 100.0
    fld, traj, rep = _run(problem, ref, "adpdmd", tf, alpha=alpha)
    bound = 1.05 * 2 * alpha**2 * rep.v0 / (fld.params.beta * tf**2)
    resid = rep.feasibility[-1]
    c.expect(resid <= bound,
             f"x(T).L x(T) = {resid:.2e} <= 1.05 * 2 a^2 V0 / (b T^2) = {bound:.2e}")
    c.expect(rep.feasibility_max_violation <= 1e-6,
             f"per-agent set feasibility {rep.feasibility_max_violation:.2e} <= 1e-6 throughout")


@_criterion("5 distributed quadratic", budget=120)
def criterion_5(c):
    """Distributed quadratic resource sharing: multiplier consensus bound."""
    problem = build_dist_qp(seed=1)
    ref = reference_solution(problem, 1e-8)
    alpha, tf = 3.0, 100.0
    fld, traj, rep = _run(problem, ref, "admd", tf, alpha=alpha)
    bound = 1.05 * 2 * alpha**2 * rep.v0 / tf**2
    resid = rep.feasibility[-1]
    c.expect(resid <= bound,
             f"lam(T).L lam(T) = {resid:.2e} <= 1.05 * 2 a^2 E0 / T^2 = {bound:.2e}")
    c.expect(rep.feasibility_max_violation <= 1e-6,
             f"box feasibility {rep.feasibility_max_violation:.2e} <= 1e-6 throughout")


def _recovery_checks(c, x_signal, x_true, f_val, f_true, label):
    support = np.nonzero(x_true)[0]
    off = np.setdiff1d(np.arange(x_true.size), support)
    min_mag = float(np.min(np.abs(x_true[support])))
    got = set(np.nonzero(np.abs(x_signal) >= 0.5 * min_mag)[0])
    c.expect(got == set(support.tolist()),
             f"{label}: recovered support equals the planted support")
    off_mass = float(np.sum(np.abs(x_signal[off])))
    c.expect(off_mass <= 1e-3, f"{label}: off-support mass {off_mass:.2e} <= 1e-3")
    c.expect(abs(f_val - f_true) <= 1e-3,
             f"{label}: objective within 1e-3 of f* (gap {abs(f_val - f_true):.2e})")


@_criterion("6 smoothed nonnegative recovery")
def criterion_6(c):
    """Smoothed nonnegative l1 recovery at alpha in {2, 4}."""
    problem = build_nbp(seed=1)
    ref = reference_solution(problem, 1e-8)
    for alpha in (2.0, 4.0):
        t_alpha = time.perf_counter()
        fld, traj, rep = _run(problem, ref, "sapdmd", 200.0, alpha=alpha, beta=10.0, mu0=0.1)
        gap_check = rep.check("lagrangian_gap_rate")
        c.expect(gap_check.ok,
                 f"alpha={alpha:g}: smoothed gap + 4 kappa mu within 1.05 a^2 V0/t^2 "
                 f"(max ratio {gap_check.max_ratio:.3f})")
        xT = fld.layout.split(traj.states[-1])["x"]
        _recovery_checks(c, xT, ref.x_star, problem.f_exact(xT), ref.f_star,
                         f"alpha={alpha:g}")
        c.expect(time.perf_counter() - t_alpha < 120.0, f"alpha={alpha:g}: runtime < 120s")


@_criterion("7 distributed smoothed recovery")
def criterion_7(c):
    """Distributed smoothed l1 recovery, row and column partitions.

    Recovery is evaluated on the reconstructed signal at the run's final
    time (the agent-mean block for the row partition). Both runs go to
    t = 86 with mu0 = 10. Inside the band |x_i| <= mu/2 an off-support
    coordinate oscillates at omega = sqrt(2 / mu(t)), which the integrator
    resolves at h omega of about 0.3 to 0.5; omega grows like t^(p/2) for
    mu(t) = mu0 t^(-p). The row run keeps the default p = 2 alpha. The
    column run uses p = 4 alpha / 3 = 4, the slowest decay ``check_params``
    admits. At p = 2 alpha no column setting tried passes within its budget:
    with mu0 1000 it exhausts max_steps before t = 86, and to t = 80 it
    misses the objective gate after 460 s; mu0 1e4 and 1e5 miss it too.
    """
    t_row = time.perf_counter()
    problem = build_dbp_row(seed=1)
    ref = reference_solution(problem, 1e-8)
    fld, traj, rep = _run(problem, ref, "sadpdmd", 86.0, alpha=3.0, mu0=10.0,
                          rel_tol=1e-4, abs_tol=1e-6)
    cons = rep.check("consensus_rate")
    c.expect(cons.ok, f"row: x.Lx within 1.05 * 2 a^2 V0/(b t^2) (max ratio {cons.max_ratio:.4f})")
    x_blocks = fld.layout.split(traj.states[-1])["x"].reshape(problem.n_agents, -1)
    x_signal = x_blocks.mean(axis=0)
    x_true = ref.x_star[:problem.block_dim]
    _recovery_checks(c, x_signal, x_true, float(np.sum(np.abs(x_signal))),
                     ref.f_star / problem.n_agents, "row")
    elapsed = time.perf_counter() - t_row
    c.expect(elapsed < 180.0, f"row: runtime {elapsed:.0f}s < 180s")

    t_col = time.perf_counter()
    problem = build_dbp_col(seed=54)
    ref = reference_solution(problem, 1e-8)
    fld, traj, rep = _run(problem, ref, "sadmd", 86.0, alpha=3.0, mu0=10.0, mu_power=4.0,
                          rel_tol=1e-4, abs_tol=1e-6)
    mult = rep.check("multiplier_consensus_rate")
    c.expect(mult.ok, f"col: lam.L lam within 1.05 * 2 a^2 E0/t^2 (max ratio {mult.max_ratio:.4f})")
    xT = fld.layout.split(traj.states[-1])["x"]
    _recovery_checks(c, xT, ref.x_star, problem.f_exact(xT), ref.f_star, "col")
    elapsed = time.perf_counter() - t_col
    c.expect(elapsed < 180.0, f"col: runtime {elapsed:.0f}s < 180s")


@_criterion("8 first/second-order agreement", budget=10)
def criterion_8(c):
    """First-order versus second-order form on a 3-dim problem."""
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([2.0])
    center = np.array([0.3, 1.2, 0.7])
    obj = SmoothObjective(
        value=lambda x: float(0.5 * np.sum((x - center) ** 2)),
        grad=lambda x: x - center,
        lipschitz=1.0,
    )
    rel, abs_tol = 1e-8, 1e-10
    samples = np.linspace(1.0, 20.0, 60)
    for mirror in (EuclideanMap(3), NegEntropyMap(3)):
        problem = ConstrainedProblem(obj, a, b, mirror)
        params = SystemParams(alpha=2.0)
        f1 = build_field("apdmd", problem, params)
        f2 = _dyn.apdmd_second_order_field(problem, params)
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=abs_tol)
        t1 = integrate(f1.rhs, f1.initial_state, 1.0, 20.0, cfg, sample_times=samples)
        t2 = integrate(f2.rhs, f2.initial_state, 1.0, 20.0, cfg, sample_times=samples)
        sup_x = float(np.max(np.abs(t1.states[:, :3] - t2.states[:, :3])))
        sup_lam = float(np.max(np.abs(t1.states[:, 6] - t2.states[:, 6])))
        tol = 10 * 1e-6
        c.expect(max(sup_x, sup_lam) <= tol,
                 f"{mirror.kind}: sup |first - second| = {max(sup_x, sup_lam):.2e} <= {tol:.0e}")


@contextmanager
def dynamics_poisoned():
    """Make every field builder raise, by module name and in ``_BUILDERS``."""
    def poisoned(*_a, **_k):
        raise AssertionError("mirror dynamics invoked inside the oracle")

    names = ["build_field", "_centralized_field", "_consensus_field", "_demo_field",
             "apdmd_second_order_field"]
    saved = [(vars(_dyn), n, getattr(_dyn, n)) for n in names] \
        + [(_dyn._BUILDERS, key, fn) for key, fn in _dyn._BUILDERS.items()]
    try:
        for table, key, _ in saved:
            table[key] = poisoned
        yield
    finally:
        for table, key, fn in saved:
            table[key] = fn


@_criterion("9 oracle independence", budget=60)
def criterion_9(c):
    """Reference oracle quality on the whole catalogue, dynamics untouched."""
    with dynamics_poisoned():
        for name in sorted(PROBLEMS):
            problem = PROBLEMS[name](1)
            ref = reference_solution(problem, tol=1e-8)
            c.expect(ref.kkt_residual <= 1e-8,
                     f"{name}: KKT residual {ref.kkt_residual:.2e} <= 1e-8 ({ref.method})")


@_criterion("negative control")
def negative_control(c):
    """Tampering with the bound slack must flip a tight check to failing."""
    problem = build_consensus_quadratic(edge_weight=10.0)
    ref = reference_solution(problem, 1e-9)
    fld = build_field("adpdmd", problem, SystemParams(alpha=2.0))
    d = np.array([3.0, 0.0, -3.0, 0.0])
    y0 = fld.layout.pack(x=ref.x_star + d, u=ref.x_star + d,
                         lam=np.zeros(4), v=np.zeros(4))
    traj = integrate(fld.rhs, y0, 1.0, 10.0, IntegratorConfig())
    rep = evaluate_run(fld, traj, ref)
    honest = rep.check("consensus_rate")
    c.expect(honest.ok and honest.max_ratio > 0.5,
             f"honest consensus check passes with tight ratio {honest.max_ratio:.3f}")
    tampered = evaluate_run(fld, traj, ref, slack=0.5).check("consensus_rate")
    c.expect(not tampered.ok,
             "slack tampered to 0.5 makes the consensus check fail")


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, negative_control]


def run_acceptance() -> list:
    """Run every criterion, printing each one's line and details as it finishes."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
        for line in res.details:
            print(line)
    return results
