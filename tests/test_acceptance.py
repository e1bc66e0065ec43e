"""Acceptance gate: one test per released claim about the whole toolkit.

Each test exercises the claim end to end (through the CLI where the claim
is about a command, through the library otherwise), with every tolerance
and runtime budget stated inline.  Each appends one PASS/FAIL line to
``SUMMARY``, which the suite prints as a terminal section after the run,
so the gate's outcome is readable without scrolling through the log.

The forward-invariance sweep integrates 50 trajectories per bundled
scenario at two step sizes and dominates the suite's runtime (several
minutes); everything else finishes in seconds.
"""
import contextlib
import itertools
import time

import numpy as np
import pytest

from clfcbf import (
    AnalysisReport,
    bundled_scenario_names,
    classify,
    closed_loop_field,
    closed_loop_jacobian,
    find_boundary_equilibria,
    integrate,
    load_bundled_scenario,
    safety_margin,
    spectrum_cross_check,
)
from clfcbf.cli import EXIT_OK, _sample_safe_states, main
from clfcbf.systems import _finite_difference_jacobian
from oracles import barrier_gradients, verify_factorization

SUMMARY = []


@contextlib.contextmanager
def _criterion(number, title, info):
    """Record one summary line; the detail is whatever the test filled in."""
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        SUMMARY.append(f"ACCEPTANCE {number} ({title}): FAIL "
                       f"— {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    SUMMARY.append(f"ACCEPTANCE {number} ({title}): PASS "
                   f"— {info.get('detail', 'ok')} [{elapsed:.1f}s]")


def _validated_equilibria(scenario):
    """Validated boundary equilibria over every active set of tractable size."""
    problem = scenario.problem()
    reports = []
    for r in range(1, min(problem.n, problem.n_barriers) + 1):
        for indices in itertools.combinations(
                range(1, problem.n_barriers + 1), r):
            for rep in find_boundary_equilibria(
                    problem, list(indices), scenario.search):
                if rep.validated:
                    reports.append((problem, rep))
    return reports


def test_criterion_1_intersection_equilibrium_reproduction(tmp_path):
    """The 3-D two-obstacle scenario has a stable equilibrium on the
    intersection of the obstacle boundaries with nonnegative multipliers,
    and the bundled start converges to it with nonnegative safety margin.
    Budget: 30 s."""
    info = {}
    with _criterion(1, "stable intersection equilibrium", info):
        start = time.perf_counter()
        out_eq = tmp_path / "eq"
        argv = ["equilibria", "--scenario", "fig1", "--out", str(out_eq)]
        assert main(argv) == EXIT_OK
        report = AnalysisReport.load(out_eq / "equilibria_report.yaml")
        entries = report.sections["equilibria"]["entries"]
        on_intersection = [
            e for e in entries
            if e["kind"] == "boundary" and e["validated"]
            and e["indices"] == [1, 2]]
        assert on_intersection, "no validated equilibrium on the intersection"
        stable = [e for e in on_intersection
                  if min(e["lambda"]) >= 0.0 and e["verdict"] == "stable"]
        assert stable, "intersection equilibria exist but none classify stable"
        x_star = np.array(stable[0]["x"])

        out_sim = tmp_path / "sim"
        argv = ["simulate", "--scenario", "fig1", "--out", str(out_sim)]
        assert main(argv) == EXIT_OK
        report = AnalysisReport.load(out_sim / "simulate_report.yaml")
        (run,) = report.sections["simulation"]["runs"]
        assert run["termination"] == "converged"
        dist = float(np.linalg.norm(np.array(run["final_state"]) - x_star))
        assert dist <= 1e-2
        assert run["safety_margin"] >= -1e-4

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = (
            f"stable at ({x_star[0]:.4f}, {x_star[1]:.4f}, {x_star[2]:.4f}), "
            f"converged to {dist:.1e}, margin {run['safety_margin']:+.1e}")


def test_criterion_2_deadlock_worked_values(tmp_path):
    """The planar deadlock scenario reproduces its hand-derived numbers:
    saddle at (3, 0) with multiplier 6.75 (both to 1e-8), verdict unstable
    with mu_max = 9 to 1e-6, and the origin as interior equilibrium to
    1e-8.  Budget: 5 s."""
    info = {}
    with _criterion(2, "deadlock worked values", info):
        start = time.perf_counter()
        out = tmp_path / "eq"
        argv = ["equilibria", "--scenario", "deadlock2d", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = AnalysisReport.load(out / "equilibria_report.yaml")
        entries = report.sections["equilibria"]["entries"]

        (saddle,) = [e for e in entries
                     if e["kind"] == "boundary" and e["validated"]]
        assert saddle["x"] == pytest.approx([3.0, 0.0], abs=1e-8)
        assert saddle["lambda"] == pytest.approx([6.75], abs=1e-8)
        assert saddle["verdict"] == "unstable"
        assert saddle["mu_max"] == pytest.approx(9.0, abs=1e-6)

        interior = [e for e in entries if e["kind"] == "interior"]
        assert any(max(abs(v) for v in e["x"]) <= 1e-8 for e in interior)

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        info["detail"] = (
            f"x_e = ({saddle['x'][0]:.10f}, {saddle['x'][1]:.10f}), "
            f"lambda = {saddle['lambda'][0]:.10f}, "
            f"mu_max = {saddle['mu_max']:.8f}")


def test_criterion_3_kkt_audit_against_oracle(tmp_path):
    """1000 random safe states per bundled scenario: the active-set solver
    and the first-order oracle agree on u* to 1e-6, every KKT residual is
    at most 1e-7, and neither solver ever fails.  Budget: 60 s."""
    info = {}
    with _criterion(3, "KKT audit vs oracle", info):
        start = time.perf_counter()
        worst_u = worst_kkt = 0.0
        for name in bundled_scenario_names():
            out = tmp_path / name
            argv = ["kkt-audit", "--scenario", name, "--out", str(out),
                    "--samples", "1000"]
            assert main(argv) == EXIT_OK, name
            audit = AnalysisReport.load(
                out / "kkt_report.yaml").sections["kkt_audit"]
            assert audit["samples"] == 1000, name
            assert audit["disagreement_count"] == 0, name
            assert audit["failure_count"] == 0, name
            assert audit["max_u_disagreement"] <= 1e-6, name
            assert audit["max_kkt_residual"] <= 1e-7, name
            worst_u = max(worst_u, audit["max_u_disagreement"])
            worst_kkt = max(worst_kkt, audit["max_kkt_residual"])
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = (f"3000 states, max |u - u_oracle| = {worst_u:.1e}, "
                          f"max KKT residual = {worst_kkt:.1e}")


def test_criterion_4_jacobian_agreement():
    """At every validated boundary equilibrium of every bundled scenario,
    the analytic closed-loop Jacobian matches a finite difference of the
    actual closed loop to 1e-5 relative, the active gradients are left
    eigenvectors to 1e-6, and the congruence factorization residual is at
    most 1e-8 whenever the factorization applies."""
    info = {}
    with _criterion(4, "analytic vs FD Jacobians", info):
        total = factored = 0
        worst_fd = worst_left = 0.0
        for name in bundled_scenario_names():
            scenario = load_bundled_scenario(name)
            pairs = _validated_equilibria(scenario)
            assert pairs, name
            for problem, rep in pairs:
                total += 1
                indices = list(rep.indices)
                bundle = closed_loop_jacobian(
                    problem, rep.x_e, rep.lambda_e, indices)
                J_fd = _finite_difference_jacobian(
                    lambda y: closed_loop_field(problem, y), rep.x_e)
                scale = max(1.0, float(np.max(np.abs(bundle.J_fcl))))
                fd_err = float(np.max(np.abs(bundle.J_fcl - J_fd))) / scale
                assert fd_err <= 1e-5, name

                U_A = barrier_gradients(problem, rep.x_e, indices)
                slopes = problem.certificates.alpha_gains[[i - 1 for i in indices]]
                left = U_A.T @ bundle.J_fcl + np.diag(slopes) @ U_A.T
                left_err = float(np.max(np.abs(left))) / scale
                assert left_err <= 1e-6, name

                residual = verify_factorization(
                    problem, rep.x_e, rep.lambda_e, indices)
                if residual is not None:
                    factored += 1
                    assert residual <= 1e-8, name
                worst_fd = max(worst_fd, fd_err)
                worst_left = max(worst_left, left_err)
        assert total == 8
        info["detail"] = (
            f"{total} equilibria ({factored} factored), "
            f"max FD error = {worst_fd:.1e}, "
            f"max left-eigenvector residual = {worst_left:.1e}")


def test_criterion_5_feasibility_soundness(tmp_path):
    """1000-sample scans of every bundled scenario: wherever the
    feasibility certificate holds the solver succeeds (zero soundness
    counterexamples), and since all bundled scenarios are driftless the
    solver succeeds on every safe sample outright."""
    info = {}
    with _criterion(5, "feasibility certificate soundness", info):
        holds = []
        for name in bundled_scenario_names():
            out = tmp_path / name
            argv = ["feasibility-scan", "--scenario", name, "--out", str(out),
                    "--samples", "1000"]
            assert main(argv) == EXIT_OK, name
            scan = AnalysisReport.load(
                out / "feasibility_report.yaml").sections["feasibility_scan"]
            assert scan["samples"] == 1000, name
            assert scan["soundness_counterexamples"] == [], name
            assert scan["solver_success_count"] == 1000, name
            holds.append(f"{name} {scan['holds_count']}/1000")
        info["detail"] = ("zero counterexamples, 100% solver success; "
                          "certificate holds on " + ", ".join(holds))


def test_criterion_6_verdict_spectrum_consistency():
    """On every non-marginal classified equilibrium of every bundled
    scenario, the projection-based verdict agrees with the eigenvalue
    cross-check of the assembled closed-loop Jacobian."""
    info = {}
    with _criterion(6, "verdict vs spectrum cross-check", info):
        checked = 0
        for name in bundled_scenario_names():
            scenario = load_bundled_scenario(name)
            for problem, rep in _validated_equilibria(scenario):
                verdict = classify(
                    problem, rep.x_e, rep.lambda_e, list(rep.indices))
                if verdict.verdict == "marginal":
                    continue
                check = spectrum_cross_check(
                    problem, rep.x_e, rep.lambda_e, list(rep.indices), verdict)
                assert check.agree, (name, rep.x_e)
                checked += 1
        assert checked == 8
        info["detail"] = f"{checked} non-marginal equilibria, all agree"


def test_criterion_7_forward_invariance_margins():
    """50 random safe starts per bundled scenario integrated at dt = 1e-3:
    the worst barrier margin stays above -1e-4, and halving the step
    improves the worst margin (strictly if it was negative, otherwise it
    must stay nonnegative).  Horizon 2 s; this is the slow test."""
    info = {}
    with _criterion(7, "forward invariance under refinement", info):
        details = []
        for name in bundled_scenario_names():
            scenario = load_bundled_scenario(name)
            problem = scenario.problem()
            states = _sample_safe_states(
                problem, scenario.search.box, 50, scenario.search.seed)
            worst = {}
            for dt in (1e-3, 5e-4):
                worst[dt] = min(
                    float(safety_margin(
                        integrate(problem, x0, dt=dt, t_final=2.0)).min())
                    for x0 in states)
            assert worst[1e-3] >= -1e-4, name
            if worst[1e-3] < 0.0:
                assert worst[5e-4] > worst[1e-3], name
            else:
                assert worst[5e-4] >= 0.0, name
            details.append(f"{name} {worst[1e-3]:+.1e} -> {worst[5e-4]:+.1e}")
        info["detail"] = "worst margins " + "; ".join(details)


def test_criterion_8_deterministic_outputs(tmp_path):
    """Repeated runs of every command with fixed seeds produce
    byte-identical files: trajectory CSVs, scan CSVs, and YAML reports."""
    info = {}
    with _criterion(8, "byte-identical reruns", info):
        cases = [
            (["simulate", "--scenario", "fig1"],
             ["trajectory_000.csv", "simulate_report.yaml"]),
            (["equilibria", "--scenario", "deadlock2d"],
             ["equilibria_report.yaml", "equilibria_table.txt"]),
            (["feasibility-scan", "--scenario", "filter2d",
              "--samples", "200"],
             ["feasibility_scan.csv", "feasibility_report.yaml"]),
            (["kkt-audit", "--scenario", "fig1", "--samples", "200"],
             ["kkt_report.yaml"]),
        ]
        compared = 0
        for k, (argv, filenames) in enumerate(cases):
            first, second = tmp_path / f"a{k}", tmp_path / f"b{k}"
            assert main(argv + ["--out", str(first)]) == EXIT_OK
            assert main(argv + ["--out", str(second)]) == EXIT_OK
            for filename in filenames:
                a = (first / filename).read_bytes()
                b = (second / filename).read_bytes()
                assert a == b, (argv[0], filename)
                compared += 1
        info["detail"] = (f"{compared} files byte-identical across reruns "
                          f"of all four commands")
