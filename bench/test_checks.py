"""The benchmark's own tests: each independent check passes the program's
real output and rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import clfcbf  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _load(case):
    scenario = clfcbf.loads_scenario(case.text)
    return workloads.Loaded(case, scenario, scenario.problem())


@pytest.fixture(scope="module")
def deadlock():
    return _load(inputs.deadlock_case(2.0, 1.0, seed=0))


@pytest.fixture(scope="module")
def fig1():
    return _load(inputs.fig1_case((1.5, 3.5, 1.0), (0.5, 1.0, 4.0), seed=0))


@pytest.fixture(scope="module")
def trajectory():
    item = _load(inputs.closed_loop_cases(0)[0])
    x0 = item.scenario.initial_states[0]
    traj = clfcbf.integrate(item.problem, x0, dt=item.scenario.dt,
                            t_final=item.scenario.t_final)
    return item, traj


def _solutions(item, states):
    sols = [clfcbf.solve_pointwise(item.problem, x) for x in states]
    return (np.array(states), [s.u_star for s in sols], [s.delta_star for s in sols],
            [s.lambda0 for s in sols], [s.lam for s in sols])


def test_kkt_verifier_rejects_a_perturbed_u_star():
    item = _load(inputs.pointwise_cases(0)[-1])   # n = 4, N = 8, generalized
    X, U, delta, lambda0, lam = _solutions(item, item.scenario.initial_states)
    assert checks.check_solutions(item.model, X, U, delta, lambda0, lam, "ok") == []
    U[2] = U[2] + 1e-4
    assert checks.check_solutions(item.model, X, U, delta, lambda0, lam, "bad")


def test_kkt_verifier_rejects_a_perturbed_multiplier(deadlock):
    X, U, delta, lambda0, lam = _solutions(deadlock, [np.array([3.2, 0.3])])
    assert lam[0][0] > 0.0
    lam[0] = lam[0] * 1.01
    assert checks.check_solutions(deadlock.model, X, U, delta, lambda0, lam, "bad")


def test_trajectory_checks_reject_a_shifted_state(trajectory):
    item, traj = trajectory
    assert checks.check_trajectory(item.model, vars(traj), "ok") == []
    x = traj.x.copy()
    x[40] += 1e-3
    assert checks.check_trajectory(item.model, dict(vars(traj), x=x), "bad")


def test_reintegration_rejects_a_shifted_state(trajectory):
    item, traj = trajectory
    steps = traj.t.shape[0] - 1
    reference = checks.rk4_reintegrate(
        item.model, traj.x[0], item.scenario.dt, steps,
        lambda y: clfcbf.solve_pointwise(item.problem, y).u_star)
    assert checks.check_reintegration(traj.x, reference, "ok") == []
    x = traj.x.copy()
    x[-1] += 1e-6
    assert checks.check_reintegration(x, reference, "bad")


def test_forward_invariance_rejects_a_state_inside_an_obstacle(trajectory):
    item, traj = trajectory
    x = traj.x.copy()
    x[10] = item.model.centers[0]       # the obstacle's centre: h = offset < 0
    h = item.model.h(x)
    problems = checks.check_trajectory(item.model, dict(vars(traj), x=x, h=h), "bad")
    assert any("below" in p for p in problems)


def _census(item, combo):
    op = workloads.Census(clfcbf, [item]).ops()
    (op,) = [o for o in op if o.key[1] == combo]
    return op.fn()


def test_root_checks_reject_a_shifted_equilibrium(deadlock):
    out = _census(deadlock, (1,))
    (rep, verdict, _) = out[0]
    assert checks.check_root(deadlock.model, rep.x_e, rep.lambda_e, (1,), "ok") == []
    shifted = rep.x_e + np.array([0.0, 1e-4])
    assert checks.check_root(deadlock.model, shifted, rep.lambda_e, (1,), "bad")
    row = (rep.x_e, rep.lambda_e, True, verdict.verdict, verdict.mu_max)
    params = deadlock.case.params
    assert checks.check_deadlock(params, [row], "ok") == []
    assert checks.check_deadlock(params, [(shifted,) + row[1:]], "bad")
    assert checks.check_origin([np.zeros(2)], "ok") == []
    assert checks.check_origin([np.array([1e-4, 0.0])], "bad")


def test_closed_forms_reject_a_flipped_verdict(deadlock, fig1):
    (rep, verdict, check) = _census(deadlock, (1,))[0]
    row = (rep.x_e, rep.lambda_e, True, "stable", verdict.mu_max)
    assert checks.check_deadlock(deadlock.case.params, [row], "bad")
    assert checks.check_verdict_spectrum(
        verdict.verdict, float(np.max(check.eigenvalues.real)), "ok") == []
    assert checks.check_verdict_spectrum(
        "stable", float(np.max(check.eigenvalues.real)), "bad")

    filter2d = _load(inputs.filter_case([np.array([2.5, 0.0]), np.array([0.0, -3.0])],
                                         [1.0, 0.7], seed=0))
    rows = [(r.x_e, r.lambda_e, r.validated, v.verdict, v.mu_max)
            for r, v, _ in _census(filter2d, (2,))]
    assert checks.check_filter(filter2d.case.params, 2, rows, "ok") == []
    flipped = [row[:3] + ("stable",) + row[4:] for row in rows]
    assert checks.check_filter(filter2d.case.params, 2, flipped, "bad")

    rows = [(r.x_e, r.lambda_e, r.validated, v and v.verdict, v and v.mu_max)
            for r, v, _ in _census(fig1, (1, 2))]
    assert checks.check_fig1_top(fig1.case.params, rows, "ok") == []
    flipped = [row[:3] + ({"stable": "unstable", "unstable": "stable"}[row[3]],)
               + row[4:] for row in rows]
    assert checks.check_fig1_top(fig1.case.params, flipped, "bad")


def test_left_eigenvector_check_rejects_a_perturbed_jacobian(fig1):
    rep = next(r for r, v, _ in _census(fig1, (1, 2)) if r.validated)
    J = clfcbf.closed_loop_jacobian(fig1.problem, rep.x_e, rep.lambda_e, (1, 2)).J_fcl
    assert checks.check_left_eigenvectors(fig1.model, rep.x_e, (1, 2), J, "ok") == []
    J = J.copy()
    J[0, 1] += 1e-4
    assert checks.check_left_eigenvectors(fig1.model, rep.x_e, (1, 2), J, "bad")


def test_oracle_and_feasibility_checks_reject_bad_reports(deadlock):
    x = np.array([3.2, 0.3])
    sol = clfcbf.solve_pointwise(deadlock.problem, x)
    oracle = clfcbf.oracle_solve(deadlock.problem, x)
    assert checks.check_oracle(sol.u_star, oracle.u_star, "ok") == []
    assert checks.check_oracle(sol.u_star + 1e-5, oracle.u_star, "bad")
    report = clfcbf.check_feasibility_condition(deadlock.problem, x)
    assert checks.check_feasibility_report(
        report.holds, report.residual, report.rank, 1, True, "ok") == []
    assert checks.check_feasibility_report(True, 0.0, 1, 1, False, "bad")
    assert checks.check_feasibility_report(False, -1.0, 2, 1, True, "bad")


def test_digest_sees_a_one_ulp_change(deadlock):
    out = _census(deadlock, (1,))
    rep = out[0][0]
    bumped = replace(rep, x_e=np.nextafter(rep.x_e, np.inf))
    assert workloads.digest([out]) == workloads.digest([_census(deadlock, (1,))])
    assert workloads.digest([out]) != workloads.digest([[(bumped,) + out[0][1:]]])


def test_inputs_depend_only_on_the_seed():
    for make in inputs.CASES.values():
        assert [c.text for c in make(3)] == [c.text for c in make(3)]
        assert [c.text for c in make(3)] != [c.text for c in make(4)]
    fault = [c for c in inputs.census_cases(5) if c.params.get("fault")]
    assert [c.text for c in fault] == [
        c.text for c in inputs.census_cases(6) if c.params.get("fault")]


def test_tracer_spans_calls_made_inside_the_library(deadlock):
    tracer = spans.Tracer(clfcbf)
    original = clfcbf.qp.solve_pointwise
    tracer.install()
    try:
        clfcbf.integrate(deadlock.problem, [3.5, 0.5], dt=0.01, t_final=0.02)
    finally:
        tracer.uninstall()
    assert clfcbf.qp.solve_pointwise is original
    assert clfcbf.simulate.solve_pointwise is original
    names = [s[0] for s in tracer.spans]
    assert names.count("simulate.integrate") == 1
    # one solve per sample (3) and one per later RK4 stage (3 per step)
    assert names.count("qp.solve_pointwise") == 3 + 3 * 2
    assert names.count("qp.closed_loop_field") == 4 * 2
    assert all(s[3] == 0 for s in tracer.spans[1:])          # children of integrate
    durations, selfs = tracer.self_times()["simulate.integrate"]
    assert 0.0 < selfs[0] < durations[0]
    assert tracer.counters["rk4_steps"] == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.CASES)


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
