"""The three workloads: their ops, output digests and independent checks.

A workload turns its loaded cases into a fixed list of ops, one round.
Every run attempts whole rounds of the same ops, so the share of failed
ops is the same in every run.  ``digest`` hashes a round's outputs so two
rounds (or two runs of the same code and seed) can be compared byte for
byte; ``check`` runs the independent checks of ``checks`` on one round.

The program is reached only through attributes of the ``clfcbf`` package
looked up at call time, so the span wrappers of ``spans.Tracer`` see every
call.
"""

import hashlib
import itertools
import struct

import numpy as np

import checks
import inputs


class Op:
    """One timed call: ``fn()`` returns the output, ``key`` names it within
    ``item``, the loaded case it runs on."""

    __slots__ = ("key", "fn", "item")

    def __init__(self, key, fn, item):
        self.key = key
        self.fn = fn
        self.item = item


class Loaded:
    """A generated case after the program has parsed it."""

    def __init__(self, case, scenario, problem):
        self.case = case
        self.scenario = scenario
        self.problem = problem
        self.model = checks.QpModel(case.doc)


def _feed(h, value):
    """Hash plain data, NumPy arrays and the program's result objects."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        h.update(b"s" + value.encode())
    elif isinstance(value, np.ndarray):
        h.update(b"a" + str(value.shape).encode() + str(value.dtype).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (frozenset, set)):
        _feed(h, sorted(value))
    elif isinstance(value, (list, tuple)):
        h.update(b"[" + str(len(value)).encode())
        for item in value:
            _feed(h, item)
    elif hasattr(value, "__dataclass_fields__"):
        h.update(b"d" + type(value).__name__.encode())
        for name in value.__dataclass_fields__:
            _feed(h, getattr(value, name))
    elif isinstance(value, Exception):
        h.update(b"e" + type(value).__name__.encode() + str(value).encode())
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(outputs):
    h = hashlib.sha256()
    _feed(h, list(outputs))
    return h.hexdigest()


class Workload:
    """The ops of one round over the loaded cases, and their checks.

    ``notes`` collects facts the checks found that are not failures.
    """

    name = None

    def __init__(self, lib, loaded):
        self.lib = lib
        self.loaded = loaded
        self.notes = {}


# -- closed-loop -------------------------------------------------------------

class ClosedLoop(Workload):
    """One op: a fixed-horizon ``integrate`` from a seeded near-boundary start."""

    name = "closed-loop"

    def ops(self):
        ops = []
        for item in self.loaded:
            sc = item.scenario
            for k, x0 in enumerate(sc.initial_states):
                ops.append(Op((sc.name, k), self._integrate(item.problem, x0, sc),
                              item))
        return ops

    def _integrate(self, problem, x0, sc):
        lib = self.lib
        return lambda: lib.integrate(problem, x0, dt=sc.dt, t_final=sc.t_final)

    def failed(self, op, out):
        return isinstance(out, Exception) or out.termination.reason != "time_limit"

    def check(self, ops, outputs):
        problems = []
        steps = int(round(inputs.CLOSED_LOOP_T_FINAL / inputs.CLOSED_LOOP_DT))
        for op, traj in zip(ops, outputs):
            if self.failed(op, traj):
                continue
            label = f"{op.key[0]} start {op.key[1]}"
            if traj.t.shape[0] != steps + 1:
                problems.append(f"{label}: {traj.t.shape[0]} rows, expected {steps + 1}")
                continue
            problems += checks.check_trajectory(op.item.model, vars(traj), label)
            if op.key[1] == 0:
                # the seeded subsample: each scenario's first start
                problems += self._reintegrate(op, traj, steps, label)
        return problems

    def _reintegrate(self, op, traj, steps, label):
        lib, problem = self.lib, op.item.problem
        reference = checks.rk4_reintegrate(
            op.item.model, traj.x[0], op.item.scenario.dt, steps,
            lambda y: lib.solve_pointwise(problem, y).u_star)
        return checks.check_reintegration(traj.x, reference, label)


# -- pointwise ---------------------------------------------------------------

class Pointwise(Workload):
    """One op: a cold ``solve_pointwise`` plus ``check_feasibility_condition``."""

    name = "pointwise"

    def ops(self):
        ops = []
        for item in self.loaded:
            for k, x in enumerate(item.scenario.initial_states):
                ops.append(Op((item.scenario.name, k),
                              self._solve(item.problem, x), item))
        return ops

    def _solve(self, problem, x):
        lib = self.lib
        return lambda: (lib.solve_pointwise(problem, x),
                        lib.check_feasibility_condition(problem, x))

    def failed(self, op, out):
        return isinstance(out, Exception)

    def check(self, ops, outputs):
        problems = []
        by_case = {}
        for op, out in zip(ops, outputs):
            if isinstance(out, self.lib.InfeasibleQPError):
                # an infeasible state must not carry a certificate that holds
                report = out.feasibility
                problems += checks.check_feasibility_report(
                    report.holds, report.residual, report.rank,
                    op.item.problem.n_barriers, False, f"{op.key}")
            elif not self.failed(op, out):
                by_case.setdefault(id(op.item), (op.item, []))[1].append((op, out))
        for item, rows in by_case.values():
            label = item.scenario.name
            X = np.array([item.scenario.initial_states[op.key[1]] for op, _ in rows])
            sols = [out[0] for _, out in rows]
            problems += checks.check_solutions(
                item.model, X, [s.u_star for s in sols], [s.delta_star for s in sols],
                [s.lambda0 for s in sols], [s.lam for s in sols], label)
            for op, (sol, report) in rows:
                problems += checks.check_feasibility_report(
                    report.holds, report.residual, report.rank,
                    item.problem.n_barriers, True, f"{label} state {op.key[1]}")
            # the program's dual-ascent oracle audits the first state of each case
            op, (sol, _) = rows[0]
            oracle = self.lib.oracle_solve(item.problem, X[0])
            problems += checks.check_oracle(sol.u_star, oracle.u_star, label)
        return problems


# -- census ------------------------------------------------------------------

class Census(Workload):
    """One op: one active-set search, then ``classify`` and
    ``spectrum_cross_check`` on every validated boundary root, as the
    ``equilibria`` command does.  An op fails when a verdict contradicts the
    program's own spectrum cross-check."""

    name = "census"

    def ops(self):
        ops = []
        for item in self.loaded:
            n, N = item.problem.n, item.problem.n_barriers
            combos = [c for r in range(1, min(n, N) + 1)
                      for c in itertools.combinations(range(1, N + 1), r)]
            for combo in combos + [()]:
                ops.append(Op((item.scenario.name, combo),
                              self._search(item, combo), item))
        return ops

    def _search(self, item, combo):
        lib, problem, config = self.lib, item.problem, item.scenario.search

        def op():
            if combo:
                reports = lib.find_boundary_equilibria(problem, combo, config)
            else:
                reports = lib.find_interior_equilibria(problem, config)
            out = []
            for rep in reports:
                verdict = check = None
                if rep.kind == "boundary" and rep.validated:
                    verdict = lib.classify(problem, rep.x_e, rep.lambda_e,
                                           rep.indices)
                    check = lib.spectrum_cross_check(
                        problem, rep.x_e, rep.lambda_e, rep.indices, verdict)
                out.append((rep, verdict, check))
            return out

        return op

    def failed(self, op, out):
        return isinstance(out, Exception) or any(
            check is not None and not check.agree for _, _, check in out)

    def check(self, ops, outputs):
        problems = []
        found = {}
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                continue
            item, combo = op.item, op.key[1]
            label = f"{op.key[0]} A={list(combo)}"
            failed = self.failed(op, out)
            for rep, verdict, check in out:
                if not rep.validated:
                    continue
                where = f"{label} x_e={np.round(rep.x_e, 6).tolist()}"
                problems += checks.check_root(item.model, rep.x_e, rep.lambda_e,
                                              rep.indices, where)
                if verdict is None or failed:
                    continue
                bundle = self.lib.closed_loop_jacobian(
                    item.problem, rep.x_e, rep.lambda_e, rep.indices)
                problems += checks.check_left_eigenvectors(
                    item.model, rep.x_e, rep.indices, bundle.J_fcl, where)
                problems += checks.check_verdict_spectrum(
                    verdict.verdict, float(np.max(check.eigenvalues.real)),
                    where + " (finite-difference spectrum)")
                problems += checks.check_verdict_spectrum(
                    verdict.verdict, float(np.max(verdict.spectrum.real)),
                    where + " (analytic spectrum)")
            found[(id(item), combo)] = [
                (rep.x_e, rep.lambda_e, rep.validated,
                 None if verdict is None else verdict.verdict,
                 None if verdict is None else verdict.mu_max)
                for rep, verdict, _ in out]
        for item in self.loaded:
            problems += self._closed_forms(item, found)
        return problems

    def _closed_forms(self, item, found):
        family, params, label = item.case.family, item.case.params, item.scenario.name

        def roots(combo):
            return found.get((id(item), combo), [])

        problems = checks.check_origin([row[0] for row in roots(())], label)
        if family == "deadlock2d":
            problems += checks.check_deadlock(params, roots((1,)), label)
        elif family == "filter2d":
            for i in (1, 2):
                problems += checks.check_filter(params, i, roots((i,)),
                                                f"{label} A=[{i}]")
        else:
            self.notes["fig1_members"] = self.notes.get("fig1_members", 0) + 1
            if not any(checks.is_fig1_top(row) for row in roots((1, 2))):
                self.notes.setdefault("fig1_top_missed", []).append(label)
            problems += checks.check_fig1_top(params, roots((1, 2)), label)
        return problems


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, Pointwise, Census)}
