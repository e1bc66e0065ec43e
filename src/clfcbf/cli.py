"""Command-line surface: scenario-driven simulation, search, and audits.

Subcommands
-----------
``simulate``
    Integrate the closed loop from scenario initial states; write one
    trajectory CSV per run plus a YAML summary.  QP infeasibility along a
    trajectory is a recorded finding (zero exit), not a crash.
``equilibria``
    Enumerate active index sets, run the boundary and interior searches,
    classify validated equilibria, and write a report plus a table.
``feasibility-scan``
    Sample safe states, evaluate the feasibility certificate against the
    actual solver, and verify the soundness implication holds -> success.
``kkt-audit``
    Sample safe states and compare the active-set solver against the
    independent first-order oracle on every KKT quantity.

All commands take ``--scenario`` (a file path or a bundled scenario name)
and ``--out`` (output directory).  Sampling commands take ``--samples``
and ``--seed``; identical scenario + seed produce byte-identical outputs.

Exit codes: 0 success or recorded finding; 1 usage or validation error;
2 invariant violation (audit disagreement, soundness counterexample,
diverged integration); 3 I/O error.
"""

import argparse
import csv
import itertools
import os
import sys

import numpy as np

from . import __version__
from .certificates import _quadrics
from .equilibria import find_boundary_equilibria, find_interior_equilibria
from .errors import (
    InfeasibleQPError,
    IntegrationError,
    OracleFailureError,
    PreconditionError,
    ScenarioError,
    ToolkitError,
)
from .qp import check_feasibility_condition, oracle_solve, solve_pointwise
from .scenario import AnalysisReport, load_bundled_scenario, load_scenario
from .simulate import integrate, safety_margin, write_trajectory_csv
from .stability import classify, spectrum_cross_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

#: audit thresholds: max allowed |u*_direct - u*_oracle| and KKT residual.
AUDIT_U_TOL = 1e-6
AUDIT_KKT_TOL = 1e-7


def _load(path_or_name):
    if os.path.exists(path_or_name):
        return load_scenario(path_or_name)
    if os.sep not in path_or_name and not path_or_name.endswith(".scenario"):
        try:
            return load_bundled_scenario(path_or_name)
        except ScenarioError:
            pass
    raise FileNotFoundError(f"scenario file not found: {path_or_name}")


def _report(scenario, sections):
    return AnalysisReport(
        scenario_name=scenario.name,
        scenario_sha256=scenario.sha256(),
        toolkit_version=__version__,
        tolerances=scenario.tolerances.to_dict(),
        sections=sections)


def _sample_safe_states(problem, box, count, seed):
    """Uniform box samples rejection-filtered to the safe set: the first
    ``count`` safe rows, as a (count, n) array, of at most
    max(200 count, 1000) draws.

    The feasibility and optimality guarantees are scoped to the safe set;
    inside obstacle interiors the QP can be genuinely infeasible, so the
    audits sample where the contracts apply.  Rows are drawn in blocks,
    each with one ``uniform`` call and one evaluation of the barrier
    table; the draws and barrier values are those of one row at a time.
    """
    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    certs = problem.certificates
    limit = max(200 * count, 1000)
    samples = np.empty((0, lo.shape[0]))
    drawn = 0
    while len(samples) < count and drawn < limit:
        rows = min(max(count, 1000), limit - drawn)
        X = rng.uniform(lo, hi, size=(rows, lo.shape[0]))
        drawn += rows
        h = _quadrics(certs.shapes, certs.centers, certs.offsets, X)[0]
        safe = X[h.min(axis=1) >= 0.0][:count - len(samples)]
        samples = np.concatenate([samples, safe])
    if len(samples) < count:
        raise PreconditionError(
            f"could not draw {count} safe states from the search box "
            f"in {limit} attempts (safe fraction too small)")
    return samples


def _rounded(x, decimals=10):
    """x rounded to ``decimals`` places with -0.0 folded into +0.0, so
    neither the digits nor the sign of rounding noise show in an output."""
    return np.round(x, decimals) + 0.0


def _fmt_vec(x, precision=10):
    """Fixed-point coordinates, rounded first and -0.0 folded into +0.0, so
    the sign of rounding noise never shows."""
    rounded = _rounded(np.asarray(x, dtype=float), precision)
    return "(" + ", ".join(f"{v: .{precision}f}" for v in rounded) + ")"


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    scenario = _load(args.scenario)
    problem = scenario.problem()
    out = _ensure_outdir(args.out)

    if args.x0 is not None:
        starts = [np.array([float(v) for v in args.x0.split(",")])]
        labels = ["custom"]
    elif args.x0_index is not None:
        k = args.x0_index
        if not 0 <= k < len(scenario.initial_states):
            print(f"error: --x0-index {k} out of range; scenario has "
                  f"{len(scenario.initial_states)} initial states",
                  file=sys.stderr)
            return EXIT_USAGE
        starts = [scenario.initial_states[k]]
        labels = [f"{k:03d}"]
    else:
        starts = list(scenario.initial_states)
        labels = [f"{k:03d}" for k in range(len(starts))]

    if not starts:
        print("no initial states selected; nothing to simulate")
        return EXIT_OK

    runs = []
    diverged = False
    for label, x0 in zip(labels, starts):
        csv_path = os.path.join(out, f"trajectory_{label}.csv")
        try:
            traj = integrate(
                problem, x0, dt=scenario.dt, t_final=scenario.t_final,
                target=scenario.target, target_tol=scenario.target_tol)
        except IntegrationError as exc:
            diverged = True
            traj = exc.partial_trajectory
            print(f"run {label}: integration error: {exc}", file=sys.stderr)
            if traj is None:
                continue
            entry_extra = {"integration_error": str(exc)}
        else:
            entry_extra = {}
        write_trajectory_csv(traj, csv_path)
        margins = safety_margin(traj)
        entry = {
            "run": label,
            "x0": [float(v) for v in x0],
            "termination": traj.termination.reason,
            "termination_time": float(traj.termination.time),
            "final_state": [float(v) for v in traj.final_state],
            "safety_margin": float(margins.min()),
            "per_barrier_margin": [float(v) for v in margins],
            "samples": int(traj.t.shape[0]),
            "trajectory_csv": os.path.basename(csv_path),
        }
        entry.update(entry_extra)
        runs.append(entry)
        print(f"run {label}: {entry['termination']} at t = "
              f"{entry['termination_time']:g}, final state = "
              f"{_fmt_vec(traj.final_state, 6)}, min margin = "
              f"{entry['safety_margin']:.3e}")

    report = _report(scenario, {"simulation": {
        "dt": float(scenario.dt), "t_final": float(scenario.t_final),
        "runs": runs}})
    report.save(os.path.join(out, "simulate_report.yaml"))
    return EXIT_INVARIANT if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def _spectrum_entry(spectrum):
    """[real, imag] pairs rounded to the table's 10 decimals, -0.0 folded
    into +0.0 and sorted descending, so the rounding noise of a repeated
    eigenvalue (a real pair or a complex pair 1e-15 apart) never shows."""
    rounded = _rounded(np.asarray(spectrum, dtype=complex))
    pairs = np.column_stack([rounded.real, rounded.imag])
    return sorted(([float(re), float(im)] for re, im in pairs), reverse=True)


def _classify_entry(problem, rep):
    entry = {
        "kind": rep.kind,
        "indices": list(rep.indices),
        "x": [float(v) for v in rep.x_e],
        "lambda": [float(v) for v in rep.lambda_e],
        "lambda0": float(rep.lambda0_e),
        "residual_field": float(rep.residual_field),
        "residual_boundary": None if rep.residual_boundary is None
        else float(rep.residual_boundary),
        "validated": bool(rep.validated),
        "degenerate": bool(rep.degenerate),
        "failure_reason": rep.failure_reason,
        "verdict": None,
        "mu_max": None,
        "witness": None,
        "spectrum": None,
        "spectrum_agrees": None,
    }
    if rep.kind != "boundary" or not rep.validated:
        return entry
    try:
        verdict = classify(problem, rep.x_e, rep.lambda_e, rep.indices)
    except ToolkitError as exc:
        entry["failure_reason"] = f"classification failed: {exc}"
        return entry
    entry["verdict"] = verdict.verdict
    entry["mu_max"] = float(_rounded(verdict.mu_max))
    if verdict.witness is not None:
        entry["witness"] = [float(v) for v in _rounded(verdict.witness)]
    entry["spectrum"] = _spectrum_entry(verdict.spectrum)
    if verdict.verdict != "marginal":
        check = spectrum_cross_check(
            problem, rep.x_e, rep.lambda_e, rep.indices, verdict)
        entry["spectrum_agrees"] = bool(check.agree)
    return entry


def _equilibria_table(scenario, entries):
    lines = [f"scenario: {scenario.name}  (sha256 {scenario.sha256()[:12]})",
             "", "boundary equilibria"]
    boundary = [e for e in entries if e["kind"] == "boundary"]
    interior = [e for e in entries if e["kind"] == "interior"]
    if not boundary:
        lines.append("  (none found)")
    for e in boundary:
        flags = []
        if not e["validated"]:
            flags.append(f"INVALID: {e['failure_reason']}")
        if e["degenerate"]:
            flags.append("degenerate")
        if e["spectrum_agrees"] is False:
            flags.append("SPECTRUM DISAGREES")
        verdict = e["verdict"] or "-"
        mu = "-" if e["mu_max"] is None else f"{e['mu_max']: .6e}"
        lines.append(
            f"  A = {{{', '.join(map(str, e['indices']))}}}  "
            f"x = {_fmt_vec(e['x'])}  "
            f"lambda = {_fmt_vec(e['lambda'], 6)}  "
            f"verdict = {verdict:9s} mu_max = {mu}"
            + ("  [" + "; ".join(flags) + "]" if flags else ""))
        if e["witness"]:
            lines.append(f"      witness = {_fmt_vec(e['witness'])}")
    lines.append("")
    lines.append("interior equilibria")
    if not interior:
        lines.append("  (none found)")
    for e in interior:
        lines.append(f"  x = {_fmt_vec(e['x'])}  lambda0 = {e['lambda0']:.6e}")
    lines.append("")
    return "\n".join(lines)


def cmd_equilibria(args):
    scenario = _load(args.scenario)
    problem = scenario.problem()
    out = _ensure_outdir(args.out)
    n, N = problem.n, problem.n_barriers

    # first, so that a continuum of interior equilibria ends the command
    # before any boundary search runs; the report still lists boundary first
    interior = find_interior_equilibria(problem, scenario.search)
    entries = []
    for r in range(1, min(n, N) + 1):
        for combo in itertools.combinations(range(1, N + 1), r):
            for rep in find_boundary_equilibria(problem, combo, scenario.search):
                entries.append(_classify_entry(problem, rep))
    for rep in interior:
        entries.append(_classify_entry(problem, rep))

    report = _report(scenario, {"equilibria": {
        "search_box": [[float(a), float(b)] for a, b in scenario.search.box],
        "seed": int(scenario.search.seed),
        "entries": entries}})
    report.save(os.path.join(out, "equilibria_report.yaml"))
    table = _equilibria_table(scenario, entries)
    with open(os.path.join(out, "equilibria_table.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# feasibility-scan
# ---------------------------------------------------------------------------

def cmd_feasibility_scan(args):
    scenario = _load(args.scenario)
    problem = scenario.problem()
    out = _ensure_outdir(args.out)
    seed = scenario.search.seed if args.seed is None else args.seed
    samples = _sample_safe_states(
        problem, scenario.search.box, args.samples, seed)

    rows = []
    counterexamples = []
    holds_count = success_count = 0
    for x in samples:
        fr = check_feasibility_condition(problem, x)
        try:
            solve_pointwise(problem, x)
            success = True
            success_count += 1
        except InfeasibleQPError:
            success = False
        holds_count += int(fr.holds)
        if fr.holds and not success:
            counterexamples.append(x)
        rows.append((x, fr, success))

    scan_path = os.path.join(out, "feasibility_scan.csv")
    with open(scan_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i}" for i in range(problem.n)]
                        + ["holds", "residual", "rank", "solver_success"])
        for x, fr, success in rows:
            writer.writerow([f"{v:.17g}" for v in x]
                            + [int(fr.holds), f"{fr.residual:.17g}",
                               int(fr.rank), int(success)])

    summary = {
        "samples": len(samples),
        "seed": int(seed),
        "holds_count": holds_count,
        "solver_success_count": success_count,
        "soundness_counterexamples": [[float(v) for v in x]
                                      for x in counterexamples],
    }
    report = _report(scenario, {"feasibility_scan": summary})
    report.save(os.path.join(out, "feasibility_report.yaml"))

    print(f"{len(samples)} safe samples: certificate holds on {holds_count}, "
          f"solver succeeded on {success_count}")
    if counterexamples:
        print("SOUNDNESS VIOLATION: certificate held but the solver failed at:",
              file=sys.stderr)
        for x in counterexamples:
            print(f"  x = {_fmt_vec(x)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# kkt-audit
# ---------------------------------------------------------------------------

def cmd_kkt_audit(args):
    scenario = _load(args.scenario)
    problem = scenario.problem()
    out = _ensure_outdir(args.out)
    seed = scenario.search.seed if args.seed is None else args.seed

    if args.samples == 0:
        print("warning: 0 samples requested; audit passes vacuously")
        report = _report(scenario, {"kkt_audit": {
            "samples": 0, "seed": int(seed), "vacuous": True}})
        report.save(os.path.join(out, "kkt_report.yaml"))
        return EXIT_OK

    samples = _sample_safe_states(
        problem, scenario.search.box, args.samples, seed)
    max_u = 0.0
    max_kkt = 0.0
    disagreements = []
    failures = []
    for x in samples:
        try:
            direct = solve_pointwise(problem, x)
            oracle = oracle_solve(problem, x)
        except (InfeasibleQPError, OracleFailureError) as exc:
            failures.append((x, str(exc)))
            continue
        u_diff = float(np.max(np.abs(direct.u_star - oracle.u_star)))
        kkt = max(direct.kkt_residual, oracle.kkt_residual)
        max_u = max(max_u, u_diff)
        max_kkt = max(max_kkt, kkt)
        if u_diff > AUDIT_U_TOL or direct.kkt_residual > AUDIT_KKT_TOL:
            disagreements.append((x, u_diff, direct.kkt_residual))

    summary = {
        "samples": len(samples),
        "seed": int(seed),
        "max_u_disagreement": max_u,
        "max_kkt_residual": max_kkt,
        "disagreement_count": len(disagreements),
        "failure_count": len(failures),
        "disagreements": [
            {"x": [float(v) for v in x], "u_diff": float(du), "kkt": float(kk)}
            for x, du, kk in disagreements],
        "failures": [{"x": [float(v) for v in x], "error": msg}
                     for x, msg in failures],
    }
    report = _report(scenario, {"kkt_audit": summary})
    report.save(os.path.join(out, "kkt_report.yaml"))

    print(f"{len(samples)} safe samples: max |u* - u*_oracle| = {max_u:.3e}, "
          f"max KKT residual = {max_kkt:.3e}, "
          f"{len(disagreements)} disagreements, {len(failures)} failures")
    if disagreements or failures:
        for x, du, kk in disagreements:
            print(f"  disagreement at x = {_fmt_vec(x)}: "
                  f"u_diff = {du:.3e}, kkt = {kk:.3e}", file=sys.stderr)
        for x, msg in failures:
            print(f"  failure at x = {_fmt_vec(x)}: {msg}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="clfcbf",
        description="Scenario-driven CLF-CBF quadratic-program controller "
                    "toolkit: simulation, equilibrium search, and audits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, samples=False):
        sp.add_argument("--scenario", required=True,
                        help="scenario file path or bundled scenario name")
        sp.add_argument("--out", default=".",
                        help="output directory (created if missing)")
        if samples:
            sp.add_argument("--samples", type=int, default=1000,
                            help="number of safe-state samples")
            sp.add_argument("--seed", type=int, default=None,
                            help="RNG seed (defaults to the scenario's)")

    sp = sub.add_parser("simulate",
                        help="integrate the closed loop from initial states")
    common(sp)
    sp.add_argument("--x0-index", type=int, default=None,
                    help="simulate only the k-th scenario initial state")
    sp.add_argument("--x0", type=str, default=None,
                    help="comma-separated custom initial state")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("equilibria",
                        help="locate and classify closed-loop equilibria")
    common(sp)
    sp.set_defaults(func=cmd_equilibria)

    sp = sub.add_parser("feasibility-scan",
                        help="check the feasibility certificate against the solver")
    common(sp, samples=True)
    sp.set_defaults(func=cmd_feasibility_scan)

    sp = sub.add_parser("kkt-audit",
                        help="compare the active-set solver with the oracle")
    common(sp, samples=True)
    sp.set_defaults(func=cmd_kkt_audit)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ScenarioError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
