"""Command-line surface: exit codes, output files, and determinism.

Every test drives ``clfcbf.cli.main`` in process with an explicit argv so
exit codes and console text can be asserted directly.  Integration-heavy
paths run against small throwaway scenario files (a trimmed copy of the
bundled deadlock scenario with a 100-step budget); the bundled-name
resolution path is exercised by the search and audit subcommands, whose
sample budgets are a few dozen states.
"""
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from clfcbf import AnalysisReport, SpectrumCheck, StabilityVerdict, load_bundled_scenario
from clfcbf import cli
from clfcbf.cli import (
    EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE, _fmt_vec, _spectrum_entry, main)


def _write(tmp_path, doc, name="case.scenario"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def _quick_doc():
    """The deadlock scenario trimmed to a 100-step integration budget."""
    doc = load_bundled_scenario("deadlock2d").to_dict()
    doc["name"] = "quick"
    doc["integration"] = {"dt": 0.01, "t_final": 1.0, "convergence": None}
    doc["initial_states"] = [[3.5, 0.5], [4.0, -0.2]]
    return doc


def _blowup_doc():
    """Unstable nominal feedback filtered by an obstacle too far to matter.

    The filter never activates near the origin, so the closed loop is
    x' = 2x and the state from (-1, 0) grows as -exp(2 t) until it trips
    the divergence guard.
    """
    return {
        "schema": 1,
        "name": "blowup",
        "dynamics": {"drift": {"kind": "zero"},
                     "input": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        "nominal": {"kind": "linear_feedback",
                    "gain": [[2.0, 0.0], [0.0, 2.0]]},
        "controller": {"mode": "safety_filter", "p": 1.0,
                       "cost_metric": [[1.0, 0.0], [0.0, 1.0]]},
        "clf": None,
        "cbfs": [{"shape": [[1.0, 0.0], [0.0, 1.0]], "center": [100.0, 0.0],
                  "offset": -1.0, "alpha_gain": 1.0}],
        "initial_states": [[-1.0, 0.0]],
        "integration": {"dt": 0.01, "t_final": 20.0, "convergence": None},
        "search": {"box": [[-5.0, 5.0], [-5.0, 5.0]], "boundary_seeds": 16,
                   "interior_seeds": 8, "seed": 0},
    }


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------

def test_version_prints_and_exits_zero(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "clfcbf 0.1.0" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_option_is_usage_error(capsys):
    argv = ["simulate", "--scenario", "deadlock2d", "--frobnicate"]
    assert main(argv) == EXIT_USAGE


def test_missing_scenario_is_io_error(tmp_path, capsys):
    argv = ["equilibria", "--scenario", "nosuch", "--out", str(tmp_path)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error" in err
    assert "nosuch" in err


def test_invalid_scenario_exits_usage_with_problems(tmp_path, capsys):
    doc = _quick_doc()
    doc["controller"]["p"] = -1.0
    path = _write(tmp_path, doc)
    argv = ["simulate", "--scenario", path, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "scenario validation failed:" in err
    assert "p must be positive" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_trajectories_and_report(tmp_path, capsys):
    path = _write(tmp_path, _quick_doc())
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", path, "--out", str(out)]) == EXIT_OK

    report = AnalysisReport.load(out / "simulate_report.yaml")
    assert report.scenario_name == "quick"
    runs = report.sections["simulation"]["runs"]
    assert [r["run"] for r in runs] == ["000", "001"]
    for run in runs:
        assert run["termination"] == "time_limit"
        assert run["samples"] == 101
        assert run["safety_margin"] > 0.0
        assert (out / run["trajectory_csv"]).exists()
    console = capsys.readouterr().out
    assert "run 000:" in console and "run 001:" in console


def test_simulate_x0_index_selects_one_run(tmp_path):
    path = _write(tmp_path, _quick_doc())
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", path, "--out", str(out),
            "--x0-index", "1"]
    assert main(argv) == EXIT_OK
    assert (out / "trajectory_001.csv").exists()
    assert not (out / "trajectory_000.csv").exists()
    report = AnalysisReport.load(out / "simulate_report.yaml")
    runs = report.sections["simulation"]["runs"]
    assert len(runs) == 1
    assert runs[0]["x0"] == [4.0, -0.2]


def test_simulate_x0_index_out_of_range(tmp_path, capsys):
    path = _write(tmp_path, _quick_doc())
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", path, "--out", str(out),
            "--x0-index", "7"]
    assert main(argv) == EXIT_USAGE
    assert "out of range" in capsys.readouterr().err
    assert not (out / "simulate_report.yaml").exists()


def test_simulate_custom_x0(tmp_path):
    path = _write(tmp_path, _quick_doc())
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", path, "--out", str(out),
            "--x0", "3.5,-0.25"]
    assert main(argv) == EXIT_OK
    assert (out / "trajectory_custom.csv").exists()
    report = AnalysisReport.load(out / "simulate_report.yaml")
    (run,) = report.sections["simulation"]["runs"]
    assert run["run"] == "custom"
    assert run["x0"] == [3.5, -0.25]


def test_simulate_malformed_x0_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, _quick_doc())
    argv = ["simulate", "--scenario", path, "--out", str(tmp_path / "out"),
            "--x0", "3.5,oops"]
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_simulate_without_initial_states_is_a_no_op(tmp_path, capsys):
    doc = _quick_doc()
    doc["initial_states"] = []
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert "no initial states selected" in capsys.readouterr().out
    assert not (out / "simulate_report.yaml").exists()


def test_simulate_divergence_exits_invariant(tmp_path, capsys):
    path = _write(tmp_path, _blowup_doc())
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", path, "--out", str(out)]
    assert main(argv) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "integration error" in err
    assert "diverged" in err
    # the partial trajectory is still written and reported
    assert len((out / "trajectory_000.csv").read_text().splitlines()) > 1000
    report = AnalysisReport.load(out / "simulate_report.yaml")
    (run,) = report.sections["simulation"]["runs"]
    assert "diverged" in run["integration_error"]
    assert run["termination"] == "time_limit"


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_equilibria_table_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["equilibria", "--scenario", "deadlock2d", "--out", str(out)]
    assert main(argv) == EXIT_OK

    table = (out / "equilibria_table.txt").read_text()
    assert capsys.readouterr().out == table
    assert "scenario: deadlock2d" in table
    assert "boundary equilibria" in table
    assert "interior equilibria" in table
    assert "unstable" in table
    assert "witness" in table

    report = AnalysisReport.load(out / "equilibria_report.yaml")
    entries = report.sections["equilibria"]["entries"]
    boundary = [e for e in entries if e["kind"] == "boundary" and e["validated"]]
    (saddle,) = boundary
    assert saddle["x"] == pytest.approx([3.0, 0.0], abs=1e-8)
    assert saddle["verdict"] == "unstable"
    assert saddle["mu_max"] == pytest.approx(9.0, abs=1e-6)
    assert saddle["spectrum_agrees"] is True
    interior = [e for e in entries if e["kind"] == "interior"]
    assert any(max(abs(v) for v in e["x"]) < 1e-8 for e in interior)


def test_equilibria_continuum_fails_before_any_boundary_search(
        tmp_path, capsys, monkeypatch):
    # Zero drift and the single input direction e_1: the field never leaves
    # range(g), so the interior equilibria form a continuum.  The interior
    # search runs first and ends the command; no boundary search starts.
    import clfcbf.cli as cli

    doc = _quick_doc()
    doc["dynamics"]["input"] = {"matrix": [[1.0], [0.0]]}
    doc["controller"]["cost_metric"] = [[1.0]]
    boundary_searches = []
    monkeypatch.setattr(cli, "find_boundary_equilibria",
                        lambda *args: boundary_searches.append(args) or [])
    out = tmp_path / "out"
    argv = ["equilibria", "--scenario", _write(tmp_path, doc), "--out", str(out)]
    assert main(argv) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "interior equilibria are not isolated" in err
    assert boundary_searches == []
    assert not (out / "equilibria_report.yaml").exists()


# ---------------------------------------------------------------------------
# feasibility-scan
# ---------------------------------------------------------------------------

def test_feasibility_scan_counts_and_csv(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["feasibility-scan", "--scenario", "deadlock2d",
            "--out", str(out), "--samples", "48"]
    assert main(argv) == EXIT_OK
    assert "48 safe samples" in capsys.readouterr().out

    report = AnalysisReport.load(out / "feasibility_report.yaml")
    scan = report.sections["feasibility_scan"]
    # driftless single-obstacle problem: the certificate holds on the whole
    # safe set and the solver never fails there
    assert scan["samples"] == 48
    assert scan["holds_count"] == 48
    assert scan["solver_success_count"] == 48
    assert scan["soundness_counterexamples"] == []

    lines = (out / "feasibility_scan.csv").read_text().splitlines()
    assert lines[0] == "x_0,x_1,holds,residual,rank,solver_success"
    assert len(lines) == 49


# ---------------------------------------------------------------------------
# kkt-audit
# ---------------------------------------------------------------------------

def test_kkt_audit_agrees_with_oracle(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["kkt-audit", "--scenario", "filter2d",
            "--out", str(out), "--samples", "24"]
    assert main(argv) == EXIT_OK
    assert "24 safe samples" in capsys.readouterr().out

    report = AnalysisReport.load(out / "kkt_report.yaml")
    audit = report.sections["kkt_audit"]
    assert audit["samples"] == 24
    assert audit["disagreement_count"] == 0
    assert audit["failure_count"] == 0
    assert audit["max_u_disagreement"] <= 1e-6
    assert audit["max_kkt_residual"] <= 1e-7


def test_kkt_audit_zero_samples_is_vacuous(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["kkt-audit", "--scenario", "filter2d",
            "--out", str(out), "--samples", "0"]
    assert main(argv) == EXIT_OK
    assert "vacuously" in capsys.readouterr().out
    report = AnalysisReport.load(out / "kkt_report.yaml")
    assert report.sections["kkt_audit"]["vacuous"] is True


@pytest.mark.parametrize("command", ["kkt-audit", "feasibility-scan"])
@pytest.mark.parametrize("samples", ["-5", "five"])
def test_sample_count_must_be_a_nonnegative_integer(command, samples, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--scenario", "deadlock2d", "--out", str(out), "--samples", samples]
    assert main(argv) == EXIT_USAGE
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path):
    scen = _write(tmp_path, _quick_doc())
    cases = [
        (["simulate", "--scenario", scen],
         ["trajectory_000.csv", "trajectory_001.csv", "simulate_report.yaml"]),
        (["feasibility-scan", "--scenario", "deadlock2d", "--samples", "16"],
         ["feasibility_scan.csv", "feasibility_report.yaml"]),
        (["kkt-audit", "--scenario", "filter2d", "--samples", "16"],
         ["kkt_report.yaml"]),
    ]
    for k, (argv, filenames) in enumerate(cases):
        first, second = tmp_path / f"a{k}", tmp_path / f"b{k}"
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        for name in filenames:
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_override_changes_the_sample_set(tmp_path):
    base = ["feasibility-scan", "--scenario", "deadlock2d", "--samples", "8"]
    out0, out1 = tmp_path / "s0", tmp_path / "s1"
    assert main(base + ["--out", str(out0)]) == EXIT_OK
    assert main(base + ["--out", str(out1), "--seed", "1"]) == EXIT_OK
    csv0 = (out0 / "feasibility_scan.csv").read_bytes()
    csv1 = (out1 / "feasibility_scan.csv").read_bytes()
    assert csv0 != csv1
    report = AnalysisReport.load(out1 / "feasibility_report.yaml")
    assert report.sections["feasibility_scan"]["seed"] == 1


def test_fmt_vec_never_prints_a_negative_zero():
    # Rounding noise of either sign prints as the same text, so a last-bit
    # change in a search cannot flip the table.
    assert _fmt_vec([-1e-17, -0.0, 0.0, 1e-17]) == (
        "( 0.0000000000,  0.0000000000,  0.0000000000,  0.0000000000)")
    assert _fmt_vec([-0.45, -0.0], 6) == "(-0.450000,  0.000000)"
    assert _fmt_vec([-4e-7, 4e-7], 6) == "( 0.000000,  0.000000)"


def test_spectrum_entry_hides_the_noise_of_a_double_eigenvalue():
    # fig1's {1, 2} side roots have the double eigenvalue -1, which rounding
    # noise spells either as a complex pair 1e-15 apart or as two reals;
    # both spellings, in any order, give the same report entry.
    complex_pair = [-1.0000000000000009 + 4.2e-15j, -0.25 + 0.0j,
                    -1.0000000000000009 - 4.2e-15j]
    real_pair = [-0.25 - 0.0j, -1.0 - 0.0j, -0.9999999999999998 + 0.0j]
    entry = _spectrum_entry(complex_pair)
    assert entry == _spectrum_entry(real_pair) == [[-0.25, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
    assert not any(np.signbit(v) for pair in entry for v in pair[1:])
    assert yaml.safe_dump(entry) == yaml.safe_dump(_spectrum_entry(real_pair))


def test_equilibria_entry_hides_the_noise_of_mu_max_and_the_witness(monkeypatch):
    # The report rounds mu_max and the witness to the table's 10 decimals,
    # like the spectrum: a 1e-20 component and a signed zero both write 0.0.
    verdict = StabilityVerdict(
        verdict="unstable", mu_max=9.000000000000002,
        witness=np.array([1e-20, -0.0, 1.0]), spectrum=np.array([9.0 + 0.0j]))
    monkeypatch.setattr(cli, "classify", lambda *args: verdict)
    monkeypatch.setattr(cli, "spectrum_cross_check",
                        lambda *args: SpectrumCheck(agree=True, eigenvalues=np.array([9.0])))
    rep = SimpleNamespace(
        kind="boundary", indices=(1,), x_e=np.array([3.0, 0.0, 0.0]),
        lambda_e=np.array([6.75]), lambda0_e=4.5, residual_field=0.0,
        residual_boundary=0.0, validated=True, degenerate=False, failure_reason=None)
    entry = cli._classify_entry(None, rep)
    assert entry["mu_max"] == 9.0
    assert entry["witness"] == [0.0, 0.0, 1.0]
    assert yaml.safe_dump(entry["witness"]) == "- 0.0\n- 0.0\n- 1.0\n"
