"""Command-line front end: spec parsing, exit codes, solve records, sweep
CSV schema and golden files, verification suites, capacity reports."""

import json
import math
import os

import numpy as np
import pytest

from maxentgames import (
    Distribution,
    GammaTau,
    Infeasible,
    _simplex,
    cli,
    constraints,
    maxent,
    mixture_identities,
    solve,
    vertices,
)
from maxentgames.divergence import identity_terms
from maxentgames._simplex import Unbounded
from maxentgames.maxent import MaxIterExceeded, NewtonDivergence
from maxentgames.verify import SaddleCheck
from maxentgames.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SADDLE,
    EXIT_SOLVER,
    EXIT_SUITE,
    parse_spec,
    record_columns,
    vertex_columns,
)
from test_certificate_lp import problems
from test_constraints import count_lps

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.normpath(os.path.join(HERE, os.pardir, "specs"))
GOLDEN = os.path.join(HERE, "golden")

BUNDLED_SWEEPS = ["brier_mean", "zero_one_mean", "log_mean"]


def spec_path(name):
    return os.path.join(SPECS, name + ".json")


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(text):
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "# " + cli.CSV_SCHEMA
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    for row in rows:
        assert len(row) == len(header)
    return header, rows


# ---------------------------------------------------------------------------
# parse and usage errors -> exit 1


def test_missing_spec_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.json"), "--tau", "0")
    assert code == EXIT_PARSE
    assert "spec error" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(path), "--tau", "0")
    assert code == EXIT_PARSE
    assert "invalid JSON" in err


def test_spec_must_be_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(path), "--tau", "0")
    assert code == EXIT_PARSE


def test_spec_requires_outcomes(capsys, tmp_path):
    path = write_spec(tmp_path, {"loss": {"kind": "brier"}})
    code, _, err = run_cli(capsys, "solve", path, "--tau", "0")
    assert code == EXIT_PARSE
    assert "outcomes" in err


def test_unknown_loss_kind(capsys, tmp_path):
    path = write_spec(tmp_path, {"outcomes": ["a", "b"], "loss": {"kind": "hinge"}})
    code, _, err = run_cli(capsys, "solve", path, "--tau", "0")
    assert code == EXIT_PARSE
    assert "hinge" in err


def test_statistic_length_mismatch(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": ["a", "b", "c"],
        "loss": {"kind": "brier"},
        "statistic": [[-1.0, 1.0]],
    })
    code, _, err = run_cli(capsys, "solve", path, "--tau", "0")
    assert code == EXIT_PARSE


def test_constraint_requires_statistic(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": ["a", "b"],
        "loss": {"kind": "brier"},
        "constraint": {"tau": 0.0},
    })
    code, _, err = run_cli(capsys, "solve", path, "--tau", "0")
    assert code == EXIT_PARSE


def test_solve_needs_some_tau(capsys):
    # spec has only a grid, no point constraint, and no --tau on the line
    code, _, err = run_cli(capsys, "solve", spec_path("binary_channel"))
    assert code == EXIT_PARSE


def test_tau_arity_mismatch(capsys):
    code, _, err = run_cli(capsys, "solve", spec_path("brier_mean"),
                           "--tau", "0.1", "0.2")
    assert code == EXIT_PARSE
    assert "shape error" in err


@pytest.mark.parametrize("argv", [
    # a tau that is not finite
    ("solve", "brier_mean", "--tau", "nan"),
    ("solve", "zero_one_mean", "--tau", "nan"),
    ("solve", "log_mean", "--tau", "inf"),
    ("sweep", "log_mean", "--grid", "nan", "0.5", "3"),
    # --grid STEPS that is not finite
    ("sweep", "brier_mean", "--grid", "0", "1", "nan"),
    ("sweep", "brier_mean", "--grid", "0", "1", "inf"),
    # --tol that is not a positive finite number
    ("solve", "log_mean", "--tau", "0.5", "--tol", "nan"),
    ("sweep", "log_mean", "--tol", "-1"),
    ("capacity", "binary_channel", "--tol", "nan"),
    ("capacity", "brier_family", "--tol", "0"),
])
def test_non_finite_inputs_are_parse_errors(capsys, argv):
    command, name, *rest = argv
    code, out, err = run_cli(capsys, command, spec_path(name), *rest)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("solve", "log_mean", "--tau", "0.5", "--tol", "1e-6"),
    ("sweep", "log_mean", "--tol", "1e-6"),
])
def test_a_valid_tol_reaches_the_solve(capsys, monkeypatch, argv):
    tols = []
    real_solve_each = cli._solve_each

    def recorded(model, statistic, gammas, tol):
        tols.append(tol)
        return real_solve_each(model, statistic, gammas, tol)

    monkeypatch.setattr(cli, "_solve_each", recorded)
    command, name, *rest = argv
    code, out, err = run_cli(capsys, command, spec_path(name), *rest)
    assert code == EXIT_OK, err
    assert out and tols and all(tol == 1e-6 for tol in tols)


def test_a_valid_tol_reaches_the_capacity_solve(capsys, monkeypatch):
    tols = []
    real_capacity_solve = cli.capacity_solve

    def recorded(sm, tol):
        tols.append(tol)
        return real_capacity_solve(sm, tol)

    monkeypatch.setattr(cli, "capacity_solve", recorded)
    code, out, err = run_cli(capsys, "capacity", spec_path("binary_channel"), "--tol", "1e-4")
    assert code == EXIT_OK, err
    assert tols == [1e-4]


@pytest.mark.parametrize("argv", [
    ("solve", "log_mean", "--tau", "1"),
    ("verify", "log_face_grid", "--suite", "saddle"),
])
def test_a_log_face_reads_its_union_support_once(capsys, monkeypatch, tmp_path, argv):
    # the solve on a log face reads the outcomes Gamma_tau charges, and the
    # saddle certificate reads them again for the infinite losses off them:
    # both run on the one Gamma_tau of the row, so one face reduction serves
    spec = json.load(open(spec_path("log_mean"), encoding="utf-8"))
    spec["constraint"] = {"tau_grid": {"from": -1.0, "to": 1.0, "steps": 2}}
    (tmp_path / "log_face_grid.json").write_text(json.dumps(spec))
    reads = []
    face = constraints._face

    def counted(tmat, tau, support=False):
        reads.append(support)
        return face(tmat, tau, support)

    monkeypatch.setattr(constraints, "_face", counted)
    command, name, *rest = argv
    path = spec_path(name) if name == "log_mean" else str(tmp_path / f"{name}.json")
    code, out, err = run_cli(capsys, command, path, *rest)
    assert code == EXIT_OK, err
    taus = 1 if command == "solve" else 2
    assert reads.count(True) == taus, reads


def test_fmt_pins_every_cell_kind():
    cells = [None, "ok", True, False, np.True_, 0.1, -0.0, math.nan, math.inf, -math.inf,
             1e-300]
    assert [cli._fmt(v) for v in cells] == [
        "", "ok", "1", "0", "1", "0.1", "-0", "nan", "inf", "-inf", "1e-300"]


@pytest.mark.parametrize("argv, cap, named", [
    # a STEPS that is not a whole number, on the line or in the spec
    (("sweep", "brier_mean", "--grid", "-0.5", "0.5", "2.7"), None, "--grid"),
    (("sweep", "fractional_steps"), None, "tau_grid"),
    # MAXENT_MAX_N that is not a positive integer
    (("sweep", "brier_mean"), "abc", "'abc'"),
    (("solve", "brier_mean", "--tau", "0.2"), "2.5", "'2.5'"),
    (("sweep", "brier_mean"), "0", "'0'"),
    # ... in subcommands that read no vertex list, too
    (("verify", "log_mean", "--suite", "saddle"), "abc", "'abc'"),
    (("capacity", "binary_channel"), "abc", "'abc'"),
    # a STEPS too large to hold (numpy refuses 1e16 before allocating)
    (("sweep", "brier_mean", "--grid", "0", "1", "1e16"), None, "--grid"),
    # a --seed that numpy's generators refuse
    (("verify", "brier_mean", "--suite", "identities", "--seed", "-1"), None, "--seed"),
    (("verify", "brier_mean", "--suite", "equalizer", "--seed", "-1"), None, "--seed"),
])
def test_invalid_counts_are_parse_errors(capsys, tmp_path, monkeypatch, argv, cap, named):
    if cap is None:
        monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("MAXENT_MAX_N", cap)
    command, name, *rest = argv
    path = spec_path(name)
    if name == "fractional_steps":
        path = write_spec(tmp_path, {
            "outcomes": ["-1", "0", "1"], "loss": {"kind": "brier"},
            "statistic": [[-1.0, 0.0, 1.0]],
            "constraint": {"tau_grid": {"from": -0.5, "to": 0.5, "steps": 3.9}},
        })
    code, out, err = run_cli(capsys, command, path, *rest)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert named in err
    assert ("MAXENT_MAX_N" in err) == (cap is not None)


def test_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "solve", spec_path("brier_mean"), "--frobnicate")
    assert code == EXIT_PARSE


def test_missing_subcommand(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_PARSE


def test_sweep_requires_scalar_statistic(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": ["a", "b", "c"],
        "loss": {"kind": "log"},
        "statistic": [[-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        "constraint": {"tau": [0.1, 0.4]},
    })
    code, _, err = run_cli(capsys, "sweep", path)
    assert code == EXIT_PARSE
    assert "scalar" in err


def test_verify_requires_constraint(capsys):
    code, _, err = run_cli(capsys, "verify", spec_path("binary_channel"),
                           "--suite", "saddle")
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# infeasible constraints -> exit 2


def test_infeasible_tau(capsys):
    code, _, err = run_cli(capsys, "solve", spec_path("brier_mean"), "--tau", "2")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


@pytest.mark.parametrize("loss", ["zero_one", "quadratic", "brier", "log"])
def test_zero_row_target_band(capsys, tmp_path, loss):
    # a zero statistic row reads its target within CONSISTENCY_TOL wherever
    # the CLI reads Gamma_tau: 5e-10 solves and verifies, with the vertex
    # columns of the record; 2e-9 is infeasible in solve and in the suite
    for tau2, want, status in ((5e-10, EXIT_OK, "ok"), (2e-9, EXIT_INFEASIBLE, "infeasible")):
        path = write_spec(tmp_path, three_outcome_spec(
            {"kind": loss}, statistic=[[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            constraint={"tau": [0.2, tau2]}))
        code, out, err = run_cli(capsys, "solve", path)
        assert code == want, err
        if want == EXIT_OK:
            assert json.loads(out)["saddle_verified"] is True
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "saddle")
        rep = json.loads(out)
        assert code == EXIT_OK and rep["passed"] is True
        assert [row["status"] for row in rep["rows"]] == [status]


# ---------------------------------------------------------------------------
# saddle verification failures -> exit 3


def test_failed_saddle_verification_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_saddle",
                        lambda *args: SaddleCheck(1e-3, 2e-3, False))
    code, out, err = run_cli(capsys, "solve", spec_path("brier_mean"), "--tau", "0.5")
    assert code == EXIT_SADDLE
    rec = json.loads(out)
    assert rec["saddle_verified"] is False and rec["method"] == "brier-enum"
    assert err == ("saddle verification failed: bayes_margin=1.000e-03 "
                   "vertex_margin=2.000e-03\n")


# ---------------------------------------------------------------------------
# solver failures -> exit 5


@pytest.mark.parametrize("exc", [MaxIterExceeded, NewtonDivergence, Unbounded])
def test_solver_failure_exit_code(capsys, monkeypatch, exc):
    def fail(model, statistic, gammas, tol):
        return [exc("did not reach tolerance") for _ in gammas]

    monkeypatch.setattr(cli, "_solve_each", fail)
    code, out, err = run_cli(capsys, "solve", spec_path("brier_mean"), "--tau", "0.5")
    assert code == EXIT_SOLVER
    assert out == ""
    assert err == "solver failed: did not reach tolerance\n"


def test_simplex_pivot_limit_is_a_solver_failure(capsys, monkeypatch):
    monkeypatch.setattr(_simplex, "LP_MAX_ITER", 1)
    for argv in (["solve", spec_path("zero_one_mean"), "--tau", "0.3"],
                 ["verify", spec_path("log_mean"), "--suite", "saddle"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_SOLVER, argv
        assert out == ""
        assert err.startswith("solver failed: ") and err.count("\n") == 1, err


def test_simplex_pivot_limit_in_a_sweep_is_an_error_row(capsys, monkeypatch):
    monkeypatch.setattr(_simplex, "LP_MAX_ITER", 1)
    code, out, err = run_cli(capsys, "sweep", spec_path("zero_one_mean"))
    assert code == EXIT_OK
    assert err == ""
    _, rows = read_csv(out)
    assert [row["status"] for row in rows] == ["error"] * 41


# ---------------------------------------------------------------------------
# solve records


def test_solve_brier_interior_record(capsys):
    code, out, _ = run_cli(capsys, "solve", spec_path("brier_mean"), "--tau", "0.5")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["method"] == "brier-enum"
    assert rec["tau_1"] == pytest.approx(0.5, abs=0)
    assert rec["h"] == pytest.approx(2.0 / 3.0 - 0.125, abs=1e-9)
    assert rec["beta0"] == pytest.approx(2.0 / 3.0 + 0.125, abs=1e-9)
    assert rec["beta_1"] == pytest.approx(-0.5, abs=1e-9)
    p = np.array([rec["p_1"], rec["p_2"], rec["p_3"]])
    zeta = np.array([rec["zeta_1"], rec["zeta_2"], rec["zeta_3"]])
    assert np.max(np.abs(p - np.array([1 / 12, 1 / 3, 7 / 12]))) <= 1e-9
    assert np.max(np.abs(zeta - p)) <= 1e-9
    assert rec["is_equalizer"] is True
    assert rec["tau_interior"] is True
    assert rec["saddle_verified"] is True
    assert "h_bits" not in rec


def test_solve_zero_one_record(capsys):
    code, out, _ = run_cli(capsys, "solve", spec_path("zero_one_mean"),
                           "--tau", "0.25")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["h"] == pytest.approx(7.0 / 12.0, abs=1e-9)
    assert rec["saddle_verified"] is True


def test_solve_log_record_with_bits(capsys):
    code, out, _ = run_cli(capsys, "solve", spec_path("log_mean"),
                           "--tau", "0.5", "--bits")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["method"] == "log-newton"
    assert rec["h"] == pytest.approx(0.901234700635, abs=1e-9)
    assert rec["h_bits"] == pytest.approx(1.30020683328, abs=1e-9)
    assert rec["beta0"] == pytest.approx(1.31829229781, abs=1e-9)
    assert rec["beta_1"] == pytest.approx(-0.834115194351, abs=1e-9)
    assert rec["p_3"] == pytest.approx(0.616204060378, abs=1e-9)


def test_solve_bits_ignored_for_brier(capsys):
    code, out, _ = run_cli(capsys, "solve", spec_path("brier_mean"),
                           "--tau", "0.1", "--bits")
    assert code == EXIT_OK
    assert "h_bits" not in json.loads(out)


def test_solve_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "record.json"
    code, out, _ = run_cli(capsys, "solve", spec_path("brier_mean"),
                           "--tau", "0.3", "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv", [("solve", "--tau", "0"), ("sweep",)])
def test_unwritable_out_is_a_parse_error(capsys, tmp_path, argv):
    # the work is done before the write; nothing reaches stdout either
    out_path = str(tmp_path / "missing" / "x.json")
    command, *rest = argv
    code, out, err = run_cli(capsys, command, spec_path("brier_mean"), *rest, "--out", out_path)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert out_path in err


# ---------------------------------------------------------------------------
# sweep CSV


@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_sweep_golden_bytes(capsys, tmp_path, name):
    out_path = tmp_path / (name + ".csv")
    code, out, _ = run_cli(capsys, "sweep", spec_path(name), "--out", str(out_path))
    assert code == EXIT_OK
    golden = open(os.path.join(GOLDEN, name + ".csv"), encoding="utf-8").read()
    assert out == golden
    assert out_path.read_text(encoding="utf-8") == golden


def _identities_golden():
    with open(os.path.join(GOLDEN, "identities.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("line", _identities_golden(),
                         ids=lambda line: f"{line['spec']}-{line['seed']}")
def test_identities_golden_bytes(capsys, line):
    # `verify --suite identities` on the five bundled specs at seeds 0-9,
    # as the per-trial propriety loop reported them
    code, out, _ = run_cli(capsys, "verify", spec_path(line["spec"]), "--suite", "identities",
                           "--seed", line["seed"])
    assert code == EXIT_OK
    assert out == line["stdout"]


def _suites_golden():
    with open(os.path.join(GOLDEN, "suites.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("line", _suites_golden(),
                         ids=lambda line: f"{line['spec']}-{line['suite']}-{line['seed']}")
def test_suites_golden_bytes(capsys, line):
    # `verify --suite pythagorean` (seed 0) and `verify --suite equalizer` at
    # seeds 0-4 on the three bundled sweep specs, as the per-tau checks
    # reported them
    code, out, _ = run_cli(capsys, "verify", spec_path(line["spec"]), "--suite", line["suite"],
                           "--seed", line["seed"])
    assert code == EXIT_OK
    assert out == line["stdout"]


@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_sweep_beyond_the_hull_matches_row_by_row_records(capsys, name):
    # the sweep enumerates the vertex lists of a chunk of the grid at once;
    # each row must be the record of its tau alone, infeasible rows included
    spec = parse_spec(spec_path(name))
    code, out, _ = run_cli(capsys, "sweep", spec_path(name), "--grid", "-1.5", "1.5", "61")
    assert code == EXIT_OK
    lines = [f"# {cli.CSV_SCHEMA}", ",".join(record_columns(3, 1))]
    for tau in np.linspace(-1.5, 1.5, 61):
        g = GammaTau(spec.statistic, [tau])
        try:
            sp = solve(spec.model, g)
            lines.append(",".join(cli.record_row(sp, vertex_columns(spec.model, vertices(g), sp))))
        except Infeasible:
            lines.append(",".join(cli.sentinel_row([tau], "infeasible", 3, 1)))
    assert out == "\n".join(lines) + "\n"
    assert sum(line.startswith("infeasible,") for line in lines) == 20


@pytest.mark.parametrize("argv", [
    ("sweep",),
    ("verify", "--suite", "pythagorean"),
    ("verify", "--suite", "equalizer"),
    ("solve", "--tau", "0.3"),
])
@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_vertex_caps_are_checked_before_any_solve(capsys, monkeypatch, name, argv):
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        raise AssertionError("solved past the vertex cap")

    monkeypatch.setattr(maxent, "solve", counted)
    monkeypatch.setattr(cli, "_solve_each", counted)
    monkeypatch.setenv("MAXENT_MAX_N", "2")
    command, *rest = argv
    code, out, err = run_cli(capsys, command, spec_path(name), *rest)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "too large: N=3 exceeds the enumeration cap 2; raise MAXENT_MAX_N\n"
    assert solves == []


def test_sweep_schema_and_shape(capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_path("brier_mean"))
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == record_columns(3, 1)
    assert len(rows) == 41
    assert all(row["status"] == "ok" for row in rows)
    # cells carry 12 significant digits; formatting must be idempotent
    for row in rows:
        assert row["h"] == f"{float(row['h']):.12g}"


def test_sweep_brier_entropy_concave(capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_path("brier_mean"))
    _, rows = read_csv(out)
    h = np.array([float(r["h"]) for r in rows])
    assert np.all(h[:-2] - 2 * h[1:-1] + h[2:] <= 1e-9)


def test_sweep_log_slope_matches_beta(capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_path("log_mean"))
    _, rows = read_csv(out)
    tau = np.array([float(r["tau_1"]) for r in rows])
    h = np.array([float(r["h"]) for r in rows])
    beta = np.array([float(r["beta_1"]) for r in rows])
    mid = (h[2:] - h[:-2]) / (tau[2:] - tau[:-2])
    # centered slopes of a smooth concave h track the reported multipliers
    # up to the O(step^2) discretization error of the 0.05 grid
    assert np.max(np.abs(mid - beta[1:-1])) <= 1e-2
    assert np.all(np.diff(beta) < 0)


def test_sweep_zero_one_kinks(capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_path("zero_one_mean"))
    _, rows = read_csv(out)
    by_tau = {float(r["tau_1"]): r for r in rows}
    assert float(by_tau[0.0]["h"]) == pytest.approx(2.0 / 3.0, abs=1e-9)
    for kink in (-0.5, 0.5):
        assert float(by_tau[kink]["h"]) == pytest.approx(0.5, abs=1e-9)
    assert float(by_tau[1.0]["h"]) == pytest.approx(0.0, abs=1e-9)


def test_sweep_grid_override_and_sentinels(capsys):
    code, out, _ = run_cli(capsys, "sweep", spec_path("brier_mean"),
                           "--grid", "-1.5", "1.5", "4")
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert [r["status"] for r in rows] == ["infeasible", "ok", "ok", "infeasible"]
    sentinel = rows[0]
    assert float(sentinel["tau_1"]) == -1.5
    # sentinel rows keep the full column count with empty payload cells
    for col in header[2:]:
        assert sentinel[col] == ""


def test_sweep_single_tau_spec(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": ["-1", "0", "1"],
        "loss": {"kind": "brier"},
        "statistic": [[-1.0, 0.0, 1.0]],
        "constraint": {"tau": 0.25},
    })
    code, out, _ = run_cli(capsys, "sweep", path)
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["tau_1"]) == 0.25


# ---------------------------------------------------------------------------
# verification suites


def test_verify_saddle_zero_one(capsys):
    code, out, _ = run_cli(capsys, "verify", spec_path("zero_one_mean"),
                           "--suite", "saddle")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["suite"] == "saddle"
    assert rep["passed"] is True
    assert len(rep["rows"]) == 41
    assert all(r["is_saddle"] for r in rep["rows"] if r["status"] == "ok")


def test_verify_pythagorean_brier(capsys):
    code, out, _ = run_cli(capsys, "verify", spec_path("brier_mean"),
                           "--suite", "pythagorean")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    region = set(rep["equality_region"])
    # equality on the inner branch, plus the one-point constraint sets at the
    # ends where the only feasible law is the optimum itself
    taus = {r["tau"] for r in rep["rows"]}
    assert len(taus) == 41
    assert region == {t for t in taus if abs(t) <= 0.651} | {-1.0, 1.0}
    by_tau = {r["tau"]: r for r in rep["rows"] if r["status"] == "ok"}
    for tau in (0.75, 0.9):
        assert by_tau[tau]["equality"] is False
        assert by_tau[tau]["max_slack"] >= 1e-3
    assert by_tau[0.0]["equality"] is True
    assert all(r["min_slack"] >= -1e-8 for r in by_tau.values())


def test_verify_equalizer_brier(capsys):
    code, out, _ = run_cli(capsys, "verify", spec_path("brier_mean"),
                           "--suite", "equalizer", "--seed", "3")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    probed = [r for r in rep["rows"] if "probe_spread" in r]
    assert probed, "expected equalizer rows with interior probes"
    assert all(r["probe_spread"] <= 1e-7 for r in probed)


def test_verify_conjugacy_log(capsys):
    code, out, _ = run_cli(capsys, "verify", spec_path("log_mean"),
                           "--suite", "conjugacy")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["max_grid_residual"] <= 1e-3
    assert rep["max_matched_residual"] <= 1e-8
    assert rep["fenchel_min"] >= -1e-6
    assert len(rep["rows"]) == 33


def test_verify_conjugacy_fails_outside_slope_window(capsys, tmp_path):
    # at tau = +-0.95 the entropy slope is ~ -+3, beyond the [-2, 2] grid,
    # so the conjugate-envelope estimate must miss and the suite must fail
    path = write_spec(tmp_path, {
        "outcomes": ["-1", "0", "1"],
        "loss": {"kind": "log"},
        "statistic": [[-1.0, 0.0, 1.0]],
        "constraint": {"tau_grid": {"from": -0.95, "to": 0.95, "steps": 5}},
    })
    code, out, _ = run_cli(capsys, "verify", path, "--suite", "conjugacy")
    assert code == EXIT_SUITE
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["max_grid_residual"] > 1e-3


@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_verify_identities(capsys, name):
    code, out, _ = run_cli(capsys, "verify", spec_path(name),
                           "--suite", "identities")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["trials"] == 200
    assert rep["max_entropy_residual"] <= 1e-9
    assert rep["max_divergence_residual"] <= 1e-9
    assert rep["min_propriety_margin"] >= -1e-9


@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_verify_identities_across_seeds(capsys, name):
    for seed in (0, 7, 123, 99991):
        code, out, _ = run_cli(capsys, "verify", spec_path(name),
                               "--suite", "identities", "--seed", str(seed))
        assert code == EXIT_OK
        rep = json.loads(out)
        assert set(rep) == {"suite", "passed", "trials", "max_entropy_residual",
                            "max_divergence_residual", "max_bayes_discrepancy",
                            "min_propriety_margin"}
        assert rep["passed"] is True and rep["trials"] == 200
        assert max(rep["max_entropy_residual"], rep["max_divergence_residual"],
                   rep["max_bayes_discrepancy"]) <= 1e-9


@pytest.mark.parametrize("n", [3, 9])
def test_identity_draws_match_one_dirichlet_call_per_law(n):
    # a change in how numpy draws Dirichlet(1) laws fails here, not silently
    for seed in (0, 7, 123):
        rng = np.random.default_rng(seed)
        parts, weights, q = [], [], []
        for _ in range(200):
            parts.append([rng.dirichlet(np.ones(n)) for _ in range(3)])
            weights.append(rng.dirichlet(np.ones(3)))
            q.append(rng.dirichlet(np.ones(n)))
        block = cli._mixture_draws(seed, n)
        for got, want in zip(block, (parts, weights, q)):
            np.testing.assert_array_equal(got, np.array(want))


@pytest.mark.parametrize("name", BUNDLED_SWEEPS)
def test_identity_suite_residuals_match_mixture_identities(name):
    model = parse_spec(spec_path(name)).model
    parts, weights, q = cli._mixture_draws(5, model.space.n)
    h_lhs, h_rhs, d_lhs, d_rhs = identity_terms(model, parts, weights, q)
    for i in range(len(q)):
        rep = mixture_identities(model, list(parts[i]), weights[i], Distribution(q[i]))
        assert abs(abs(h_lhs[i] - h_rhs[i]) - rep.entropy_residual) <= 1e-15
        assert abs(abs(d_lhs[i] - d_rhs[i]) - rep.div_residual) <= 1e-15


def test_identity_suite_builds_no_distribution_per_trial(capsys, monkeypatch):
    built = []
    post_init = Distribution.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Distribution, "__post_init__", counted)
    for name in BUNDLED_SWEEPS:
        built.clear()
        code, _, _ = run_cli(capsys, "verify", spec_path(name), "--suite", "identities")
        assert code == EXIT_OK
        assert len(built) == 0, name


@pytest.mark.parametrize("suite", ["saddle", "pythagorean", "equalizer"])
def test_vertex_suites_on_a_two_row_statistic(capsys, tmp_path, suite):
    # the suites run once per tau vector, and carry tau as a list for k >= 2
    path = write_spec(tmp_path, {
        "outcomes": ["a", "b", "c", "d"],
        "loss": {"kind": "brier"},
        "statistic": [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0]],
        "constraint": {"tau": [1.2, 0.5]},
    })
    code, out, err = run_cli(capsys, "verify", path, "--suite", suite)
    assert code == EXIT_OK, err
    rep = json.loads(out)
    assert rep["passed"] is True
    assert [r["tau"] for r in rep["rows"]] == [[1.2, 0.5]]
    assert rep["rows"][0]["status"] == "ok"


def test_saddle_suite_past_the_vertex_cap(capsys, tmp_path, monkeypatch):
    # the saddle suite certifies by LP and never reads the vertex list
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    rng = np.random.default_rng(24)
    stat = rng.uniform(-1.0, 1.0, 24)
    path = write_spec(tmp_path, {
        "outcomes": [f"x{i}" for i in range(24)],
        "loss": {"kind": "brier"},
        "statistic": [stat.tolist()],
        "constraint": {"tau": float(stat @ rng.dirichlet(np.ones(24)))},
    }, name="brier24.json")
    code, out, err = run_cli(capsys, "verify", path, "--suite", "saddle")
    assert code == EXIT_OK, err
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["rows"][0]["status"] == "ok"
    code, _, err = run_cli(capsys, "verify", path, "--suite", "equalizer")
    assert code == EXIT_PARSE
    assert "MAXENT_MAX_N" in err


# ---------------------------------------------------------------------------
# capacity reports


def test_capacity_binary_channel(capsys):
    code, out, _ = run_cli(capsys, "capacity", spec_path("binary_channel"),
                           "--bits")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["i_star"] == pytest.approx(0.3680642071684971, abs=1e-9)
    assert rep["i_star_bits"] == pytest.approx(rep["i_star"] / math.log(2.0),
                                               abs=1e-9)
    assert np.max(np.abs(np.array(rep["pi_star"]) - 0.5)) <= 1e-6
    assert rep["cross_check_delta"] <= 1e-6
    assert rep["cross_check_iterations"] == 1   # the uniform prior is optimal
    assert rep["upsilon"] == ["w0", "w1"]
    assert rep["equalizer"] is True
    assert rep["act_kind"] == "density"
    assert rep["gap"] <= 1e-6
    losses = np.array(rep["derived_losses"])
    assert np.max(np.abs(losses - rep["i_star"])) <= 1e-6


def test_capacity_brier_family_matches_grid_search(capsys):
    code, out, _ = run_cli(capsys, "capacity", spec_path("brier_family"))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["i_star"] == pytest.approx(0.1516666667, abs=1e-6)
    assert rep["upsilon"] == ["w0", "w1", "w2"]
    assert rep["act_kind"] == "distribution"
    assert "cross_check_delta" not in rep and "cross_check_iterations" not in rep

    # independent cross-check: coarse prior grid under the mixture-gain value
    from maxentgames import Distribution, brier_model, SampleSpace
    from maxentgames.derived import StatModel, value_of_information

    raw = json.load(open(spec_path("brier_family"), encoding="utf-8"))
    sm = StatModel(brier_model(SampleSpace.of(raw["outcomes"])),
                   tuple(Distribution(np.asarray(r)) for r in raw["model"]))
    best = 0.0
    for a in np.arange(0.0, 1.0 + 1e-12, 0.02):
        for b in np.arange(0.0, 1.0 - a + 1e-12, 0.02):
            v = value_of_information(sm, Distribution(np.array([a, b, 1.0 - a - b])))
            best = max(best, v)
    assert best <= rep["i_star"] + 1e-9
    assert rep["i_star"] - best <= 1e-3


# a log family on which the textbook Blahut-Arimoto updates needed 8,275
# iterations to a 1e-9 gap and did not reach 1e-10 within 10,000; the
# restarted momentum updates reach 1e-9 in 301 and 1e-10 in 302
SLOW_ORACLE_FAMILY = [
    [0.17151829442499592, 0.04997222116103907, 0.10778119823010639, 0.075607111953091,
     0.33734516548170135, 0.04487152123064754, 0.19835120828642522, 0.014553279231993555],
    [0.04274118813116081, 0.42529096029503455, 0.01832877705725338, 0.07524503838828177,
     0.03982725377804093, 0.2251548759826856, 0.15434256944333735, 0.019069336924205506],
    [0.07630719706958788, 0.18043090075529636, 0.10981877037786499, 0.047827242151750035,
     0.12402522480030233, 0.009329068753609546, 0.36382228140818684, 0.08843931468340191],
    [0.23276177279692198, 0.20832955678129364, 0.007081904281235434, 0.01857027522673472,
     0.2876909029927281, 0.03416313326911478, 0.07745386346468125, 0.13394859118729016],
    [0.004648162944478184, 0.15673166314431158, 0.011447000358976544, 0.06015503739192045,
     0.11723273370524472, 0.3167997728702245, 0.09754763633129626, 0.2354379932535478],
    [0.09029337203919312, 0.06417923756280756, 0.08561218195814305, 0.04196054167676382,
     0.048431439596136744, 0.3830657746076271, 0.20180533783863341, 0.08465211472069528],
]


def test_capacity_cross_check_runs_at_the_solver_gap(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": [str(i) for i in range(8)],
        "loss": {"kind": "log"},
        "model": SLOW_ORACLE_FAMILY,
    })
    code, out, err = run_cli(capsys, "capacity", path)
    assert code == EXIT_OK, err
    rep = json.loads(out)
    assert rep["method"] == "frank-wolfe"
    assert rep["gap"] <= 1e-9
    assert rep["cross_check_delta"] <= 1e-12
    assert rep["cross_check_iterations"] <= 1000


def test_capacity_needs_model(capsys):
    code, _, err = run_cli(capsys, "capacity", spec_path("brier_mean"))
    assert code == EXIT_INFEASIBLE
    assert "model" in err


def test_capacity_empty_model(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": ["a", "b"],
        "loss": {"kind": "log"},
        "model": [],
    })
    code, _, err = run_cli(capsys, "capacity", path)
    assert code == EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# round trips and size caps


@pytest.mark.parametrize("name", BUNDLED_SWEEPS + ["binary_channel", "brier_family"])
def test_spec_round_trip(tmp_path, name):
    first = parse_spec(spec_path(name))
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(first.raw), encoding="utf-8")
    second = parse_spec(str(copy))
    assert second.raw == first.raw
    assert second.space.labels == first.space.labels
    assert second.model.kind == first.model.kind
    if first.statistic is None:
        assert second.statistic is None
    else:
        assert np.array_equal(second.statistic.matrix, first.statistic.matrix)
    if first.tau_grid is None:
        assert second.tau_grid is None
    else:
        assert np.array_equal(second.tau_grid, first.tau_grid)
    if first.members is None:
        assert second.members is None
    else:
        assert len(second.members) == len(first.members)
        for a, b in zip(first.members, second.members):
            assert np.array_equal(a.w, b.w)


def _big_log_spec(tmp_path, n=21):
    labels = [f"x{i}" for i in range(n)]
    stat = np.linspace(-1.0, 1.0, n)
    return write_spec(tmp_path, {
        "outcomes": labels,
        "loss": {"kind": "log"},
        "statistic": [stat.tolist()],
        "constraint": {"tau": 0.0},
    }, name="big.json")


def test_brier_solve_below_the_vertex_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    labels = [f"x{i}" for i in range(18)]
    path = write_spec(tmp_path, {
        "outcomes": labels,
        "loss": {"kind": "brier"},
        "statistic": [np.linspace(-1.0, 1.0, 18).tolist()],
        "constraint": {"tau": 0.25},
    }, name="brier18.json")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["method"] == "brier-enum"
    assert rec["saddle_verified"] is True
    p = np.array([rec[f"p_{i + 1}"] for i in range(18)])
    assert abs(float(np.linspace(-1.0, 1.0, 18) @ p) - 0.25) <= 1e-9


def test_cli_solves_a_sixteen_outcome_zero_one_spec(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    stat = np.linspace(-1.0, 1.0, 16)
    path = write_spec(tmp_path, {
        "outcomes": [f"x{i}" for i in range(16)],
        "loss": {"kind": "zero_one"},
        "statistic": [stat.tolist()],
        "constraint": {"tau": 0.3},
    }, name="zero_one16.json")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["method"] == "zero-one-enum"
    assert rec["saddle_verified"] is True
    p = np.array([rec[f"p_{i + 1}"] for i in range(16)])
    assert abs(float(stat @ p) - 0.3) <= 1e-9


def test_zero_one_solve_at_a_hull_vertex(capsys, tmp_path):
    # the seed-81 hull-end problem of test_solvers_at_a_hull_vertex: the
    # zero-one act system is near-singular, so the act is the point-act
    # game's and the record has no beta
    _, g = next((kind, g) for kind, g in problems(seed=81, count=160)
                if kind == "hull_end" and g.k == 2)
    path = write_spec(tmp_path, {
        "outcomes": [f"x{i}" for i in range(g.n)],
        "loss": {"kind": "zero_one"},
        "statistic": g.statistic.matrix.tolist(),
        "constraint": {"tau": g.tau.tolist()},
    }, name="zero_one_hull_end.json")
    code, out, err = run_cli(capsys, "solve", path)
    assert code == EXIT_OK and err == ""
    rec = json.loads(out)
    assert rec["saddle_verified"] is True and rec["method"] == "zero-one-enum"
    assert rec["beta0"] is None and rec["beta_1"] is None and rec["beta_2"] is None
    assert abs(sum(rec[f"zeta_{i + 1}"] for i in range(g.n)) - 1.0) <= 1e-9


def test_cli_refuses_a_tied_twenty_outcome_zero_one_spec(capsys, tmp_path, monkeypatch):
    # ties leave 18 outcomes open after the LP: too many pattern systems
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    path = write_spec(tmp_path, {
        "outcomes": [f"x{i}" for i in range(20)],
        "loss": {"kind": "zero_one"},
        "statistic": [[1.0, 1.0] + [-1.0] * 18],
        "constraint": {"tau": -0.6},
    }, name="zero_one_tied.json")
    code, _, err = run_cli(capsys, "solve", path)
    assert code == EXIT_PARSE
    assert "too large" in err and "left open by the LP" in err


def test_bregman_square_solve_and_sweep(capsys, tmp_path):
    # the Brier score in Bregman form: same record values, and no error rows
    spec = {
        "outcomes": ["a", "b", "c", "d", "e"],
        "loss": {"kind": "bregman", "generator": "square"},
        "statistic": [[-1.0, -0.5, 0.0, 0.5, 1.0]],
        "constraint": {"tau_grid": {"from": -1.0, "to": 1.0, "steps": 21}},
    }
    path = write_spec(tmp_path, spec, name="bregman.json")
    code, out, _ = run_cli(capsys, "solve", path, "--tau", "0.3")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["method"] == "bregman-dual"
    assert rec["saddle_verified"] is True
    spec["loss"] = {"kind": "brier"}
    ref = json.loads(run_cli(capsys, "solve", write_spec(tmp_path, spec), "--tau", "0.3")[1])
    for key in ("h", "beta0", "beta_1", "p_1", "p_3", "p_5"):
        assert rec[key] == pytest.approx(ref[key], abs=1e-12), key
    code, out, _ = run_cli(capsys, "sweep", path)
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 21
    assert all(row["status"] == "ok" for row in rows)


def test_size_cap_blocks_by_default(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    path = _big_log_spec(tmp_path)
    code, _, err = run_cli(capsys, "solve", path)
    assert code == EXIT_PARSE
    assert "MAXENT_MAX_N" in err


def test_statistic_rows_above_the_cap_are_too_large(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "outcomes": list("abcde"), "loss": {"kind": "brier"},
        "statistic": np.hstack([np.eye(4), -np.ones((4, 1))]).tolist(),
        "constraint": {"tau": [0.0] * 4}})
    code, out, err = run_cli(capsys, "solve", path)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "too large: k=4 exceeds the supported cap 3\n"


def test_size_cap_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAXENT_MAX_N", "25")
    path = _big_log_spec(tmp_path)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == EXIT_OK
    rec = json.loads(out)
    # symmetric statistic at tau = 0: the uniform law is maximum entropy
    assert rec["h"] == pytest.approx(math.log(21.0), abs=1e-9)
    assert rec["beta_1"] == pytest.approx(0.0, abs=1e-8)
    assert rec["saddle_verified"] is True


# ---------------------------------------------------------------------------
# loss kinds and reference acts in specs


def three_outcome_spec(loss, **extra):
    spec = {"outcomes": ["-1", "0", "1"], "loss": loss,
            "statistic": [[-1.0, 0.0, 1.0]], "constraint": {"tau": 0.2}}
    spec.update(extra)
    return spec


def test_quadratic_spec_record_carries_a_scalar_act(capsys, tmp_path):
    path = write_spec(tmp_path, three_outcome_spec({"kind": "quadratic"}))
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["method"] == "active-set"
    # every member of Gamma_tau has mean tau, the Bayes act of each
    assert rec["zeta_1"] == pytest.approx(0.2, abs=1e-9)
    assert rec["zeta_2"] is None and rec["zeta_3"] is None
    assert rec["saddle_verified"] is True


def base_measure_spec(base):
    return {"outcomes": list("abcd"), "loss": {"kind": "log"}, "base_measure": base,
            "statistic": [[-1.0, 0.0, 1.0, 2.0]],
            "constraint": {"tau_grid": {"from": -0.5, "to": 1.5, "steps": 9}}}


def test_log_spec_on_a_base_measure(capsys, tmp_path):
    path = write_spec(tmp_path, base_measure_spec([0.5, 1.5, 2.0, 0.7]))
    code, out, _ = run_cli(capsys, "solve", path, "--tau", "0.5")
    assert code == EXIT_OK
    assert json.loads(out)["saddle_verified"] is True
    # no reference: the suite takes the neutral act, the density 1 / 4.7
    code, out, _ = run_cli(capsys, "verify", path, "--suite", "pythagorean")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    assert [row["status"] for row in rep["rows"]] == ["ok"] * 9


def test_base_measure_of_the_wrong_length(capsys, tmp_path):
    path = write_spec(tmp_path, base_measure_spec([0.5, 1.5, 2.0]))
    code, out, err = run_cli(capsys, "solve", path, "--tau", "0.5")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "spec error: base_measure length does not match outcomes\n"


def test_bregman_spec_generators(capsys, tmp_path):
    def solved(loss):
        path = write_spec(tmp_path, three_outcome_spec(loss))
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == EXIT_OK, loss
        return json.loads(out)

    default = solved({"kind": "bregman"})
    assert default["method"] == "bregman-dual"
    assert default == solved({"kind": "bregman", "generator": "xlogx"})
    cube = solved({"kind": "bregman", "generator": "power", "exponent": 3})
    assert cube["saddle_verified"] is True
    assert cube["h"] != solved({"kind": "bregman", "generator": "power"})["h"]
    path = write_spec(tmp_path, three_outcome_spec({"kind": "bregman", "generator": "cosh"}))
    code, _, err = run_cli(capsys, "solve", path)
    assert code == EXIT_PARSE
    assert "spec error" in err and "unknown bregman generator" in err


@pytest.mark.parametrize("loss, reference, kind", [
    ("brier", {"distribution": [0.2, 0.3, 0.5]}, "distribution"),
    ("log", {"density": [0.2, 0.3, 0.5]}, "density"),
    ("quadratic", {"scalar": 0.25}, "scalar"),
    ("zero_one", {"distribution": [0.2, 0.3, 0.5]}, "distribution"),
])
def test_reference_act_forms(capsys, tmp_path, loss, reference, kind):
    path = write_spec(tmp_path, three_outcome_spec({"kind": loss}, reference=reference))
    assert parse_spec(path).reference.kind == kind
    code, out, _ = run_cli(capsys, "verify", path, "--suite", "pythagorean")
    # the suite checks the inequality at the saddle of the game relative to
    # the reference, where it holds
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    assert [row["status"] for row in rep["rows"]] == ["ok"]


@pytest.mark.parametrize("loss, reference", [
    ("log", {"vector": [0.2, 0.3, 0.5]}),        # no act form
    ("log", {"density": [1.0, 1.0, 1.0]}),       # integrates to 3 on the counting base
    ("brier", {"distribution": [0.5, 0.5]}),     # wrong length
    ("brier", {"scalar": 0.25}),                 # wrong act kind for the loss
    ("brier", {"kind": "distribution", "payload": [0.2, 0.3, 0.5]}),   # no act form
])
def test_reference_acts_the_model_rejects(capsys, tmp_path, loss, reference):
    path = write_spec(tmp_path, three_outcome_spec({"kind": loss}, reference=reference))
    code, out, err = run_cli(capsys, "verify", path, "--suite", "pythagorean")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("spec error:")


def bundled_with_reference(tmp_path, name, reference):
    raw = json.loads(open(spec_path(name), encoding="utf-8").read())
    raw["reference"] = reference
    return write_spec(tmp_path, raw)


@pytest.mark.parametrize("name, reference", [
    ("brier_mean", {"distribution": [math.nan, 0.5, 0.5]}),
    ("log_mean", {"density": [math.nan, 0.5, 0.5]}),
])
def test_nan_reference_is_a_spec_error(capsys, tmp_path, name, reference):
    path = bundled_with_reference(tmp_path, name, reference)
    code, out, err = run_cli(capsys, "solve", path, "--tau", "0.3")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("loss, reference", [
    ({"kind": "quadratic"}, {"scalar": math.nan}),
    ({"kind": "quadratic", "values": [-1.0, math.nan, 1.0]}, None),
])
def test_non_finite_quadratic_reference_or_values_is_a_spec_error(capsys, tmp_path, loss,
                                                                  reference):
    path = write_spec(tmp_path, three_outcome_spec(loss, reference=reference))
    code, out, err = run_cli(capsys, "solve", path)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1, err


def test_infinite_reference_loss_is_a_spec_error_in_the_pythagorean_suite(capsys, tmp_path):
    # a zero density is a valid act with loss +inf at its zero; the relative
    # game the suite needs subtracts that loss, so only this suite refuses it
    path = bundled_with_reference(tmp_path, "log_mean", {"density": [0.0, 0.5, 0.5]})
    code, out, err = run_cli(capsys, "verify", path, "--suite", "pythagorean")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1, err
    for argv in (["solve", path, "--tau", "0.3"], ["sweep", path]):
        assert run_cli(capsys, *argv)[0] == EXIT_OK, argv


def test_sweep_error_row(capsys, monkeypatch):
    # one grid tau whose solve diverges becomes an `error` row with empty cells
    spec = spec_path("brier_mean")
    code, clean, _ = run_cli(capsys, "sweep", spec)
    assert code == EXIT_OK
    real_solve_each = cli._solve_each

    def diverging(model, statistic, gammas, tol):
        return [NewtonDivergence("dual Newton stopped") if g.tau[0] == 0.5 else sp
                for g, sp in zip(gammas, real_solve_each(model, statistic, gammas, tol))]

    monkeypatch.setattr(cli, "_solve_each", diverging)
    code, out, _ = run_cli(capsys, "sweep", spec)
    assert code == EXIT_OK
    clean_lines, lines = clean.splitlines(), out.splitlines()
    width = len(lines[1].split(","))
    bad = [i for i, (a, b) in enumerate(zip(clean_lines, lines)) if a != b]
    assert len(lines) == len(clean_lines) and len(bad) == 1
    assert lines[bad[0]] == ",".join(["error", "0.5"] + [""] * (width - 2))


def test_zero_one_sweep_lp_count(capsys, monkeypatch):
    # the bundled zero-one sweep runs its phase-1 LPs as one stack; of its
    # one-LP calls, the interior family picks' union_support LPs went to
    # _face's certificate: 4 are left of 7
    calls = count_lps(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", spec_path("zero_one_mean"))
    assert code == 0
    with open(os.path.join(GOLDEN, "zero_one_mean.csv"), encoding="utf-8") as f:
        assert out == f.read()
    assert len(calls) == 4
