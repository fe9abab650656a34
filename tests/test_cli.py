"""Command-line front end: spec parsing, exit codes, solve records, sweep
CSV schema and golden files, verification suites, capacity reports."""

import json
import math
import os

import numpy as np
import pytest

from maxentgames import cli
from maxentgames._simplex import Unbounded
from maxentgames.maxent import MaxIterExceeded, NewtonDivergence
from maxentgames.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SADDLE,
    EXIT_SOLVER,
    EXIT_SUITE,
    parse_spec,
    record_columns,
)

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


# ---------------------------------------------------------------------------
# solver failures -> exit 5


@pytest.mark.parametrize("exc", [MaxIterExceeded, NewtonDivergence, Unbounded])
def test_solver_failure_exit_code(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("did not reach tolerance")

    monkeypatch.setattr(cli, "solve", fail)
    code, out, err = run_cli(capsys, "solve", spec_path("brier_mean"), "--tau", "0.5")
    assert code == EXIT_SOLVER
    assert out == ""
    assert err == "solver failed: did not reach tolerance\n"


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

    # independent cross-check: coarse prior grid under the mixture-gain value
    from maxentgames import Distribution, brier_model, SampleSpace
    from maxentgames.derived import Prior, StatModel, value_of_information

    raw = json.load(open(spec_path("brier_family"), encoding="utf-8"))
    sm = StatModel(brier_model(SampleSpace.of(raw["outcomes"])),
                   tuple(Distribution(np.asarray(r)) for r in raw["model"]))
    best = 0.0
    for a in np.arange(0.0, 1.0 + 1e-12, 0.02):
        for b in np.arange(0.0, 1.0 - a + 1e-12, 0.02):
            v = value_of_information(sm, Prior(np.array([a, b, 1.0 - a - b])))
            best = max(best, v)
    assert best <= rep["i_star"] + 1e-9
    assert rep["i_star"] - best <= 1e-3


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
