"""Saddle certificates over a tau grid against `verify_saddle` at each tau alone.

`verify.verify_grid` checks the Bayes inequality row by row and runs the
certificate LPs of all its rows stacked (`constraints.max_expectations`,
grouped by the mask of finite losses, on `_simplex.solve_lps`).  Every
SaddleCheck must be the one the one-item `verify_saddle` body gives that row
alone, field for field and bit for bit, and every exception the one it
raises, type and message.  `verify.verify_saddle` is now the one-row call of
`verify_grid`, so the reference is its former body, kept in
test_folded_kernels, on a Gamma_tau with no union support kept on it.  The rows are the solver's own saddle points on Brier, log,
zero-one and Bregman models (log faces hold +inf losses off the face), a
face act checked against an interior Gamma_tau (a margin of +inf), acts of
the wrong size, and taus outside the hull (Infeasible in place).
`cli._suite_saddle` runs one `verify_grid` per chunk; with GRID_CHUNK = 5 its
reports must be those built tau by tau.
"""

import json
import math
import os

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    SampleSpace,
    SaddlePoint,
    Statistic,
    brier_model,
    cli,
    log_model,
    solve,
    zero_one_model,
)
from maxentgames.core import ACT_DISTRIBUTION, Act, Distribution
from maxentgames.losses import bregman_model, xlogx_generator
from maxentgames.verify import verify_grid
from test_folded_kernels import fresh, verify_saddle
from test_solve_grid import assert_same
from test_vertex_lists import grid, statistic

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "specs")

MODELS = {
    "brier": brier_model,
    "log": log_model,
    "zero-one": zero_one_model,
    "bregman": lambda space: bregman_model(space, xlogx_generator()),
}


def alone(model, g, p_star, zeta_star):
    """The one-item verify_saddle body on one row, or the exception it raises."""
    try:
        return verify_saddle(model, fresh(g), p_star, zeta_star)
    except Exception as exc:
        return exc


def grid_rows(rng, model, t, taus):
    """(Gamma_tau, P*, zeta*) per tau: the solver's saddle point where it
    solves, else the uniform law and its Bayes act (an infeasible tau); then
    the first face act against the last interior Gamma_tau and an act of
    the wrong size."""
    n = t.shape[1]
    uniform = Distribution.uniform(n)
    rows, faces, inner = [], [], []
    for tau in taus:
        g = GammaTau(Statistic(t), tau)
        try:
            sp = solve(model, g)
        except Exception:
            rows.append((g, uniform, model.bayes_act(uniform)))
            continue
        rows.append((g, sp.p_star, sp.zeta_star))
        (faces if sp.p_star.w.min() == 0.0 else inner).append(len(rows) - 1)
    if faces and inner:
        rows.append((rows[inner[-1]][0], rows[faces[0]][1], rows[faces[0]][2]))
    rows.insert(int(rng.integers(len(rows) + 1)),
                (rows[0][0], uniform, Act(ACT_DISTRIBUTION, np.full(n + 1, 1.0 / (n + 1)))))
    return rows


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_grid_checks_match_each_row_alone_bitwise(kind):
    rng = np.random.default_rng(20261025)
    seen = set()
    for n in range(3, 9):
        for k in (1, 2):
            t = statistic(rng, n, k, (n + k) % 2 == 0)
            model = MODELS[kind](SampleSpace.of(range(n)))
            rows = grid_rows(rng, model, t, grid(rng, t, 12))
            found = verify_grid(model, *zip(*rows))
            assert len(found) == len(rows)
            for j, (row, check) in enumerate(zip(rows, found)):
                ref = alone(model, *row)
                if isinstance(ref, Exception):
                    assert type(check) is type(ref) and str(check) == str(ref), (n, k, j)
                    seen.add(type(ref).__name__)
                else:
                    assert_same(check, ref, (n, k, j))
                    seen.add("inf" if math.isinf(ref.vertex_margin) else "saddle")
    assert {"saddle", "Infeasible", "DimensionMismatch"} <= seen
    if kind == "log":
        assert "inf" in seen


def test_empty_grid():
    model = brier_model(SampleSpace.of(range(3)))
    assert verify_grid(model, [], [], []) == []


def write_spec(tmp_path, name, steps):
    """A copy of a bundled spec whose grid runs over [-1.5, 1.5] in `steps` taus."""
    with open(os.path.join(SPECS, f"{name}.json")) as fh:
        spec = json.load(fh)
    spec["constraint"] = {"tau_grid": {"from": -1.5, "to": 1.5, "steps": steps}}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("name", ["brier_mean", "log_mean", "zero_one_mean"])
def test_saddle_suite_across_chunks_matches_tau_by_tau(name, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    calls = []
    inner = cli.verify_grid

    def counted(model, gammas, p_stars, zeta_stars):
        calls.append(len(gammas))
        return inner(model, gammas, p_stars, zeta_stars)

    monkeypatch.setattr(cli, "verify_grid", counted)
    spec = cli.parse_spec(write_spec(tmp_path, name, 23))
    report = cli._suite_saddle(spec, None)
    assert len(calls) == 5 and sum(calls) == 15   # chunks of 5; 8 taus outside [-1, 1]
    rows = report["rows"]
    assert [row["status"] for row in rows].count("infeasible") == 8
    for row, tau in zip(rows, spec.tau_grid):
        assert np.float64(row["tau"]).tobytes() == np.float64(tau).tobytes()
        g = GammaTau(spec.statistic, [tau])
        if row["status"] == "infeasible":
            assert abs(tau) > 1.0
            continue
        sp = solve(spec.model, g)
        assert isinstance(sp, SaddlePoint)
        ref = verify_saddle(spec.model, fresh(g), sp.p_star, sp.zeta_star)
        for key, value in (("h", sp.h_star), ("bayes_margin", ref.bayes_margin),
                           ("vertex_margin", ref.vertex_margin)):
            assert np.float64(row[key]).tobytes() == np.float64(value).tobytes(), (tau, key)
        assert row["is_saddle"] is ref.is_saddle
    assert report["passed"] is True


def test_a_failed_check_is_raised_at_its_turn(tmp_path, monkeypatch):
    # the check of one tau in the second chunk raises: the report stops
    # there, after the first chunk's rows were built
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    inner = cli.verify_grid
    built = []

    def failing(model, gammas, p_stars, zeta_stars):
        found = inner(model, gammas, p_stars, zeta_stars)
        built.append(len(found))
        for j, g in enumerate(gammas):
            if g.tau[0] == 0.25:
                found[j] = ArithmeticError("check failed at 0.25")
        return found

    monkeypatch.setattr(cli, "verify_grid", failing)
    spec = cli.parse_spec(write_spec(tmp_path, "brier_mean", 13))
    with pytest.raises(ArithmeticError, match="check failed at 0.25"):
        cli._suite_saddle(spec, None)
    assert built == [3, 5]   # tau = -1.5, -1.25 are outside the hull
