"""Records and certificates a tau chunk at a time against the per-tau bodies.

`maxent._records` checks a chunk's records as one block, and the CLI reads
the vertex columns of its records (`cli._vertex_checks`), the pythagorean
suite and the equalizer suite once per `_grid_chunks` chunk: one
`loss_matrix` call for the chunk's zeta*, one check of its stacked vertex
lists, and `points @ lv` per tau.  The oracles below are the per-tau bodies
they replaced, kept here as they ran: every record, vertex column, slack
and spread must be theirs bit for bit, and every exception must be raised
at the same tau, with the same class.  The grids (from test_vertex_lists)
cross chunks of GRID_CHUNK = 5 taus on statistics with N 3-12 and k 1-3.
"""

import io
import json
import os
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from maxentgames import (
    Distribution,
    GammaTau,
    SampleSpace,
    SaddlePoint,
    Statistic,
    brier_model,
    cli,
    log_model,
    maxent,
    quadratic_model,
    zero_one_model,
)
from maxentgames import losses
from maxentgames._newton import _by_slice
from maxentgames.core import (ACT_DENSITY, ACT_DISTRIBUTION, Act, Infeasible, attempt,
                              distribution_rows, ext_dot, ext_dots)
from maxentgames.divergence import (
    EQUALIZER_TOL,
    PYTHAGOREAN_TOL,
    EqualizerReport,
    PythagoreanReport,
    equalizer_reports,
    pythagorean_reports,
    relative_model,
)
from maxentgames.losses import bregman_model, power_generator, xlogx_generator
from test_solve_grid import assert_same, assert_same_outcome, with_bad_taus
from test_vertex_lists import grid, statistic

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "specs")

MODELS = {
    "brier": brier_model,
    "log": log_model,
    "zero_one": zero_one_model,
    "bregman-xlogx": lambda space: bregman_model(space, xlogx_generator()),
    "bregman-power3": lambda space: bregman_model(space, power_generator(3.0)),
    "quadratic": quadratic_model,
}


# ---------------------------------------------------------------------------
# the per-tau bodies the chunk functions replaced


def oracle_equalizer_check(model, test_points, act, tol=EQUALIZER_TOL):
    vals = ext_dots(distribution_rows(test_points, model.space.n), model.loss_vector(act))
    if np.any(np.isinf(vals)):
        finite = vals[np.isfinite(vals)]
        spread = np.inf if finite.size != vals.size else 0.0
        return EqualizerReport(False, float(spread), vals)
    spread = float(vals.max() - vals.min()) if vals.size else 0.0
    return EqualizerReport(spread <= tol, spread, vals)


def oracle_pythagorean_check(model, test_points, p_star, zeta_star, zeta0):
    points = distribution_rows(test_points, model.space.n)
    lv0 = model.loss_vector(zeta0)
    pivot = ext_dot(p_star.w, lv0) - model.entropy(p_star)
    slacks = ext_dots(points, lv0) - ext_dots(points, model.loss_vector(zeta_star)) - pivot
    min_slack = float(slacks.min()) if slacks.size else 0.0
    max_slack = float(slacks.max()) if slacks.size else 0.0
    equality = bool(abs(min_slack) <= PYTHAGOREAN_TOL and abs(max_slack) <= PYTHAGOREAN_TOL)
    return PythagoreanReport(slacks, min_slack, max_slack, equality)


def oracle_vertex_columns(model, vs, sp):
    rep = oracle_equalizer_check(model, vs.points, sp.zeta_star)
    margin = float(max(rep.values)) - ext_dot(sp.p_star.w, model.loss_vector(sp.zeta_star))
    return bool(rep.is_equalizer), float(margin)


def oracle_suite_pythagorean(spec, args):
    ref = cli._reference_act(spec)
    game = spec.model if spec.reference is None else relative_model(spec.model, ref)
    rows, passed, equality_taus = [], True, []
    chunks = cli._grid_chunks(game, spec.statistic, cli._suite_taus(spec), None, True)
    for tau, _, sp, vs in (row for chunk in chunks for row in chunk):
        if not cli._solved(rows, tau, sp):
            continue
        rep = oracle_pythagorean_check(spec.model, vs.points, sp.p_star, sp.zeta_star, ref)
        rows.append({"tau": cli._cell(tau), "status": "ok", "min_slack": rep.min_slack,
                     "max_slack": rep.max_slack, "equality": rep.equality})
        if rep.equality:
            equality_taus.append(cli._cell(tau))
        passed = passed and rep.min_slack >= -1e-8
    return {"suite": "pythagorean", "passed": passed, "rows": rows,
            "equality_region": equality_taus}


def oracle_suite_equalizer(spec, args):
    rng = np.random.default_rng(args.seed)
    rows, passed = [], True
    chunks = cli._grid_chunks(spec.model, spec.statistic, cli._suite_taus(spec), None, True)
    for tau, _, sp, vs in (row for chunk in chunks for row in chunk):
        if not cli._solved(rows, tau, sp):
            continue
        rep = oracle_equalizer_check(spec.model, vs.points, sp.zeta_star)
        row = {"tau": cli._cell(tau), "status": "ok", "vertex_spread": rep.spread,
               "is_equalizer": rep.is_equalizer}
        if rep.is_equalizer and vs.m >= 2:
            lam = rng.dirichlet(np.ones(vs.m), size=32)
            probes = lam @ vs.points
            prep = oracle_equalizer_check(spec.model, probes, sp.zeta_star, tol=1e-7)
            row["probe_spread"] = prep.spread
            passed = passed and prep.spread <= 1e-7
        rows.append(row)
    return {"suite": "equalizer", "passed": passed, "rows": rows}


def oracle_records(model, statistic, drafts):
    out, losses = list(drafts), {}
    live = [i for i, draft in enumerate(drafts) if not isinstance(draft, Exception)]
    if live:
        found, errors = _by_slice(lambda acts: (model.loss_matrix(acts),),
                                  np.array([drafts[i].zeta.payload for i in live]))
        for r, i in enumerate(live):
            if r in errors:
                out[i] = errors[r]
            else:
                losses[i] = found[0][r]
    linear = dict.fromkeys(losses, False)
    fit = [i for i, lv in losses.items() if np.isfinite(lv).all()]
    if fit:
        found, errors = _by_slice(lambda ys: maxent._affine_fits(statistic.matrix, ys),
                                  np.array([losses[i] for i in fit]))
        for r, i in enumerate(fit):
            linear[i] = errors[r] if r in errors else found[1][r] <= maxent.LINEAR_FIT_TOL
    for i, lv in losses.items():
        out[i] = linear[i] if isinstance(linear[i], Exception) else attempt(
            oracle_record, drafts[i], lv, linear[i])
    return out


def oracle_record(draft, lv, is_linear):
    g, p_star, zeta, h, beta0, beta, gap, method, hull, act_family = draft
    is_regular = False
    if beta is not None:
        supp = p_star.support(1e-9)
        fitted = beta0 + g.statistic.matrix[:, supp].T @ beta
        is_regular = bool(np.max(np.abs(fitted - lv[supp])) <= maxent.LINEAR_FIT_TOL)
    return SaddlePoint(
        tau=g.tau, p_star=p_star, zeta_star=zeta, h_star=float(h) + 0.0,
        beta0=None if beta is None else float(beta0) + 0.0,
        beta=None if beta is None else np.asarray(beta, float) + 0.0,
        is_linear=bool(is_linear), is_regular=is_regular, tau_interior=hull == "interior",
        bayes_margin=float(abs(ext_dot(p_star.w, lv) - h)), gap=float(gap), method=method,
        act_family=act_family)


def oracle_sweep_columns(model, chunks):
    return [attempt_columns(oracle_vertex_columns, model, vs, sp)
            for chunk in chunks for _, _, sp, vs in chunk]


# ---------------------------------------------------------------------------
# helpers


def attempt_columns(fn, *args):
    """fn(*args) for a solved row, the row's exception otherwise, or the
    exception fn raises."""
    sp = args[-1]
    if not isinstance(sp, SaddlePoint):
        return sp
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def chunk_columns(model, chunks):
    """The vertex columns of every row, as `cmd_sweep` reads them."""
    out = []
    for chunk in chunks:
        checks = iter(cli._vertex_checks(model, cli._solved_pairs(chunk)))
        for _, _, sp, _ in chunk:
            out.append(attempt_columns(lambda sp: cli._columns(sp, *next(checks)), sp))
    return out


def same_class(found, ref, where):
    """Both the same values bit for bit, or exceptions of one class."""
    if isinstance(ref, Exception):
        assert type(found) is type(ref), (where, found, ref)
    else:
        assert_same(found, ref, where)


def same_report(found, ref, where):
    """Suite reports equal, floats bit for bit."""
    assert type(found) is type(ref), where
    if isinstance(ref, dict):
        assert list(found) == list(ref), where
        for key in ref:
            same_report(found[key], ref[key], (where, key))
    elif isinstance(ref, list):
        assert len(found) == len(ref), where
        for i, (a, b) in enumerate(zip(found, ref)):
            same_report(a, b, (where, i))
    else:
        assert_same(found, ref, where)


def run_suite(fn, spec, args):
    try:
        return fn(spec, args)
    except Exception as exc:
        return exc


def same_suite(found, ref, where):
    if isinstance(ref, Exception):
        assert type(found) is type(ref), (where, found, ref)
        assert str(found) == str(ref), where
    else:
        same_report(found, ref, where)


def make_spec(model, t, reference=None):
    return cli.ProblemSpec(model.space, model, Statistic(t), None, None, reference, None, {})


def cases():
    """(n, k, grid size): N 3-12 with k 1-3."""
    for n in range(3, 13):
        for k in (1, 2, 3):
            yield n, k, 12 if n <= 6 else 6


# ---------------------------------------------------------------------------
# the record step and the vertex columns


@pytest.mark.parametrize("kind", list(MODELS))
def test_records_and_vertex_columns_match_the_per_tau_bodies_bitwise(monkeypatch, kind):
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    rng = np.random.default_rng(20261101)
    seen = set()
    for n, k, count in cases():
        t = statistic(rng, n, k, (n + k) % 2 == 0)
        taus = with_bad_taus(rng, grid(rng, t, count))
        model = MODELS[kind](SampleSpace.of(range(n)))
        chunks = list(cli._grid_chunks(model, Statistic(t), taus, None, True))
        with monkeypatch.context() as patched:
            patched.setattr(maxent, "_records", oracle_records)
            ref_chunks = list(cli._grid_chunks(model, Statistic(t), taus, None, True))
        rows = [row for chunk in chunks for row in chunk]
        ref_rows = [row for chunk in ref_chunks for row in chunk]
        found = chunk_columns(model, chunks)
        want = oracle_sweep_columns(model, chunks)
        for (tau, _, sp, _), (_, _, ref_sp, _), cols, ref_cols in zip(rows, ref_rows, found,
                                                                       want):
            where = (n, k, tuple(np.ravel(tau)))
            assert_same_outcome(sp, ref_sp, where)
            same_class(cols, ref_cols, where)
            if isinstance(sp, SaddlePoint):
                seen.add(sp.method)
                seen.add(("is_regular", sp.is_regular))
                seen.add(("is_equalizer", cols[0]))
                if np.isinf(model.loss_vector(sp.zeta_star)).any():
                    seen.add("infinite losses")
            else:
                seen.add(type(sp).__name__)
    expected = {"Infeasible", "DimensionMismatch", ("is_equalizer", True),
                ("is_regular", True), ("is_regular", False)}
    if kind in ("log", "bregman-xlogx"):
        expected.add("infinite losses")
    else:
        expected.add(("is_equalizer", False))
    assert expected <= seen, expected - seen


def test_records_of_made_drafts_match_the_per_tau_body_bitwise():
    # drafts the solvers seldom give: P* charging an outcome with a weight
    # above or below the support cut 1e-9 where the loss leaves the affine
    # representation, acts with an infinite loss where P* has weight or
    # none, and a NaN loss row
    model = log_model(SampleSpace.of(range(4)))
    t = np.array([[-1.0, 0.0, 0.5, 1.0]])
    stat = Statistic(t)
    beta0, beta = 1.2, np.array([0.3])
    tail = np.exp(-(beta0 + beta[0] * t[0, 1:]))   # the loss is affine off outcome 0
    drafts = []
    for first in (1e-6, 1e-10, 0.0, 0.25):
        w = np.concatenate([[first], (1.0 - first) * tail / tail.sum()])
        p = Distribution(w)
        g = GammaTau(stat, t @ p.w)
        for q in (np.concatenate([[1.0 - tail.sum()], tail]),
                  np.concatenate([[0.0], tail / tail.sum()])):
            drafts.append(maxent._Draft(g, p, Act(ACT_DENSITY, q), model.entropy(p), beta0, beta,
                                        0.0, "made", maxent._hull_class(g)))
    found = maxent._records(model, stat, drafts)
    for i, (sp, want) in enumerate(zip(found, oracle_records(model, stat, drafts))):
        assert_same_outcome(sp, want, i)
    assert {sp.is_regular for sp in found} == {True, False}
    assert np.isinf([sp.bayes_margin for sp in found]).any()
    nan = armed_model("nan")
    nan.armed = True
    stat = Statistic(np.array([[-1.0, -0.4, 0.1, 0.5, 1.0]]))
    drafts = [d for d in (_brier_draft(nan, stat, tau) for tau in np.linspace(-0.9, 0.9, 9))]
    found = maxent._records(nan, stat, drafts)
    for i, (sp, want) in enumerate(zip(found, oracle_records(nan, stat, drafts))):
        assert_same_outcome(sp, want, i)
    assert {type(sp).__name__ for sp in found} == {"SaddlePoint", "UndefinedExpectation"}


def _brier_draft(model, stat, tau):
    """The draft of a Brier saddle point, as the grid solver hands it to
    `_records`."""
    sp = maxent.solve(brier_model(model.space), GammaTau(stat, [tau]))
    return maxent._Draft(GammaTau(stat, [tau]), sp.p_star, sp.zeta_star, sp.h_star, sp.beta0,
                         sp.beta, sp.gap, sp.method, "interior")


# ---------------------------------------------------------------------------
# the pythagorean and equalizer suites


@pytest.mark.parametrize("kind", list(MODELS))
def test_suites_match_the_per_tau_bodies_bitwise(monkeypatch, kind):
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    rng = np.random.default_rng(20261102)
    probed = 0
    for n, k, count in cases():
        t = statistic(rng, n, k, (n + k) % 2 == 0)
        taus = grid(rng, t, count)
        model = MODELS[kind](SampleSpace.of(range(n)))
        monkeypatch.setattr(cli, "_suite_taus", lambda spec: taus)
        reference = None
        if (n + k) % 3 == 0 or cli.find_neutral(model) is None:
            law = rng.dirichlet(np.ones(n))
            reference = model.bayes_act(Distribution(law / law.sum()))
        spec = make_spec(model, t, reference)
        for seed in (0, n):
            args = SimpleNamespace(seed=seed)
            where = (n, k, seed)
            found = run_suite(cli._suite_equalizer, spec, args)
            same_suite(found, run_suite(oracle_suite_equalizer, spec, args), where)
            if isinstance(found, dict):
                probed += sum("probe_spread" in row for row in found["rows"])
        same_suite(run_suite(cli._suite_pythagorean, spec, None),
                   run_suite(oracle_suite_pythagorean, spec, None), (n, k))
    assert probed > 0


def test_stacked_point_checks_keep_each_blocks_rule():
    # a chunk's point blocks are checked as one stack; where that raises,
    # each block takes distribution_rows' own outcome, and a weight within
    # the clamp is clamped as there
    model = brier_model(SampleSpace.of(range(3)))
    act = Act(ACT_DISTRIBUTION, [0.2, 0.3, 0.5])
    ref = model.bayes_act(Distribution([0.5, 0.25, 0.25]))
    p_star = Distribution([0.2, 0.3, 0.5])
    good = [[0.2, 0.3, 0.5], [0.5, 0.5 + 1e-13, -1e-13]]
    odd = [[[np.nan, 0.5, 0.5]], [[0.6, 0.5, -1e-11]], [[0.3, 0.3, 0.3]], [[0.25] * 4],
           [[0.2, 0.3, 0.5], [0.2, 0.8]], []]
    for blocks in ([good, np.array(good)], [good, *odd, np.array(good)], [*odd[:2]]):
        lvs = [model.loss_vector(act)] * len(blocks)
        eq = equalizer_reports(model, blocks, lvs)
        py = pythagorean_reports(model, blocks, [p_star] * len(blocks), lvs,
                                 model.loss_vector(ref))
        for i, block in enumerate(blocks):
            want = attempt(oracle_equalizer_check, model, block, act)
            same_class(eq[i], want, i)
            if not isinstance(want, Exception):
                assert_same(eq[i].values, want.values, i)
            want = attempt(oracle_pythagorean_check, model, block, p_star, act, ref)
            same_class(py[i], want, i)


# ---------------------------------------------------------------------------
# exceptions raised at their tau's turn


def armed_model(fault):
    """A Brier model whose loss vector, once `armed` is set, raises
    ("raise") or puts NaN at the first outcome ("nan") for the acts whose
    first weight lies in a band; `_records` runs unarmed, so only the
    certificates see the fault."""
    model = brier_model(SampleSpace.of(range(5)))
    inner = model.loss_vector
    model.armed = False

    def loss_vector(act):
        lv = inner(act)
        if model.armed and 0.2 < act.as_array()[0] < 0.3:
            if fault == "raise":
                raise ArithmeticError(f"refused act {act.as_array()[0]!r}")
            lv = lv.copy()
            lv[0] = np.nan
        return lv

    model.loss_vector = loss_vector
    return model


@pytest.mark.parametrize("fault", ["raise", "nan", "no-vertex"])
def test_certificate_errors_come_at_their_tau(monkeypatch, fault):
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    model = armed_model(fault) if fault != "no-vertex" else brier_model(SampleSpace.of(range(5)))
    t = np.array([[-1.0, -0.4, 0.1, 0.5, 1.0]])
    taus = np.linspace(-1.0, 1.0, 23)[:, None]
    inner_chunks, inner_lists = cli._grid_chunks, cli.vertex_lists

    def chunks(*args):
        for chunk in inner_chunks(*args):
            model.armed = True
            yield chunk
            model.armed = False

    def vertex_lists(stat, ts):
        # every third solved tau of a chunk gets no vertex
        return [Infeasible(f"no vertex at {tau}") if i % 3 == 1 else vs
                for i, (tau, vs) in enumerate(zip(ts, inner_lists(stat, ts)))]

    monkeypatch.setattr(cli, "_grid_chunks", chunks)
    if fault == "no-vertex":
        monkeypatch.setattr(cli, "vertex_lists", vertex_lists)
    rows = list(cli._grid_chunks(model, Statistic(t), taus, None, True))
    model.armed = True
    found = chunk_columns(model, rows)
    want = oracle_sweep_columns(model, rows)
    model.armed = False
    kinds = []
    for i, (cols, ref) in enumerate(zip(found, want)):
        same_class(cols, ref, i)
        kinds.append(type(cols).__name__)
    expected = {"raise": "ArithmeticError", "nan": "UndefinedExpectation",
                "no-vertex": "Infeasible"}[fault]
    assert expected in kinds and "tuple" in kinds, kinds
    # the CLI: the sweep's error and infeasible rows, and the suites' first error
    monkeypatch.setattr(cli, "parse_spec", lambda path: cli.ProblemSpec(
        model.space, model, Statistic(t), None, taus[:, 0], None, None, {}))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["sweep", "spec.json"]) == cli.EXIT_OK
    statuses = [line.split(",")[0] for line in out.getvalue().splitlines()[2:]]
    ref_statuses = ["ok" if isinstance(r, tuple) else
                    "infeasible" if isinstance(r, Infeasible) else "error" for r in want]
    assert statuses == ref_statuses
    spec = cli.parse_spec("spec.json")
    for seed in (0, 1):
        args = SimpleNamespace(seed=seed)
        same_suite(run_suite(cli._suite_equalizer, spec, args),
                   run_suite(oracle_suite_equalizer, spec, args), seed)
    same_suite(run_suite(cli._suite_pythagorean, spec, None),
               run_suite(oracle_suite_pythagorean, spec, None), "pythagorean")


# ---------------------------------------------------------------------------
# what a sweep and a suite build


def test_a_sweep_builds_each_loss_matrix_once_per_chunk(monkeypatch):
    # the records and the vertex columns of a chunk each take one loss_matrix
    # call, and no record takes a loss_vector call; a pythagorean suite
    # builds L(., ref) once, after find_neutral's one check of the neutral act
    calls = []
    for name in ("loss_vector", "loss_matrix"):
        inner = getattr(losses.ZeroOneModel, name)

        def counted(self, *args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(self, *args)

        monkeypatch.setattr(losses.ZeroOneModel, name, counted)
    path = os.path.join(SPECS, "zero_one_mean.json")
    for argv, chunk in ((["sweep", path], 256), (["sweep", path], 5),
                        (["verify", path, "--suite", "equalizer"], 5)):
        monkeypatch.setattr(cli, "GRID_CHUNK", chunk)
        del calls[:]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_OK
        chunks = -(-41 // chunk)
        assert calls == ["loss_matrix"] * (2 * chunks), (argv, chunk, calls)
    monkeypatch.setattr(cli, "GRID_CHUNK", 256)
    del calls[:]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", path, "--suite", "pythagorean"]) == cli.EXIT_OK
    assert calls.count("loss_vector") == 2 and calls.count("loss_matrix") == 2, calls


def test_a_relative_pythagorean_suite_builds_the_reference_losses_twice(monkeypatch, tmp_path):
    # with a spec reference, L(., ref) is built by the spec check and by the
    # relative game; the suite reads the relative game's copy
    calls = []
    inner = losses.BrierModel.loss_vector

    def counted(self, act):
        calls.append(act.payload.copy())
        return inner(self, act)

    monkeypatch.setattr(losses.BrierModel, "loss_vector", counted)
    with open(os.path.join(SPECS, "brier_mean.json")) as fh:
        raw = json.load(fh)
    raw["reference"] = {"distribution": [0.5, 0.3, 0.2]}
    path = tmp_path / "brier_relative.json"
    path.write_text(json.dumps(raw))
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", str(path), "--suite", "pythagorean"]) == cli.EXIT_OK
    report = json.loads(out.getvalue())
    assert report["passed"] is True and len(report["rows"]) == 41
    assert len(calls) == 2, calls
    for payload in calls:
        assert payload.tolist() == [0.5, 0.3, 0.2]
