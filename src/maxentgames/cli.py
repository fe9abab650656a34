"""Command-line front end: JSON problem specs in, records and reports out.

Subcommands:

- solve: one saddle point, emitted as a JSON record, verified before exit
- sweep: a tau grid, emitted as versioned CSV (one record row per tau)
- verify: named verification suites with machine-readable reports
- capacity: the derived-game capacity of a finite model list

Exit codes: 0 success, 1 parse/usage error, 2 infeasible, 3 saddle
verification failure, 4 suite failure, 5 solver failure (an iterative solver
or the LP did not reach its tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constraints import GammaTau, VertexSet, check_sizes, max_n, vertex_lists
from .core import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    ACT_SCALAR,
    Act,
    BaseMeasure,
    CombinatorialBlowup,
    DimensionMismatch,
    Distribution,
    Infeasible,
    SampleSpace,
    Statistic,
    _checked_rows,
    attempt,
    ext_dot,
    ext_dots,
    raised,
)
from .derived import (
    StatModel,
    blahut_arimoto,
    capacity_gap_target,
    capacity_solve,
    equalization_report,
)
from .divergence import (
    PYTHAGOREAN_TOL,
    EqualizerReport,
    InfiniteReferenceLoss,
    _loss_rows,
    equalizer_reports,
    find_neutral,
    identity_terms,
    pythagorean_reports,
    relative_model,
)
from .losses import (
    LogModel,
    LossModel,
    bregman_model,
    brier_model,
    check_proper,
    log_model,
    power_generator,
    quadratic_model,
    square_generator,
    xlogx_generator,
    zero_one_model,
    ProprietyViolation,
)
from .maxent import (
    SaddlePoint,
    _solve_each,
    conjugacy_check,
)
from .verify import verify_grid, verify_saddle

CSV_SCHEMA = "maxentgames-sweep v1"
LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_SADDLE = 3
EXIT_SUITE = 4
EXIT_SOLVER = 5

GRID_CHUNK = 256   # sweep and suite taus solved, then enumerated, per chunk
PROBE_TOL = 1e-7   # spread of E_P L(X, zeta*) over the equalizer suite's probe laws


class SpecError(ValueError):
    """Problem spec file is missing, malformed, or inconsistent."""


@dataclass
class ProblemSpec:
    space: SampleSpace
    model: LossModel
    statistic: Statistic | None
    tau: np.ndarray | None
    tau_grid: np.ndarray | None
    reference: Act | None
    members: list | None
    raw: dict


def parse_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecError("spec must be a JSON object")
    try:
        return _interpret_spec(raw)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad spec: {exc}") from exc


def _interpret_spec(raw: dict) -> ProblemSpec:
    if "outcomes" not in raw:
        raise SpecError("spec needs an 'outcomes' list")
    space = SampleSpace.of(raw["outcomes"])
    base = None
    if raw.get("base_measure") is not None:
        base = BaseMeasure(np.asarray(raw["base_measure"], dtype=float))
        if base.n != space.n:
            raise SpecError("base_measure length does not match outcomes")
    loss_cfg = raw.get("loss")
    if not isinstance(loss_cfg, dict) or "kind" not in loss_cfg:
        raise SpecError("spec needs loss: {kind: ...}")
    model = _build_model(space, base, loss_cfg)
    statistic = None
    if raw.get("statistic") is not None:
        statistic = Statistic(np.asarray(raw["statistic"], dtype=float))
        if statistic.n != space.n:
            raise SpecError("statistic column count does not match outcomes")
    tau = None
    tau_grid = None
    constraint = raw.get("constraint")
    if constraint is not None:
        if "tau" in constraint:
            tau = np.atleast_1d(np.asarray(constraint["tau"], dtype=float))
        elif "tau_grid" in constraint:
            gr = constraint["tau_grid"]
            tau_grid = _tau_grid(gr["from"], gr["to"], gr["steps"], "tau_grid")
        else:
            raise SpecError("constraint needs 'tau' or 'tau_grid'")
        if statistic is None:
            raise SpecError("a constraint requires a statistic")
    reference = None
    if raw.get("reference") is not None:
        reference = _build_act(raw["reference"])
        model.loss_vector(reference)   # a reference the model rejects is a spec error
    members = None
    if raw.get("model") is not None:
        members = [Distribution(np.asarray(row, dtype=float)) for row in raw["model"]]
    return ProblemSpec(space, model, statistic, tau, tau_grid,
                       reference, members, raw)


def _build_model(space: SampleSpace, base: BaseMeasure | None, cfg: dict) -> LossModel:
    kind = cfg["kind"]
    if kind == "brier":
        return brier_model(space)
    if kind == "log":
        return log_model(space, base)
    if kind == "zero_one":
        return zero_one_model(space)
    if kind == "quadratic":
        return quadratic_model(space, cfg.get("values"))
    if kind == "bregman":
        gen_name = cfg.get("generator", "xlogx")
        if gen_name == "xlogx":
            gen = xlogx_generator()
        elif gen_name == "square":
            gen = square_generator(space.n)
        elif gen_name == "power":
            gen = power_generator(float(cfg.get("exponent", 2.0)))
        else:
            raise SpecError(f"unknown bregman generator {gen_name!r}")
        return bregman_model(space, gen, base)
    raise SpecError(f"unknown loss kind {kind!r}")


def _build_act(cfg: dict) -> Act:
    if "distribution" in cfg:
        return Act(ACT_DISTRIBUTION, np.asarray(cfg["distribution"], dtype=float))
    if "density" in cfg:
        return Act(ACT_DENSITY, np.asarray(cfg["density"], dtype=float))
    if "scalar" in cfg:
        return Act(ACT_SCALAR, float(cfg["scalar"]))
    raise SpecError("reference act needs distribution / density / scalar")


# ---------------------------------------------------------------------------
# record formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return f"{float(value):.12g}"


def record_columns(n: int, k: int) -> list:
    cols = ["status"]
    cols += [f"tau_{i + 1}" for i in range(k)]
    cols += ["h", "beta0"]
    cols += [f"beta_{i + 1}" for i in range(k)]
    cols += [f"p_{i + 1}" for i in range(n)]
    cols += [f"zeta_{i + 1}" for i in range(n)]
    cols += ["is_linear", "is_regular", "is_equalizer", "tau_interior",
             "bayes_margin", "vertex_margin", "gap", "method"]
    return cols


def _vertex_checks(model: LossModel, solved: list) -> list:
    """(L(., zeta*), the `equalizer_check` report of zeta* on the vertices)
    of each (saddle point, vertex list) pair, either one the exception kept
    in its place: one `loss_matrix` call and one check of the stacked
    vertices for the whole list."""
    losses = _loss_rows(model, [sp.zeta_star for sp, _ in solved])
    return list(zip(losses, equalizer_reports(model, [vs.points for _, vs in solved], losses)))


def _columns(sp: SaddlePoint, lv, rep):
    """(is_equalizer, vertex_margin) from a record's `_vertex_checks` pair."""
    rep = raised(rep)
    vals = rep.values
    # the first largest value, as built-in max takes it, sign of zero included
    margin = float(vals[vals.argmax()]) - ext_dot(sp.p_star.w, lv)
    return bool(rep.is_equalizer), float(margin)


def vertex_columns(model: LossModel, vs: VertexSet, sp: SaddlePoint):
    """(is_equalizer, vertex_margin) of a record, from the vertex list of
    Gamma_tau: E_V L(X, zeta*) is constant over the vertices V, and the
    largest E_V L(X, zeta*) minus E_P* L(X, zeta*).  The sweep reads them a
    chunk at a time (`_vertex_checks`), with the same numbers."""
    return _columns(sp, *_vertex_checks(model, [(sp, vs)])[0])


def record_values(sp: SaddlePoint, columns) -> dict:
    """Native-typed record, its vertex columns the (is_equalizer,
    vertex_margin) pair `columns` (`vertex_columns`); the CSV row is its
    _fmt image, column for column."""
    n, k = sp.p_star.n, sp.tau.size
    vals: dict = {"status": "ok"}
    for i, v in enumerate(np.atleast_1d(sp.tau)):
        vals[f"tau_{i + 1}"] = float(v)
    vals["h"] = float(sp.h_star)
    vals["beta0"] = None if sp.beta0 is None else float(sp.beta0)
    betas = [None] * k if sp.beta is None else [float(b) for b in np.atleast_1d(sp.beta)]
    for i, b in enumerate(betas):
        vals[f"beta_{i + 1}"] = b
    for i, v in enumerate(sp.p_star.w):
        vals[f"p_{i + 1}"] = float(v)
    if sp.zeta_star.kind == ACT_SCALAR:
        zeta = [float(sp.zeta_star.payload)] + [None] * (n - 1)
    else:
        zeta = [float(v) for v in sp.zeta_star.as_array()]
    for i, v in enumerate(zeta):
        vals[f"zeta_{i + 1}"] = v
    vals["is_linear"] = bool(sp.is_linear)
    vals["is_regular"] = bool(sp.is_regular)
    vals["is_equalizer"], vals["vertex_margin"] = columns
    vals["tau_interior"] = bool(sp.tau_interior)
    vals["bayes_margin"] = float(sp.bayes_margin)
    vals["gap"] = float(sp.gap)
    vals["method"] = sp.method
    return vals


def record_row(sp: SaddlePoint, columns) -> list:
    vals = record_values(sp, columns)
    return [_fmt(vals[c]) for c in record_columns(sp.p_star.n, sp.tau.size)]


def sentinel_row(tau, status: str, n: int, k: int) -> list:
    cells = [status]
    cells += [_fmt(v) for v in np.atleast_1d(np.asarray(tau, dtype=float))]
    width = len(record_columns(n, k))
    cells += [""] * (width - len(cells))
    return cells


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def _emit(text: str, out_path: str | None) -> None:
    """Write text to --out, when given, then to stdout; an --out that cannot
    be written is a usage error, and stdout stays empty."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write --out {out_path}: {exc.strerror}") from None
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _require_statistic(spec: ProblemSpec) -> Statistic:
    if spec.statistic is None:
        raise SpecError("this command needs a statistic in the spec")
    return spec.statistic


def cmd_solve(args) -> int:
    spec = parse_spec(args.spec)
    tau = args.tau if args.tau is not None else spec.tau
    if tau is None:
        raise SpecError("solve needs --tau or a constraint.tau in the spec")
    statistic = _require_statistic(spec)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))[None]
    ((_, g, sp, vs),) = next(_grid_chunks(spec.model, statistic, taus, args.tol, True))
    sp = raised(sp)
    record = record_values(sp, vertex_columns(spec.model, vs, sp))
    if args.bits and isinstance(spec.model, LogModel):
        record["h_bits"] = sp.h_star / LN2
    check = verify_saddle(spec.model, g, sp.p_star, sp.zeta_star)
    record["saddle_verified"] = check.is_saddle
    _emit(json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n", args.out)
    if not check.is_saddle:
        sys.stderr.write(
            f"saddle verification failed: bayes_margin={check.bayes_margin:.3e} "
            f"vertex_margin={check.vertex_margin:.3e}\n"
        )
        return EXIT_SADDLE
    return EXIT_OK


def _tau_grid(lo, hi, steps, name: str) -> np.ndarray:
    """A tau grid; STEPS must be a whole number, at least 2, that fits in memory."""
    steps = float(steps)
    if not (steps.is_integer() and steps >= 2):
        raise SpecError(f"{name} needs a whole number of steps, at least 2, not {steps:g}")
    try:
        return np.linspace(float(lo), float(hi), int(steps))
    except MemoryError:
        raise SpecError(f"{name} has too many steps to hold in memory: {steps:g}") from None


def _grid_values(spec: ProblemSpec, args) -> np.ndarray:
    if getattr(args, "grid", None):
        return _tau_grid(*args.grid, "--grid")
    if spec.tau_grid is not None:
        return spec.tau_grid
    if spec.tau is not None and spec.tau.size == 1:
        return spec.tau
    raise SpecError("need --grid or a constraint.tau_grid in the spec")


def _grid_chunks(model: LossModel, statistic: Statistic, taus: np.ndarray,
                 tol: float | None, with_vertices: bool):
    """Lists of (tau, Gamma_tau, saddle point, vertex list or None), one per
    chunk of GRID_CHUNK rows of `taus`, in order; the vertex lists only when
    asked for, after the size caps are checked, before any solve.

    Each chunk's Gamma_tau are built once and solved by one `_solve_each`
    call, so a certificate checked on a row's Gamma_tau shares what the
    solve kept on it (`union_support`); then the vertex lists of the solved
    ones come from one `vertex_lists` call.  Where building Gamma_tau or
    solving raised, or Gamma_tau has no vertex, the exception takes the
    saddle point's place (a failed build takes Gamma_tau's too), for the
    caller to raise at its turn, so rows and errors come in the grid's order.
    """
    if with_vertices:
        check_sizes(statistic)
    for lo in range(0, len(taus), GRID_CHUNK):
        chunk = taus[lo:lo + GRID_CHUNK]
        gammas = [attempt(GammaTau, statistic, tau) for tau in chunk]
        solved = _solve_each(model, statistic, gammas, tol)
        lists = iter(vertex_lists(statistic, [tau for tau, sp in zip(chunk, solved)
                                              if isinstance(sp, SaddlePoint)])
                     if with_vertices else ())
        rows = []
        for tau, g, sp in zip(chunk, gammas, solved):
            vs = next(lists) if with_vertices and isinstance(sp, SaddlePoint) else None
            if isinstance(vs, Infeasible):
                sp, vs = vs, None
            rows.append((tau, g, sp, vs))
        yield rows


def _solved_pairs(chunk: list) -> list:
    """(saddle point, vertex list) of each row of a `_grid_chunks` chunk
    whose solve gave a saddle point, in order."""
    return [(sp, vs) for _, _, sp, vs in chunk if isinstance(sp, SaddlePoint)]


def cmd_sweep(args) -> int:
    spec = parse_spec(args.spec)
    statistic = _require_statistic(spec)
    if statistic.k != 1:
        raise SpecError("sweep grids require a scalar statistic")
    grid = _grid_values(spec, args)
    n, k = spec.space.n, statistic.k
    lines = [f"# {CSV_SCHEMA}", ",".join(record_columns(n, k))]
    for chunk in _grid_chunks(spec.model, statistic, grid[:, None], args.tol, True):
        checks = iter(_vertex_checks(spec.model, _solved_pairs(chunk)))
        for tau, _, sp, _ in chunk:
            try:
                sp = raised(sp)
                lines.append(",".join(record_row(sp, _columns(sp, *next(checks)))))
            except Infeasible:
                lines.append(",".join(sentinel_row(tau, "infeasible", n, k)))
            except ArithmeticError:
                lines.append(",".join(sentinel_row(tau, "error", n, k)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    runner = {
        "saddle": _suite_saddle,
        "pythagorean": _suite_pythagorean,
        "equalizer": _suite_equalizer,
        "conjugacy": _suite_conjugacy,
        "identities": _suite_identities,
    }[args.suite]
    report = runner(spec, args)
    _emit(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_SUITE


def _suite_taus(spec: ProblemSpec) -> np.ndarray:
    """The suite's tau vectors, one row each."""
    if spec.tau_grid is not None:
        return spec.tau_grid[:, None]
    if spec.tau is not None:
        return spec.tau[None, :]
    raise SpecError("verification suites need a constraint in the spec")


def _solved(rows: list, tau: np.ndarray, sp) -> bool:
    """True for a saddle point; an infeasible tau appends its row to `rows`
    instead, and any other exception in the saddle point's place is raised."""
    if isinstance(sp, Infeasible):
        rows.append({"tau": _cell(tau), "status": "infeasible"})
        return False
    raised(sp)
    return True


def _cell(tau: np.ndarray):
    """A suite row's tau: a float for a scalar statistic, a list for k >= 2."""
    return float(tau[0]) if tau.size == 1 else [float(v) for v in tau]


def _suite_saddle(spec: ProblemSpec, args) -> dict:
    """The saddle certificate of every suite tau; the certificates of each
    chunk come from one `verify_grid` call, and rows and errors come in the
    grid's order."""
    statistic = _require_statistic(spec)
    rows = []
    passed = True
    for chunk in _grid_chunks(spec.model, statistic, _suite_taus(spec), None, False):
        solved = [(g, sp) for _, g, sp, _ in chunk if isinstance(sp, SaddlePoint)]
        checks = iter(verify_grid(spec.model, [g for g, _ in solved],
                                  [sp.p_star for _, sp in solved],
                                  [sp.zeta_star for _, sp in solved]))
        for tau, _, sp, _ in chunk:
            if not _solved(rows, tau, sp):
                continue
            chk = raised(next(checks))
            rows.append({
                "tau": _cell(tau),
                "status": "ok",
                "h": sp.h_star,
                "bayes_margin": chk.bayes_margin,
                "vertex_margin": chk.vertex_margin,
                "is_saddle": chk.is_saddle,
            })
            passed = passed and chk.is_saddle
    return {"suite": "saddle", "passed": passed, "rows": rows}


def _reference_act(spec: ProblemSpec) -> Act:
    if spec.reference is not None:
        return spec.reference
    neutral = find_neutral(spec.model)
    if neutral is None:
        raise SpecError(
            "no neutral act exists for this loss; supply a reference in the spec"
        )
    return neutral


def _suite_pythagorean(spec: ProblemSpec, args) -> dict:
    ref = _reference_act(spec)
    # the inequality holds at the saddle of the game relative to ref; for
    # the neutral act that game is the plain one
    try:
        game = spec.model if spec.reference is None else relative_model(spec.model, ref)
    except InfiniteReferenceLoss as exc:
        raise SpecError(f"pythagorean suite: {exc}") from None
    rows = []
    passed = True
    equality_taus = []
    # a relative game has built L(., ref) from the same act with the same call
    lv0 = attempt(game.loss_vector, ref) if game is spec.model else game.reference_losses
    for chunk in _grid_chunks(game, _require_statistic(spec), _suite_taus(spec), None, True):
        solved = _solved_pairs(chunk)
        reports = iter(pythagorean_reports(
            spec.model, [vs.points for _, vs in solved], [sp.p_star for sp, _ in solved],
            _loss_rows(spec.model, [sp.zeta_star for sp, _ in solved]), lv0))
        for tau, _, sp, _ in chunk:
            if not _solved(rows, tau, sp):
                continue
            rep = raised(next(reports))
            rows.append({
                "tau": _cell(tau),
                "status": "ok",
                "min_slack": rep.min_slack,
                "max_slack": rep.max_slack,
                "equality": rep.equality,
            })
            if rep.equality:
                equality_taus.append(_cell(tau))
            passed = passed and rep.min_slack >= -PYTHAGOREAN_TOL
    return {
        "suite": "pythagorean",
        "passed": passed,
        "rows": rows,
        "equality_region": equality_taus,
    }


def _suite_equalizer(spec: ProblemSpec, args) -> dict:
    """The equalizer check of zeta* on the vertices of each suite tau and,
    where it passes on two or more vertices, on 32 random interior members
    of Gamma_tau.  A chunk's probe laws are drawn tau by tau in the grid's
    order, so the stream is the one a tau at a time draws, and checked as
    one stack; rows and errors come in the grid's order."""
    rng = np.random.default_rng(args.seed)
    rows = []
    passed = True
    for chunk in _grid_chunks(spec.model, _require_statistic(spec), _suite_taus(spec), None, True):
        solved = _solved_pairs(chunk)
        checks = _vertex_checks(spec.model, solved)
        # confirm constancy on random interior members, not just vertices
        probes = {i: rng.dirichlet(np.ones(vs.m), size=32) @ vs.points
                  for i, ((_, vs), (_, rep)) in enumerate(zip(solved, checks))
                  if isinstance(rep, EqualizerReport) and rep.is_equalizer and vs.m >= 2}
        probe_reports = dict(zip(probes, equalizer_reports(
            spec.model, list(probes.values()), [checks[i][0] for i in probes], PROBE_TOL)))
        found = iter(enumerate(checks))
        for tau, _, sp, _ in chunk:
            if not _solved(rows, tau, sp):
                continue
            i, (_, rep) = next(found)
            rep = raised(rep)
            row = {
                "tau": _cell(tau),
                "status": "ok",
                "vertex_spread": rep.spread,
                "is_equalizer": rep.is_equalizer,
            }
            if i in probe_reports:
                prep = raised(probe_reports[i])
                row["probe_spread"] = prep.spread
                passed = passed and prep.spread <= PROBE_TOL
            rows.append(row)
    return {"suite": "equalizer", "passed": passed, "rows": rows}


def _suite_conjugacy(spec: ProblemSpec, args) -> dict:
    statistic = _require_statistic(spec)
    if statistic.k != 1:
        raise SpecError("the conjugacy suite needs a scalar statistic")
    taus = _suite_taus(spec)
    # step 0.01 keeps the estimate within 1e-3 even for piecewise-linear h,
    # provided the slopes over the requested taus stay inside [-2, 2]
    betas = np.linspace(-2.0, 2.0, 401)
    rep = conjugacy_check(spec.model, statistic, taus, betas)
    passed = (
        rep.max_grid_residual <= 1e-3
        and rep.max_matched_residual <= 1e-8
        and rep.fenchel_min >= -1e-6
    )
    return {
        "suite": "conjugacy",
        "passed": bool(passed),
        "max_grid_residual": rep.max_grid_residual,
        "max_matched_residual": rep.max_matched_residual,
        "fenchel_min": rep.fenchel_min,
        "rows": [
            {"tau": float(s), "h": float(h), "grid_estimate": float(e)}
            for s, h, e in zip(rep.sigmas, rep.h_values, rep.grid_estimates)
        ],
    }


IDENTITY_TRIALS = 200


def _mixture_draws(seed: int, n: int):
    """The identities suite's random mixtures: per trial, three parts, then
    their weights, then Q, each Dirichlet(1).  They are drawn as one block of
    standard exponentials and each segment is scaled by one over its running
    sum, which is what `Generator.dirichlet` does for alpha = 1, so the
    numbers are those of one `dirichlet` call per law.  Returns the parts
    (trials, 3, n), the weights (trials, 3) and Q (trials, n) as checked
    blocks."""
    draws = np.random.default_rng(seed).standard_exponential((IDENTITY_TRIALS, 4 * n + 3))
    segments = np.split(draws, [n, 2 * n, 3 * n, 3 * n + 3], axis=1)
    laws = [seg * (1.0 / np.add.accumulate(seg, axis=1)[:, -1:]) for seg in segments]
    parts, weights, q = np.stack(laws[:3], axis=1), laws[3], laws[4]
    return _checked_rows(parts), _checked_rows(weights), _checked_rows(q)


def _suite_identities(spec: ProblemSpec, args) -> dict:
    model = spec.model
    trials = IDENTITY_TRIALS
    parts, weights, q = _mixture_draws(args.seed, spec.space.n)
    h_lhs, h_rhs, d_lhs, d_rhs = identity_terms(model, parts, weights, q)
    bayes = ext_dots(q, model.bayes_losses(q)) - model.entropy_batch(q)
    worst_entropy = float(np.max(abs(h_lhs - h_rhs), initial=0.0))
    worst_div = float(np.max(abs(d_lhs - d_rhs), initial=0.0))
    worst_bayes = float(np.max(abs(bayes), initial=0.0))
    try:
        prop = check_proper(model, trials=trials, seed=args.seed)
        min_margin = prop.min_margin
        proper = True
    except ProprietyViolation:
        min_margin = float("-inf")
        proper = False
    passed = (
        worst_entropy <= 1e-9 and worst_div <= 1e-9
        and worst_bayes <= 1e-9 and proper
    )
    return {
        "suite": "identities",
        "passed": bool(passed),
        "trials": trials,
        "max_entropy_residual": worst_entropy,
        "max_divergence_residual": worst_div,
        "max_bayes_discrepancy": worst_bayes,
        "min_propriety_margin": min_margin,
    }


def cmd_capacity(args) -> int:
    spec = parse_spec(args.spec)
    if not spec.members:
        sys.stderr.write("capacity needs a nonempty model list in the spec\n")
        return EXIT_INFEASIBLE
    sm = StatModel(spec.model, tuple(spec.members))
    result = capacity_solve(sm, tol=args.tol)
    report = {
        "i_star": result.i_star,
        "pi_star": result.pi_star.w,
        "act_kind": result.act_star.kind,
        "act": (result.act_star.payload if result.act_star.kind == ACT_SCALAR
                else result.act_star.as_array()),
        "upsilon": [sm.labels[i] for i in result.upsilon],
        "iterations": result.iterations,
        "gap": result.gap,
        "method": result.method,
    }
    if args.bits:
        report["i_star_bits"] = result.i_star / LN2
    if isinstance(spec.model, LogModel):
        # the oracle stops at the gap capacity_solve targets: its own 1e-10
        # default can exhaust its iterations on families capacity_solve solves
        oracle = blahut_arimoto(sm, tol=capacity_gap_target(args.tol))
        report["cross_check_delta"] = abs(result.i_star - oracle.i_star)
        report["cross_check_iterations"] = oracle.iterations
    eq = equalization_report(result, sm)
    report["equalizer"] = eq.is_equalizer
    report["derived_losses"] = eq.losses
    _emit(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _tolerance(text: str) -> float:
    """--tol: a positive finite float; no iterative solver reaches 0 in floats."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, not {text!r}")
    return tol


def _seed(text: str) -> int:
    """--seed: a non-negative integer, the seeds numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are parse errors under this tool's exit contract
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: building it costs about a millisecond,
    and parsing leaves it as it was."""
    parser = _Parser(prog="maxentgames",
                     description="maximum-entropy and robust-Bayes game solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one constrained game")
    p_solve.add_argument("spec")
    p_solve.add_argument("--tau", type=float, nargs="+", default=None)
    p_solve.add_argument("--tol", type=_tolerance, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--bits", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve a tau grid, emit CSV")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--grid", type=float, nargs=3, default=None,
                         metavar=("FROM", "TO", "STEPS"))
    p_sweep.add_argument("--tol", type=_tolerance, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("spec")
    p_verify.add_argument("--suite", required=True,
                          choices=["saddle", "pythagorean", "equalizer",
                                   "conjugacy", "identities"])
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_cap = sub.add_parser("capacity", help="capacity of a finite model")
    p_cap.add_argument("spec")
    p_cap.add_argument("--tol", type=_tolerance, default=1e-6)
    p_cap.add_argument("--out", default=None)
    p_cap.add_argument("--bits", action="store_true")
    p_cap.set_defaults(fn=cmd_capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        max_n()   # a bad MAXENT_MAX_N is a usage error in every subcommand
        return args.fn(args)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_PARSE
    except DimensionMismatch as exc:
        sys.stderr.write(f"shape error: {exc}\n")
        return EXIT_PARSE
    except CombinatorialBlowup as exc:
        # problem size beyond the enumeration caps is a usage problem
        sys.stderr.write(f"too large: {exc}\n")
        return EXIT_PARSE
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except ArithmeticError as exc:
        # MaxIterExceeded, NewtonDivergence, and the LP's Unbounded, PivotLimit
        # and strong-duality errors; Infeasible is one too, so it comes first
        sys.stderr.write(f"solver failed: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
