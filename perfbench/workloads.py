"""Seeded inputs, operations and correctness gates of the benchmark workloads.

A workload is a list of rounds.  Every round holds the same operation slots
in the same order (the slot fixes loss, sizes and kind of call); the seed and
the round index draw the numbers that fill them, except for the slots whose
cost or failure is a lottery over the draw (ladder faces, and on iterative
everything but the Brier and zero-one capacities), which draw from the round
index alone.  So every seed gives the same mix of work and meets the same
failures.

Inputs are made in C order (`c_order`): whether the dual Newton step of the
log solver fails depends on the memory layout of the statistic, so layout is
part of the workload definition.

An operation is a `call` that is timed and a `check` that is not.  `check`
returns None for a correct result and a reason otherwise.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import maxentgames as mg
from maxentgames import cli as mg_cli

MEMBER_TOL = 1e-8        # ||T p - tau||_inf, as constraints.contains
ENTROPY_TOL = 1e-9       # |h* - H(p*)|
BAYES_TOL = 1e-8         # verify_saddle defaults, applied to sweep rows
VERTEX_TOL = 1e-7
CAPACITY_TOL = 1e-6      # capacity against Blahut-Arimoto
# the oracle's own stopping gap; 1e-9 is ample for a 1e-6 comparison and,
# unlike its 1e-10 default, is reached within its iteration cap on 12 x 10
BA_TOL = 1e-9
EQUALIZATION_TOL = 1e-5  # derived.EQUALIZATION_TOL
ROOT = Path(__file__).resolve().parent.parent
BETA_GRID = np.linspace(-2.0, 2.0, 401)   # the CLI conjugacy suite's grid


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def c_order(a) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    if not out.flags.c_contiguous:
        raise AssertionError("inputs must be C-ordered")
    return out


def round_rng(seed: int, workload: str, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode()), r])


def space(n: int):
    return mg.SampleSpace.of([str(i) for i in range(n)])


MODELS = {
    "brier": lambda n: mg.brier_model(space(n)),
    "log": lambda n: mg.log_model(space(n)),
    "zero_one": lambda n: mg.zero_one_model(space(n)),
}


def mean_value_input(rng, n: int, k: int, face: bool):
    """Statistic in [-1, 1] and tau = T p; on a hull face when `face`.

    A face puts k + 2 outcomes at the minimum -1 of the first row and draws p
    on them, so tau sits on the face {t_1 = -1} of the hull.
    """
    t = rng.uniform(-1.0, 1.0, size=(k, n))
    if face:
        on = rng.choice(n, size=min(k + 2, n), replace=False)
        t[0, on] = -1.0
        p = np.zeros(n)
        p[on] = rng.dirichlet(np.ones(on.size))
    else:
        p = rng.dirichlet(np.ones(n))
    tau = t @ p
    if face:
        tau[0] = -1.0
    return c_order(t), c_order(tau)


# ---------------------------------------------------------------------------
# shared calls and gates


def solve_and_verify(model, g):
    sp = mg.solve(model, g)
    return sp, mg.verify_saddle(model, g, sp.p_star, sp.zeta_star)


def check_saddle(model, g, out) -> "str | None":
    sp, chk = out
    if not chk.is_saddle:
        return (f"verify_saddle rejects: bayes_margin={chk.bayes_margin:.3e} "
                f"vertex_margin={chk.vertex_margin:.3e}")
    p = sp.p_star.w
    reason = check_member(g.statistic.matrix, g.tau, p)
    if reason:
        return reason
    h = model.entropy(sp.p_star)
    if not abs(sp.h_star - h) <= ENTROPY_TOL:
        return f"|h* - H(p*)| = {abs(sp.h_star - h):.3e}"
    return None


def check_member(t, tau, p) -> "str | None":
    if not (abs(float(np.sum(p)) - 1.0) <= 1e-9 and float(np.min(p)) >= -1e-12):
        return "p* is not a distribution"
    resid = float(np.max(np.abs(t @ p - tau)))
    if not resid <= MEMBER_TOL:
        return f"p* outside Gamma_tau: ||T p - tau|| = {resid:.3e}"
    return None


# ---------------------------------------------------------------------------
# ladder: specialized solvers on the size ladder


LADDER = (
    [("brier", n, k) for n in (8, 12, 16) for k in (1, 2, 3)]
    + [("zero_one", n, k) for n in (8, 12) for k in (1, 2, 3)]
    + [("log", n, k) for n in (8, 12, 16, 20) for k in (1, 2, 3)]
)
FACE_EVERY = 4   # slot i of round r is a face case when (i + r) % 4 == 3


def ladder_round(seed: int, r: int, work: Path) -> list:
    rng = round_rng(seed, "ladder", r)
    # Face inputs do not depend on the seed.  The log solver fails on about
    # half of all random k >= 2 faces, so seeded faces would make the failure
    # count of a run a coin toss; fixed faces keep the same failures in every
    # run, and a change in them is a change in the program.
    face_rng = round_rng(0, "ladder-face", r)
    ops = []
    for i, (loss, n, k) in enumerate(LADDER):
        face = (i + r) % FACE_EVERY == FACE_EVERY - 1
        t, tau = mean_value_input(face_rng if face else rng, n, k, face)
        model = MODELS[loss](n)
        g = mg.GammaTau(mg.Statistic(t), tau)
        where = "face" if face else "interior"
        ops.append(Op(f"{loss} N={n} k={k} {where}",
                      partial(solve_and_verify, model, g),
                      partial(check_saddle, model, g)))
    return ops


# ---------------------------------------------------------------------------
# sweep: the CLI in-process on small problems


BUNDLED_SWEEPS = ("brier_mean", "log_mean", "zero_one_mean")
SUITES = ("saddle", "pythagorean", "equalizer", "identities")
CHANNELS = ("binary_channel", "brier_family")
GENERATED = (("brier", 4), ("log", 5), ("zero_one", 6))
GENERATED_STEPS = 21


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mg_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class SweepRowError(RuntimeError):
    """The solver raised on a sweep grid point; the CLI wrote an `error` row."""


def run_sweep(path: str):
    """`sweep` in-process; raises SweepRowError for a row the CLI marked `error`,
    so a solver stall counts as a failed operation, as it does elsewhere."""
    code, text, err = run_cli(["sweep", path])
    if code == 0:
        for line in text.splitlines()[2:]:
            if line.startswith("error,"):
                raise SweepRowError(f"sweep {path}: solver raised at tau={line.split(',')[1]}")
    return code, text, err


def cli_failure(code, err) -> "str | None":
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    return None


def check_golden(golden: bytes, out) -> "str | None":
    code, text, err = out
    reason = cli_failure(code, err)
    if reason:
        return reason
    if text.encode("utf-8") != golden:
        return "sweep CSV differs from the golden file"
    return None


def check_cli_solve(spec: dict, out) -> "str | None":
    code, text, err = out
    reason = cli_failure(code, err)
    if reason:
        return reason
    rec = json.loads(text)
    if rec.get("saddle_verified") is not True:
        return "saddle_verified is not true"
    n = len(spec["outcomes"])
    t = np.asarray(spec["statistic"], dtype=float)
    p = np.array([rec[f"p_{i + 1}"] for i in range(n)])
    tau = np.array([rec[f"tau_{i + 1}"] for i in range(t.shape[0])])
    return check_row(spec["loss"]["kind"], t, tau, p, rec["h"], None, None)


def check_row(kind, t, tau, p, h, bayes_margin, vertex_margin) -> "str | None":
    reason = check_member(t, tau, p)
    if reason:
        return reason
    model = MODELS[kind](p.size)
    h_p = model.entropy(mg.Distribution(p / p.sum()))
    # printed values carry 12 significant digits
    if not abs(h - h_p) <= ENTROPY_TOL:
        return f"|h - H(p)| = {abs(h - h_p):.3e}"
    if bayes_margin is not None and not bayes_margin <= BAYES_TOL:
        return f"bayes_margin {bayes_margin:.3e}"
    if vertex_margin is not None and not vertex_margin <= VERTEX_TOL:
        return f"vertex_margin {vertex_margin:.3e}"
    return None


def check_generated_sweep(spec: dict, out) -> "str | None":
    code, text, err = out
    reason = cli_failure(code, err)
    if reason:
        return reason
    lines = text.splitlines()
    header = lines[1].split(",")
    t = np.asarray(spec["statistic"], dtype=float)
    n = t.shape[1]
    rows = lines[2:]
    if len(rows) != GENERATED_STEPS:
        return f"{len(rows)} rows for {GENERATED_STEPS} grid points"
    for line in rows:
        row = dict(zip(header, line.split(",")))
        if row["status"] != "ok":
            # the grid spans the hull exactly, so every tau is feasible;
            # `error` rows were raised as SweepRowError by run_sweep
            return f"row status {row['status']} at tau={row['tau_1']}"
        p = np.array([float(row[f"p_{i + 1}"]) for i in range(n)])
        reason = check_row(spec["loss"]["kind"], t, np.array([float(row["tau_1"])]), p,
                           float(row["h"]), float(row["bayes_margin"]),
                           float(row["vertex_margin"]))
        if reason:
            return f"tau={row['tau_1']}: {reason}"
    return None


def check_suite(out) -> "str | None":
    code, text, err = out
    if code == 4 or (code == 0 and json.loads(text)["passed"] is not True):
        return "suite reports passed=false"
    return cli_failure(code, err)


def check_cli_capacity(kind: str, out) -> "str | None":
    code, text, err = out
    reason = cli_failure(code, err)
    if reason:
        return reason
    rep = json.loads(text)
    if kind == "log" and not rep["cross_check_delta"] <= CAPACITY_TOL:
        return f"capacity differs from Blahut-Arimoto by {rep['cross_check_delta']:.3e}"
    if not max(rep["derived_losses"]) <= rep["i_star"] + EQUALIZATION_TOL:
        return "a member's derived loss exceeds the capacity"
    if not rep["upsilon"]:
        return "empty equalizing set"
    return None


def sweep_round(seed: int, r: int, work: Path) -> list:
    rng = round_rng(seed, "sweep", r)
    specs = ROOT / "specs"
    golden = ROOT / "tests" / "golden"
    ops = []
    for name in BUNDLED_SWEEPS:
        path = str(specs / f"{name}.json")
        ops.append(Op(f"sweep {name}", partial(run_sweep, path),
                      partial(check_golden, (golden / f"{name}.csv").read_bytes())))
    for name in BUNDLED_SWEEPS:
        path = str(specs / f"{name}.json")
        spec = json.loads((specs / f"{name}.json").read_text())
        tau = round(float(rng.uniform(-0.8, 0.8)), 3)
        ops.append(Op(f"solve {name}", partial(run_cli, ["solve", path, "--tau", repr(tau)]),
                      partial(check_cli_solve, spec)))
    for suite in SUITES:
        for name in BUNDLED_SWEEPS:
            path = str(specs / f"{name}.json")
            argv = ["verify", path, "--suite", suite, "--seed", str(int(rng.integers(1 << 30)))]
            ops.append(Op(f"verify {suite} {name}", partial(run_cli, argv), check_suite))
    for name in CHANNELS:
        path = str(specs / f"{name}.json")
        kind = json.loads((specs / f"{name}.json").read_text())["loss"]["kind"]
        ops.append(Op(f"capacity {name}", partial(run_cli, ["capacity", path]),
                      partial(check_cli_capacity, kind)))
    for kind, n in GENERATED:
        t = np.round(rng.uniform(-1.0, 1.0, size=(1, n)), 3)
        spec = {
            "outcomes": [str(i) for i in range(n)],
            "loss": {"kind": kind},
            "statistic": c_order(t).tolist(),
            "constraint": {"tau_grid": {"from": float(t.min()), "to": float(t.max()),
                                        "steps": GENERATED_STEPS}},
        }
        path = work / f"gen-{r}-{kind}.json"
        path.write_text(json.dumps(spec))
        ops.append(Op(f"sweep generated {kind} N={n}", partial(run_sweep, str(path)),
                      partial(check_generated_sweep, spec)))
    return ops


# ---------------------------------------------------------------------------
# iterative: Frank-Wolfe, Newton and the LP


ITER_SOLVE_N = (3, 4, 5, 6, 7, 8)
ITER_MODELS = {
    "quadratic": lambda n, rng: mg.quadratic_model(space(n), rng.uniform(-1.0, 1.0, n)),
    "bregman-xlogx": lambda n, rng: mg.bregman_model(space(n), mg.xlogx_generator()),
    "bregman-square": lambda n, rng: mg.bregman_model(space(n), mg.square_generator(n)),
    "bregman-power3": lambda n, rng: mg.bregman_model(space(n), mg.power_generator(3.0)),
}
CONJUGACY_N = 4
CONJUGACY_QUANTILES = (0.3, 0.5, 0.7)
TILT_N = 5
CAPACITY_SHAPES = ((4, 3), (8, 6), (12, 10))   # (outcomes, members)
LOG_K2_N = (6, 10, 14)


def check_conjugacy(rep) -> "str | None":
    # the CLI conjugacy suite's pass rule
    if not rep.max_grid_residual <= 1e-3:
        return f"grid residual {rep.max_grid_residual:.3e}"
    if not rep.max_matched_residual <= 1e-8:
        return f"matched residual {rep.max_matched_residual:.3e}"
    if not rep.fenchel_min >= -1e-6:
        return f"Fenchel inequality violated by {-rep.fenchel_min:.3e}"
    return None


def check_tilt(model, t, beta, res) -> "str | None":
    """chi is H(q) - beta' E_q T, and no point mass or the uniform law beats it."""
    def tilted(w):
        return model.entropy(mg.Distribution(w)) - float(beta @ (t @ w))
    n = t.shape[1]
    gap = max(res.gap, 0.0)
    if not abs(res.chi - tilted(res.q.w)) <= gap + 1e-7:
        return f"chi {res.chi!r} is not the tilted entropy of q"
    probes = [np.full(n, 1.0 / n)] + list(np.eye(n))
    best = max(tilted(w) for w in probes)
    if not best <= res.chi + gap + 1e-9:
        return f"a probe law beats chi by {best - res.chi:.3e}"
    return None


def natural_tilt_call(model, statistic, beta):
    # looked up at call time, so a traced run calls the recorder's wrapper
    return mg.natural_tilt(model, statistic, beta)


def capacity_call(sm, kind):
    res = mg.capacity_solve(sm)
    oracle = mg.blahut_arimoto(sm, tol=BA_TOL) if kind == "log" else None
    return res, oracle


def check_capacity(sm, kind, out) -> "str | None":
    res, oracle = out
    if oracle is not None and not abs(res.i_star - oracle.i_star) <= CAPACITY_TOL:
        return f"capacity differs from Blahut-Arimoto by {abs(res.i_star - oracle.i_star):.3e}"
    rep = mg.equalization_report(res, sm)
    if res.upsilon.size == 0 or not rep.upsilon_constant:
        return "derived losses not equal over the equalizing set"
    if not float(rep.losses.max()) <= res.i_star + EQUALIZATION_TOL:
        return "a member's derived loss exceeds the capacity"
    return None


def iterative_round(seed: int, r: int, work: Path) -> list:
    rng = round_rng(seed, "iterative", r)
    # Whether a solve, a default-tolerance tilt or the Blahut-Arimoto oracle of
    # a log capacity stalls depends on the draw: over 12 seeds x 4 rounds most
    # of these slots failed on some draws and passed on others.  Their inputs
    # do not depend on the seed, so every run meets the same failures and a
    # change in ok_frac is a change in the program.
    fixed = round_rng(0, "iterative-fixed", r)
    ops = []
    for kind, make in ITER_MODELS.items():
        for n in ITER_SOLVE_N:
            t, tau = mean_value_input(fixed, n, 1, False)
            model = make(n, fixed)
            g = mg.GammaTau(mg.Statistic(t), tau)
            ops.append(Op(f"solve {kind} N={n}", partial(solve_and_verify, model, g),
                          partial(check_saddle, model, g)))
    # Conjugacy inputs do not depend on the seed.  These three checks take
    # about 90 % of a round, and their time moves by up to a factor of two
    # with the statistic; seeded, that draw would decide ops_per_s.
    conj_rng = round_rng(0, "iterative-conjugacy", r)
    for kind in MODELS:
        # jittered, shuffled even spacing keeps the conjugate slopes at these
        # taus inside the beta grid [-2, 2], the premise of the suite's rule
        spread = (np.linspace(-1.0, 1.0, CONJUGACY_N)
                  + conj_rng.uniform(-0.15, 0.15, CONJUGACY_N))
        t = c_order(conj_rng.permutation(spread)[None, :])
        lo, hi = float(t.min()), float(t.max())
        taus = [lo + q * (hi - lo) for q in CONJUGACY_QUANTILES]
        ops.append(Op(f"conjugacy {kind} N={CONJUGACY_N}",
                      partial(mg.conjugacy_check, MODELS[kind](CONJUGACY_N),
                              mg.Statistic(t), taus, BETA_GRID),
                      check_conjugacy))
    for kind in MODELS:
        t = c_order(fixed.uniform(-1.0, 1.0, size=(1, TILT_N)))
        beta = np.array([float(fixed.uniform(-2.0, 2.0))])
        model = MODELS[kind](TILT_N)
        ops.append(Op(f"natural_tilt {kind} N={TILT_N}",
                      partial(natural_tilt_call, model, mg.Statistic(t), beta),
                      partial(check_tilt, model, t, beta)))
    for n, m in CAPACITY_SHAPES:
        for kind in MODELS:
            members = c_order((fixed if kind == "log" else rng).dirichlet(np.ones(n), size=m))
            sm = mg.StatModel(MODELS[kind](n), tuple(members))
            ops.append(Op(f"capacity {kind} {n}x{m}", partial(capacity_call, sm, kind),
                          partial(check_capacity, sm, kind)))
    for n in LOG_K2_N:
        t, tau = mean_value_input(fixed, n, 2, False)
        model = MODELS["log"](n)
        g = mg.GammaTau(mg.Statistic(t), tau)
        ops.append(Op(f"solve log k=2 N={n}", partial(solve_and_verify, model, g),
                      partial(check_saddle, model, g)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable
    # seconds one round took on a 2-vCPU x86 virtual machine when the benchmark was
    # defined; fixes the rounds per run, so it must not follow the program
    nominal_round_s: float


WORKLOADS = {
    "ladder": Workload("ladder", ladder_round, 22.0),
    "sweep": Workload("sweep", sweep_round, 2.5),
    "iterative": Workload("iterative", iterative_round, 4.0),
}
