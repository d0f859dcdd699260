"""Randomized certification suites for the commutation principles.

Each suite draws reproducible instances, runs a local solver or an
explicit construction, and measures the commutation residuals the
corresponding statement predicts.  Reports aggregate violations and
keep per-trial records (input hashes, residuals, seeds) so a failing
trial can be replayed in isolation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    TIE_TOL,
    canonical_frame,
    commutator_residual,
    eigenvalue_map,
    lyapunov_basis_stack,
    lyapunov_map,
    operator_commutes,
    parse_algebra,
    random_element,
    split_factors,
    unit,
)
from .liegroup import (
    _expm,
    derivation_basis,
    exp_action,
    orbit_is_connected,
    project_perp_derivations,
    random_automorphism,
    random_derivation,
    tangent_stack,
)
from .optimize import (  # multistart is unused but bound: bench/run.py traces it here
    Objective,
    SolverParams,
    _attempt,
    _both_senses,
    _dot,
    _draw_starts,
    _matvec,
    _objective,
    _raise_first,
    _solve_batch,
    kappa_shift,
    linear_plus_spectral,
    multistart,
    orbit,
    permutation_oracle,
    shifted_spectral,
    spectral_box,
)
from .specfun import (
    SpectralFunction,
    check_strict_schur,
    is_subgradient,
    monotone_pairing_check,
    schatten,
    spectral_subgradient,
    spectral_value_coords,
    strict_schur_probe,
    sumsq,
)

# solver-side gate: commutation is only certified at points this stationary
STATIONARITY_GATE = 1e-8
# hardcoded in the normal-cone statement checks (not config-tunable)
PAIRING_TOL = 1e-8
TANGENT_TOL = 1e-8
CONTROL_FLOOR = 1e-4
CONTROL_RATE = 0.95
ACTIVE_GAP = 1e-4
CREASE_ITERS = 20
# relative gap allowed between a solver's optimal value and the oracle's
VALUE_TOL = 1e-6
# the kappa demo's monotonicity certificate comes from the zero start; at
# this tol the box solver's value is within rounding of the closed forms
KAPPA_PARAMS = SolverParams(max_iters=150, tol=1e-8)
# the min suite's softmax solves, one per temperature
SOFTMAX_PARAMS = SolverParams(max_iters=200, tol=1e-9)


@dataclass(frozen=True)
class Tolerances:
    commute: float = 1e-6

    def __post_init__(self):
        if not (self.commute > 0.0 and math.isfinite(self.commute)):
            raise AlgebraError("tolerances must be positive and finite")


@dataclass(frozen=True)
class SuiteConfig:
    algebra: AlgebraSpec
    trials: int = 100
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.trials < 1:
            raise AlgebraError("trials must be >= 1")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    algebra: str
    trials: int
    violations: int
    skips: int
    worst: dict
    records: tuple
    notes: tuple = ()

    def __post_init__(self):
        if self.violations > self.trials:
            raise AlgebraError("violations cannot exceed trials")

    @property
    def passed(self) -> bool:
        return self.violations == 0


_SUITE_IDS = {
    "smooth": 1,
    "max": 2,
    "min": 3,
    "shifted": 4,
    "normalcone": 5,
    "appendix": 6,
    "kappa": 7,
}


def _trial_rng(cfg: SuiteConfig, suite: str, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_SUITE_IDS[suite], trial))
    return np.random.default_rng(ss)


def _hash_inputs(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:12]


def _report(suite: str, spec: AlgebraSpec, records: list[dict], keys: tuple[str, ...], notes=(), extra: int = 0) -> SuiteReport:
    """SuiteReport over per-trial records, counting their statuses.

    ``worst`` holds the largest value of each key among the records that
    carry it; ``extra`` adds violations no single record carries.
    """
    worst = {}
    for key in keys:
        vals = [r[key] for r in records if key in r]
        worst[key] = float(max(vals)) if vals else 0.0
    return SuiteReport(
        suite=suite,
        algebra=str(spec),
        trials=len(records),
        violations=sum(r["status"] == "violation" for r in records) + extra,
        skips=sum(r["status"] == "skip" for r in records),
        worst=worst,
        records=tuple(records),
        notes=tuple(notes),
    )


def _ms_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _multistarts(problems: list, params: SolverParams = SolverParams(), starts: int = 4) -> list:
    """``_solve_batch`` over (objectives, fset, seed) problems, each from its seed's ``_draw_starts``."""
    return _solve_batch([(objs, fset, _draw_starts(fset, starts, seed)) for objs, fset, seed in problems], params)


def _solved_records(drawn: list, certify, solve=_multistarts) -> list[dict]:
    """Solve every drawn trial at once, then certify them in trial order.

    ``drawn`` holds per trial (record, problem, context), the problem
    None for a trial with nothing to solve; ``solve(problems)`` returns
    per problem its results or the AlgebraError that failed it (by
    default ``_multistarts``), and ``certify(record, context, results)``
    fills the record.  A failed problem raises its AlgebraError when its
    trial comes up, where the trial-by-trial loop would have raised it.
    """
    solved = iter(solve([p for _, p, _ in drawn if p is not None]))
    for rec, problem, context in drawn:
        if problem is not None:
            results = next(solved)
            if isinstance(results, AlgebraError):
                raise results
            certify(rec, context, results)
    return [rec for rec, _, _ in drawn]


# ---------------------------------------------------------------------------
# smooth principle: optimizers of a smooth objective plus a spectral term
# over an orbit commute with the smooth gradient


def _unit_rows(d: np.ndarray) -> np.ndarray:
    """Each row over its norm; rows of norm <= 1e-12 become zero."""
    nd = np.sqrt(_dot(d, d))[..., None]
    return np.divide(d, nd, out=np.zeros_like(d), where=nd > 1e-12)


def _quadratic_plus_norm(spec: AlgebraSpec, M: np.ndarray, c0: np.ndarray) -> Objective:
    # Schatten-2 equals the coordinate norm in the trace inner product,
    # so the spectral term is constant along the orbit; it still rides
    # along in the objective the solver sees
    def value_c(c: np.ndarray):
        return _dot(0.5 * c, _matvec(M, c)) + _dot(c0, c) + np.sqrt(_dot(c, c))

    def subgrad_c(c: np.ndarray) -> np.ndarray:
        return _matvec(M, c) + c0 + _unit_rows(c)

    return Objective(
        label="quadratic + schatten:2",
        algebra=spec,
        sense="min",
        value_c=value_c,
        subgrad_c=subgrad_c,
    )


def verify_smooth_principle(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    tol = cfg.tolerances

    def draw(i: int):
        rng = _trial_rng(cfg, "smooth", i)
        A = rng.standard_normal((spec.dim, spec.dim))
        M = 0.5 * (A + A.T)
        M += 1.2 * float(np.linalg.norm(M, 2)) * np.eye(spec.dim)
        c0 = rng.standard_normal(spec.dim)
        b = random_element(spec, rng)
        seed = _ms_seed(rng)
        rec = {"trial": i, "inputs": _hash_inputs(M, c0, b.coords), "status": "ok"}
        return rec, (_both_senses(_quadratic_plus_norm(spec, M, c0)), orbit(b), seed), (M, c0)

    def certify(rec: dict, inputs, results) -> None:
        M, c0 = inputs
        worst_comm = 0.0
        worst_stat = 0.0
        for res in results:
            worst_stat = max(worst_stat, res.stationarity)
            if res.stationarity > STATIONARITY_GATE:
                rec["status"] = "skip"
                continue
            grad_theta = Element(spec, M @ res.x.coords + c0)
            worst_comm = max(worst_comm, operator_commutes(res.x, grad_theta)[1])
        rec["commute"] = worst_comm
        rec["stationarity"] = worst_stat
        if rec["status"] != "skip" and worst_comm > tol.commute:
            rec["status"] = "violation"

    return _report("smooth", spec, _solved_records([draw(i) for i in range(cfg.trials)], certify), ("commute", "stationarity"))


# ---------------------------------------------------------------------------
# max principle: every sampled subgradient of the convex term commutes
# with a local maximizer


def _max_objective(c_el: Element, F: SpectralFunction | None) -> Objective:
    """|x - c| + F(x), maximized: the max suite's shifted objective."""
    cc = c_el.coords
    theta = (lambda x: np.sqrt(_dot(x - cc, x - cc)), lambda x: _unit_rows(x - cc))
    label = "schatten:2(x - c)" if F is None else f"schatten:2(x - c) + {F.f.name}"
    return _objective(label, c_el.algebra, "max", theta, F)


def _sampled_theta_subgradients(spec, kind, c_el, xbar) -> list[Element]:
    """Finitely many elements of the convex term's subdifferential at xbar.

    Smooth points contribute the gradient; coarsening the tie tolerance
    adds block-averaged candidates near eigenvalue ties.  Candidates are
    validated against the subgradient inequality before certification,
    so coarsening never injects spurious elements.
    """
    if kind == "linear":
        return [c_el]
    F2 = SpectralFunction(schatten(2), spec)
    d = xbar - c_el
    out: list[Element] = []
    for tie in (TIE_TOL, 1e-6, 1e-4):
        v = spectral_subgradient(F2, d, tol=tie)
        if any(np.allclose(v.coords, u.coords, atol=1e-13) for u in out):
            continue
        if is_subgradient(F2, d, v):
            out.append(v)
    return out


def verify_max_principle(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    tol = cfg.tolerances
    extras = (None, schatten(1.5), schatten(3))

    def draw(i: int):
        rng = _trial_rng(cfg, "max", i)
        kind = "linear" if i % 2 == 0 else "shifted"
        c_el = random_element(spec, rng)
        f_extra = extras[i % 3]
        b = random_element(spec, rng)
        seed = _ms_seed(rng)
        rec = {"trial": i, "inputs": _hash_inputs(c_el.coords, b.coords), "objective": kind, "status": "ok"}
        F = SpectralFunction(f_extra, spec) if f_extra is not None else None
        obj = linear_plus_spectral(c_el, F, "max") if kind == "linear" else _max_objective(c_el, F)
        return rec, ((obj,), orbit(b), seed), (kind, c_el)

    def certify(rec: dict, inputs, results) -> None:
        kind, c_el = inputs
        (res,) = results
        rec["stationarity"] = res.stationarity
        if res.stationarity > STATIONARITY_GATE:
            rec["status"] = "skip"
            return
        samples = _sampled_theta_subgradients(spec, kind, c_el, res.x)
        worst = 0.0
        for v in samples:
            worst = max(worst, operator_commutes(res.x, v)[1])
        rec["commute"] = worst
        rec["samples"] = len(samples)
        if worst > tol.commute:
            rec["status"] = "violation"

    return _report("max", spec, _solved_records([draw(i) for i in range(cfg.trials)], certify), ("commute", "stationarity"))


# ---------------------------------------------------------------------------
# min principle: some subgradient of a finitely generated convex term
# commutes with a local minimizer.  The solver follows the softmax
# smoothing of the max-affine term down two temperatures and finishes on
# the crease with Newton; the witness mixes the active generators by
# Wolfe's nearest point to 0 in the convex hull of their commutators
# with the minimizer, which reads only the minimizer and the generators


def _maxaffine_objective(spec, C, d, f_extra, smooth_mu) -> Objective:
    """max_j (<c_j, x> + d_j), softmax-smoothed at temperature smooth_mu, plus the spectral tail; minimized."""

    def pieces(x: np.ndarray) -> np.ndarray:
        return _matvec(C, x) + d

    # the reductions keep their last axis, so log sees an array, never a
    # numpy scalar, for a 1-D call too
    def value_c(x: np.ndarray):
        z = pieces(x)
        s = np.max(z, axis=-1, keepdims=True)
        s = s + smooth_mu * np.log(np.add.reduce(np.exp((z - s) / smooth_mu), axis=-1, keepdims=True))
        return s[..., 0]

    def subgrad_c(x: np.ndarray) -> np.ndarray:
        z = pieces(x)
        p = np.exp((z - np.max(z, axis=-1, keepdims=True)) / smooth_mu)
        p = p / np.add.reduce(p, axis=-1, keepdims=True)
        return _matvec(C.T, p)

    F = SpectralFunction(f_extra, spec) if f_extra is not None else None
    return _objective(f"maxaffine:mu={smooth_mu:g}", spec, "min", (value_c, subgrad_c), F)


def commuting_witness(xbar: Element, generators: list[Element]) -> tuple[np.ndarray, float]:
    """Weights on the generator simplex minimizing the commutator residual.

    [L_x, L_{sum w_j c_j}] = sum w_j K_j with K_j = [L_x, L_{c_j}], so
    the best mix is the nearest point to 0 in the convex hull of the
    flattened K_j.  Wolfe's algorithm ("Finding the nearest point in a
    polytope", Math. Program. 11, 1976) finds it exactly for any number
    of generators.  Each corral's affine min-norm point is a least-squares
    solve on the K_j themselves, and every step is invariant under a
    common scale of the generators, so the weights do not depend on it;
    only where the minimizing weights are not unique can rounding pick
    another minimizer.  Returns (weights, |sum w_j K_j| / (1 + |x| max_j |c_j|)):
    the residual is scaled by the generators, not by their mix, so weights
    that cancel large generators leave only rounding relative to them.
    """
    G = np.stack([g.coords for g in generators])
    Lx = lyapunov_map(xbar)
    Lg = np.tensordot(G, lyapunov_basis_stack(xbar.algebra), axes=(1, 0))
    K = (Lx @ Lg - Lg @ Lx).reshape(len(generators), -1)
    norms = np.linalg.norm(K, axis=1)
    # <K_j, p> below |p|^2 by less than floor * |p| is rounding
    floor = 1e-14 * float(norms.max())
    corral, lam = [int(np.argmin(norms))], np.ones(1)
    while True:
        p = lam @ K[corral]
        pp = float(p @ p)
        j = int(np.argmin(K @ p))
        # p is nearest once no K_j lies below <., p> = |p|^2
        if j in corral or float(K[j] @ p) >= pp - floor * math.sqrt(pp):
            break
        S, w = corral + [j], np.append(lam, 0.0)
        while True:
            A = K[S]
            beta = np.linalg.lstsq((A[1:] - A[0]).T, -A[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
            if np.all(alpha > 0.0):
                w = alpha
                break
            # walk from w toward alpha until a weight reaches zero, drop it
            out = np.nonzero(alpha <= 0.0)[0]
            ratios = [w[i] / (w[i] - alpha[i]) if w[i] > 0.0 else 0.0 for i in out]
            k = int(out[np.argmin(ratios)])
            w = w + min(ratios) * (alpha - w)
            w[k] = 0.0
            S, w = [s for s, v in zip(S, w) if v > 0.0], w[w > 0.0]
        q = w @ K[S]
        # each corral shortens p, unless rounding stalls it
        if float(q @ q) >= pp:
            break
        corral, lam = S, w
    weights = np.zeros(len(generators))
    weights[corral] = lam
    weights /= weights.sum()
    scale = 1.0 + float(np.linalg.norm(xbar.coords)) * float(np.linalg.norm(G, axis=1).max())
    return weights, float(np.linalg.norm(weights @ K)) / scale


def _tail_grad_hess(f_extra, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of the spectral tail in coordinates.

    In trace-form coordinates the two tails used here are plain vector
    functions: sumsq is the squared norm, schatten:2 the norm.
    """
    dim = x.size
    if f_extra is None:
        return np.zeros(dim), np.zeros((dim, dim))
    if f_extra.name == "sumsq":
        return 2.0 * x, 2.0 * np.eye(dim)
    if f_extra.name == "schatten:2":
        n = float(np.linalg.norm(x))
        u = x / n
        return u, (np.eye(dim) - np.outer(u, u)) / n
    raise AlgebraError(f"no closed-form curvature for {f_extra.name}")


def _crease_newton(spec, C, d, f_extra, x0: np.ndarray, active: list[int], w0: np.ndarray):
    """Newton on the kink: orbit stationarity plus active-value equality.

    Unknowns are derivation coefficients around the current point and
    the multipliers on the active generators; the softmax ladder only
    needs to land in the basin, this finishes to machine precision.
    """
    basis = derivation_basis(spec)
    K = basis.dimension
    x = x0.copy()
    w = w0.copy()
    CA = C[active]
    mA = len(active)
    best = (np.inf, x.copy(), w.copy())
    for _ in range(CREASE_ITERS):
        g_tail, H_tail = _tail_grad_hess(f_extra, x)
        g = CA.T @ w + g_tail
        T = tangent_stack(basis, x)
        z = C @ x + d
        R = np.concatenate([T @ g, z[active[1:]] - z[active[0]], [w.sum() - 1.0]])
        rn = float(np.linalg.norm(R))
        if rn < best[0]:
            best = (rn, x.copy(), w.copy())
        if rn <= 1e-13 or K == 0:
            break
        J = np.zeros((K + mA, K + mA))
        J[:K, :K] = np.einsum("kij,lj,i->kl", basis.stack, T, g) + T @ H_tail @ T.T
        J[:K, K:] = T @ CA.T
        if mA > 1:
            J[K : K + mA - 1, :K] = (CA[1:] - CA[0]) @ T.T
        J[K + mA - 1, K:] = 1.0
        step = np.linalg.lstsq(J, -R, rcond=None)[0]
        dt, dw = step[:K], step[K:]
        nt = float(np.linalg.norm(dt))
        if nt > 0.5:
            dt, dw = dt * (0.5 / nt), dw * (0.5 / nt)
        x = exp_action(np.tensordot(dt, basis.stack, axes=(0, 0)), x)
        w = w + dw
    return best


def _crease_polish(C, d, f_extra, b, x: np.ndarray, mu: float) -> tuple[Element, float]:
    """Crease Newton from x, on the generators within 50 mu of the top piece."""
    z = C @ x + d
    zmax = float(np.max(z))
    active = [int(j) for j in np.nonzero(zmax - z <= 50.0 * mu)[0]]
    p = np.exp((z[active] - zmax) / mu)
    while True:
        rn, x, w = _crease_newton(b.algebra, C, d, f_extra, x, active, p / p.sum())
        if len(active) == 1 or float(np.min(w)) >= -1e-6:
            break
        # negative multiplier: the generator is not active at the kink
        drop = int(np.argmin(w))
        active = [a for k, a in enumerate(active) if k != drop]
        p = np.maximum(np.delete(w, drop), 1e-8)
    return Element(b.algebra, x), rn


def _minimize_maxaffine(trials: list, points: list) -> list:
    """Softmax at mu = 1e-3, then crease Newton, for (C, d, f_extra, b, seed) trials.

    ``points`` are the trials' mu = 1e-2 points (coordinates) or the
    AlgebraErrors that stopped them.  The smoothed solves land only
    within O(mu) of the kink, so the active set identified at mu = 1e-3
    seeds an exact active-set Newton polish.  The softmax solve is one
    ``_solve_batch`` over the trials still going.  Returns per trial
    (point, stationarity) or its first AlgebraError.
    """
    mu = 1e-3
    points = [x if isinstance(x, AlgebraError) else _attempt(Element, t[3].algebra, x) for t, x in zip(trials, points)]
    live = [i for i, x in enumerate(points) if isinstance(x, Element)]
    problems = [((_maxaffine_objective(b.algebra, C, d, f, mu),), orbit(b), [x]) for (C, d, f, b, _), x in zip(trials, points) if isinstance(x, Element)]
    for i, res in zip(live, _solve_batch(problems, SOFTMAX_PARAMS)):
        points[i] = res if isinstance(res, AlgebraError) else res[0].x.coords
    return [x if isinstance(x, AlgebraError) else _attempt(_crease_polish, *t[:4], x, mu) for t, x in zip(trials, points)]


def _solve_min_trials(trials: list) -> list:
    """Softmax at mu = 1e-2 from every trial's 4 drawn starts in one batch, then ``_minimize_maxaffine``."""
    first = _multistarts([((_maxaffine_objective(b.algebra, C, d, f_extra, 1e-2),), orbit(b), seed) for C, d, f_extra, b, seed in trials], SOFTMAX_PARAMS)
    return _minimize_maxaffine(trials, [res if isinstance(res, AlgebraError) else res[0].x.coords for res in first])


def _min_fields(C, d, f_extra, x: Element, stat: float) -> dict:
    """The min record's fields at the polished point x."""
    spec = x.algebra
    z = C @ x.coords + d
    theta = float(np.max(z))
    active = np.nonzero(z >= theta - ACTIVE_GAP * (1.0 + abs(theta)))[0]
    gens = [Element(spec, C[j].copy()) for j in active]
    w, resid = commuting_witness(x, gens)
    return {
        "stationarity": float(stat),
        "active": int(active.size),
        "witness_weights": [float(v) for v in w],
        "commute": float(resid),
        "value": float(theta + (spectral_value_coords(SpectralFunction(f_extra, spec), x.coords) if f_extra else 0.0)),
    }


def verify_min_principle(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    tol = cfg.tolerances
    extras = (schatten(2), sumsq())

    def draw(i: int):
        rng = _trial_rng(cfg, "min", i)
        m = 2 + i % 2
        C = np.stack([random_element(spec, rng).coords for _ in range(m)])
        d = 0.3 * rng.standard_normal(m)
        f_extra = extras[i % 2]
        b = random_element(spec, rng)
        seed = _ms_seed(rng)
        rec = {"trial": i, "inputs": _hash_inputs(C, d, b.coords), "generators": m, "status": "ok"}
        return rec, (C, d, f_extra, b, seed), (C, d, f_extra)

    def certify(rec: dict, inputs, polished) -> None:
        rec.update(_min_fields(*inputs, *polished))
        if rec["commute"] > tol.commute:
            rec["status"] = "violation"

    records = _solved_records([draw(i) for i in range(cfg.trials)], certify, _solve_min_trials)
    return _report("min", spec, records + [midpoint_witness_record(tol)], ("commute", "stationarity"))


def midpoint_witness_record(tol: Tolerances = Tolerances()) -> dict:
    """Constructed rank-2 instance where only an interior subgradient commutes.

    Over the orbit of diag(2,1), Theta(x) = max(<cb+p, x>, <cb-p, x>)
    with cb = -diag(1,0) and p the unit off-diagonal attains its minimum
    -2 at diag(2,1).  Neither generator commutes with the minimizer,
    but their midpoint cb is diagonal and does; the simplex search must
    find that interior witness.  It is solved as a one-trial min suite.
    """
    spec = parse_algebra("sym:2")
    b = Element(spec, np.array([2.0, 0.0, 1.0]))
    cb = np.array([-1.0, 0.0, 0.0])
    p = np.array([0.0, math.sqrt(2.0), 0.0])
    C = np.stack([cb + p, cb - p])
    d = np.zeros(2)
    rec = {"trial": "witness", "inputs": _hash_inputs(C, b.coords), "generators": 2, "status": "ok"}
    ((xbar, stat),) = _raise_first(_solve_min_trials([(C, d, None, b, 0)]))
    rec.update(_min_fields(C, d, None, xbar, stat))
    rec["endpoint_resid"] = min(
        commutator_residual(xbar, Element(spec, C[0])),
        commutator_residual(xbar, Element(spec, C[1])),
    )
    rec["value_error"] = abs(rec["value"] - (-2.0))
    interior = min(rec["witness_weights"]) > 0.2
    if rec["commute"] > tol.commute or rec["endpoint_resid"] < 1e-3 or not interior or rec["value_error"] > 1e-6:
        rec["status"] = "violation"
    return rec


# ---------------------------------------------------------------------------
# shifted principle: optimizers of F(x - a) over an orbit commute with
# the shift, and the value matches the brute-force frame enumeration


def verify_shifted_principle(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    tol = cfg.tolerances
    functions = (schatten(2), schatten(3), sumsq())
    # the oracle enumerates the whole eigenvalue orbit; a solver that
    # cannot reach all of it has no comparable optimum
    connected = orbit_is_connected(spec)

    def draw(i: int):
        rng = _trial_rng(cfg, "shifted", i)
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        f = functions[i % len(functions)]
        rec = {"trial": i, "inputs": _hash_inputs(a.coords, b.coords), "function": f.name, "status": "ok"}
        if not connected:
            rec.update(status="skip", reason="orbit not connected")
            return rec, None, None
        for fac in split_factors(a) if spec.kind == "prod" else [a]:
            lam = eigenvalue_map(fac)
            if lam.size > 1 and float(np.min(-np.diff(lam))) <= 2.0 * TIE_TOL * (1.0 + abs(lam[0])):
                rec["status"] = "skip"
                return rec, None, None
        F = SpectralFunction(f, spec)
        return rec, (_both_senses(shifted_spectral(F, a)), orbit(b), _ms_seed(rng)), (a, b, F)

    def certify(rec: dict, inputs, results) -> None:
        a, b, F = inputs
        worst_value = 0.0
        worst_comm = 0.0
        for sense, res in zip(("min", "max"), results):
            orc = permutation_oracle(a, b, F, sense)
            worst_value = max(worst_value, abs(res.value - orc.value) / (1.0 + abs(orc.value)))
            # the solver's own certificate: operator_commutes(res.x, a)
            worst_comm = max(worst_comm, dict(res.diagnostics.pairs)["shift_a"])
        rec["value"] = worst_value
        rec["commute"] = worst_comm
        if worst_value > VALUE_TOL or worst_comm > tol.commute:
            rec["status"] = "violation"

    return _report("shifted", spec, _solved_records([draw(i) for i in range(cfg.trials)], certify), ("commute", "value"))


# ---------------------------------------------------------------------------
# normal cone of the automorphism group at the identity


def verify_normal_cone(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    basis = derivation_basis(spec)

    def trial(i: int) -> dict:
        rng = _trial_rng(cfg, "normalcone", i)
        D = random_derivation(spec, rng)
        nd = float(np.linalg.norm(D))
        if nd > 0.0:
            D = D / nd
        H = project_perp_derivations(spec, rng.standard_normal((spec.dim, spec.dim)))
        H = H / float(np.linalg.norm(H))
        rec = {"trial": i, "inputs": _hash_inputs(D, H), "status": "ok"}
        h = 1e-5
        pair = (float(np.sum(H * _expm(h * D))) - float(np.sum(H * _expm(-h * D)))) / (2.0 * h)
        rec["pairing"] = abs(pair)
        h = 1e-4
        T = (_expm(h * D) - _expm(-h * D)) / (2.0 * h)
        rec["tangent"] = float(np.linalg.norm(T - D))
        if rec["pairing"] > PAIRING_TOL or rec["tangent"] > TANGENT_TOL:
            rec["status"] = "violation"
        if basis.dimension > 0:
            Hc = random_derivation(spec, rng)
            Hc = Hc / float(np.linalg.norm(Hc))
            rec["control"] = abs(float(np.sum(Hc * D)))
        return rec

    records = [trial(i) for i in range(cfg.trials)]
    control_failed = False
    if basis.dimension > 0:
        rate = sum(r["control"] > CONTROL_FLOOR for r in records) / len(records)
        control_failed = rate < CONTROL_RATE
        note = f"negative control rate {rate:.3f}" + (f" below {CONTROL_RATE}" if control_failed else "")
    else:
        note = "no derivations; negative control not applicable"
    return _report("normalcone", spec, records, ("pairing", "tangent"), (note,), extra=int(control_failed))


# ---------------------------------------------------------------------------
# appendix properties: strict Schur transfer, strict convexity and
# strict norm transfer, monotone subgradient pairing, and commutation
# transitivity through a tie-refining middle element


def _transitivity_trial(spec: AlgebraSpec, rng: np.random.Generator) -> dict:
    rank = spec.rank
    X0 = random_automorphism(spec, rng)
    frame_rows = np.stack([X0.apply(e).coords for e in canonical_frame(spec)])

    def tied_pattern(lo: float, hi: float) -> np.ndarray:
        vals = np.sort(rng.uniform(lo, hi, size=rank))[::-1]
        vals[1] = vals[0]
        return vals

    alpha = tied_pattern(1.0, 4.0)
    beta = tied_pattern(5.0, 9.0)
    a = Element(spec, alpha @ frame_rows)
    b = Element(spec, beta @ frame_rows)
    rec = {"inputs": _hash_inputs(frame_rows, alpha, beta)}
    basis = derivation_basis(spec)
    if basis.dimension == 0:
        # no automorphism motion: c stays on the frame and the statement
        # is immediate; record it as the degenerate pass it is
        gamma = np.sort(rng.standard_normal(rank))[::-1]
        c = Element(spec, gamma @ frame_rows)
        rec.update({"ac_resid": commutator_residual(a, c), "bc_resid": commutator_residual(b, c), "moved": 0.0})
        return rec
    Tb = tangent_stack(basis, b.coords)
    U, s, _ = np.linalg.svd(Tb, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    null_mask = np.ones(basis.dimension, dtype=bool)
    null_mask[: s.size] = s <= 1e-9 * max(smax, 1.0)
    null_cols = U[:, null_mask]
    if null_cols.shape[1] == 0:
        rec["stabilizer"] = 0
        return rec
    coeff = null_cols @ rng.standard_normal(null_cols.shape[1])
    coeff /= float(np.linalg.norm(coeff))
    D = np.tensordot(coeff, basis.stack, axes=(0, 0))
    X = _expm(float(rng.uniform(0.6, 1.5)) * D)
    gamma = np.sort(rng.uniform(-2.0, 2.0, size=rank))[::-1]
    w = gamma @ frame_rows
    c = Element(spec, X @ w)
    rec["moved"] = float(np.linalg.norm(c.coords - w) / (1.0 + np.linalg.norm(w)))
    rec["bc_resid"] = commutator_residual(b, c)
    rec["ac_resid"] = commutator_residual(a, c)
    # control: break the tie of a where b stays tied, voiding the
    # refinement hypothesis; commutation should then fail generically
    alpha2 = alpha.copy()
    alpha2[1] = alpha[1] - 0.5 * (alpha[1] - alpha[rank - 1]) - 0.1
    a2 = Element(spec, alpha2 @ frame_rows)
    rec["control_resid"] = commutator_residual(a2, c)
    return rec


def verify_appendix(cfg: SuiteConfig) -> SuiteReport:
    spec = cfg.algebra
    records: list[dict] = []
    notes: list[str] = []

    # strict Schur monotonicity along majorization for strictly convex
    # functions and strictly convex norms
    schur = check_strict_schur(sumsq(), cfg.trials, seed=cfg.seed + 101)
    records.append({"trial": "schur:sumsq", "status": "ok" if schur["violations"] == 0 else "violation", **schur})
    rng = _trial_rng(cfg, "appendix", 1)
    for p in (1.5, 3.0):
        probe = strict_schur_probe(schatten(p), cfg.trials, rng)
        records.append(
            {"trial": f"schur:schatten:{p:g}", "status": "ok" if probe["violations"] == 0 else "violation", **probe}
        )

    # midpoint strict convexity of the sumsq lift; the trace form makes
    # the convexity gap exactly ||x - y||^2 / 4
    rng = _trial_rng(cfg, "appendix", 2)
    Fss = SpectralFunction(sumsq(), spec)
    bad = 0
    worst_gap_err = 0.0
    for _ in range(cfg.trials):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        mid = spectral_value_coords(Fss, 0.5 * (x.coords + y.coords))
        gap = 0.5 * (spectral_value_coords(Fss, x.coords) + spectral_value_coords(Fss, y.coords)) - mid
        expect = 0.25 * float(np.sum((x.coords - y.coords) ** 2))
        scale = 1.0 + abs(expect)
        worst_gap_err = max(worst_gap_err, abs(gap - expect) / scale)
        if gap <= 0.0 or abs(gap - expect) > 1e-9 * scale:
            bad += 1
    records.append({"trial": "midpoint:sumsq", "status": "ok" if bad == 0 else "violation", "violations": bad, "gap_err": worst_gap_err})

    # strict norm transfer for p > 1; the p = 1 boundary instance sits
    # exactly at equality
    rng = _trial_rng(cfg, "appendix", 3)
    bad = 0
    for p in (1.5, 2.0, 3.0):
        Fp = SpectralFunction(schatten(p), spec)
        done = 0
        while done < cfg.trials:
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            nx = spectral_value_coords(Fp, x.coords)
            ny = spectral_value_coords(Fp, y.coords)
            xc, yc = x.coords / nx, y.coords / ny
            if float(np.linalg.norm(xc - yc)) < 0.15 or float(np.linalg.norm(xc + yc)) < 0.15:
                continue
            if spectral_value_coords(Fp, xc + yc) >= 2.0 - 1e-8:
                bad += 1
            done += 1
    boundary_err = 0.0
    if spec.rank >= 2:
        F1 = SpectralFunction(schatten(1), spec)
        frame = canonical_frame(spec)
        e12 = frame[0] + frame[1]
        boundary_err = abs(spectral_value_coords(F1, e12.coords) - 2.0)
        bad += boundary_err > 1e-12
    records.append({"trial": "strictnorm", "status": "ok" if bad == 0 else "violation", "violations": bad, "boundary_err": float(boundary_err)})

    # subgradients pair monotonically with the spectrum
    rng = _trial_rng(cfg, "appendix", 4)
    fams = (sumsq(), schatten(1.5), schatten(2), schatten(3))
    bad = 0
    for k in range(cfg.trials):
        f = fams[k % len(fams)]
        Ff = SpectralFunction(f, spec)
        x = random_element(spec, rng)
        v = spectral_subgradient(Ff, x)
        if not monotone_pairing_check(x, v):
            bad += 1
    records.append({"trial": "monotone", "status": "ok" if bad == 0 else "violation", "violations": bad})

    # transitivity through a tie-refining middle element
    rng = _trial_rng(cfg, "appendix", 5)
    bad = 0
    worst_ac = 0.0
    control_hits = 0
    control_total = 0
    for _ in range(cfg.trials):
        t = _transitivity_trial(spec, rng)
        worst_ac = max(worst_ac, t.get("ac_resid", 0.0))
        if t.get("ac_resid", 0.0) > PAIRING_TOL or t.get("bc_resid", 0.0) > PAIRING_TOL:
            bad += 1
        if t.get("moved", 0.0) > 1e-3 and "control_resid" in t:
            control_total += 1
            control_hits += t["control_resid"] > CONTROL_FLOOR
    rec = {"trial": "transitivity", "status": "ok" if bad == 0 else "violation", "violations": bad, "ac_resid": worst_ac}
    if control_total > 0:
        rate = control_hits / control_total
        rec["control_rate"] = rate
        if rate < CONTROL_RATE:
            rec["status"] = "violation"
            notes.append(f"transitivity control rate {rate:.3f} below {CONTROL_RATE}")
    records.append(rec)
    return _report("appendix", spec, records, ("ac_resid", "gap_err", "boundary_err"), notes)


# ---------------------------------------------------------------------------
# condition-number demo on a spectral box


def kappa_clipping_oracle(lam: np.ndarray, eps: float) -> float:
    """Best condition number reachable on the shift's own frame."""
    return max(1.0, (float(lam[0]) - eps) / (float(lam[-1]) + eps))


def demo_kappa(cfg: SuiteConfig, eps: float = 0.5) -> SuiteReport:
    if not (eps > 0.0 and math.isfinite(eps)):
        raise AlgebraError("eps must be positive and finite")
    spec = cfg.algebra
    fset = spectral_box(spec, -eps, eps)
    notes = []

    def draw(i: int):
        rng = _trial_rng(cfg, "kappa", i)
        x0 = random_element(spec, rng)
        lam0 = eigenvalue_map(x0)
        lift = eps + float(rng.uniform(0.3, 1.0)) * (1.0 + float(lam0[0] - lam0[-1])) - float(lam0[-1])
        a = x0 + unit(spec) * lift
        kappa_a = float(eigenvalue_map(a)[0] / eigenvalue_map(a)[-1])
        return {"trial": i}, ((kappa_shift(a, "min"),), fset, _ms_seed(rng)), (a, kappa_a)

    def certify(rec: dict, inputs, results) -> None:
        a, kappa_a = inputs
        (res,) = results
        kappa_x = float(res.value)
        oracle = kappa_clipping_oracle(eigenvalue_map(a), eps)
        rec.update({
            "inputs": _hash_inputs(a.coords),
            "status": "ok",
            "kappa_before": kappa_a,
            "kappa_after": kappa_x,
            "oracle": oracle,
            "oracle_gap": max(kappa_x - oracle, 0.0),
            "commute": operator_commutes(res.x, a)[1],
            "increase": max(kappa_x - kappa_a, 0.0),
        })
        if rec["trial"] == "reference":
            rec["oracle_gap"] = abs(kappa_x - oracle)
            notes.append(f"reference kappa {kappa_x:.6f} vs oracle {oracle:.6f}")
            if rec["oracle_gap"] > 1e-4:
                rec["status"] = "violation"
        if rec["increase"] > 1e-12:
            rec["status"] = "violation"

    drawn = [draw(i) for i in range(cfg.trials)]
    # reference, solved with the trials: spectrum (4, 2, 1) on a random
    # frame has the closed-form optimum (4 - eps) / (1 + eps); the frame
    # is drawn from the automorphisms, which move it only on a connected orbit
    if spec.rank == 3 and orbit_is_connected(spec):
        rng = _trial_rng(cfg, "kappa", 10**6)
        X = random_automorphism(spec, rng)
        frame_rows = np.stack([X.apply(e).coords for e in canonical_frame(spec)])
        a = Element(spec, np.array([4.0, 2.0, 1.0]) @ frame_rows)
        drawn.append(({"trial": "reference"}, ((kappa_shift(a, "min"),), fset, _ms_seed(rng)), (a, 4.0)))
    elif spec.rank == 3:
        notes.append("no reference: orbit not connected")
    records = _solved_records(drawn, certify, lambda problems: _multistarts(problems, KAPPA_PARAMS, starts=2))
    return _report("kappa", spec, records, ("oracle_gap", "increase", "commute"), notes)


# ---------------------------------------------------------------------------
# registry

SUITES = {
    "smooth": verify_smooth_principle,
    "max": verify_max_principle,
    "min": verify_min_principle,
    "shifted": verify_shifted_principle,
    "normalcone": verify_normal_cone,
    "appendix": verify_appendix,
    "kappa": demo_kappa,
}


def suite_names(requested: list[str] | tuple[str, ...]) -> list[str]:
    """Expand and validate suite names; 'all' means every suite."""
    out: list[str] = []
    for name in requested:
        if name == "all":
            for k in SUITES:
                if k not in out:
                    out.append(k)
        elif name in SUITES:
            if name not in out:
                out.append(name)
        else:
            raise KeyError(name)
    return out


def run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    return SUITES[name](cfg)
