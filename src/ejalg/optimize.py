"""Local solvers over spectral feasible sets, plus brute-force oracles.

Two feasible-set shapes: the automorphism orbit of an anchor element,
and a sorted box on eigenvalues.  Orbit steps move along curves
``x <- exp(t D) x`` with D a combination of derivation-basis directions,
so feasibility is exact by construction; box steps are projected
gradient steps through the box's exact spectral projection.  A
permutation oracle enumerates all frame alignments for shifted spectral
objectives, which is the independent route the verification suites
compare against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    TIE_TOL,
    canonical_frame,
    combine,
    eigenvalue_map,
    operator_commutes,
    split_factors,
    _decompose_rows,
    _decompose_simple,
    _eigvals,
    _factor_slices,
)
from .liegroup import (  # exp_action is unused but bound: bench/run.py traces it here
    SkewCurves,
    basis_curve_points,
    derivation_basis,
    exp_action,
    random_automorphism,
    tangent_stack,
)
from .specfun import SpectralFunction, SymmetricFunction, spectral_subgrad_coords, spectral_value_coords

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 60
KAPPA_SAFE = 1e-10
# a Newton step whose predicted decrease is below this many ulps of the
# current value cannot be told apart from rounding in the value itself;
# spectral values carry the rounding of every eigenvalue, several ulps
STALL_ULPS = 16.0
# relative eigenvalue residual a caller-given start may carry and still
# count as a point of the feasible set
START_TOL = 1e-6
# relative step of the central differences that stand in for a missing
# subgradient
FD_STEP = 1e-6
# permutations per stacked value call of the oracle, and how many value
# spacings from a block's best a row is evaluated again one row at a time:
# at least 4 times the column layout's measured gap (permutation_oracle)
ORACLE_BLOCK = 5040
ORACLE_ULPS = 16.0
# rows per lockstep stack of a batch: a memory bound only, since a
# stacked row agrees bit for bit with its one-row stack at any size
STACK_ROWS = 256


@dataclass(frozen=True)
class SolverParams:
    max_iters: int = 400
    tol: float = 1e-8


@dataclass(frozen=True)
class FeasibleSet:
    """Orbit of an anchor element, or a sorted eigenvalue box."""

    variant: str  # "orbit" | "box"
    algebra: AlgebraSpec
    anchor: Element | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


def orbit(b: Element) -> FeasibleSet:
    return FeasibleSet("orbit", b.algebra, anchor=b)


def spectral_box(spec: AlgebraSpec, lower, upper) -> FeasibleSet:
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    r = spec.rank
    if lo.shape == ():
        lo = np.full(r, float(lo))
    if hi.shape == ():
        hi = np.full(r, float(hi))
    if lo.shape != (r,) or hi.shape != (r,):
        raise AlgebraError(f"bounds must have length rank={r}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise AlgebraError("box bounds must be finite")
    if np.any(lo > hi):
        raise AlgebraError("empty box: lower exceeds upper")
    if np.any(np.diff(lo) > 0) or np.any(np.diff(hi) > 0):
        raise AlgebraError("box bounds must be sorted nonincreasing")
    return FeasibleSet("box", spec, lower=lo, upper=hi)


def project_sorted_box(u: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto {w nonincreasing, lower <= w <= upper}.

    Pool-adjacent-violators with per-block interval clipping: a pooled
    block takes the block mean clipped to the intersection of its bounds.
    Bounds are nonincreasing, so a merge is only ever triggered between
    blocks whose intervals overlap and every block interval stays
    nonempty; block costs are separable convex, which makes the pooled
    minimizers the exact projection.
    """
    u = np.asarray(u, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), u.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), u.shape)
    sums: list[float] = []
    counts: list[int] = []
    los: list[float] = []
    his: list[float] = []
    vals: list[float] = []
    for ui, li, hi in zip(u, lower, upper):
        s, c, lo_b, hi_b = float(ui), 1, float(li), float(hi)
        v = min(max(s / c, lo_b), hi_b)
        while vals and v > vals[-1]:
            s += sums.pop()
            c += counts.pop()
            lo_b = max(lo_b, los.pop())
            hi_b = min(hi_b, his.pop())
            vals.pop()
            v = min(max(s / c, lo_b), hi_b)
        sums.append(s)
        counts.append(c)
        los.append(lo_b)
        his.append(hi_b)
        vals.append(v)
    return np.repeat(vals, counts)


def membership(fset: FeasibleSet, x: Element, tol: float = 1e-8) -> tuple[bool, float]:
    """Feasibility test via eigenvalues (per factor for orbits of products)."""
    if x.algebra != fset.algebra:
        raise AlgebraError("algebra mismatch")
    if fset.variant == "orbit":
        b = fset.anchor
        worst = 0.0
        if x.algebra.kind == "prod":
            pairs = zip(split_factors(x), split_factors(b))
        else:
            pairs = [(x, b)]
        for xf, bf in pairs:
            lam_b = eigenvalue_map(bf)
            d = np.max(np.abs(eigenvalue_map(xf) - lam_b))
            worst = max(worst, float(d / (1.0 + np.max(np.abs(lam_b)))))
        return worst <= tol, worst
    lam = eigenvalue_map(x)
    over = np.maximum(lam - fset.upper, 0.0)
    under = np.maximum(fset.lower - lam, 0.0)
    worst = float(np.max(np.maximum(over, under)))
    scale = 1.0 + float(np.max(np.abs(fset.upper)) + np.max(np.abs(fset.lower)))
    return worst / scale <= tol, worst / scale


@dataclass(frozen=True)
class CommutationReport:
    """Named commutation residuals measured at a solution."""

    pairs: tuple[tuple[str, float], ...]

    def ok(self) -> bool:
        return all(r <= TIE_TOL for _, r in self.pairs)

    def worst(self) -> float:
        return max((r for _, r in self.pairs), default=0.0)


@dataclass(frozen=True)
class OptResult:
    """A solver's answer.

    ``status`` is "converged" (stationarity within tol), "stalled" (an
    orbit Newton step or a box trial step predicts a decrease below the
    rounding of the value; the orbit step raises the value beyond that
    rounding, the box step moves it only within it), "max_iters",
    "line_search_failed", or "oracle" for the brute-force enumeration.
    """

    x: Element
    value: float
    iterations: int
    stationarity: float
    diagnostics: CommutationReport
    status: str
    start_index: int = 0


@dataclass(frozen=True)
class Objective:
    """Value and subgradient on coordinates, with a sense and diagnostic anchors.

    ``value_c`` and ``subgrad_c`` map an (m, dim) stack row by row to
    (m,) values and (m, dim) subgradients; solvers call them on stacks
    only, a single point as a one-row stack.  A missing ``subgrad_c``
    means central finite differences.  ``value`` and ``subgradient`` are
    their Element views, derived through a one-row stack when not given;
    the derived subgradient rejects a result that is not finite.
    """

    label: str
    algebra: AlgebraSpec
    sense: str
    value_c: Callable[[np.ndarray], float]
    subgrad_c: Callable[[np.ndarray], np.ndarray] | None = None
    anchors: tuple[tuple[str, Element], ...] = ()
    value: Callable[[Element], float] | None = None
    subgradient: Callable[[Element], Element] | None = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise AlgebraError(f"sense must be min or max, got {self.sense!r}")
        spec, value_c, subgrad_c = self.algebra, self.value_c, self.subgrad_c
        if self.value is None:
            object.__setattr__(self, "value", lambda x: float(value_c(x.coords[None])[0]))
        if self.subgradient is None and subgrad_c is not None:
            object.__setattr__(self, "subgradient", lambda x: Element(spec, subgrad_c(x.coords[None])[0]))


class _Spectral:
    """theta(c) + F(c - a) on coordinates: the callables of every built-in objective with a spectral term.

    theta is a (value, subgradient) pair of stack callables, or None; a
    is zero for the unshifted objectives.  Solvers recognise these bound
    methods and evaluate the F terms of every such objective in a stack
    with one spectral decomposition (``_StackFns``); any other callable,
    a wrapper of these included, is called as it is.
    """

    def __init__(self, F: SpectralFunction, ac: np.ndarray, theta=None):
        self.F, self.ac, self.theta = F, ac, theta

    def value_c(self, c: np.ndarray):
        return self.plus_theta(0, c, spectral_value_coords(self.F, c - self.ac))

    def subgrad_c(self, c: np.ndarray) -> np.ndarray:
        return self.plus_theta(1, c, spectral_subgrad_coords(self.F, c - self.ac))

    def plus_theta(self, which: int, c: np.ndarray, term):
        """term plus theta's value (which 0) or subgradient (which 1) at c."""
        return term if self.theta is None else self.theta[which](c) + term

    @staticmethod
    def of(obj: Objective) -> "_Spectral | None":
        """The kernel whose own methods are obj's callables, else None."""
        k = getattr(obj.value_c, "__self__", None)
        if not isinstance(k, _Spectral) or obj.algebra != k.F.algebra:
            return None
        return k if obj.value_c == k.value_c and obj.subgrad_c == k.subgrad_c else None


def _objective(label: str, spec: AlgebraSpec, sense: str, theta, F: SpectralFunction | None, a: Element | None = None, anchors=()) -> Objective:
    """theta(x) + F(x - a), a zero when None: the kernel's callables, or theta's own when F is None."""
    if F is not None:
        k = _Spectral(F, np.zeros(spec.dim) if a is None else a.coords, theta)
        theta = (k.value_c, k.subgrad_c)
    return Objective(label=label, algebra=spec, sense=sense, value_c=theta[0], subgrad_c=theta[1], anchors=anchors)


def shifted_spectral(F: SpectralFunction, a: Element, sense: str = "min") -> Objective:
    """F(x - a) with F's spectral subgradient carried over by the shift."""
    return _objective(f"{F.f.name}(x - a)", F.algebra, sense, None, F, a, (("shift_a", a),))


def linear_plus_spectral(c: Element, F: SpectralFunction | None, sense: str = "min") -> Objective:
    """<c, x> + F(x), the pairing one ``_dot`` per row; F None drops the spectral term."""
    cc = c.coords
    theta = (lambda xc: _dot(cc, xc), lambda xc: np.broadcast_to(cc, xc.shape).copy())
    label = "<c, x>" if F is None else f"<c, x> + {F.f.name}(x)"
    return _objective(label, c.algebra, sense, theta, F, anchors=(("c", c),))


def kappa_shift(a: Element, sense: str = "min") -> Objective:
    """Condition number of x + a; non-finite outside the cone interior.

    No subgradient oracle: solvers differentiate by central differences,
    and line searches reject steps that leave the cone.
    """
    spec = a.algebra
    ac = a.coords

    def value_c(c: np.ndarray):
        lam = _eigvals(spec, c + ac)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam[..., -1] <= KAPPA_SAFE, np.inf, lam[..., 0] / lam[..., -1])

    return Objective(
        label="kappa(x + a)",
        algebra=spec,
        sense=sense,
        anchors=(("shift_a", a),),
        value_c=value_c,
    )


def _sign(sense: str) -> float:
    """+1 to minimize, -1 to maximize: solvers minimize sign times value."""
    return 1.0 if sense == "min" else -1.0


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two broadcast (..., n) stacks.

    The stack is the matmul's batch axis, so every row gets one BLAS dot
    of its own, the call a 1-D row makes: its bits do not depend on the
    stack, as they would under one product across the rows.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ row for every row of a (..., n) stack, one BLAS call per row as ``_dot``."""
    return (A @ x[..., :, None])[..., 0]


def _coord_fns(obj: Objective):
    """(value_fn, grad_fn) on an (m, dim) stack, in the objective's own sense.

    Without a subgradient oracle the gradient is central differences:
    the 2 * dim probes of every row go to ``value_c`` as one stack, and
    a row whose probes are not all finite raises AlgebraError.
    """
    dim = obj.algebra.dim
    value_c, subgrad_c = obj.value_c, obj.subgrad_c

    def val(c: np.ndarray) -> np.ndarray:
        return np.asarray(value_c(c), dtype=float)

    def grad(c: np.ndarray) -> np.ndarray:
        if subgrad_c is not None:
            return np.asarray(subgrad_c(c), dtype=float)
        step = FD_STEP * (1.0 + np.sqrt(_dot(c, c)))[..., None, None]
        E = step * np.eye(dim)
        probes = np.stack([c[..., None, :] + E, c[..., None, :] - E], axis=-3)
        v = val(probes.reshape(-1, dim)).reshape(probes.shape[:-1])
        if not np.isfinite(v).all():
            raise AlgebraError("objective not finite near x; cannot differentiate")
        return (v[..., 0, :] - v[..., 1, :]) / (2.0 * step[..., 0])

    return val, grad


def _diagnostics(obj: Objective, x: Element, g: Element | None) -> CommutationReport:
    pairs = []
    for name, el in obj.anchors:
        pairs.append((name, operator_commutes(x, el)[1]))
    if g is not None:
        pairs.append(("subgradient", operator_commutes(x, g)[1]))
    return CommutationReport(tuple(pairs))


def _evaluate(fn, C: np.ndarray, own: np.ndarray, shape: tuple) -> tuple[np.ndarray, dict]:
    """(fn(C, own), errors) for an (m, dim) stack and its owner column.

    When the stacked call raises AlgebraError the rows are retried one
    at a time; a row that raises again comes back NaN, with its error
    under its row index in ``errors``.
    """
    try:
        return fn(C, own), {}
    except AlgebraError as exc:
        if len(C) == 1:
            return np.full(shape, np.nan), {0: exc}
    out, errors = np.full(shape, np.nan), {}
    for i in range(len(C)):
        row, err = _evaluate(fn, C[i : i + 1], own[i : i + 1], (1,) + shape[1:])
        out[i] = row[0]
        errors.update({i: e for e in err.values()})
    return out, errors


def _rowwise(funcs: list[SymmetricFunction], fid: np.ndarray) -> SymmetricFunction:
    """The function that applies funcs[fid[i]] to row i of an (m, rank) stack.

    Only its value and subgradient are meant; it claims no convexity.
    """
    parts = [(f, fid == j) for j, f in enumerate(funcs)]
    parts = [(f, rows) for f, rows in parts if rows.any()]

    def value(u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape[:-1])
        for f, rows in parts:
            out[rows] = f.value(u[rows])
        return out

    def subgrad(u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape)
        for f, rows in parts:
            out[rows] = f.subgrad(u[rows])
        return out

    return SymmetricFunction("rowwise", value, subgrad, False, False, False, False)


class _StackFns:
    """Values and subgradients of a stack whose row i belongs to objs[own[i]].

    ``value(C, own)`` and ``grad(C, own)`` return (out, errors) as
    ``_evaluate`` does, each row in its own objective's terms.  Every
    distinct objective is called once, on its own rows, except that the
    rows of objectives built on the theta + F(x - a) kernel share one
    call: each row is shifted by its own a, the stack is decomposed once
    through ``spectral_value_coords`` or ``spectral_subgrad_coords``,
    each row gets its own symmetric function and block averaging, and
    each owner's theta is then added on that owner's rows.  The kernels
    compute each row of a stack alone and IEEE addition commutes, so
    every row gets the bits its objective's own stacked call would give it.
    """

    def __init__(self, objs: list[Objective]):
        self.fns = [_coord_fns(o) for o in objs]
        self.kernels = kernels = [_Spectral.of(o) for o in objs]
        # owner -> the call its rows go to: -1 is the shared one
        self.group = np.array([-1 if k else j for j, k in enumerate(kernels)])
        # owner -> whether its kernel adds a theta to its F term
        self.has_theta = np.array([k is not None and k.theta is not None for k in kernels])
        live = [k for k in kernels if k]
        if live:
            self.shift = np.stack([k.ac if k else np.zeros_like(live[0].ac) for k in kernels])
            # owner -> index of its symmetric function among the distinct ones
            ids: dict[int, int] = {}
            self.fid = np.array([ids.setdefault(id(k.F.f), len(ids)) if k else 0 for k in kernels])
            self.funcs = list({id(k.F.f): k.F.f for k in live}.values())
            self.spec = live[0].F.algebra

    def value(self, C: np.ndarray, own: np.ndarray):
        return self._grouped(0, C, own, (len(C),))

    def grad(self, C: np.ndarray, own: np.ndarray):
        return self._grouped(1, C, own, C.shape)

    def _grouped(self, which: int, C: np.ndarray, own: np.ndarray, shape: tuple):
        # a stack of one owner's rows takes that owner's own call: the same bits, less gathering
        group = own if (own == own[0]).all() else self.group[own]
        if (group == group[0]).all():
            return _evaluate(self._call(which, group[0]), C, own, shape)
        out, errors = np.empty(shape), {}
        for g in np.unique(group):
            rows = np.flatnonzero(group == g)
            out[rows], errs = _evaluate(self._call(which, g), C[rows], own[rows], (len(rows),) + shape[1:])
            errors.update({rows[i]: e for i, e in errs.items()})
        return out, errors

    def _call(self, which: int, group: int):
        if group >= 0:
            fn = self.fns[group][which]
            return lambda C, own: fn(C)
        term = spectral_value_coords if which == 0 else spectral_subgrad_coords

        def shared(C: np.ndarray, own: np.ndarray):
            fid = self.fid[own]
            f = self.funcs[fid[0]] if (fid == fid[0]).all() else _rowwise(self.funcs, fid)
            out = term(SpectralFunction(f, self.spec), C - self.shift[own])
            owners = set(own[self.has_theta[own]].tolist())
            out = np.array(out) if owners else out
            for j in owners:
                rows = own == j
                out[rows] = self.kernels[j].plus_theta(which, C[rows], out[rows])
            return out

        return shared


@dataclass(frozen=True)
class _Solve:
    """Where one orbit start ended, before its diagnostics are built."""

    c: np.ndarray
    value: float  # in the objective's own sense
    iterations: int
    stationarity: float
    status: str


class _Lockstep:
    """Per-row state of an (m, dim) stack of orbit iterates.

    Each row carries its own sign in the ``sgn`` column (+1 minimizes,
    -1 maximizes), so rows of both senses share one stack, and ``fc``
    holds sign times value.  The ``own`` column indexes the objective
    the row belongs to, so rows of several problems share one stack.
    Rows leave the stack as they finish; ``out`` holds each row's _Solve
    or the AlgebraError that failed it, by row index.
    """

    def __init__(self, starts: np.ndarray, sgn: np.ndarray, own: np.ndarray):
        m = len(starts)
        self.out: list = [None] * m
        self.rows = {
            "id": np.arange(m),
            "sgn": np.array(sgn, dtype=float),
            "own": np.array(own, dtype=int),
            "c": np.array(starts, dtype=float),
            "fc": np.zeros(m),
            "stat": np.full(m, np.inf),
            "t_prev": np.ones(m),
        }

    def __getitem__(self, key: str) -> np.ndarray:
        return self.rows[key]

    def __len__(self) -> int:
        return len(self.rows["id"])

    def finish(self, mask: np.ndarray, status: str, it: int) -> None:
        r = self.rows
        for i in np.flatnonzero(mask) if mask.any() else ():
            self.out[r["id"][i]] = _Solve(r["c"][i].copy(), float(r["sgn"][i] * r["fc"][i]), it, float(r["stat"][i]), status)

    def fail(self, mask: np.ndarray, errors: dict, what: str) -> None:
        for i in np.flatnonzero(mask) if mask.any() else ():
            self.out[self.rows["id"][i]] = errors.get(i) or AlgebraError(f"{what} not finite on the orbit")

    def keep(self, mask: np.ndarray) -> None:
        self.rows = {key: v[mask] for key, v in self.rows.items()}


def _orbit_lockstep(objs: list[Objective], basis, starts: np.ndarray, sgn: np.ndarray, own: np.ndarray, params: SolverParams) -> list:
    """Descend from every row of an (m, dim) stack of orbit points at once.

    Row i runs its own descent along automorphism curves
    x <- exp(t D) x, minimizing ``sgn[i]`` times the value of
    ``objs[own[i]]``; the objectives' own ``sense`` is not read.  Every
    iteration evaluates the center pairings, each Armijo trial round and
    the Hessian probes of the Newton rows in stacked calls over rows of
    either sign and any owner (``_StackFns``).
    The stacked calls compute each row as it would alone and negation is
    exact, so a row's trajectory does not depend on the other rows.
    Returns one entry per row: a _Solve, or the AlgebraError that failed
    the row when its value or subgradient was not finite or raised.
    """
    fns = _StackFns(objs)
    dim, k = basis.algebra.dim, basis.dimension
    S = basis.stack
    st = _Lockstep(starts, sgn, own)
    fc, errors = fns.value(st["c"], st["own"])
    st["fc"][:] = st["sgn"] * fc
    bad = ~np.isfinite(fc)
    st.fail(bad, errors, "objective value")
    st.keep(~bad)
    if k == 0:
        st["stat"][:] = 0.0
        st.finish(np.ones(len(st), dtype=bool), "converged", 0)
        return st.out
    it = 0
    for it in range(1, params.max_iters + 1):
        if not len(st):
            break
        c, fc = st["c"], st["fc"]
        g, errors = fns.grad(c, st["own"])
        g = st["sgn"][:, None] * g
        beta = (tangent_stack(basis, c) @ g[:, :, None])[:, :, 0]
        bad = ~np.isfinite(beta).all(axis=1)
        st.fail(bad, errors, "subgradient")
        stat = np.sqrt(np.add.reduce(beta * beta, axis=1))
        st["stat"][:] = stat
        done = ~bad & (stat <= params.tol)
        st.finish(done, "converged", it)
        if (bad | done).any():
            go = ~(bad | done)
            st.keep(go)
            beta, stat = beta[go], stat[go]
            c, fc = st["c"], st["fc"]
            if not len(st):
                break
        d = -beta
        # saddle-free Newton endgame: the acceptance tolerances need the
        # stationarity tail, which plain descent crawls through;
        # |curvature| keeps saddle escapes at a sane scale
        newton = (it > 3) | (stat <= 1e-2 * (1.0 + np.abs(fc)))
        if newton.any():
            d[newton], bad = _newton_directions(st, basis, fns, beta, newton)
            if bad.any():
                st.keep(~bad)
                beta, newton, d = beta[~bad], newton[~bad], d[~bad]
                c, fc = st["c"], st["fc"]
                if not len(st):
                    break
        slope = np.add.reduce(d * beta, axis=1)  # derivative of val along the curve, < 0
        D = (d[:, None, :] @ S.reshape(k, -1)).reshape(-1, dim, dim)
        t = np.where(newton, 1.0, np.minimum(1.0, 2.0 * st["t_prev"]))
        accepted, stalled, errors = _armijo(fns, st["sgn"], st["own"], D, c, fc, t, slope, newton)
        st["t_prev"][:] = np.where(~newton & accepted, t, st["t_prev"])
        failed = np.zeros(len(st), dtype=bool)
        failed[list(errors)] = True
        st.fail(failed, errors, "objective value")
        st.finish(stalled, "stalled", it)
        lost = ~accepted & ~stalled & ~failed
        st.finish(lost, "line_search_failed", it)
        if not accepted.all():
            st.keep(accepted)
    st.finish(np.ones(len(st), dtype=bool), "max_iters", it)
    return st.out


def _newton_directions(st: _Lockstep, basis, fns: _StackFns, beta: np.ndarray, newton: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Saddle-free Newton directions of the rows in ``newton``, from fresh curvature.

    Forward differences of the pairing along each basis curve, off the
    already-computed center pairing, symmetrized (the O(h) skew part
    cancels); the k probes of every Newton row come from the cached
    eigendecomposition of the basis maps, and take one stacked
    subgradient call.  Returns (the directions -V |w|^-1 V^T beta of the
    Newton rows, the mask of rows that failed, already recorded in
    ``st``).
    """
    k, dim = basis.dimension, basis.algebra.dim
    rows = np.flatnonzero(newton)
    c = st["c"][rows]
    h = 1e-5 * (1.0 + np.sqrt(np.add.reduce(c * c, axis=1)))
    probes = basis_curve_points(basis, c, h).reshape(-1, dim)
    g, errors = fns.grad(probes, np.repeat(st["own"][rows], k))
    g = np.repeat(st["sgn"][rows], k)[:, None] * g
    up = (tangent_stack(basis, probes) @ g[:, :, None])[:, :, 0].reshape(-1, k, k)
    H = (up - beta[rows][:, None, :]) / h[:, None, None]
    H = 0.5 * (H + H.swapaxes(1, 2))
    ok = np.isfinite(H).all(axis=(1, 2))
    w, V = np.linalg.eigh(np.where(ok[:, None, None], H, 0.0))
    floor = np.maximum(1e-8 * np.max(np.abs(w), axis=1, initial=0.0), 1e-10)
    y = (V.swapaxes(1, 2) @ beta[rows][:, :, None])[:, :, 0] / np.maximum(np.abs(w), floor[:, None])
    bad = np.zeros(len(st), dtype=bool)
    bad[rows[~ok]] = True
    st.fail(bad, {rows[j // k]: e for j, e in errors.items()}, "subgradient")
    return -(V @ y[:, :, None])[:, :, 0], bad


def _armijo(fns: _StackFns, sgn, own, D, c, fc, t, slope, newton):
    """Armijo backtracking for every row, each with its own trial step.

    Rows still pending are evaluated together each round, on
    trial points from one eigendecomposition of the skew D; each row
    compares ``sgn`` times the value against its signed ``fc``.  Updates
    c, fc and t in place for accepted rows; returns (accepted, stalled,
    errors).  A Newton row whose predicted decrease |slope| is within
    STALL_ULPS ulps of |fc| is at the rounding floor of the value: its
    full step is accepted unless the value rises by more than that
    much, and then the row stalls instead of halving.
    """
    n = len(c)
    accepted = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    errors = {}
    errored = np.zeros(n, dtype=bool)
    pend = np.arange(n)
    noise = STALL_ULPS * np.finfo(float).eps * np.abs(fc)
    floor = newton & (np.abs(slope) <= noise)
    curves = SkewCurves.of(D, c)
    for _ in range(MAX_HALVINGS):
        ct = curves.at(t[pend], pend)
        ft, errs = fns.value(ct, own[pend])
        ft = sgn[pend] * ft
        if errs:
            errors.update({pend[j]: e for j, e in errs.items()})
            errored[pend[list(errs)]] = True
        bound = np.where(floor[pend], noise[pend], ARMIJO_C1 * t[pend] * slope[pend])
        ok = np.isfinite(ft) & (ft <= fc[pend] + bound)
        hit = pend[ok]
        c[hit], fc[hit] = ct[ok], ft[ok]
        accepted[hit] = True
        miss = pend[~ok]
        stall = floor[miss] & ~errored[miss]
        stalled[miss[stall]] = True
        pend = miss[~(stall | errored[miss])]
        if not len(pend):
            break
        t[pend] *= BACKTRACK
    return accepted, stalled, errors


def _finish(obj: Objective, row: _Solve) -> OptResult:
    """The OptResult of one finished start, with its commutation diagnostics.

    The subgradient at the solution is a one-row stack; Element rejects
    one that is not finite.
    """
    xbar = Element(obj.algebra, row.c)
    _, grad = _coord_fns(obj)
    g_el = Element(obj.algebra, grad(row.c[None])[0])
    return OptResult(xbar, row.value, row.iterations, row.stationarity, _diagnostics(obj, xbar, g_el), row.status)


def _start(fset: FeasibleSet, x0: Element | None) -> np.ndarray:
    """x0's coordinates, checked against the set; None is the set's default start."""
    if x0 is not None:
        ok, r = membership(fset, x0, tol=START_TOL)
        if not ok:
            raise AlgebraError(f"x0 off the {fset.variant} (residual {r:.2e})")
        return x0.coords
    if fset.variant == "orbit":
        return fset.anchor.coords
    return combine(canonical_frame(fset.algebra), project_sorted_box(np.zeros(fset.algebra.rank), fset.lower, fset.upper)).coords


def orbit_descent(
    obj: Objective,
    fset: FeasibleSet,
    x0: Element | None = None,
    params: SolverParams = SolverParams(),
) -> OptResult:
    """Descent along automorphism curves x <- exp(tD) x.

    Directions pair the derivation basis against the current
    (sub)gradient; past three iterations, or once nearly stationary,
    they are saddle-free Newton steps on a finite-difference Hessian.
    Armijo backtracking with a warm-started trial step.  This is the one-problem, one-start call of
    ``_solve_batch``, x0 None meaning the anchor; a failed start raises
    an AlgebraError that carries the start's own message.
    """
    if fset.variant != "orbit":
        raise AlgebraError("orbit_descent needs an orbit feasible set")
    ((res,),) = _raise_first(_solve_batch([((obj,), fset, [x0])], params))
    return res


def _simple_factors(spec: AlgebraSpec):
    """(simple factor, its coordinate slice) pairs; a simple algebra is its own."""
    return list(zip(spec.factors, _factor_slices(spec))) if spec.kind == "prod" else [(spec, slice(None))]


def _factor_parts(x: Element):
    """(factor spec, eigenvalues, frame coord rows embedded in x's algebra)."""
    spec = x.algebra
    parts = []
    for f, s in _simple_factors(spec):
        lam, frame = _decompose_simple(f, x.coords[s])
        # a C-contiguous copy: the frame's layout picks matmul's rounding
        F = np.zeros((f.rank, spec.dim))
        F[:, s] = frame
        parts.append((f, lam, F))
    return parts


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of range(n) as an int8 column, in itertools order.

    Shape (n, n!), built on first use per n and kept read-only (315 KiB
    for n = 8, 3.1 MiB for n = 9).
    """
    table = np.zeros((0, 1), dtype=np.int8)
    for k in range(1, n + 1):
        lead = np.arange(k, dtype=np.int8)[:, None]
        out = np.empty((k, k, table.shape[1]), dtype=np.int8)
        # lead entry i, then the k-1 table mapped onto range(k) without i
        out[0] = lead
        out[1:] = table[:, None] + (table[:, None] >= lead)
        table = out.reshape(k, -1)
    table.setflags(write=False)
    return table


def permutation_oracle(
    a: Element, b: Element, F: SpectralFunction, sense: str = "min"
) -> OptResult:
    """Brute-force optimum of F(x - a) over the orbit of b.

    Every local optimizer operator-commutes with a, hence lies on a's
    frame with b's factor spectra permuted onto it; enumerating those
    candidates (per factor, so products stay inside the product orbit)
    gives the exact optimal value.  Needs distinct eigenvalues in each
    factor of a and total rank <= 9.

    Every permutation is evaluated, in ``itertools.product`` order over
    the factors' ``itertools.permutations`` (last factor fastest), in
    blocks of at most ``ORACLE_BLOCK`` permutations, one stacked
    ``F.f.value`` call per block.  A block is built transposed, one
    column per permutation in a (rank, rows) C-contiguous buffer, and
    ``F.f.value`` gets its ``.T`` view, whose row reductions run down
    contiguous columns.  Factor f's rows are one ``take`` from b's
    eigenvalues through the columns of f's int8 permutation table
    (shape (n, n!), built on first use per n, then kept), then one
    in-place subtraction of a's eigenvalues, so every entry is the
    subtraction lb[p[i]] - la[i] a one-permutation loop makes.

    The builtin functions give a stacked row on this layout the
    one-row value bit for bit at ranks 2-7; at ranks 8 and 9 the
    reduction order differs, and the gap measured on schatten 1, 1.5,
    2, 3 and sumsq at scales 1e-3, 1 and 1e3 is at most g = 3 ulps.
    Every row within ``ORACLE_ULPS`` spacings of its block's best is
    evaluated again by the one-row call on a C-contiguous copy of its
    column, in enumeration order, and replaces the incumbent only on
    strict improvement.  The true best row's stacked value is within 2g
    spacings of the stacked best, g for each of the two rows, and 4g
    when the two straddle a binade edge; ``ORACLE_ULPS`` = 16 >= 4g
    keeps it in the re-checked set.  So the value is the one-row value
    and equal values resolve to the first permutation.  ``iterations``
    is the number of permutations.
    """
    if a.algebra != b.algebra or F.algebra != a.algebra:
        raise AlgebraError("algebra mismatch")
    if sense not in ("min", "max"):
        raise AlgebraError(f"sense must be min or max, got {sense!r}")
    spec = a.algebra
    if spec.rank > 9:
        raise AlgebraError("rank too large for permutation enumeration")
    parts_a = _factor_parts(a)
    for _, lam, _ in parts_a:
        gaps = -np.diff(lam)
        if lam.size > 1 and np.min(gaps) <= TIE_TOL * (1.0 + abs(lam[0])):
            raise AlgebraError("tied eigenvalues in a; oracle frame is not unique")
    lams_b = [_eigvals(f, b.coords[s]) for f, s in _simple_factors(spec)]
    tables = [_permutation_table(lam.size) for lam in lams_b]
    sizes = tuple(t.shape[1] for t in tables)
    count = int(np.prod(sizes))
    cols = np.cumsum([0] + [lam.size for lam in lams_b])
    buf = np.empty(spec.rank * min(ORACLE_BLOCK, count))
    best_pos = 0
    for start in range(0, count, ORACLE_BLOCK):
        m = min(ORACLE_BLOCK, count - start)
        block = buf[: spec.rank * m].reshape(spec.rank, m)
        if len(tables) == 1:
            picks = [slice(start, start + m)]
        else:
            picks = np.unravel_index(np.arange(start, start + m), sizes)
        for lb, (_, la, _), t, pick, lo, hi in zip(lams_b, parts_a, tables, picks, cols, cols[1:]):
            # "clip" only spares the copy of out that take makes under
            # "raise"; the indices are in range by construction
            lb.take(t[:, pick], out=block[lo:hi], mode="clip")
            np.subtract(block[lo:hi], la[:, None], out=block[lo:hi])
        if start == 0:  # the first permutation is the incumbent whatever its value, NaN included
            best_val = F.f.value(block[:, 0].copy())
        vals = np.asarray(F.f.value(block.T), dtype=float)
        if vals.shape != (m,):
            raise AlgebraError(f"{F.f.name} does not map a stack row by row")
        top = (np.fmin if sense == "min" else np.fmax).reduce(vals)
        with np.errstate(invalid="ignore"):  # inf - inf where top is infinite
            near = (np.abs(vals - top) <= ORACLE_ULPS * np.spacing(abs(top))) | (vals == top)
        for j in np.flatnonzero(near):
            v = F.f.value(block[:, j].copy())
            if v < best_val if sense == "min" else v > best_val:
                best_val, best_pos = v, start + j
    coords = np.zeros(spec.dim)
    for lb, (_, _, fr), t, i in zip(lams_b, parts_a, tables, np.unravel_index(best_pos, sizes)):
        coords += lb[t[:, i]] @ fr
    xbar = Element(spec, coords)
    report = CommutationReport((("shift_a", operator_commutes(xbar, a)[1]),))
    return OptResult(xbar, float(best_val), count, 0.0, report, "oracle")


def spectralbox_descent(
    obj: Objective,
    fset: FeasibleSet,
    x0: Element | None = None,
    params: SolverParams = SolverParams(),
) -> OptResult:
    """Projected gradient x <- P(x - s g) on a sorted eigenvalue box.

    The box is a spectral set, so its nearest point P(c) keeps c's
    Jordan frame and projects c's sorted eigenvalues onto the sorted box
    (Lewis 1996; Jeong & Gowda 2017): one ``_decompose_rows`` and one
    ``project_sorted_box``.  g is the objective's subgradient, or its
    central differences.  Armijo backtracking on s along the projection
    arc, warm-started from the last accepted step.  Stationarity is the
    projected-gradient step |c - P(c - g)|; the status is "converged"
    once it is within tol, "stalled" at the rounding floor (as in
    ``_armijo``): a trial whose predicted decrease g . (c - P(c - s g))
    is within STALL_ULPS ulps of |value| neither decreases the value nor
    raises it by more than those ulps, where a larger rise halves s.
    "line_search_failed" when Armijo finds no decrease in MAX_HALVINGS
    halvings, "max_iters" otherwise.  A stopped start keeps its last
    accepted point.
    """
    if fset.variant != "box":
        raise AlgebraError("spectralbox_descent needs a box feasible set")
    spec = obj.algebra
    if fset.algebra != spec:
        raise AlgebraError("algebra mismatch")
    lo, hi = fset.lower, fset.upper
    c = _start(fset, x0).copy()
    sgn = _sign(obj.sense)
    val, grad = _coord_fns(obj)

    def project(c: np.ndarray) -> np.ndarray:
        u, frame_rows = _decompose_rows(spec, c)
        return project_sorted_box(u, lo, hi) @ frame_rows

    fc = sgn * val(c[None])[0]
    s = 1.0
    status = "max_iters"
    stat = np.inf
    it = 0
    for it in range(1, params.max_iters + 1):
        g = sgn * grad(c[None])[0]
        stat = float(np.linalg.norm(c - project(c - g)))
        if stat <= params.tol:
            status = "converged"
            break
        s = min(1.0, 2.0 * s)
        noise = STALL_ULPS * np.finfo(float).eps * abs(fc)
        for _ in range(MAX_HALVINGS):
            ct = project(c - s * g)
            ft = sgn * val(ct[None])[0]
            pred = float(g @ (c - ct))
            if ft <= fc - ARMIJO_C1 * pred:
                break
            if pred <= noise and fc <= ft <= fc + noise:
                status = "stalled"
                break
            s *= BACKTRACK
        else:
            status = "line_search_failed"
        if status != "max_iters":
            break
        c, fc = ct, ft
    xbar = Element(spec, c)
    return OptResult(xbar, sgn * fc, it, stat, _diagnostics(obj, xbar, None), status)


def _random_start(fset: FeasibleSet, rng: np.random.Generator) -> Element:
    spec = fset.algebra
    X = random_automorphism(spec, rng)
    if fset.variant == "orbit":
        return X.apply(fset.anchor)
    u = rng.uniform(fset.lower, fset.upper)
    u = project_sorted_box(np.sort(u)[::-1], fset.lower, fset.upper)
    return X.apply(combine(canonical_frame(spec), u))


def _attempt(solve, *args):
    """solve(*args), or the AlgebraError it raised."""
    try:
        return solve(*args)
    except AlgebraError as exc:
        return exc


def _draw_starts(fset: FeasibleSet, starts: int, seed: int) -> list[Element | None]:
    """Start 0 is the default start (None); start i draws from the seed's i-th spawn."""
    if starts < 1:
        raise AlgebraError("starts must be >= 1")
    x0s: list[Element | None] = [None]
    for i in range(1, starts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        x0s.append(_random_start(fset, rng))
    return x0s


def _orbit_outcomes(pending: list, basis, params: SolverParams) -> None:
    """Run the lockstep rows of orbit problems, filling their outcomes in place.

    ``pending`` holds, per problem, (objs, points, outcomes): the
    objectives differ only in sense, points are the checked starts (an
    AlgebraError for a start that failed its check) and outcomes gets,
    per objective, each start's _Solve or AlgebraError.  Every
    (objective, start) pair is one row, problem-major, then
    objective-major, signed by its objective's sense and owned by its
    problem.  Whole problems are packed in order into stacks of at most
    STACK_ROWS rows; a larger problem gets a stack of its own.
    """
    jobs = []
    for objs, points, outcomes in pending:
        # every outcome starts as the checked point; solves replace the live ones
        for out in outcomes:
            out[:] = points
        live = [i for i, p in enumerate(points) if not isinstance(p, AlgebraError)]
        if live:
            jobs.append((objs, live, outcomes))
    stacks, rows = [], 0
    for job in jobs:
        n = len(job[0]) * len(job[1])
        if not stacks or rows + n > STACK_ROWS:
            stacks.append([])
            rows = 0
        stacks[-1].append(job)
        rows += n
    for stack in stacks:
        C, sgn, own, slots = [], [], [], []
        for p, (objs, live, outcomes) in enumerate(stack):
            for o, out in zip(objs, outcomes):
                C += [out[i] for i in live]
                sgn += [_sign(o.sense)] * len(live)
                own += [p] * len(live)
                slots += [(out, i) for i in live]
        solves = _orbit_lockstep([objs[0] for objs, _, _ in stack], basis, np.stack(C), np.array(sgn), np.array(own), params)
        for (out, i), row in zip(slots, solves):
            out[i] = row


def _best(obj: Objective, outcomes: list) -> OptResult:
    """The best-valued start that yields a result, lowest index on ties.

    Orbit starts are finished (subgradient and diagnostics) lazily, best
    value first: a start whose finish raises AlgebraError is dropped and
    the next best is tried, which returns what finishing every start
    first would.  Raises when every start failed.
    """
    sgn = _sign(obj.sense)
    failures = {i: out for i, out in enumerate(outcomes) if isinstance(out, AlgebraError)}
    live = [i for i in range(len(outcomes)) if i not in failures]
    while live:
        # min keeps the first of equal keys, as a strict-improvement scan does
        i = min(live, key=lambda j: sgn * outcomes[j].value)
        res = outcomes[i] if isinstance(outcomes[i], OptResult) else _attempt(_finish, obj, outcomes[i])
        if not isinstance(res, AlgebraError):
            return replace(res, start_index=i)
        failures[i] = res
        live.remove(i)
    raise AlgebraError(f"all {len(outcomes)} starts failed: {failures[max(failures)]}")


def _solve_batch(problems: list, params: SolverParams) -> list:
    """Per problem (objs, fset, x0s): one OptResult per objective, or an error.

    A problem's objectives are one objective in one or more senses, and
    share its start list x0s, where None is the set's default start;
    each objective gets its best start (``_best``).  The error is the
    AlgebraError that every start of the problem failed with, or that
    failed the problem itself.  The rows of all orbit problems run in
    ``_orbit_outcomes``' stacks; box starts are solved one at a time.
    """
    if len({fset.algebra for _, fset, _ in problems}) > 1:
        raise AlgebraError("problems of one batch must share an algebra")
    out: list = [None] * len(problems)
    pending, basis = [], None
    for p, (objs, fset, x0s) in enumerate(problems):
        if fset.variant == "box":
            out[p] = [[_attempt(spectralbox_descent, o, fset, x0, params) for x0 in x0s] for o in objs]
        elif fset.algebra != objs[0].algebra:
            out[p] = AlgebraError("algebra mismatch")
        else:
            basis = derivation_basis(fset.algebra)
            out[p] = [[] for _ in objs]
            pending.append((objs, [_attempt(_start, fset, x0) for x0 in x0s], out[p]))
    _orbit_outcomes(pending, basis, params)
    # list() runs the lazy map inside _attempt, which catches its errors
    return [res if isinstance(res, AlgebraError) else _attempt(list, map(_best, objs, res)) for (objs, _, _), res in zip(problems, out)]


def _raise_first(outcomes: list) -> list:
    for res in outcomes:
        if isinstance(res, AlgebraError):
            raise res
    return outcomes


def multistart(
    obj: Objective,
    fset: FeasibleSet,
    params: SolverParams = SolverParams(),
    starts: int = 8,
    seed: int = 0,
) -> OptResult:
    """Best-of-N local solves; start 0 is the deterministic default start.

    The other starts are random, deterministic given the seed: start i
    draws from the seed's i-th spawned generator.  Ties in value keep the
    lowest start index.  Orbit starts descend in lockstep as one stacked
    solve; a start whose solve raises AlgebraError is dropped.
    Commutation diagnostics are built only for the returned start.
    ``multistart_minmax`` is the two-sense call.
    """
    ((res,),) = _raise_first(_solve_batch([((obj,), fset, _draw_starts(fset, starts, seed))], params))
    return res


def _both_senses(obj: Objective) -> tuple[Objective, Objective]:
    return replace(obj, sense="min"), replace(obj, sense="max")


def multistart_minmax_batch(
    problems: list[tuple[Objective, FeasibleSet, int]],
    params: SolverParams = SolverParams(),
    starts: int = 8,
) -> list[tuple[OptResult, OptResult]]:
    """``multistart_minmax`` for every (obj, fset, seed) in problems.

    The problems must share one algebra.  Each problem draws its own
    start sequence from its seed; over orbits, the rows of all problems,
    both senses and every start run in lockstep stacks of at most
    STACK_ROWS rows.  Rows of objectives built on the theta + F(x - a)
    kernel, every built-in objective with a spectral term, share one
    spectral decomposition per stacked call.  Every pair is
    what ``multistart_minmax`` returns for its problem alone, bit for
    bit; when that call would raise for some problem, the batch raises
    the error of the first such problem.
    """
    both = [(_both_senses(obj), fset, _draw_starts(fset, starts, seed)) for obj, fset, seed in problems]
    return [tuple(pair) for pair in _raise_first(_solve_batch(both, params))]


def multistart_minmax(
    obj: Objective,
    fset: FeasibleSet,
    params: SolverParams = SolverParams(),
    starts: int = 8,
    seed: int = 0,
) -> tuple[OptResult, OptResult]:
    """``multistart`` for both senses of obj: (min result, max result).

    obj's own sense is ignored.  The start sequence is drawn and checked
    once and serves both senses; over an orbit, all 2 * starts rows run
    as one lockstep stack, each row signed by its sense.  Each result
    is what ``multistart(replace(obj, sense=s), ...)`` returns, bit for
    bit.  This is the one-problem call of ``multistart_minmax_batch``.
    """
    (pair,) = multistart_minmax_batch([(obj, fset, seed)], params, starts)
    return pair
