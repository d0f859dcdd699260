"""Stacked kernels against their one-row calls, and the lockstep orbit solver."""

import dataclasses

import numpy as np
import pytest

from ejalg import (
    AlgebraError,
    Objective,
    SolverParams,
    SpectralFunction,
    derivation_basis,
    kappa_shift,
    linear_plus_spectral,
    multistart,
    multistart_minmax,
    multistart_minmax_batch,
    orbit,
    orbit_descent,
    parse_algebra,
    random_automorphism,
    random_element,
    schatten,
    shifted_spectral,
    spectral_box,
    sumsq,
    unit,
)
from ejalg.algebra import _decompose_rows, _eigvals, canonical_frame, multiplicity_blocks
from ejalg.liegroup import SkewCurves, basis_curve_points, exp_action, tangent_stack
from ejalg.optimize import _coord_fns, _finish, _orbit_lockstep, _random_start, membership
from ejalg.specfun import spectral_subgrad_coords, spectral_value_coords
from ejalg.verify import _max_objective, _maxaffine_objective, _quadratic_plus_norm

ALGEBRAS = ["rn:4", "sym:3", "sym:4", "spin:4", "prod(sym:3,spin:4)", "prod(rn:2,sym:2)"]
FUNCTIONS = [sumsq(), schatten(1.5), schatten(2), schatten(3)]
RTOL = 1e-12


def _close(a, b, rtol=RTOL):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rtol * (1.0 + np.max(np.abs(b), initial=0.0))


def _on_frame(spec, values, rng):
    """An element with the given spectrum on a random frame."""
    rows = np.stack([e.coords for e in canonical_frame(spec)])
    return random_automorphism(spec, rng).matrix @ (np.asarray(values, dtype=float) @ rows)


def _hostile_stack(spec, rng):
    """Random rows plus exactly tied, 1e-9-near-tied and tiny-spin-vector rows."""
    rows = [rng.standard_normal(spec.dim) for _ in range(4)]
    rows.append(np.zeros(spec.dim))
    tied = np.sort(rng.standard_normal(spec.rank))[::-1]
    tied[1] = tied[0]
    rows.append(_on_frame(spec, tied, rng))
    near = tied.copy()
    near[1] = near[0] - 1e-9
    rows.append(_on_frame(spec, near, rng))
    if spec.kind in ("spin", "prod"):
        at = 0
        for f in spec.factors if spec.kind == "prod" else (spec,):
            if f.kind == "spin":
                x = rng.standard_normal(spec.dim)
                x[at + 1 : at + f.dim] = 1e-16 * rng.standard_normal(f.dim - 1)
                rows.append(x)
            at += f.dim
    return np.stack(rows)


def _block_sums(lam, F):
    """Frame rows summed over multiplicity blocks: invariant where frames are not unique."""
    return [F[list(b)].sum(axis=0) for b in multiplicity_blocks(lam, 1e-6)]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_eigvals_and_decompose_rows_match_one_row_calls(name):
    spec = parse_algebra(name)
    X = _hostile_stack(spec, np.random.default_rng(1))
    lam = _eigvals(spec, X)
    lam_d, F = _decompose_rows(spec, X)
    assert lam.shape == lam_d.shape == (len(X), spec.rank)
    assert F.shape == (len(X), spec.rank, spec.dim)
    for i, x in enumerate(X):
        _close(lam[i], _eigvals(spec, x))
        lam1, F1 = _decompose_rows(spec, x)
        _close(lam_d[i], lam1)
        for got, want in zip(_block_sums(lam1, F[i]), _block_sums(lam1, F1)):
            _close(got, want)
        # every frame still reconstructs its row
        _close(lam_d[i] @ F[i], x, 1e-10)
    # a (2, m/2, dim) stack keeps its leading shape
    half = X[: 2 * (len(X) // 2)].reshape(2, -1, spec.dim)
    _close(_eigvals(spec, half), lam[: 2 * (len(X) // 2)].reshape(2, -1, spec.rank))


def test_spin_canonical_frame_below_the_vector_threshold():
    spec = parse_algebra("spin:4")
    X = np.array([[1.0, 1e-16, 0.0, 0.0], [1.0, 0.0, 0.6, 0.8]])
    _, F = _decompose_rows(spec, X)
    h = 1.0 / np.sqrt(2.0)
    _close(F[0], np.array([[h, h, 0.0, 0.0], [h, -h, 0.0, 0.0]]))
    _close(F[1], np.array([[h, 0.0, 0.6 * h, 0.8 * h], [h, 0.0, -0.6 * h, -0.8 * h]]))


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.name)
def test_spectral_value_and_subgradient_match_one_row_calls(name, f):
    spec = parse_algebra(name)
    F = SpectralFunction(f, spec)
    X = _hostile_stack(spec, np.random.default_rng(2))
    vals = spectral_value_coords(F, X)
    subs = spectral_subgrad_coords(F, X)
    assert vals.shape == (len(X),) and subs.shape == X.shape
    for i, x in enumerate(X):
        _close(vals[i], spectral_value_coords(F, x))
        _close(subs[i], spectral_subgrad_coords(F, x))


@pytest.mark.parametrize("name", ["sym:3", "spin:4", "prod(sym:3,spin:4)"])
def test_basis_curve_points_match_exp_action(name):
    # the Hessian probes: every basis map against every row, each row with its own step
    spec = parse_algebra(name)
    basis = derivation_basis(spec)
    X = np.random.default_rng(4).standard_normal((3, spec.dim))
    h = np.array([1e-5, 2e-5, 0.3])
    probes = basis_curve_points(basis, X, h)
    assert probes.shape == (3, basis.dimension, spec.dim)
    for r in range(3):
        for j in range(basis.dimension):
            _close(probes[r, j], exp_action(basis.stack[j], X[r], h[r]))
        # a row's probes do not depend on the rest of the stack
        assert np.array_equal(basis_curve_points(basis, X[r : r + 1], h[r : r + 1])[0], probes[r])


@pytest.mark.parametrize("name", ["sym:3", "spin:5", "prod(sym:3,spin:4)"])
def test_skew_curves_match_exp_action_and_stay_on_the_orbit(name):
    spec = parse_algebra(name)
    basis = derivation_basis(spec)
    rng = np.random.default_rng(5)
    scales = np.array([1e-6, 1.0, 10.0, 3e4])
    D = np.stack([s * np.tensordot(rng.standard_normal(basis.dimension), basis.stack, axes=(0, 0)) for s in scales])
    X = rng.standard_normal((len(scales), spec.dim))
    curves = SkewCurves.of(D, X)
    for t in (np.full(4, 1e-9), np.array([1.0, 0.3, 0.05, 1.0])):
        got = curves.at(t)
        for i in range(4):
            size = t[i] * np.linalg.norm(D[i])
            _close(got[i], exp_action(D[i], X[i], t[i]), 1e-15 * (1.0 + size) * spec.dim)
            # the map is orthogonal up to the rounding of its angles
            _close(_eigvals(spec, got[i]), _eigvals(spec, X[i]), 1e-15 * (1.0 + size) * spec.dim)
    _close(curves.at(np.array([0.5, 0.5]), np.array([3, 1])), curves.at(np.full(4, 0.5))[[3, 1]])


def test_rows_past_the_temporary_elision_size_match_one_row_calls():
    # numpy reuses an unnamed temporary above 256 KiB as an operation's
    # output; 7,000 rows of sym:4 put every operand above 512 KiB
    spec = parse_algebra("sym:4")
    basis = derivation_basis(spec)
    rng = np.random.default_rng(6)
    m = 7000
    X = rng.standard_normal((m, spec.dim))
    assert X.nbytes > 512 * 1024
    D = np.tensordot(rng.standard_normal((m, basis.dimension)), basis.stack, axes=(1, 0))
    t = rng.uniform(0.0, 2.0, m)
    rows = np.arange(m)
    curves = SkewCurves.of(D, X)
    stacked = {
        "at": curves.at(t, rows),
        "curve_points": basis_curve_points(basis, X, t),
        "eigvals": _eigvals(spec, X),
        "decompose": _decompose_rows(spec, X),
        "tangent": tangent_stack(basis, X),
    }
    for i in range(m):
        one = slice(i, i + 1)
        assert _bits(curves.at(t[one], rows[one])[0]) == _bits(stacked["at"][i])
        assert _bits(basis_curve_points(basis, X[one], t[one])[0]) == _bits(stacked["curve_points"][i])
        assert _bits(_eigvals(spec, X[one])[0]) == _bits(stacked["eigvals"][i])
        lam, F = _decompose_rows(spec, X[one])
        assert _bits(lam[0]) == _bits(stacked["decompose"][0][i])
        assert _bits(F[0]) == _bits(stacked["decompose"][1][i])
        assert _bits(tangent_stack(basis, X[one])[0]) == _bits(stacked["tangent"][i])


def _row_exact_cases(spec, rng):
    """(value_c, solvers' gradient) of every built-in objective, and (value, subgrad) of the p-norms."""
    a, c = random_element(spec, rng), random_element(spec, rng)
    A = rng.standard_normal((spec.dim, spec.dim))
    objs = {
        "shifted_spectral": shifted_spectral(SpectralFunction(schatten(3), spec), a),
        # no subgradient: central differences
        "kappa_shift": kappa_shift(unit(spec) * 10.0 + a),
        "quadratic_plus_norm": _quadratic_plus_norm(spec, A @ A.T + np.eye(spec.dim), c.coords),
    }
    for f in (None, schatten(1.5), schatten(3)):
        name = f.name if f else "none"
        F = f and SpectralFunction(f, spec)
        objs[f"linear_plus_spectral:{name}"] = linear_plus_spectral(c, F)
        # the max suite's two objectives
        objs[f"max_objective:linear:{name}"] = linear_plus_spectral(c, F, "max")
        objs[f"max_objective:shifted:{name}"] = _max_objective(c, F)
    C, d = rng.standard_normal((3, spec.dim)), rng.standard_normal(3)
    objs["maxaffine_objective"] = _maxaffine_objective(spec, C, d, schatten(2), 1e-2)
    objs["maxaffine_objective:mu=0.01"] = _maxaffine_objective(spec, C, d, sumsq(), smooth_mu=1e-2)
    cases = {name: (obj.value_c, _coord_fns(obj)[1]) for name, obj in objs.items()}
    # a symmetric function takes rows of any length
    cases.update({f.name: (f.value, f.subgrad) for f in (schatten(1.5), schatten(3))})
    return cases


@pytest.mark.parametrize("name", list(_row_exact_cases(parse_algebra("sym:2"), np.random.default_rng(0))))
def test_objective_rows_past_the_temporary_elision_size_match_one_row_calls(name):
    # a row of a stack, its one-row stack and its 1-D call agree bit for
    # bit, so a problem's rows do not depend on the stack they ride in
    spec = parse_algebra("sym:8")
    rng = np.random.default_rng(29)
    value, grad = _row_exact_cases(spec, rng)[name]
    X = 0.5 * rng.standard_normal((1900, spec.dim))
    assert X.nbytes > 512 * 1024
    vals, grads = value(X), grad(X)
    assert vals.shape == X.shape[:1] and grads.shape == X.shape
    assert np.isfinite(vals).all() and np.isfinite(grads).all()
    for i in range(len(X)):
        for one in (X[i : i + 1], X[i]):
            assert _bits(value(one)) == _bits(vals[i])
            assert _bits(grad(one)) == _bits(grads[i])


def test_skew_curves_keep_slow_rotations_beside_fast_ones():
    # frequencies 1 and 1e4 on the spin vector part, the shape of a
    # long saddle-free Newton step; squaring D would cost the slow pair
    # its accuracy and push the point off the orbit
    spec = parse_algebra("spin:5")
    R = np.eye(5)
    R[1:, 1:] = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
    D = np.zeros((5, 5))
    D[2, 1], D[4, 3] = 1.0, 1e4
    D = R @ (D - D.T) @ R.T
    x = np.random.default_rng(8).standard_normal(5)
    got = SkewCurves.of(D[None], x[None]).at(np.array([1.0]))[0]
    _close(_eigvals(spec, got), _eigvals(spec, x), 1e-15 * np.linalg.norm(D) * spec.dim)


# -- the lockstep orbit solver ------------------------------------------------


def _per_start_best(obj, fset, params, starts, seed, skip=()):
    """Best of one-row orbit_descent calls over multistart's start sequence."""
    best = None
    for i in range(starts):
        if i in skip:
            continue
        x0 = None
        if i:
            x0 = _random_start(fset, np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        res = orbit_descent(obj, fset, x0, params)
        sgn = 1.0 if obj.sense == "min" else -1.0
        if best is None or sgn * res.value < sgn * best[1].value:
            best = (i, res)
    return best


@pytest.mark.parametrize("name", ["sym:3", "spin:5", "prod(sym:3,spin:4)"])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_lockstep_multistart_matches_per_start_solves(name, sense):
    spec = parse_algebra(name)
    rng = np.random.default_rng(6)
    for f in (schatten(2), schatten(3), sumsq()):
        a, b = random_element(spec, rng), random_element(spec, rng)
        obj = shifted_spectral(SpectralFunction(f, spec), a, sense)
        res = multistart(obj, orbit(b), SolverParams(), starts=4, seed=9)
        i, one = _per_start_best(obj, orbit(b), SolverParams(), 4, 9)
        assert res.start_index == i
        assert abs(res.value - one.value) <= 1e-9 * (1.0 + abs(one.value))
        assert res.status in ("converged", "stalled")
    c = random_element(spec, rng)
    obj = linear_plus_spectral(c, SpectralFunction(schatten(3), spec), sense)
    res = multistart(obj, orbit(b), SolverParams(), starts=4, seed=3)
    i, one = _per_start_best(obj, orbit(b), SolverParams(), 4, 3)
    assert res.start_index == i
    assert abs(res.value - one.value) <= 1e-9 * (1.0 + abs(one.value))


def _shift_problem(name="sym:3", seed=11):
    spec = parse_algebra(name)
    rng = np.random.default_rng(seed)
    a, b = random_element(spec, rng), random_element(spec, rng)
    return spec, a, b, SpectralFunction(sumsq(), spec)


def test_status_converged():
    spec, a, b, F = _shift_problem()
    res = orbit_descent(shifted_spectral(F, a), orbit(b))
    assert res.status == "converged"
    assert res.stationarity <= SolverParams().tol


def test_status_max_iters():
    spec, a, b, F = _shift_problem()
    res = orbit_descent(shifted_spectral(F, a), orbit(b), params=SolverParams(max_iters=2))
    assert res.status == "max_iters"
    assert res.iterations == 2


def test_status_stalled():
    # a subgradient 1e16 times too small and of the wrong sign: its Newton
    # step predicts a decrease below the rounding of the value, and the
    # step raises the value, so the solve stops instead of halving
    spec, a, b, F = _shift_problem()
    true = shifted_spectral(F, a)
    obj = Objective(
        label="stall", algebra=spec, sense="min", value=true.value,
        value_c=true.value_c, subgrad_c=lambda c: -1e-16 * true.subgrad_c(c),
    )
    res = orbit_descent(obj, orbit(b), params=SolverParams(tol=0.0))
    assert res.status == "stalled"
    assert res.iterations == 1
    assert res.value == true.value(b)


def test_status_line_search_failed():
    # every move off the start is infinitely worse, and the steps are too
    # long for any halving to round back onto the start
    spec, a, b, F = _shift_problem()
    start = b.coords.copy()

    def value_c(c):
        return np.where(np.all(c == start, axis=-1), 0.0, np.inf)

    obj = Objective(
        label="wall", algebra=spec, sense="min", value=lambda x: float(value_c(x.coords)),
        value_c=value_c, subgrad_c=lambda c: 1e20 * shifted_spectral(F, a).subgrad_c(c),
    )
    res = orbit_descent(obj, orbit(b))
    assert res.status == "line_search_failed"
    assert res.iterations == 1
    assert res.value == 0.0


def _poisoned(F, a, bad):
    """Shifted objective whose subgradient is NaN at points where bad(c) holds."""
    good = shifted_spectral(F, a)

    def subgrad_c(c):
        g = good.subgrad_c(c)
        return np.where(bad(c)[..., None], np.nan, g)

    return Objective(
        label="poisoned", algebra=F.algebra, sense="min", value=good.value,
        value_c=good.value_c, subgrad_c=subgrad_c,
    )


def test_non_finite_start_fails_alone():
    spec, a, b, F = _shift_problem()
    fset = orbit(b)
    seed = 4
    x1 = _random_start(fset, np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    obj = _poisoned(F, a, lambda c: np.all(c == x1.coords, axis=-1))
    with pytest.raises(AlgebraError):
        orbit_descent(obj, fset, x1)
    res = multistart(obj, fset, SolverParams(), starts=4, seed=seed)
    i, one = _per_start_best(shifted_spectral(F, a), fset, SolverParams(), 4, seed, skip=(1,))
    assert res.start_index == i
    assert abs(res.value - one.value) <= 1e-9 * (1.0 + abs(one.value))
    assert np.isfinite(res.stationarity)


def test_every_start_non_finite_is_an_error():
    spec, a, b, F = _shift_problem()
    obj = _poisoned(F, a, lambda c: np.ones(c.shape[:-1], dtype=bool))
    with pytest.raises(AlgebraError, match="all 3 starts failed"):
        multistart(obj, orbit(b), SolverParams(), starts=3, seed=0)


def test_non_finite_subgradient_at_the_solution_fails():
    # rn:3 has no derivations, so the solve ends at iteration 0 without a
    # subgradient call; the commutation diagnostics meet the NaN first
    spec = parse_algebra("rn:3")
    b = random_element(spec, np.random.default_rng(0))
    obj = Objective(
        label="nan", algebra=spec, sense="max", value=lambda x: 0.0,
        value_c=lambda c: np.add.reduce(c * c, axis=-1), subgrad_c=lambda c: np.full(c.shape, np.nan),
    )
    with pytest.raises(AlgebraError, match="finite"):
        orbit_descent(obj, orbit(b))
    with pytest.raises(AlgebraError, match="all 2 starts failed"):
        multistart(obj, orbit(b), starts=2)


def test_raising_row_objective_fails_only_its_start():
    spec, a, b, F = _shift_problem()
    fset = orbit(b)
    x2 = _random_start(fset, np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(2,))))
    good = shifted_spectral(F, a)

    def value_c(c):
        if np.all(c == x2.coords, axis=-1).any():
            raise AlgebraError("refused")
        return good.value_c(c)

    obj = Objective(label="row", algebra=spec, sense="min", value=good.value, value_c=value_c, subgrad_c=good.subgrad_c)
    with pytest.raises(AlgebraError, match="refused"):
        orbit_descent(obj, fset, x2)
    res = multistart(obj, fset, SolverParams(), starts=4, seed=5)
    assert res.start_index != 2
    ok, _ = membership(fset, res.x)
    assert ok


def test_raising_row_in_the_rounding_floor_fails_its_start():
    # the stall objective of test_status_stalled, refusing the trial points
    # next to one start: that start fails instead of stalling
    spec, a, b, F = _shift_problem()
    fset = orbit(b)
    x2 = _random_start(fset, np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(2,))))
    true = shifted_spectral(F, a)

    def value_c(c):
        near = np.linalg.norm(c - x2.coords, axis=-1)
        if ((0.0 < near) & (near < 1e-3)).any():
            raise AlgebraError("refused")
        return true.value_c(c)

    obj = Objective(
        label="stall", algebra=spec, sense="min", value=true.value,
        value_c=value_c, subgrad_c=lambda c: -1e-16 * true.subgrad_c(c),
    )
    params = SolverParams(tol=0.0)
    with pytest.raises(AlgebraError, match="refused"):
        orbit_descent(obj, fset, x2, params)
    assert orbit_descent(obj, fset, params=params).status == "stalled"
    res = multistart(obj, fset, params, starts=4, seed=5)
    assert res.start_index != 2
    assert res.status == "stalled"


# -- both senses in one stack ---------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_result(got, want):
    """Every field of two OptResults, bit for bit."""
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.x.coords) == _bits(want.x.coords)
    assert got.iterations == want.iterations
    assert _bits(got.stationarity) == _bits(want.stationarity)
    assert got.status == want.status
    assert got.start_index == want.start_index
    assert [n for n, _ in got.diagnostics.pairs] == [n for n, _ in want.diagnostics.pairs]
    assert _bits([r for _, r in got.diagnostics.pairs]) == _bits([r for _, r in want.diagnostics.pairs])


def _paired_objectives(spec, rng):
    a, c = random_element(spec, rng), random_element(spec, rng)
    A = rng.standard_normal((spec.dim, spec.dim))
    return {
        "shifted_spectral": shifted_spectral(SpectralFunction(schatten(3), spec), a),
        "linear_plus_spectral": linear_plus_spectral(c, SpectralFunction(sumsq(), spec)),
        # a row-loop objective: the solver calls it one row at a time
        "quadratic_plus_norm": _quadratic_plus_norm(spec, A @ A.T + np.eye(spec.dim), a.coords),
        # no subgradient: central differences, row by row
        "kappa_shift": kappa_shift(unit(spec) * 6.0 + a),
    }


def _negated(obj):
    """-obj, to be minimized; every value and subgradient negates exactly."""
    value_c, subgrad_c = obj.value_c, obj.subgrad_c
    return dataclasses.replace(
        obj, sense="min", value=None, subgradient=None,
        value_c=lambda c: -value_c(c), subgrad_c=None if subgrad_c is None else (lambda c: -subgrad_c(c)),
    )


def _negated_result(res):
    return dataclasses.replace(res, value=-res.value)


PAIRED_ALGEBRAS = ["sym:3", "spin:5", "prod(sym:3,spin:4)", "rn:3"]


@pytest.mark.parametrize("name", PAIRED_ALGEBRAS)
@pytest.mark.parametrize("kind", list(_paired_objectives(parse_algebra("sym:2"), np.random.default_rng(0))))
def test_multistart_minmax_matches_two_one_sense_calls(name, kind):
    spec = parse_algebra(name)
    rng = np.random.default_rng(12)
    obj = _paired_objectives(spec, rng)[kind]
    fset = orbit(random_element(spec, rng))
    # finite differences make kappa's iterations dear; exactness needs no convergence
    params = SolverParams(max_iters=30) if kind == "kappa_shift" else SolverParams()
    lo, hi = multistart_minmax(obj, fset, params, starts=4, seed=7)
    for sense, got in (("min", lo), ("max", hi)):
        want = multistart(dataclasses.replace(obj, sense=sense), fset, params, starts=4, seed=7)
        _assert_same_result(got, want)
    # the objective's own sense does not matter
    for got, want in zip(multistart_minmax(dataclasses.replace(obj, sense="max"), fset, params, starts=4, seed=7), (lo, hi)):
        _assert_same_result(got, want)
    # maximizing is minimizing the exactly negated objective
    _assert_same_result(hi, _negated_result(multistart(_negated(obj), fset, params, starts=4, seed=7)))


def test_multistart_minmax_draws_the_starts_once_and_solves_one_stack(monkeypatch):
    import ejalg.optimize as opt

    spec = parse_algebra("prod(sym:3,spin:4)")
    rng = np.random.default_rng(16)
    obj = shifted_spectral(SpectralFunction(schatten(2), spec), random_element(spec, rng))
    draws, stacks = [], []
    real_draw, real_lockstep = opt.random_automorphism, opt._orbit_lockstep
    monkeypatch.setattr(opt, "random_automorphism", lambda *args: draws.append(1) or real_draw(*args))
    monkeypatch.setattr(opt, "_orbit_lockstep", lambda *args: stacks.append(args[3].copy()) or real_lockstep(*args))
    multistart_minmax(obj, orbit(random_element(spec, rng)), starts=4, seed=1)
    assert len(draws) == 3
    assert len(stacks) == 1 and stacks[0].tolist() == [1.0] * 4 + [-1.0] * 4


def test_multistart_minmax_on_a_box_matches_two_one_sense_calls():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(13)
    obj = linear_plus_spectral(random_element(spec, rng), SpectralFunction(schatten(3), spec))
    fset = spectral_box(spec, [1.0, 0.5, -0.5], [2.0, 1.0, 0.0])
    params = SolverParams(max_iters=20)
    lo, hi = multistart_minmax(obj, fset, params, starts=3, seed=2)
    _assert_same_result(lo, multistart(obj, fset, params, starts=3, seed=2))
    _assert_same_result(hi, multistart(dataclasses.replace(obj, sense="max"), fset, params, starts=3, seed=2))


def _same_solve(got, want):
    assert _bits(got.c) == _bits(want.c)
    assert _bits(got.value) == _bits(want.value)
    assert (got.iterations, got.status) == (want.iterations, want.status)
    assert _bits(got.stationarity) == _bits(want.stationarity)


@pytest.mark.parametrize("name", ["sym:3", "prod(sym:3,spin:4)"])
def test_lockstep_row_does_not_depend_on_its_neighbours(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(14)
    a, b = random_element(spec, rng), random_element(spec, rng)
    obj = shifted_spectral(SpectralFunction(schatten(3), spec), a)
    basis = derivation_basis(spec)
    fset = orbit(b)
    X = np.stack([_random_start(fset, rng).coords for _ in range(3)])
    params = SolverParams()
    for sgn in (1.0, -1.0):
        (alone,) = _orbit_lockstep([obj], basis, X[1:2], np.array([sgn]), np.zeros(1, dtype=int), params)
        same = _orbit_lockstep([obj], basis, X, np.full(3, sgn), np.zeros(3, dtype=int), params)
        opposite = _orbit_lockstep([obj], basis, X, np.array([-sgn, sgn, -sgn]), np.zeros(3, dtype=int), params)
        _same_solve(same[1], alone)
        _same_solve(opposite[1], alone)
        # the neighbours of opposite sense are the rows a one-sign stack gives them
        flipped = _orbit_lockstep([obj], basis, X, np.full(3, -sgn), np.zeros(3, dtype=int), params)
        _same_solve(opposite[0], flipped[0])
        _same_solve(opposite[2], flipped[2])


def _poison_one_row_calls_at(obj, point):
    """obj whose subgradient of a one-row stack is NaN at exactly ``point``.

    The subgradient that finishes a start at ``point`` is poisoned; so is
    the lockstep's own call there when that start is the last row of its
    stack, which fails the start one step earlier.
    """

    def subgrad_c(c):
        g = obj.subgrad_c(c)
        if len(c) == 1 and np.array_equal(c[0], point):
            return np.full(c.shape, np.nan)
        return g

    return dataclasses.replace(obj, subgrad_c=subgrad_c, subgradient=None)


# seeds whose poisoned start is not the last row of its stack in either call
FALLBACK_SEEDS = {"sym:3": 15, "spin:5": 15, "prod(sym:3,spin:4)": 19}


@pytest.mark.parametrize("name", ["sym:3", "spin:5", "prod(sym:3,spin:4)"])
def test_non_finite_subgradient_at_the_best_start_falls_back_to_the_next_best(name, monkeypatch):
    import ejalg.optimize as opt

    spec = parse_algebra(name)
    rng = np.random.default_rng(FALLBACK_SEEDS[name])
    a, b = random_element(spec, rng), random_element(spec, rng)
    obj = shifted_spectral(SpectralFunction(schatten(3), spec), a)
    fset, params = orbit(b), SolverParams()
    lo, hi = multistart_minmax(obj, fset, params, starts=4, seed=3)
    assert not np.array_equal(lo.x.coords, hi.x.coords)
    bad = _poison_one_row_calls_at(obj, lo.x.coords)
    i, want = _per_start_best(obj, fset, params, 4, 3, skip=(lo.start_index,))
    failed_finishes = []

    def finish(obj, row):
        try:
            return _finish(obj, row)
        except AlgebraError as exc:
            failed_finishes.append(exc)
            raise

    monkeypatch.setattr(opt, "_finish", finish)
    got_lo, got_hi = multistart_minmax(bad, fset, params, starts=4, seed=3)
    # each call finishes the poisoned start, fails and falls back from it
    assert len(failed_finishes) == 1
    one = multistart(bad, fset, params, starts=4, seed=3)
    assert len(failed_finishes) == 2
    for got in (got_lo, one):
        assert got.start_index == i != lo.start_index
        assert _bits(got.value) == _bits(want.value)
        assert _bits(got.x.coords) == _bits(want.x.coords)
    _assert_same_result(got_lo, one)
    # the start that failed to minimize still maximizes
    _assert_same_result(got_hi, hi)


# -- many problems in one batch -------------------------------------------------


BATCH_ALGEBRAS = ["sym:3", "spin:5", "prod(sym:3,spin:4)"]


def _batch_problems(spec, rng, kappa=False):
    """(obj, fset, seed) of every objective family, each on its own orbit."""
    objs = [shifted_spectral(SpectralFunction(f, spec), random_element(spec, rng)) for f in (schatten(2), schatten(3), sumsq())]
    objs.append(shifted_spectral(SpectralFunction(schatten(3), spec), random_element(spec, rng)))
    objs.append(linear_plus_spectral(random_element(spec, rng), SpectralFunction(sumsq(), spec)))
    A = rng.standard_normal((spec.dim, spec.dim))
    objs.append(_quadratic_plus_norm(spec, A @ A.T + np.eye(spec.dim), rng.standard_normal(spec.dim)))
    objs.append(_maxaffine_objective(spec, rng.standard_normal((2, spec.dim)), rng.standard_normal(2), sumsq(), 1e-2))
    if kappa:
        objs.append(kappa_shift(unit(spec) * 6.0 + random_element(spec, rng)))
    return [(o, orbit(random_element(spec, rng)), int(rng.integers(1000))) for o in objs]


def _assert_batch_matches_alone(problems, params, starts=4):
    got = multistart_minmax_batch(problems, params, starts)
    assert len(got) == len(problems)
    for (obj, fset, seed), pair in zip(problems, got):
        for g, w in zip(pair, multistart_minmax(obj, fset, params, starts, seed)):
            _assert_same_result(g, w)


@pytest.mark.parametrize("name", BATCH_ALGEBRAS)
def test_batch_matches_one_problem_calls(name):
    spec = parse_algebra(name)
    _assert_batch_matches_alone(_batch_problems(spec, np.random.default_rng(20)), SolverParams())


@pytest.mark.parametrize("name", BATCH_ALGEBRAS)
def test_batch_with_finite_difference_objectives_matches_one_problem_calls(name):
    # kappa has no subgradient oracle: central differences, row by row;
    # exactness needs no convergence, so a short budget keeps this quick
    spec = parse_algebra(name)
    problems = _batch_problems(spec, np.random.default_rng(21), kappa=True)
    _assert_batch_matches_alone(problems[::-1], SolverParams(max_iters=30))


def test_newton_rows_get_fresh_curvature_every_iteration(monkeypatch):
    import ejalg.optimize as opt

    # the iteration's Newton mask reaches the curvature probes and then, as
    # the full-step rows, the Armijo round: every Newton row is probed anew
    calls = []
    real_dirs, real_armijo = opt._newton_directions, opt._armijo
    monkeypatch.setattr(opt, "_newton_directions", lambda st, *args: calls.append(("probe", args[-1].copy())) or real_dirs(st, *args))
    monkeypatch.setattr(opt, "_armijo", lambda *args: calls.append(("armijo", args[-1].copy())) or real_armijo(*args))
    multistart_minmax_batch(_batch_problems(parse_algebra("sym:3"), np.random.default_rng(28)), SolverParams(), 4)
    steps = [(i, mask) for i, (what, mask) in enumerate(calls) if what == "armijo"]
    newton_steps = [(i, mask) for i, mask in steps if mask.any()]
    assert newton_steps and len(newton_steps) < len(steps)
    for i, mask in steps:
        probed = calls[i - 1][1] if i and calls[i - 1][0] == "probe" else np.zeros_like(mask)
        assert np.array_equal(probed, mask)
    assert len(calls) == len(steps) + len(newton_steps)
    # and the stack carries no curvature from one iteration to the next
    st = opt._Lockstep(np.zeros((2, 6)), np.ones(2), np.zeros(2, dtype=int))
    assert set(st.rows) == {"id", "sgn", "own", "c", "fc", "stat", "t_prev"}


def test_batch_rejects_mixed_algebras():
    rng = np.random.default_rng(22)
    problems = _batch_problems(parse_algebra("sym:3"), rng)[:1] + _batch_problems(parse_algebra("spin:4"), rng)[:1]
    with pytest.raises(AlgebraError, match="algebra"):
        multistart_minmax_batch(problems)
    assert multistart_minmax_batch([]) == []


def _hostile_kernels(spec, rng):
    """(objectives on the theta + F(x - a) kernel, the a of each): every built-in factory with a spectral term."""
    objs = [shifted_spectral(SpectralFunction(f, spec), random_element(spec, rng)) for f in (schatten(2), schatten(3), sumsq(), schatten(1.5))]
    shifts = [o.anchors[0][1].coords for o in objs]
    c, C, d = random_element(spec, rng), rng.standard_normal((3, spec.dim)), rng.standard_normal(3)
    objs += [
        linear_plus_spectral(c, SpectralFunction(schatten(3), spec), "max"),
        _max_objective(c, SpectralFunction(schatten(1.5), spec)),
        _maxaffine_objective(spec, C, d, sumsq(), 1e-2),
    ]
    return objs, np.stack(shifts + [np.zeros(spec.dim)] * 3)


@pytest.mark.parametrize("name", ["sym:3", "spin:4", "prod(sym:3,spin:4)", "rn:4"])
def test_shared_shifted_call_matches_per_objective_calls(name):
    from ejalg.optimize import _StackFns, _evaluate

    spec = parse_algebra(name)
    rng = np.random.default_rng(23)
    objs, shifts = _hostile_kernels(spec, rng)
    # every objective gets every row x + a_j of the hostile stack, interleaved:
    # x - a_j is tied, near-tied or a tiny spin vector
    X = _hostile_stack(spec, rng)
    own = np.tile(np.arange(len(objs)), len(X))
    C = X[np.repeat(np.arange(len(X)), len(objs))] + shifts[own]
    fns = _StackFns(objs)
    assert (fns.group == -1).all()
    vals, verr = fns.value(C, own)
    subs, serr = fns.grad(C, own)
    assert not verr and not serr
    for j, obj in enumerate(objs):
        rows = np.flatnonzero(own == j)
        assert _bits(vals[rows]) == _bits(obj.value_c(C[rows]))
        assert _bits(subs[rows]) == _bits(obj.subgrad_c(C[rows]))
        # and a row alone, in a one-row stack
        for i in rows:
            assert _bits(vals[i]) == _bits(obj.value_c(C[i : i + 1])[0])
            assert _bits(subs[i]) == _bits(obj.subgrad_c(C[i : i + 1])[0])

    # functions that refuse some rows: those rows fail alone, the rest keep their bits
    def refusing(f, j):
        limit = np.median(_eigvals(spec, C[own == j] - shifts[j])[:, 0])

        def value(u):
            if (u[..., 0] > limit).any():
                raise AlgebraError("refused")
            return f.value(u)

        return SpectralFunction(dataclasses.replace(f, value=value), spec)

    objs[1] = shifted_spectral(refusing(schatten(3), 1), objs[1].anchors[0][1])
    objs[4] = linear_plus_spectral(objs[4].anchors[0][1], refusing(schatten(3), 4), "max")
    fns = _StackFns(objs)
    assert (fns.group == -1).all()
    vals, verr = fns.value(C, own)
    for j, obj in enumerate(objs):
        rows = np.flatnonzero(own == j)
        want, werr = _evaluate(lambda c, _: obj.value_c(c), C[rows], own[rows], (len(rows),))
        assert _bits(vals[rows]) == _bits(want)
        assert {rows[i]: str(e) for i, e in werr.items()} == {i: str(e) for i, e in verr.items() if own[i] == j}
        assert (0 < len(werr) < len(rows)) == (j in (1, 4))


def test_wrapped_callables_take_the_per_objective_path():
    from ejalg.optimize import _StackFns

    spec = parse_algebra("prod(sym:3,spin:4)")
    problems = _batch_problems(spec, np.random.default_rng(24))[:4]
    wrapped = []
    for obj, fset, seed in problems:
        value_c, subgrad_c = obj.value_c, obj.subgrad_c
        obj = dataclasses.replace(obj, value_c=lambda c, f=value_c: f(c), subgrad_c=lambda c, f=subgrad_c: f(c))
        wrapped.append((obj, fset, seed))
    assert (_StackFns([o for o, _, _ in wrapped]).group == np.arange(4)).all()
    for got, want in zip(multistart_minmax_batch(wrapped), multistart_minmax_batch(problems)):
        for g, w in zip(got, want):
            _assert_same_result(g, w)


def test_batch_result_does_not_depend_on_its_stack_or_position(monkeypatch):
    import ejalg.optimize as opt

    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(25)
    per_stack = opt.STACK_ROWS // 8  # 4 starts in two senses
    problems = []
    while len(problems) < per_stack + 1:
        problems += _batch_problems(spec, rng)[:4]
    problems = problems[: per_stack + 1]
    probe = problems[0]
    alone = multistart_minmax(*probe[:2], SolverParams(), 4, probe[2])
    sizes = []
    real = opt._orbit_lockstep
    monkeypatch.setattr(opt, "_orbit_lockstep", lambda *args: sizes.append(len(args[2])) or real(*args))
    # first of a full stack, last of a full stack, first of the next stack
    for at in (0, per_stack - 1, per_stack):
        batch = problems[1:]
        batch.insert(at, probe)
        sizes.clear()
        got = multistart_minmax_batch(batch, SolverParams(), 4)
        assert sizes == [opt.STACK_ROWS, 8]
        for g, w in zip(got[at], alone):
            _assert_same_result(g, w)


def test_failed_starts_stay_inside_their_problem():
    spec, a, b, F = _shift_problem()
    rng = np.random.default_rng(26)
    healthy = _batch_problems(spec, rng)[:3]
    seed = 4
    x1 = _random_start(orbit(b), np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    partly = (_poisoned(F, a, lambda c: np.all(c == x1.coords, axis=-1)), orbit(b), seed)
    _assert_batch_matches_alone([healthy[0], partly] + healthy[1:], SolverParams())


def _refusing(spec, a, text):
    good = shifted_spectral(SpectralFunction(sumsq(), spec), a)

    def value_c(c):
        raise AlgebraError(text)

    return Objective(label=text, algebra=spec, sense="min", value_c=value_c, subgrad_c=good.subgrad_c)


def test_batch_raises_the_first_problem_that_every_start_fails():
    spec, a, b, F = _shift_problem()
    healthy = _batch_problems(spec, np.random.default_rng(27))[:2]
    first, second = (_refusing(spec, a, t) for t in ("first refusal", "second refusal"))
    with pytest.raises(AlgebraError) as alone:
        multistart_minmax(first, orbit(b), SolverParams(), 3, 0)
    assert "all 3 starts failed" in str(alone.value)
    for order in ((first, second), (second, first)):
        batch = [healthy[0], (order[0], orbit(b), 0), healthy[1], (order[1], orbit(b), 0)]
        with pytest.raises(AlgebraError) as got:
            multistart_minmax_batch(batch, SolverParams(), 3)
        with pytest.raises(AlgebraError) as want:
            multistart_minmax(order[0], orbit(b), SolverParams(), 3, 0)
        assert str(got.value) == str(want.value)


# suite -> its objective builder, and the argument that tells the trials apart
SUITE_BUILDERS = {
    "shifted": ("shifted_spectral", lambda F, a, *_, **__: a.coords),
    "max": ("linear_plus_spectral", lambda c, *_, **__: c.coords),
    "min": ("_maxaffine_objective", lambda spec, C, *_, **__: C),
    "kappa": ("kappa_shift", lambda a, *_, **__: a.coords),
}


@pytest.mark.parametrize("suite", list(SUITE_BUILDERS))
def test_batched_suite_fails_at_the_first_failing_trial(monkeypatch, suite):
    import ejalg.verify as ver

    spec = parse_algebra("sym:3")
    cfg = ver.SuiteConfig(algebra=spec, trials=4, seed=5)
    builder, key = SUITE_BUILDERS[suite]
    real = getattr(ver, builder)
    trials: dict = {}

    def failing_from_trial_1(*args, **kwargs):
        i = trials.setdefault(_bits(key(*args, **kwargs)), len(trials))
        return real(*args, **kwargs) if i == 0 else _refusing(spec, unit(spec), f"trial {i}")

    monkeypatch.setattr(ver, builder, failing_from_trial_1)
    with pytest.raises(AlgebraError, match="trial 1"):
        ver.run_suite(suite, cfg)
