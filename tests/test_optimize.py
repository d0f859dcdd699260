"""Solvers, feasible sets, and the brute-force frame oracle."""

import dataclasses
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ejalg
from ejalg import (
    AlgebraError,
    Element,
    Objective,
    SolverParams,
    SpectralFunction,
    canonical_frame,
    combine,
    eigenvalue_map,
    kappa_shift,
    linear_plus_spectral,
    multistart,
    norm,
    operator_commutes,
    orbit,
    orbit_descent,
    parse_algebra,
    permutation_oracle,
    project_sorted_box,
    random_automorphism,
    random_element,
    schatten,
    shifted_spectral,
    spectral_box,
    spectral_decompose,
    spectralbox_descent,
    sumsq,
    unit,
)
from ejalg.algebra import _factor_slices, split_factors
from ejalg.algebra import _decompose_rows
from ejalg.optimize import ORACLE_BLOCK, ORACLE_ULPS, _coord_fns, _draw_starts, _permutation_table, membership
from ejalg.verify import _max_objective, _maxaffine_objective, _quadratic_plus_norm


def _frame_element(spec_name, values, seed=0):
    spec = parse_algebra(spec_name)
    rng = np.random.default_rng(seed)
    X = random_automorphism(spec, rng)
    frame = spectral_decompose(X.apply(random_element(spec, rng))).frame
    return combine(frame, np.asarray(values, dtype=float))


# -- feasible sets ------------------------------------------------------------


def test_spectral_box_validation():
    spec = parse_algebra("sym:3")
    with pytest.raises(AlgebraError):
        spectral_box(spec, 1.0, 0.5)
    with pytest.raises(AlgebraError):
        spectral_box(spec, np.array([0.0, 1.0, 0.0]), np.array([2.0, 2.0, 2.0]))
    for lo, hi in ((-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (-1.0, [1.0, 1.0, np.nan])):
        with pytest.raises(AlgebraError, match="finite"):
            spectral_box(spec, lo, hi)
    fset = spectral_box(spec, -1.0, 1.0)
    assert fset.variant == "box"


def test_project_sorted_box_hand_cases():
    lo, hi = np.zeros(2), np.full(2, 2.0)
    assert np.allclose(project_sorted_box(np.array([3.0, -1.0]), lo, hi), [2.0, 0.0])
    lo3, hi3 = np.zeros(2), np.full(2, 3.0)
    assert np.allclose(project_sorted_box(np.array([1.0, 2.0]), lo3, hi3), [1.5, 1.5])
    w = project_sorted_box(np.array([0.7, 0.2]), lo, hi)
    assert np.allclose(w, [0.7, 0.2])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_project_sorted_box_is_projection(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 6))
    lo = np.sort(rng.uniform(-2.0, 0.0, r))[::-1]
    hi = lo + np.sort(rng.uniform(0.1, 2.0, r))[::-1]
    hi = np.maximum.accumulate(hi[::-1])[::-1]  # keep nonincreasing
    u = rng.uniform(-3.0, 3.0, r)
    w = project_sorted_box(u, lo, hi)
    assert np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12)
    assert np.all(np.diff(w) <= 1e-12)
    d0 = float(np.linalg.norm(u - w))
    # no random feasible candidate does better
    for _ in range(40):
        cand = np.sort(rng.uniform(lo.min(), hi.max(), r))[::-1]
        cand = np.clip(cand, lo, hi)
        if np.all(np.diff(cand) <= 1e-12):
            assert float(np.linalg.norm(u - cand)) >= d0 - 1e-9


def test_membership_orbit():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(1)
    b = random_element(spec, rng)
    fset = orbit(b)
    X = random_automorphism(spec, rng)
    ok, _ = membership(fset, X.apply(b))
    assert ok
    ok, resid = membership(fset, b + unit(spec))
    assert not ok and resid > 0.1


def test_membership_box():
    spec = parse_algebra("sym:2")
    fset = spectral_box(spec, -1.0, 1.0)
    ok, _ = membership(fset, Element(spec, np.array([0.5, 0.0, -0.5])))
    assert ok
    ok, _ = membership(fset, Element(spec, np.array([2.0, 0.0, 0.0])))
    assert not ok


# -- objectives ---------------------------------------------------------------


def test_kappa_shift_guards_domain():
    spec = parse_algebra("sym:3")
    a = unit(spec) * 2.0
    obj = kappa_shift(a, "min")
    assert abs(obj.value(Element(spec, np.zeros(spec.dim))) - 1.0) <= 1e-12
    # leaving the cone yields +inf rather than an exception
    assert math.isinf(obj.value(unit(spec) * -3.0))


def _factories():
    """One objective from each factory, on prod(sym:2,spin:3)."""
    spec = parse_algebra("prod(sym:2,spin:3)")
    rng = np.random.default_rng(21)
    a, c = random_element(spec, rng), random_element(spec, rng)
    F = SpectralFunction(schatten(3), spec)
    A = rng.standard_normal((spec.dim, spec.dim))
    C, d = rng.standard_normal((3, spec.dim)), rng.standard_normal(3)
    return spec, {
        "shifted_spectral": shifted_spectral(F, a),
        "linear_plus_spectral": linear_plus_spectral(c, F, "max"),
        "kappa_shift": kappa_shift(unit(spec) * 4.0),
        "quadratic_plus_norm": _quadratic_plus_norm(spec, A @ A.T + np.eye(spec.dim), a.coords),
        "max_objective": _max_objective(c, SpectralFunction(schatten(1.5), spec)),
        "maxaffine_objective": _maxaffine_objective(spec, C, d, sumsq(), smooth_mu=1e-2),
    }


FACTORIES = list(_factories()[1])


@pytest.mark.parametrize("name", FACTORIES)
def test_solvers_read_only_the_coordinate_callables(name):
    spec, objs = _factories()
    obj = objs[name]
    counts = {"value_c": 0, "subgrad_c": 0}

    def counted(fn, key):
        def wrapped(c):
            counts[key] += 1
            return fn(c)

        return None if fn is None else wrapped

    def refuse(x):
        raise AssertionError("a solver read an Element-level callable")

    obj = dataclasses.replace(
        obj,
        value=refuse,
        value_c=counted(obj.value_c, "value_c"),
        subgradient=refuse,
        subgrad_c=counted(obj.subgrad_c, "subgrad_c"),
    )
    b = random_element(spec, np.random.default_rng(3)) * 0.5
    res = orbit_descent(obj, orbit(b), params=SolverParams(max_iters=3))
    assert np.isfinite(res.value)
    assert counts["value_c"] > 0
    assert (counts["subgrad_c"] > 0) == (obj.subgrad_c is not None)


@pytest.mark.parametrize("name", FACTORIES)
def test_derived_element_views_match_the_coordinate_callables(name):
    spec, objs = _factories()
    obj = objs[name]
    x = random_element(spec, np.random.default_rng(5)) * 0.5
    assert obj.value(x) == obj.value_c(x.coords)
    if obj.subgrad_c is None:
        assert obj.subgradient is None
    else:
        assert np.array_equal(obj.subgradient(x).coords, obj.subgrad_c(x.coords))


def test_kappa_shift_has_no_subgradient():
    spec = parse_algebra("sym:3")
    obj = kappa_shift(unit(spec) * 2.0)
    assert obj.subgrad_c is None and obj.subgradient is None


def test_objective_needs_value_c():
    spec = parse_algebra("sym:3")
    with pytest.raises(TypeError):
        Objective(label="none", algebra=spec, sense="min")


def test_derived_subgradient_rejects_non_finite():
    spec = parse_algebra("sym:3")
    obj = Objective(
        label="nan", algebra=spec, sense="min",
        value_c=lambda c: float(c @ c), subgrad_c=lambda c: np.full(c.shape, np.nan),
    )
    with pytest.raises(AlgebraError, match="finite"):
        obj.subgradient(unit(spec))


def test_objective_sense_validation():
    spec = parse_algebra("sym:3")
    F = SpectralFunction(schatten(2), spec)
    with pytest.raises(AlgebraError):
        shifted_spectral(F, unit(spec), "sideways")


# -- permutation oracle -------------------------------------------------------


def test_permutation_oracle_frozen_sym2():
    a = _frame_element("sym:2", [2.0, 1.0], seed=3)
    spec = a.algebra
    rng = np.random.default_rng(4)
    X = random_automorphism(spec, rng)
    b = X.apply(_frame_element("sym:2", [5.0, 3.0], seed=5))
    F = SpectralFunction(schatten(2), spec)
    lo = permutation_oracle(a, b, F, "min")
    hi = permutation_oracle(a, b, F, "max")
    assert abs(lo.value - math.sqrt(13.0)) <= 1e-9
    assert abs(hi.value - math.sqrt(17.0)) <= 1e-9
    # the optimizer operator-commutes with the shift by construction
    assert operator_commutes(lo.x, a)[1] <= 1e-8


def test_permutation_oracle_rejects_ties():
    spec = parse_algebra("sym:2")
    a = Element(spec, np.array([1.0, 0.0, 1.0]))  # tied spectrum
    b = Element(spec, np.array([2.0, 0.0, 0.0]))
    F = SpectralFunction(schatten(2), spec)
    with pytest.raises(AlgebraError):
        permutation_oracle(a, b, F, "min")


def test_permutation_oracle_respects_factors():
    spec = parse_algebra("prod(sym:2,rn:2)")
    rng = np.random.default_rng(6)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(sumsq(), spec)
    lo = permutation_oracle(a, b, F, "min")
    # eigenvalues may only be permuted within each factor, so the value
    # dominates the unconstrained global pairing bound
    la, lb = np.sort(eigenvalue_map(a))[::-1], np.sort(eigenvalue_map(b))[::-1]
    unconstrained = float(np.sum((lb - la) ** 2))
    assert lo.value >= unconstrained - 1e-9


def _element_parts(x):
    """_factor_parts through Element, JordanFrame and split_factors: its reference."""
    spec = x.algebra
    if spec.kind != "prod":
        sd = spectral_decompose(x)
        return [(spec, sd.eigenvalues, np.stack([e.coords for e in sd.frame]))]
    parts = []
    for xf, s in zip(split_factors(x), _factor_slices(spec)):
        sd = spectral_decompose(xf)
        F = np.zeros((xf.algebra.rank, spec.dim))
        F[:, s] = np.stack([e.coords for e in sd.frame])
        parts.append((xf.algebra, sd.eigenvalues, F))
    return parts


def _loop_oracle(a, b, F, sense):
    """The one-permutation-at-a-time oracle loop: the reference for the blocked one."""
    parts_a = _element_parts(a)
    if a.algebra.kind == "prod":
        lams_b = [eigenvalue_map(xf) for xf in split_factors(b)]
    else:
        lams_b = [eigenvalue_map(b)]
    best_val = None
    best_assign = None
    count = 0
    perm_sets = [itertools.permutations(range(lam.size)) for lam in lams_b]
    for assign in itertools.product(*perm_sets):
        diffs = np.concatenate(
            [lb[list(p)] - la for lb, (_, la, _), p in zip(lams_b, parts_a, assign)]
        )
        v = F.f.value(diffs)
        count += 1
        if best_val is None or (v < best_val if sense == "min" else v > best_val):
            best_val, best_assign = v, assign
    coords = np.zeros(a.algebra.dim)
    for lb, (_, _, fr), p in zip(lams_b, parts_a, best_assign):
        coords += lb[list(p)] @ fr
    return float(best_val), coords, count


def _assert_matches_loop(a, b, F):
    for sense in ("min", "max"):
        res = permutation_oracle(a, b, F, sense)
        value, coords, count = _loop_oracle(a, b, F, sense)
        assert res.value.hex() == value.hex()
        assert np.array_equal(res.x.coords, coords)
        assert res.iterations == count


@pytest.mark.parametrize(
    "name", ["sym:2", "sym:3", "sym:5", "spin:4", "prod(sym:2,sym:3,spin:3)", "prod(sym:7,sym:2)"]
)
@pytest.mark.parametrize("f", [schatten(1), schatten(2), schatten(3), sumsq()], ids=lambda f: f.name)
def test_permutation_oracle_matches_the_loop(name, f):
    # prod(sym:7,sym:2) has 10,080 rows, so blocks end inside a product
    spec = parse_algebra(name)
    rng = np.random.default_rng(21)
    for scale in (1e-3, 1.0, 1e3):
        a = random_element(spec, rng)
        b = random_element(spec, rng) * scale
        _assert_matches_loop(a, b, SpectralFunction(f, spec))


def test_permutation_oracle_matches_the_loop_on_sym8():
    # schatten:3's stacked rows differ from one-row values by an ulp here
    spec = parse_algebra("sym:8")
    rng = np.random.default_rng(22)
    _assert_matches_loop(random_element(spec, rng), random_element(spec, rng), SpectralFunction(schatten(3), spec))


@pytest.mark.parametrize("name", ["sym:4", "spin:4", "prod(sym:7,sym:2)"])
def test_permutation_oracle_tied_b_matches_the_loop(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(23)
    a = random_element(spec, rng)
    frame = spectral_decompose(random_element(spec, rng)).frame
    tied = combine(frame, np.repeat([2.0, -1.0], [spec.rank - spec.rank // 2, spec.rank // 2]))
    for b in (tied, unit(spec) * 3.0):
        for f in (schatten(1), schatten(2), sumsq()):
            _assert_matches_loop(a, b, SpectralFunction(f, spec))


def test_permutation_oracle_equal_values_resolve_to_the_first_permutation():
    spec = parse_algebra("rn:3")
    a = Element(spec, np.array([1.0, 0.0, -1.0]))
    F = SpectralFunction(schatten(1), spec)
    # (1,2,0), (2,0,1) and (2,1,0) all reach 4 exactly; (1,2,0) comes first
    hi = permutation_oracle(a, a, F, "max")
    assert hi.value == 4.0
    assert np.array_equal(hi.x.coords, [0.0, -1.0, 1.0])

    def value(u):
        # stacked rows of (2,0,1) and (2,1,0), whose first entry is -2,
        # come out an ulp high; one-row values are exact
        v = np.add.reduce(np.abs(u), axis=-1)
        return v if u.ndim == 1 else v + np.spacing(v) * (u[:, 0] == -2.0)

    hi = permutation_oracle(a, a, SpectralFunction(dataclasses.replace(schatten(1), value=value), spec), "max")
    assert hi.value == 4.0
    assert np.array_equal(hi.x.coords, [0.0, -1.0, 1.0])


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rows", ["first", "some"])
def test_permutation_oracle_non_finite_values_match_the_loop(rows, fill):
    spec = parse_algebra("prod(sym:7,sym:2)")
    rng = np.random.default_rng(26)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    # the row of the first permutation: identity in every factor
    first = np.concatenate([eigenvalue_map(bf) - la for bf, (_, la, _) in zip(split_factors(b), _element_parts(a))])

    def value(u):
        is_first = np.all(u == first, axis=-1)
        # about half the other rows, scattered over every block
        scatter = np.modf(1e3 * np.abs(u[..., 0] + 2.0 * u[..., 1] + 3.0 * u[..., 2]))[0] > 0.5
        bad = is_first if rows == "first" else scatter & ~is_first
        return np.where(bad, fill, np.add.reduce(u * u, axis=-1))

    _assert_matches_loop(a, b, SpectralFunction(dataclasses.replace(sumsq(), value=value), spec))


def test_permutation_oracle_needs_stacked_values():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(27)
    f = dataclasses.replace(sumsq(), value=lambda u: float(np.sum(u * u)))
    with pytest.raises(AlgebraError):
        permutation_oracle(random_element(spec, rng), random_element(spec, rng), SpectralFunction(f, spec))


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("name", ["sym:8", "prod(sym:7,sym:2)", "prod(sym:2,sym:3,spin:3)"])
def test_permutation_oracle_gathers_the_loop_rows(name, sense):
    # sym:8 fills 8 blocks; prod(sym:7,sym:2)'s blocks end inside a product
    spec = parse_algebra(name)
    rng = np.random.default_rng(28)
    a, b = random_element(spec, rng), random_element(spec, rng)
    parts_a = _element_parts(a)
    lams_b = [eigenvalue_map(bf) for bf in split_factors(b)] if spec.kind == "prod" else [eigenvalue_map(b)]
    loop_rows = np.array([
        np.concatenate([lb[list(p)] - la for lb, (_, la, _), p in zip(lams_b, parts_a, assign)])
        for assign in itertools.product(*(itertools.permutations(range(lb.size)) for lb in lams_b))
    ])
    stacks, singles = [], []

    def value(u):
        # a stack is the .T view of a (rank, rows) buffer; a one-row call is a C-contiguous row
        assert u.dtype == np.float64 and (u.T if u.ndim == 2 else u).flags.c_contiguous
        # a copy: the oracle may reuse a block's memory for the next one
        (stacks if u.ndim == 2 else singles).append(np.array(u, order="C"))
        return sumsq().value(u)

    res = permutation_oracle(a, b, SpectralFunction(dataclasses.replace(sumsq(), value=value), spec), sense)
    assert res.iterations == len(loop_rows)
    # every permutation's row once, bit for bit, in blocks in itertools.product order
    starts = range(0, len(loop_rows), ORACLE_BLOCK)
    assert [len(u) for u in stacks] == [min(ORACLE_BLOCK, len(loop_rows) - k) for k in starts]
    assert np.concatenate(stacks).tobytes() == loop_rows.tobytes()
    # the one-row calls: the first permutation, then re-checks in enumeration order
    position = {row.tobytes(): k for k, row in enumerate(loop_rows)}  # b's eigenvalues are distinct
    checked = [position.get(u.tobytes()) for u in singles]
    assert None not in checked
    assert checked[0] == 0 and checked[1:] == sorted(set(checked[1:]))
    for k, u in zip(starts, stacks):  # each block's best row is re-checked
        vals = sumsq().value(u)
        assert k + int(np.argmin(vals) if sense == "min" else np.argmax(vals)) in checked[1:]


ORACLE_FUNCTIONS = [schatten(1), schatten(1.5), schatten(2), schatten(3), sumsq()]
# the largest gap, in value spacings, between a builtin function's value on
# a row of a column-layout stack and its one-row value, at ranks 8 and 9
COLUMN_GAP_ULPS = 3


def test_oracle_ulps_cover_the_column_layout_gap():
    # the oracle hands each function the .T view of a (rank, rows) buffer
    rng = np.random.default_rng(29)
    for rank in range(2, 10):
        for scale in (1e-3, 1.0, 1e3):
            buf = scale * rng.standard_normal((rank, ORACLE_BLOCK))
            rows = [np.ascontiguousarray(c) for c in buf.T]
            for f in ORACLE_FUNCTIONS:
                stacked, single = f.value(buf.T), np.array([f.value(r) for r in rows])
                if rank <= 7:
                    assert stacked.tobytes() == single.tobytes(), (f.name, rank, scale)
                else:
                    assert np.all(np.abs(stacked - single) <= COLUMN_GAP_ULPS * np.spacing(single)), (f.name, rank)
    # a block's true best is within 2 g spacings of its stacked best, 4 g
    # across a binade edge, and the oracle re-checks every row that close
    assert ORACLE_ULPS >= 4 * COLUMN_GAP_ULPS


def _tied_element(spec, rng, scale, near):
    """Each factor's spectrum drawn with repeats from 3 values, exactly tied or 1e-9 apart."""
    coords = []
    for f in spec.factors if spec.kind == "prod" else (spec,):
        values = scale * rng.choice(rng.standard_normal(3), size=f.rank)
        if near:
            values = values + 1e-9 * scale * rng.integers(-2, 3, size=f.rank)
        coords.append(combine(spectral_decompose(random_element(f, rng)).frame, values).coords)
    return Element(spec, np.concatenate(coords))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["rn:4", "sym:3", "sym:5", "spin:6", "sym:6", "prod(sym:3,spin:4)", "prod(rn:2,sym:2,spin:3)"]),
    st.sampled_from(ORACLE_FUNCTIONS),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_permutation_oracle_tied_and_near_tied_b_match_the_loop(name, f, scale, near, seed):
    spec = parse_algebra(name)
    rng = np.random.default_rng(seed)
    b = _tied_element(spec, rng, scale, near)
    _assert_matches_loop(random_element(spec, rng), b, SpectralFunction(f, spec))


IMPORT_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import ejalg
print(json.dumps({
    "modules": sorted({m.split(".")[0] for m in set(sys.modules) - before}),
    "caches": {
        f"{name}.{attr}": fn.cache_info().currsize
        for name, mod in list(sys.modules.items()) if name.split(".")[0] == "ejalg"
        for attr, fn in vars(mod).items() if hasattr(fn, "cache_info")
    },
}))
"""

# what ``import ejalg`` loads beyond numpy; a new entry here is a new
# import-time cost for every caller, the benchmark's set-up time included
IMPORTED_WITH_EJALG = {"__future__", "_blake2", "_hashlib", "copy", "dataclasses", "ejalg", "hashlib"}


def test_import_builds_no_table_and_adds_no_module():
    root = str(Path(ejalg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_CHECK, root], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert set(seen["modules"]) <= IMPORTED_WITH_EJALG
    assert {"ejalg.optimize._permutation_table", "ejalg.liegroup.derivation_basis"} <= set(seen["caches"])
    assert {name: size for name, size in seen["caches"].items() if size} == {}


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_table_is_itertools_order(n):
    table = _permutation_table(n)
    assert table.dtype == np.int8
    # one column per permutation
    assert table.T.tolist() == [list(p) for p in itertools.permutations(range(n))]
    # kept across calls, so no caller may write to it
    assert _permutation_table(n) is table
    assert not table.flags.writeable


def test_permutation_oracle_rank_limit():
    spec = parse_algebra("sym:9")
    rng = np.random.default_rng(24)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(2), spec)
    res = permutation_oracle(a, b, F, "min")
    assert res.iterations == math.factorial(9)
    la, lb = eigenvalue_map(a), eigenvalue_map(b)
    assert abs(res.value - float(np.linalg.norm(lb - la))) <= 1e-9
    big = parse_algebra("rn:10")
    with pytest.raises(AlgebraError):
        permutation_oracle(random_element(big, rng), random_element(big, rng), SpectralFunction(schatten(2), big))


def test_permutation_oracle_needs_no_solver(monkeypatch):
    import ejalg.optimize as opt

    def no_solver(*args, **kwargs):
        raise AssertionError("the oracle called a solver")

    for name in ("multistart", "orbit_descent", "spectralbox_descent"):
        monkeypatch.setattr(opt, name, no_solver)
    spec = parse_algebra("prod(sym:3,spin:4)")
    rng = np.random.default_rng(25)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(2), spec)
    lo = permutation_oracle(a, b, F, "min")
    hi = permutation_oracle(a, b, F, "max")
    # Hoffman-Wielandt per factor: sorted pairs for min, reversed for max
    pairs = [(eigenvalue_map(af), eigenvalue_map(bf)) for af, bf in zip(split_factors(a), split_factors(b))]
    assert abs(lo.value - math.sqrt(sum(np.sum((lb - la) ** 2) for la, lb in pairs))) <= 1e-9
    assert abs(hi.value - math.sqrt(sum(np.sum((lb[::-1] - la) ** 2) for la, lb in pairs))) <= 1e-9
    assert lo.diagnostics.ok() and hi.diagnostics.ok()


# -- orbit descent ------------------------------------------------------------


def test_orbit_descent_reaches_oracle():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(7)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(2), spec)
    for sense in ("min", "max"):
        res = multistart(shifted_spectral(F, a, sense), orbit(b), SolverParams(), starts=8, seed=0)
        orc = permutation_oracle(a, b, F, sense)
        assert abs(res.value - orc.value) <= 1e-6 * (1.0 + abs(orc.value))
        assert np.allclose(eigenvalue_map(res.x), eigenvalue_map(b), atol=1e-7)


def test_orbit_descent_shift_on_orbit_gives_zero():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(8)
    a = random_element(spec, rng)
    X = random_automorphism(spec, rng)
    b = X.apply(a)
    F = SpectralFunction(schatten(2), spec)
    res = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=8, seed=0)
    assert res.value <= 1e-6


def test_singleton_orbit_of_scaled_unit():
    spec = parse_algebra("sym:3")
    b = unit(spec) * 2.0
    a = _frame_element("sym:3", [3.0, 1.0, 0.0], seed=9)
    F = SpectralFunction(schatten(2), spec)
    res = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=3, seed=0)
    expect = float(np.linalg.norm(2.0 - eigenvalue_map(a)))
    assert abs(res.value - expect) <= 1e-9
    assert norm(res.x - b) <= 1e-9


def test_linear_over_orbit_is_rearrangement():
    spec = parse_algebra("sym:3")
    c = _frame_element("sym:3", [2.0, 1.0, -1.0], seed=10)
    b = _frame_element("sym:3", [5.0, 4.0, 1.0], seed=11)
    lc, lb = eigenvalue_map(c), eigenvalue_map(b)
    lo = multistart(linear_plus_spectral(c, None, "min"), orbit(b), SolverParams(), starts=8, seed=0)
    hi = multistart(linear_plus_spectral(c, None, "max"), orbit(b), SolverParams(), starts=8, seed=0)
    assert abs(lo.value - float(lc @ lb[::-1])) <= 1e-6 * (1.0 + abs(lo.value))
    assert abs(hi.value - float(lc @ lb)) <= 1e-6 * (1.0 + abs(hi.value))


def test_iterates_stay_on_orbit():
    spec = parse_algebra("spin:4")
    rng = np.random.default_rng(12)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(sumsq(), spec)
    res = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=4, seed=1)
    ok, _ = membership(orbit(b), res.x)
    assert ok


def test_multistart_deterministic():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(13)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(3), spec)
    r1 = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=6, seed=5)
    r2 = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=6, seed=5)
    assert np.array_equal(r1.x.coords, r2.x.coords)
    assert r1.value == r2.value and r1.start_index == r2.start_index


def test_multistart_keeps_best():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(14)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(2), spec)
    few = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=1, seed=2)
    many = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=8, seed=2)
    assert many.value <= few.value + 1e-12


def test_solver_reports_commutation_diagnostics():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(15)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    F = SpectralFunction(schatten(2), spec)
    res = multistart(shifted_spectral(F, a, "min"), orbit(b), SolverParams(), starts=4, seed=0)
    names = [name for name, _ in res.diagnostics.pairs]
    assert "shift_a" in names
    assert res.diagnostics.ok()
    assert res.diagnostics.worst() <= 1e-6


# -- box descent --------------------------------------------------------------


def test_box_descent_monotone_from_zero():
    spec = parse_algebra("sym:3")
    a = _frame_element("sym:3", [4.0, 2.0, 1.0], seed=16)
    obj = kappa_shift(a, "min")
    fset = spectral_box(spec, -0.5, 0.5)
    res = spectralbox_descent(obj, fset, params=SolverParams(max_iters=150, tol=1e-7))
    assert res.value <= 4.0 + 1e-12
    assert abs(res.value - 7.0 / 3.0) <= 1e-4


def test_box_descent_central_shift_stays_one():
    spec = parse_algebra("sym:3")
    a = unit(spec) * 2.0
    obj = kappa_shift(a, "min")
    res = spectralbox_descent(obj, spectral_box(spec, -0.5, 0.5), params=SolverParams(max_iters=60, tol=1e-7))
    assert abs(res.value - 1.0) <= 1e-9


def test_box_descent_feasible_iterate():
    spec = parse_algebra("sym:4")
    rng = np.random.default_rng(17)
    a = random_element(spec, rng) + unit(spec) * 6.0
    obj = kappa_shift(a, "min")
    fset = spectral_box(spec, -0.3, 0.3)
    res = multistart(obj, fset, SolverParams(max_iters=100, tol=1e-6), starts=2, seed=0)
    ok, _ = membership(fset, res.x)
    assert ok


def test_box_descent_leaves_tied_corner():
    # the kappa demo's reference instance: spectrum (4, 2, 1) on a random frame
    spec = parse_algebra("sym:3")
    X = random_automorphism(spec, np.random.default_rng(53))
    a = Element(spec, np.array([4.0, 2.0, 1.0]) @ np.stack([X.apply(e).coords for e in canonical_frame(spec)]))
    # at 0.5 e every eigenvalue sits on the upper bound, tied
    res = spectralbox_descent(kappa_shift(a, "min"), spectral_box(spec, -0.5, 0.5), unit(spec) * 0.5, SolverParams(150, 1e-8))
    assert abs(res.value - 3.5 / 1.5) <= 1e-9


def test_box_start_at_the_rounding_floor_stalls_at_its_last_accepted_point(monkeypatch):
    import ejalg.optimize as opt

    # a kappa start whose central differences (noise about 1e-10) stop
    # resolving a decrease: without the floor it spends a full halving
    # ladder and ends line_search_failed
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(0)
    x = random_element(spec, rng)
    lam = eigenvalue_map(x)
    a = x + unit(spec) * (1.0 - lam[-1] + float(rng.uniform(0.3, 1.0)) * (1.0 + lam[0] - lam[-1]))
    fset = spectral_box(spec, -0.5, 0.5)
    obj, x0, params = kappa_shift(a), _draw_starts(fset, 2, 0)[1], SolverParams(max_iters=150, tol=1e-8)
    projections = []
    real = opt._decompose_rows
    monkeypatch.setattr(opt, "_decompose_rows", lambda *args: projections.append(1) or real(*args))
    res = spectralbox_descent(obj, fset, x0, params)
    floored = len(projections)
    assert res.status == "stalled"
    # the stalled ladder keeps the point its last accepted step reached
    before = spectralbox_descent(obj, fset, x0, dataclasses.replace(params, max_iters=res.iterations - 1))
    assert before.status == "max_iters"
    assert (res.x.coords.tobytes(), res.value) == (before.x.coords.tobytes(), before.value)
    # a negative STALL_ULPS switches the floor off: the halving ladder alone
    monkeypatch.setattr(opt, "STALL_ULPS", -1.0)
    projections.clear()
    ladder = spectralbox_descent(obj, fset, x0, params)
    assert ladder.status == "line_search_failed"
    assert floored < len(projections) - opt.MAX_HALVINGS


@pytest.mark.parametrize("name", ["sym:3", "spin:4", "prod(sym:2,spin:3)"])
def test_box_converged_means_projected_step_within_tol(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(19)
    lo, hi = -0.5, 0.5
    fset = spectral_box(spec, lo, hi)
    params = SolverParams(max_iters=150, tol=1e-8)
    converged = 0
    for trial in range(3):
        a = random_element(spec, rng) + unit(spec) * 5.0
        obj = kappa_shift(a, "min")
        _, grad = _coord_fns(obj)
        for x0 in _draw_starts(fset, 3, trial) + [unit(spec) * 0.5]:
            res = spectralbox_descent(obj, fset, x0, params)
            if res.status != "converged":
                continue
            converged += 1
            c = res.x.coords
            u, frame_rows = _decompose_rows(spec, c - grad(c))
            step = np.linalg.norm(c - project_sorted_box(u, fset.lower, fset.upper) @ frame_rows)
            assert step <= params.tol
            assert res.stationarity == step
    assert converged


def test_multistart_rejects_mismatched_set():
    spec = parse_algebra("sym:3")
    other = parse_algebra("sym:4")
    rng = np.random.default_rng(18)
    F = SpectralFunction(schatten(2), spec)
    obj = shifted_spectral(F, random_element(spec, rng), "min")
    with pytest.raises(AlgebraError):
        orbit_descent(obj, orbit(random_element(other, rng)))
