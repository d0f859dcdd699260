"""Core algebra tests: products against hand expansions, axioms,
spectral machinery, and the three commutation notions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejalg import (
    AlgebraError,
    Element,
    canonical_frame,
    combine,
    direct_product,
    eigenvalue_map,
    inner,
    jordan_product,
    lyapunov_map,
    multiplicity_blocks,
    norm,
    operator_commutes,
    parse_algebra,
    random_element,
    real_vector,
    reconstruct,
    spectral_decompose,
    spin_factor,
    strong_operator_commutes,
    sym_from_matrix,
    sym_matrix,
    sym_to_matrix,
    tensor_map,
    unit,
    zero,
)
from ejalg.algebra import commutator_residual

SQ2 = math.sqrt(2.0)

ALGEBRAS = [
    "rn:5",
    "sym:2",
    "sym:3",
    "spin:4",
    "prod(sym:3,spin:4)",
    "prod(rn:2,sym:2)",
]


def specs():
    return [parse_algebra(s) for s in ALGEBRAS]


# -- construction and parsing -------------------------------------------------


def test_parse_round_trip():
    for s in ALGEBRAS:
        assert str(parse_algebra(s)) == s


def test_parse_equals_constructors():
    assert parse_algebra("rn:5") == real_vector(5)
    assert parse_algebra("sym:3") == sym_matrix(3)
    assert parse_algebra("spin:4") == spin_factor(4)
    assert parse_algebra("prod(sym:3,spin:4)") == direct_product(sym_matrix(3), spin_factor(4))


def test_parse_rejects_garbage():
    for bad in ("sym", "sym:0", "spin:1", "blah:3", "prod()", "prod(sym:3"):
        with pytest.raises(AlgebraError):
            parse_algebra(bad)


def test_dims_and_ranks():
    assert (parse_algebra("rn:5").dim, parse_algebra("rn:5").rank) == (5, 5)
    assert (parse_algebra("sym:3").dim, parse_algebra("sym:3").rank) == (6, 3)
    assert (parse_algebra("spin:4").dim, parse_algebra("spin:4").rank) == (4, 2)
    p = parse_algebra("prod(sym:3,spin:4)")
    assert (p.dim, p.rank) == (10, 5)


def test_element_validation():
    spec = parse_algebra("sym:2")
    with pytest.raises(AlgebraError):
        Element(spec, np.zeros(4))
    with pytest.raises(AlgebraError):
        Element(spec, np.array([1.0, np.nan, 0.0]))


# -- products against hand expansions ----------------------------------------


def test_sym2_product_hand_expanded():
    spec = parse_algebra("sym:2")
    # x = [[1,1],[1,0]], y = [[0,1],[1,2]]; (xy + yx)/2 = [[1,1.5],[1.5,1]]
    x = Element(spec, np.array([1.0, SQ2, 0.0]))
    y = Element(spec, np.array([0.0, SQ2, 2.0]))
    p = jordan_product(x, y)
    assert np.allclose(p.coords, [1.0, 1.5 * SQ2, 1.0], atol=1e-14)


def test_sym2_idempotent_times_offdiagonal():
    spec = parse_algebra("sym:2")
    e1 = Element(spec, np.array([1.0, 0.0, 0.0]))
    p = Element(spec, np.array([0.0, SQ2, 0.0]))
    out = jordan_product(e1, p)
    assert np.allclose(out.coords, [0.0, SQ2 / 2.0, 0.0], atol=1e-14)


def test_spin_product_vector_formula():
    spec = parse_algebra("spin:3")
    rng = np.random.default_rng(0)
    c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
    x, y = Element(spec, c1), Element(spec, c2)
    # the coords are sqrt(2) times the (x0, xbar) vector model, in which
    # x o y = (x0 y0 + xbar . ybar, x0 ybar + y0 xbar)
    u, v = c1 / SQ2, c2 / SQ2
    expect = np.concatenate([[u[0] * v[0] + u[1:] @ v[1:]], u[0] * v[1:] + v[0] * u[1:]])
    assert np.allclose(jordan_product(x, y).coords, SQ2 * expect, atol=1e-14)


def test_rn_product_componentwise():
    spec = parse_algebra("rn:4")
    x = Element(spec, np.array([1.0, -2.0, 3.0, 0.5]))
    y = Element(spec, np.array([2.0, 0.5, -1.0, 4.0]))
    assert np.allclose(jordan_product(x, y).coords, x.coords * y.coords)


def test_product_splits_across_factors():
    spec = parse_algebra("prod(rn:2,sym:2)")
    x = Element(spec, np.array([1.0, 2.0, 1.0, SQ2, 0.0]))
    y = Element(spec, np.array([3.0, -1.0, 0.0, SQ2, 2.0]))
    p = jordan_product(x, y)
    assert np.allclose(p.coords[:2], [3.0, -2.0])
    assert np.allclose(p.coords[2:], [1.0, 1.5 * SQ2, 1.0], atol=1e-14)


# -- axioms -------------------------------------------------------------------


@pytest.mark.parametrize("name", ALGEBRAS)
def test_axioms_random(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(7)
    e = unit(spec)
    for _ in range(25):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        scale = 1.0 + norm(x) + norm(y)
        assert norm(jordan_product(x, y) - jordan_product(y, x)) <= 1e-12 * scale
        assert norm(jordan_product(e, x) - x) <= 1e-12 * scale
        x2 = jordan_product(x, x)
        lhs = jordan_product(x, jordan_product(x2, y))
        rhs = jordan_product(x2, jordan_product(x, y))
        assert norm(lhs - rhs) <= 1e-10 * scale**3
        # trace-form associativity <x o y, z> = <y, x o z>
        z = random_element(spec, rng)
        assert abs(inner(jordan_product(x, y), z) - inner(y, jordan_product(x, z))) <= 1e-10 * scale**3


def test_unit_inner_is_rank():
    for spec in specs():
        assert abs(inner(unit(spec), unit(spec)) - spec.rank) <= 1e-12


# -- spectral decomposition ---------------------------------------------------


def test_spin_eigenvalues_frozen():
    spec = parse_algebra("spin:3")
    x = Element(spec, SQ2 * np.array([3.0, 4.0, 0.0]))
    assert np.allclose(eigenvalue_map(x), [7.0, -1.0], atol=1e-12)


def test_rn_eigenvalues_are_sorted_entries():
    spec = parse_algebra("rn:4")
    x = Element(spec, np.array([0.5, -1.0, 2.0, 0.0]))
    assert np.allclose(eigenvalue_map(x), [2.0, 0.5, 0.0, -1.0])


def test_sym_eigenvalues_match_matrix():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(3)
    x = random_element(spec, rng)
    w = np.linalg.eigvalsh(sym_to_matrix(x))[::-1]
    assert np.allclose(eigenvalue_map(x), w, atol=1e-12)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_reconstruction_and_frame_properties(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = random_element(spec, rng)
        sd = spectral_decompose(x)
        assert np.all(np.diff(sd.eigenvalues) <= 1e-12)
        assert norm(reconstruct(sd) - x) <= 1e-10 * (1.0 + norm(x))
        frame = sd.frame
        total = zero(spec)
        for i, f in enumerate(frame):
            total = total + f
            assert norm(jordan_product(f, f) - f) <= 1e-8
            for j in range(i):
                assert abs(inner(f, frame[j])) <= 1e-8
        assert norm(total - unit(spec)) <= 1e-8


@pytest.mark.parametrize("name", ALGEBRAS)
def test_eigenvalue_map_is_1_lipschitz(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        dl = float(np.linalg.norm(eigenvalue_map(x) - eigenvalue_map(y)))
        assert dl <= norm(x - y) + 1e-9


def test_eigenvalues_orthogonally_invariant_norm():
    for spec in specs():
        rng = np.random.default_rng(2)
        x = random_element(spec, rng)
        lam = eigenvalue_map(x)
        assert abs(float(lam @ lam) - inner(x, x)) <= 1e-10 * (1.0 + inner(x, x))


def test_multiplicity_blocks_grouping():
    lam = np.array([3.0, 3.0, 1.0])
    assert multiplicity_blocks(lam) == ((0, 1), (2,))
    lam = np.array([2.0, 1.0, 0.0])
    assert multiplicity_blocks(lam) == ((0,), (1,), (2,))
    lam = np.array([1.0, 1.0, 1.0])
    assert multiplicity_blocks(lam) == ((0, 1, 2),)


def test_combine_rejects_bad_length():
    frame = canonical_frame(parse_algebra("sym:3"))
    with pytest.raises(AlgebraError):
        combine(frame, np.array([1.0, 2.0]))


def test_sym_matrix_round_trip():
    spec = parse_algebra("sym:4")
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    x = sym_from_matrix(spec, A)
    assert np.allclose(sym_to_matrix(x), A, atol=1e-14)
    # the packing is an isometry for the trace inner product
    y = sym_from_matrix(spec, np.eye(4))
    assert abs(inner(x, y) - np.trace(A)) <= 1e-12


# -- linear maps --------------------------------------------------------------


def test_lyapunov_reproduces_product():
    for spec in specs():
        rng = np.random.default_rng(1)
        x = random_element(spec, rng)
        y = random_element(spec, rng)
        assert np.allclose(lyapunov_map(x) @ y.coords, jordan_product(x, y).coords, atol=1e-12)


def test_lyapunov_of_unit_is_identity():
    for spec in specs():
        assert np.allclose(lyapunov_map(unit(spec)), np.eye(spec.dim), atol=1e-12)


def test_lyapunov_is_self_adjoint():
    for spec in specs():
        rng = np.random.default_rng(4)
        L = lyapunov_map(random_element(spec, rng))
        assert np.allclose(L, L.T, atol=1e-12)


def test_tensor_map():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(6)
    u, v = random_element(spec, rng), random_element(spec, rng)
    T = tensor_map(u, v)
    assert np.allclose(T, np.outer(u.coords, v.coords))


# -- commutation --------------------------------------------------------------


def test_same_frame_commutes():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(12)
    x = random_element(spec, rng)
    sd = spectral_decompose(x)
    y = combine(sd.frame, np.array([5.0, -1.0, 2.0]))
    ok, resid = operator_commutes(x, y)
    assert ok and resid <= 1e-10


def test_powers_commute():
    for spec in specs():
        rng = np.random.default_rng(13)
        x = random_element(spec, rng)
        ok, _ = operator_commutes(x, jordan_product(x, x))
        assert ok


def test_generic_pair_does_not_commute():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(14)
    x = random_element(spec, rng)
    y = random_element(spec, rng)
    ok, resid = operator_commutes(x, y)
    assert not ok and resid > 1e-3


def test_strong_commutation_gap_frozen():
    spec = parse_algebra("sym:2")
    a = Element(spec, np.array([1.0, 0.0, 0.0]))  # diag(1, 0)
    b = Element(spec, np.array([0.0, 0.0, 1.0]))  # diag(0, 1)
    ok, _ = operator_commutes(a, b)
    assert ok
    strong, gap = strong_operator_commutes(a, b)
    # <a, b> = 0 while sorted eigenvalues pair to 1
    assert not strong and abs(gap - 1.0) <= 1e-12


def test_strong_commutation_aligned():
    spec = parse_algebra("sym:2")
    a = Element(spec, np.array([2.0, 0.0, 1.0]))
    b = Element(spec, np.array([5.0, 0.0, 3.0]))
    strong, gap = strong_operator_commutes(a, b)
    assert strong and gap <= 1e-12


def test_commutator_residual_normalized():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(15)
    x = random_element(spec, rng)
    y = random_element(spec, rng)
    r1 = commutator_residual(x, y)
    r2 = commutator_residual(x * 100.0, y * 100.0)
    # the raw commutator grows by 1e4 but so does the normalizer, so the
    # residual stays on the same order
    assert r1 / 3.0 <= r2 <= 3.0 * r1


def test_rn_everything_commutes():
    spec = parse_algebra("rn:5")
    rng = np.random.default_rng(16)
    for _ in range(5):
        ok, resid = operator_commutes(random_element(spec, rng), random_element(spec, rng))
        assert ok and resid <= 1e-14


# -- property tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_eigenvalue_sum_is_trace_inner(seed):
    spec = parse_algebra("prod(sym:3,spin:4)")
    rng = np.random.default_rng(seed)
    x = random_element(spec, rng)
    lam = eigenvalue_map(x)
    assert abs(float(np.sum(lam)) - inner(x, unit(spec))) <= 1e-9 * (1.0 + norm(x))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_spectral_additive_on_commuting(seed):
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(seed)
    x = random_element(spec, rng)
    sd = spectral_decompose(x)
    u = np.sort(rng.standard_normal(3))[::-1]
    v = np.sort(rng.standard_normal(3))[::-1]
    a = combine(sd.frame, u)
    b = combine(sd.frame, v)
    assert np.allclose(eigenvalue_map(a + b), u + v, atol=1e-9)
