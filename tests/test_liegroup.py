"""Derivations and one-parameter automorphism groups."""

import numpy as np
import pytest

from ejalg import (
    Element,
    canonical_frame,
    commutes_via_derivations,
    derivation_basis,
    eigenvalue_map,
    exp_derivation,
    inner,
    jordan_product,
    norm,
    operator_commutes,
    parse_algebra,
    project_perp_derivations,
    random_automorphism,
    random_derivation,
    random_element,
    unit,
)
from ejalg.algebra import AlgebraError, lyapunov_basis_stack
from ejalg.liegroup import (
    RANK_TOL,
    _expm,
    exp_action,
    leibniz_residual,
    orbit_is_connected,
    tangent_stack,
)

ALGEBRAS = ["rn:4", "sym:3", "sym:4", "spin:4", "spin:6", "prod(sym:3,spin:4)"]

EXPECTED_DER_DIM = {
    "rn:4": 0,
    "sym:3": 3,
    "sym:4": 6,
    "spin:4": 3,
    "spin:6": 10,
    "prod(sym:3,spin:4)": 6,
    "sym:1": 0,
    "spin:2": 0,
    "prod(sym:2,sym:3,spin:3)": 5,
}


@pytest.mark.parametrize("name", EXPECTED_DER_DIM)
def test_derivation_dimension(name):
    assert derivation_basis(parse_algebra(name)).dimension == EXPECTED_DER_DIM[name]


def _loop_derivation_basis(spec):
    """Gram-Schmidt over every pair i < j: the reference for the loop that stops at dim Der(V)."""
    dim = spec.dim
    S = lyapunov_basis_stack(spec)
    kept = []
    for i in range(dim):
        for j in range(i + 1, dim):
            w = (S[i] @ S[j] - S[j] @ S[i]).ravel().copy()
            w0 = np.linalg.norm(w)
            if w0 <= RANK_TOL:
                continue
            for b in kept:  # two passes for stability
                w -= (b @ w) * b
            for b in kept:
                w -= (b @ w) * b
            r = np.linalg.norm(w)
            if r > RANK_TOL * (1.0 + w0):
                kept.append(w / r)
    return np.stack(kept).reshape(len(kept), dim, dim) if kept else np.zeros((0, dim, dim))


@pytest.mark.parametrize("name", EXPECTED_DER_DIM)
def test_derivation_basis_equals_the_full_loop(name):
    spec = parse_algebra(name)
    stack = derivation_basis(spec).stack
    want = _loop_derivation_basis(spec)
    assert stack.shape == want.shape == (EXPECTED_DER_DIM[name], spec.dim, spec.dim)
    assert stack.tobytes() == want.tobytes()


def test_derivation_basis_raises_when_derivations_are_missing(monkeypatch):
    import ejalg.liegroup as lg

    monkeypatch.setattr(lg, "RANK_TOL", np.inf)  # every candidate is rejected
    with pytest.raises(AlgebraError, match="0 of the 3"):
        derivation_basis.__wrapped__(parse_algebra("sym:3"))
    assert derivation_basis.__wrapped__(parse_algebra("rn:4")).dimension == 0


@pytest.mark.parametrize("name", ALGEBRAS)
def test_basis_orthonormal_skew_leibniz(name):
    spec = parse_algebra(name)
    basis = derivation_basis(spec)
    for i, D in enumerate(basis.maps):
        assert np.allclose(D, -D.T, atol=1e-10)
        assert leibniz_residual(spec, D) <= 1e-8
        for j, E in enumerate(basis.maps):
            g = float(np.sum(D * E))
            assert abs(g - (1.0 if i == j else 0.0)) <= 1e-8


@pytest.mark.parametrize("name", ALGEBRAS)
def test_derivations_annihilate_unit(name):
    spec = parse_algebra(name)
    e = unit(spec).coords
    for D in derivation_basis(spec).maps:
        assert np.linalg.norm(D @ e) <= 1e-10


def multiplicativity_residual(spec, X: np.ndarray) -> float:
    """Worst defect of X(a o b) = Xa o Xb over orthonormal basis pairs."""
    T = lyapunov_basis_stack(spec).transpose(0, 2, 1)  # T[i, j] = coords of c_i o c_j
    lhs = np.einsum("ijk,lk->ijl", T, X)
    rhs = np.einsum("ai,bj,abk->ijk", X, X, T)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=2)))


@pytest.mark.parametrize("name", [a for a in ALGEBRAS if EXPECTED_DER_DIM[a] > 0])
def test_exp_derivation_is_automorphism(name):
    spec = parse_algebra(name)
    rng = np.random.default_rng(3)
    D = random_derivation(spec, rng)
    X = exp_derivation(spec, D)
    # orthogonal, multiplicative, unit-preserving
    assert np.allclose(X.matrix.T @ X.matrix, np.eye(spec.dim), atol=1e-10)
    assert multiplicativity_residual(spec, X.matrix) <= 1e-8
    assert norm(X.apply(unit(spec)) - unit(spec)) <= 1e-10
    x = random_element(spec, rng)
    assert np.allclose(eigenvalue_map(X.apply(x)), eigenvalue_map(x), atol=1e-9)


@pytest.mark.parametrize(
    "name, connected",
    [
        ("rn:1", True),
        ("rn:3", False),
        ("spin:2", False),
        ("spin:3", True),
        ("sym:2", True),
        ("prod(rn:1,sym:2)", True),
        ("prod(rn:2,sym:2)", False),
        ("prod(sym:3,spin:4)", True),
    ],
)
def test_orbit_is_connected(name, connected):
    assert orbit_is_connected(parse_algebra(name)) is connected


def test_exp_derivation_rejects_non_derivation():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(1)
    H = rng.standard_normal((spec.dim, spec.dim))
    with pytest.raises(AlgebraError):
        exp_derivation(spec, H)


def test_exp_action_matches_expm():
    spec = parse_algebra("sym:4")
    rng = np.random.default_rng(5)
    D = random_derivation(spec, rng)
    c = random_element(spec, rng).coords
    for t in (0.01, 0.2, 0.7, 1.3):
        assert np.allclose(exp_action(D, c, t), _expm(t * D) @ c, atol=1e-11)


def test_expm_agrees_with_series_small():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 5)) * 0.1
    E = np.eye(5)
    term = np.eye(5)
    for k in range(1, 25):
        term = term @ A / k
        E = E + term
    assert np.allclose(_expm(A), E, atol=1e-12)


def test_automorphism_preserves_product_and_inner():
    spec = parse_algebra("prod(sym:3,spin:4)")
    rng = np.random.default_rng(4)
    X = random_automorphism(spec, rng)
    x, y = random_element(spec, rng), random_element(spec, rng)
    lhs = X.apply(jordan_product(x, y))
    rhs = jordan_product(X.apply(x), X.apply(y))
    assert norm(lhs - rhs) <= 1e-9 * (1.0 + norm(x) * norm(y))
    assert abs(inner(X.apply(x), X.apply(y)) - inner(x, y)) <= 1e-9 * (1.0 + norm(x) * norm(y))


def test_projection_splits_frobenius():
    spec = parse_algebra("sym:4")
    rng = np.random.default_rng(6)
    H = rng.standard_normal((spec.dim, spec.dim))
    P = project_perp_derivations(spec, H)
    R = H - P
    # R lies in Der, P is orthogonal to every basis derivation
    assert leibniz_residual(spec, R) <= 1e-7 * (1.0 + np.linalg.norm(H))
    for D in derivation_basis(spec).maps:
        assert abs(float(np.sum(P * D))) <= 1e-8


def test_tangent_stack_rows():
    spec = parse_algebra("sym:3")
    basis = derivation_basis(spec)
    rng = np.random.default_rng(7)
    c = random_element(spec, rng).coords
    T = tangent_stack(basis, c)
    assert T.shape == (basis.dimension, spec.dim)
    for k, D in enumerate(basis.maps):
        assert np.allclose(T[k], D @ c)


def test_commutes_via_derivations_agrees():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(9)
    from ejalg import combine, spectral_decompose

    x = random_element(spec, rng)
    sd = spectral_decompose(x)
    y = combine(sd.frame, np.array([4.0, 1.0, -2.0]))
    z = random_element(spec, rng)
    for a, b in ((x, y), (x, z)):
        ok1, _ = operator_commutes(a, b)
        ok2, _ = commutes_via_derivations(a, b)
        assert ok1 == ok2
