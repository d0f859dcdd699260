"""Derivations and automorphisms of the supported algebras.

Der(V) is spanned by Lyapunov commutators [L_u, L_v]; an orthonormal
basis of that span (Frobenius inner product) is built once per algebra
and cached.  Automorphisms are sampled from the identity component as
exponentials of derivations, which is all the verification suites need.
Under trace-form coordinates derivations are skew-symmetric matrices and
automorphisms are orthogonal, so exponentials are cheap and well
conditioned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    Element,
    lyapunov_basis_stack,
    norm,
)
from . import algebra as _alg

# Candidate commutators below this relative mass are discarded while
# orthonormalizing the spanning set.
RANK_TOL = 1e-9
DERIVATION_TOL = 1e-8
EXP_SCALE_THRESHOLD = 0.5
_TAYLOR_ORDER = 13


@dataclass(frozen=True)
class DerivationBasis:
    """Orthonormal basis of Der(V) under the Frobenius inner product."""

    algebra: AlgebraSpec
    stack: np.ndarray  # (k, dim, dim)

    @property
    def dimension(self) -> int:
        return self.stack.shape[0]

    @property
    def maps(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)


def _derivation_dimension(spec: AlgebraSpec) -> int:
    """dim Der(V): so(n) for sym:n, so(n - 1) for spin:n, none for rn."""
    if spec.kind == "prod":
        return sum(_derivation_dimension(f) for f in spec.factors)
    if spec.kind == "sym":
        return spec.n * (spec.n - 1) // 2
    if spec.kind == "spin":
        return (spec.n - 1) * (spec.n - 2) // 2
    return 0


@functools.lru_cache(maxsize=None)
def derivation_basis(spec: AlgebraSpec) -> DerivationBasis:
    """Span {[L_{c_i}, L_{c_j}]} and orthonormalize (modified Gram-Schmidt).

    The pairs i < j are taken in order and the loop stops once it holds
    dim Der(V) elements: n(n - 1)/2 for sym:n, (n - 1)(n - 2)/2 for
    spin:n, 0 for rn:n and the sum over the factors for a product.  The
    commutators after that point lie in the span already kept, so the
    basis is the one the full loop over every pair builds.  Fewer
    elements at the end of the loop raise ``AlgebraError``.
    """
    dim = spec.dim
    want = _derivation_dimension(spec)
    S = lyapunov_basis_stack(spec)
    kept: list[np.ndarray] = []
    for i, j in zip(*np.triu_indices(dim, 1)):
        if len(kept) == want:
            break
        C = S[i] @ S[j] - S[j] @ S[i]
        w = C.ravel().copy()
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
    if len(kept) < want:
        raise AlgebraError(f"found {len(kept)} of the {want} derivations of {spec}")
    if kept:
        stack = np.stack(kept).reshape(len(kept), dim, dim)
    else:
        stack = np.zeros((0, dim, dim))
    stack.setflags(write=False)
    return DerivationBasis(spec, stack)


def leibniz_residual(spec: AlgebraSpec, D: np.ndarray) -> float:
    """Worst violation of D(a o b) = Da o b + a o Db over basis pairs.

    Checking on basis pairs is exhaustive: the defect is bilinear.
    """
    T = lyapunov_basis_stack(spec).transpose(0, 2, 1)  # T[i, j] = coords of c_i o c_j
    lhs = np.einsum("ijk,lk->ijl", T, D)
    rhs = np.einsum("ai,ajk->ijk", D, T) + np.einsum("bj,ibk->ijk", D, T)
    worst = float(np.max(np.linalg.norm(lhs - rhs, axis=2)))
    return worst / (1.0 + float(np.linalg.norm(D)))


def is_derivation(spec: AlgebraSpec, D: np.ndarray, tol: float = DERIVATION_TOL) -> bool:
    return leibniz_residual(spec, D) <= tol


@dataclass(frozen=True)
class Automorphism:
    """Orthogonal algebra automorphism."""

    algebra: AlgebraSpec
    matrix: np.ndarray

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise AlgebraError("algebra mismatch")
        return Element(self.algebra, self.matrix @ x.coords)


def _expm(A: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a fixed-order Taylor core."""
    nrm = float(np.linalg.norm(A))
    squarings = 0
    if nrm > EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(nrm / EXP_SCALE_THRESHOLD)))
        A = A / (2.0**squarings)
    E = np.eye(A.shape[0])
    # Horner evaluation of sum A^k / k!
    for k in range(_TAYLOR_ORDER, 0, -1):
        E = np.eye(A.shape[0]) + (A @ E) / k
    for _ in range(squarings):
        E = E @ E
    return E


def exp_action(D: np.ndarray, coords: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t D) @ coords without forming the exponential when t D is small."""
    A = t * D
    nrm = float(np.linalg.norm(A))
    if nrm > 0.9:
        return _expm(A) @ coords
    # truncation bound nrm^(k+1)/(k+1)! keeps these below 1e-16 relative
    if nrm <= 0.03:
        terms = 7
    elif nrm <= 0.15:
        terms = 10
    elif nrm <= 0.5:
        terms = 13
    else:
        terms = 17
    acc = coords.copy()
    term = coords
    for k in range(1, terms + 1):
        term = (A @ term) / k
        acc += term
    return acc


class SkewCurves:
    """Points exp(t D) x on the curves of a stack of real skew maps, at any t.

    Derivations are skew in trace-form coordinates, so iD is Hermitian:
    D = -i U diag(mu) U^H and exp(t D) x = U diag(exp(-i mu t)) U^H x.
    One eigendecomposition then serves every step along a curve.  The
    map stays unitary whatever the size of t D, and the step from x is
    summed in the eigenbasis, so short steps keep their relative
    accuracy.  ``eig`` is the (mu, U) of iD; coords broadcast against
    it, so (m, dim) points on (m, dim, dim) maps give one curve per row.
    """

    def __init__(self, eig: tuple[np.ndarray, np.ndarray], coords: np.ndarray):
        self.mu, self.U = eig
        self.x = coords.copy()
        self.z = self.U.conj().swapaxes(-1, -2) @ coords[..., None]

    @classmethod
    def of(cls, D: np.ndarray, coords: np.ndarray) -> "SkewCurves":
        return cls(np.linalg.eigh(1j * D), coords)

    def at(self, t: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Points exp(t D) x for the selected rows, t broadcasting like x."""
        theta = self.mu[rows] * np.asarray(t)[..., None]
        # exp(-i theta) - 1 without cancellation
        step = -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)
        # a named operand: numpy reuses a large unnamed temporary as the
        # product's output, and its in-place complex multiply rounds
        # differently, so a row would depend on the size of its stack
        z = self.z[rows]
        return self.x[rows] + (self.U[rows] @ (step[..., None] * z)).real[..., 0]


@functools.lru_cache(maxsize=None)
def _basis_eig(spec: AlgebraSpec) -> tuple[np.ndarray, np.ndarray]:
    """(mu, U) of i D_j for every derivation basis map, built on first use."""
    mu, U = np.linalg.eigh(1j * derivation_basis(spec).stack)
    mu.setflags(write=False)
    U.setflags(write=False)
    return mu, U


def basis_curve_points(basis: DerivationBasis, coords: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(m, k, dim) points exp(t_r D_j) x_r along every basis curve.

    coords is an (m, dim) stack and t an (m,) array of steps.
    """
    curves = SkewCurves(_basis_eig(basis.algebra), coords[:, None, :])
    return curves.at(np.asarray(t)[:, None])


def exp_derivation(spec: AlgebraSpec, D: np.ndarray) -> Automorphism:
    """exp(D) as an Automorphism; rejects non-derivations."""
    D = np.asarray(D, dtype=float)
    if D.shape != (spec.dim, spec.dim):
        raise AlgebraError(f"map shape {D.shape} does not match dim {spec.dim}")
    if not is_derivation(spec, D):
        raise AlgebraError("input map violates the Leibniz rule")
    return Automorphism(spec, _expm(D))


def random_derivation(spec: AlgebraSpec, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal coefficients on the orthonormal basis, scaled 1/sqrt(k)."""
    basis = derivation_basis(spec)
    k = basis.dimension
    if k == 0:
        return np.zeros((spec.dim, spec.dim))
    coeffs = rng.standard_normal(k) / np.sqrt(k)
    return np.tensordot(coeffs, basis.stack, axes=(0, 0))


def random_automorphism(spec: AlgebraSpec, rng: np.random.Generator) -> Automorphism:
    return Automorphism(spec, _expm(random_derivation(spec, rng)))


def project_perp_derivations(spec: AlgebraSpec, H: np.ndarray) -> np.ndarray:
    """Component of H orthogonal to Der(V) (Frobenius inner product)."""
    basis = derivation_basis(spec)
    if basis.dimension == 0:
        return np.array(H, dtype=float)
    flat = basis.stack.reshape(basis.dimension, -1)
    coeffs = flat @ np.asarray(H, dtype=float).ravel()
    return H - np.tensordot(coeffs, basis.stack, axes=(0, 0))


def tangent_stack(basis: DerivationBasis, coords: np.ndarray) -> np.ndarray:
    """(..., k, dim) rows D_k x for each row x of a (..., dim) coordinate stack."""
    k, dim = basis.dimension, coords.shape[-1]
    if k == 0:
        return np.zeros(coords.shape[:-1] + (0, dim))
    # one product per row, so a row's result does not depend on the stack
    flat = (coords[..., None, :] @ basis.stack.reshape(k * dim, dim).T)[..., 0, :]
    return flat.reshape(coords.shape[:-1] + (k, dim))


def orbit_is_connected(spec: AlgebraSpec) -> bool:
    """Whether automorphism curves exp(t D) reach every element of a spectrum.

    The orbit solvers sweep only the identity component of the
    automorphism group.  In a factor of rank >= 2 it is transitive on
    Jordan frames exactly when the factor has derivations; rn:n (n >= 2)
    and spin:2 have none, so their eigenvalue orbits, and those of
    products with such a factor, split into isolated points.
    """
    factors = spec.factors if spec.kind == "prod" else (spec,)
    return all(f.rank == 1 or derivation_basis(f).dimension > 0 for f in factors)


def commutes_via_derivations(a: Element, b: Element, tol: float = _alg.TIE_TOL) -> tuple[bool, float]:
    """Operator commutation via the pairing <a, D b> = 0 for all D in Der."""
    _alg._same_algebra(a, b)
    basis = derivation_basis(a.algebra)
    if basis.dimension == 0:
        return True, 0.0
    vals = tangent_stack(basis, b.coords) @ a.coords
    residual = float(np.max(np.abs(vals)) / (1.0 + norm(a) * norm(b)))
    return residual <= tol, residual
