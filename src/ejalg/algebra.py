"""Euclidean Jordan algebra arithmetic in fixed orthonormal coordinates.

Supported algebras: R^n with the componentwise product, real symmetric
matrices with the symmetrized product, spin factors, and direct products
of those.  Every element is stored as a coordinate vector in an
orthonormal basis for the trace-form inner product, so ``<x, y>`` is the
plain dot product of coordinates and automorphisms act as orthogonal
matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Tolerance ladder: construction identities are tightest, optimizer
# certificates are loosest.
CONSTRUCTION_TOL = 1e-12
CERT_TOL = 1e-6
TIE_TOL = 1e-8

_SQRT2 = np.sqrt(2.0)


class AlgebraError(ValueError):
    """Raised for malformed algebra specs or violated preconditions."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Identifier for one of the supported algebras.

    kind is one of "rn", "sym", "spin", "prod".  For simple kinds ``n``
    is the defining size (ambient vector size for rn/spin, matrix order
    for sym); for products ``factors`` holds the simple factors.
    """

    kind: str
    n: int = 0
    factors: tuple["AlgebraSpec", ...] = ()

    def __post_init__(self):
        if self.kind in ("rn", "sym"):
            if self.n < 1:
                raise AlgebraError(f"{self.kind} needs n >= 1, got {self.n}")
        elif self.kind == "spin":
            if self.n < 2:
                raise AlgebraError(f"spin needs n >= 2, got {self.n}")
        elif self.kind == "prod":
            if len(self.factors) < 2:
                raise AlgebraError("prod needs at least 2 factors")
            if any(f.kind == "prod" for f in self.factors):
                raise AlgebraError("prod factors must be simple (flattened)")
        else:
            raise AlgebraError(f"unknown algebra kind {self.kind!r}")

    # cached: the solvers' inner loops read dim and rank of products often
    @functools.cached_property
    def dim(self) -> int:
        if self.kind == "rn":
            return self.n
        if self.kind == "sym":
            return self.n * (self.n + 1) // 2
        if self.kind == "spin":
            return self.n
        return sum(f.dim for f in self.factors)

    @functools.cached_property
    def rank(self) -> int:
        if self.kind == "rn":
            return self.n
        if self.kind == "sym":
            return self.n
        if self.kind == "spin":
            return 2
        return sum(f.rank for f in self.factors)

    def __str__(self) -> str:
        if self.kind == "prod":
            return "prod(" + ",".join(str(f) for f in self.factors) + ")"
        return f"{self.kind}:{self.n}"


def real_vector(n: int) -> AlgebraSpec:
    return AlgebraSpec("rn", n)


def sym_matrix(n: int) -> AlgebraSpec:
    return AlgebraSpec("sym", n)


def spin_factor(n: int) -> AlgebraSpec:
    return AlgebraSpec("spin", n)


def direct_product(*factors: AlgebraSpec) -> AlgebraSpec:
    flat: list[AlgebraSpec] = []
    for f in factors:
        flat.extend(f.factors if f.kind == "prod" else (f,))
    return AlgebraSpec("prod", factors=tuple(flat))


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse "rn:4", "sym:3", "spin:5" or "prod(sym:3,spin:4)"."""
    s = text.strip()
    if s.startswith("prod(") and s.endswith(")"):
        inner = s[len("prod(") : -1]
        parts = [p for p in inner.split(",") if p.strip()]
        if len(parts) < 2:
            raise AlgebraError(f"prod needs at least 2 factors: {text!r}")
        return direct_product(*(parse_algebra(p) for p in parts))
    if ":" not in s:
        raise AlgebraError(f"cannot parse algebra spec {text!r}")
    kind, _, num = s.partition(":")
    kind = kind.strip()
    if kind not in ("rn", "sym", "spin"):
        raise AlgebraError(f"unknown algebra kind {kind!r} in {text!r}")
    try:
        n = int(num)
    except ValueError as exc:
        raise AlgebraError(f"bad size in algebra spec {text!r}") from exc
    return AlgebraSpec(kind, n)


@dataclass(frozen=True, eq=False)
class Element:
    """Algebra element: coords in the orthonormal trace-form basis."""

    algebra: AlgebraSpec
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise AlgebraError(
                f"coords shape {c.shape} does not match dim {self.algebra.dim}"
            )
        if not np.all(np.isfinite(c)):
            raise AlgebraError("coords must be finite")
        object.__setattr__(self, "coords", c)

    def __add__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _same_algebra(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __mul__(self, s: float) -> "Element":
        return Element(self.algebra, self.coords * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)


def _same_algebra(x: Element, y: Element):
    if x.algebra != y.algebra:
        raise AlgebraError(f"algebra mismatch: {x.algebra} vs {y.algebra}")


def _make(spec: AlgebraSpec, coords: np.ndarray) -> Element:
    # trusted constructor for internally produced coordinates
    e = object.__new__(Element)
    object.__setattr__(e, "algebra", spec)
    object.__setattr__(e, "coords", coords)
    return e


def zero(spec: AlgebraSpec) -> Element:
    return Element(spec, np.zeros(spec.dim))


def unit(spec: AlgebraSpec) -> Element:
    """The Jordan unit e, with <e, e> = rank."""
    if spec.kind == "rn":
        return Element(spec, np.ones(spec.n))
    if spec.kind == "sym":
        return Element(spec, _sym_pack(spec.n, np.eye(spec.n)))
    if spec.kind == "spin":
        c = np.zeros(spec.n)
        c[0] = _SQRT2
        return Element(spec, c)
    return Element(spec, np.concatenate([unit(f).coords for f in spec.factors]))


def random_element(spec: AlgebraSpec, rng: np.random.Generator, scale: float = 1.0) -> Element:
    """Standard normal coordinates; basis-orthonormality makes this isotropic."""
    return Element(spec, scale * rng.standard_normal(spec.dim))


def inner(x: Element, y: Element) -> float:
    _same_algebra(x, y)
    return float(x.coords @ y.coords)


def norm(x: Element) -> float:
    return float(np.linalg.norm(x.coords))


# -- symmetric-matrix packing -------------------------------------------------
# Upper triangle, row major, off-diagonal entries scaled by sqrt(2) so that
# packed vectors satisfy dot(pack(X), pack(Y)) = trace(X Y).


@functools.lru_cache(maxsize=None)
def _sym_indices(n: int):
    rows, cols = np.triu_indices(n)
    w = np.where(rows == cols, 1.0, _SQRT2)
    return rows, cols, w


@functools.lru_cache(maxsize=None)
def _sym_gather(n: int):
    """Packed index and divisor of every full-matrix entry, row major."""
    rows, cols, w = _sym_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return pos.ravel(), w[pos.ravel()]


def _sym_pack(n: int, M: np.ndarray) -> np.ndarray:
    """Packed coordinates of each matrix in a (..., n, n) stack."""
    rows, cols, w = _sym_indices(n)
    return M[..., rows, cols] * w


def _sym_unpack(n: int, v: np.ndarray) -> np.ndarray:
    """Symmetric matrices of each row in a (..., dim) packed stack."""
    pos, div = _sym_gather(n)
    return (v[..., pos] / div).reshape(v.shape[:-1] + (n, n))


def sym_to_matrix(x: Element) -> np.ndarray:
    """Dense symmetric matrix for a sym-kind element."""
    if x.algebra.kind != "sym":
        raise AlgebraError("sym_to_matrix needs a sym element")
    return _sym_unpack(x.algebra.n, x.coords)


def sym_from_matrix(spec: AlgebraSpec, M: np.ndarray) -> Element:
    if spec.kind != "sym":
        raise AlgebraError("sym_from_matrix needs a sym spec")
    M = np.asarray(M, dtype=float)
    if M.shape != (spec.n, spec.n):
        raise AlgebraError(f"matrix shape {M.shape} does not match {spec}")
    if np.max(np.abs(M - M.T)) > CONSTRUCTION_TOL * (1.0 + np.max(np.abs(M))):
        raise AlgebraError("matrix is not symmetric")
    return Element(spec, _sym_pack(spec.n, 0.5 * (M + M.T)))


@functools.lru_cache(maxsize=None)
def _factor_slices(spec: AlgebraSpec) -> tuple[slice, ...]:
    out, at = [], 0
    for f in spec.factors:
        out.append(slice(at, at + f.dim))
        at += f.dim
    return tuple(out)


def split_factors(x: Element) -> list[Element]:
    if x.algebra.kind != "prod":
        raise AlgebraError("split_factors needs a product element")
    return [
        Element(f, x.coords[s])
        for f, s in zip(x.algebra.factors, _factor_slices(x.algebra))
    ]


# -- Jordan product -----------------------------------------------------------


def _jp_coords(spec: AlgebraSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if spec.kind == "rn":
        return a * b
    if spec.kind == "sym":
        A = _sym_unpack(spec.n, a)
        B = _sym_unpack(spec.n, b)
        return _sym_pack(spec.n, 0.5 * (A @ B + B @ A))
    if spec.kind == "spin":
        z = np.empty(spec.n)
        z[0] = a @ b / _SQRT2
        z[1:] = (a[0] * b[1:] + b[0] * a[1:]) / _SQRT2
        return z
    return np.concatenate(
        [_jp_coords(f, a[s], b[s]) for f, s in zip(spec.factors, _factor_slices(spec))]
    )


def jordan_product(x: Element, y: Element) -> Element:
    _same_algebra(x, y)
    return Element(x.algebra, _jp_coords(x.algebra, x.coords, y.coords))


# -- spectral decomposition ---------------------------------------------------


@dataclass(frozen=True)
class JordanFrame:
    """Ordered tuple of primitive idempotents summing to the unit."""

    idempotents: tuple[Element, ...]

    def __len__(self):
        return len(self.idempotents)

    def __getitem__(self, i):
        return self.idempotents[i]

    def __iter__(self):
        return iter(self.idempotents)


@dataclass(frozen=True)
class SpectralDecomposition:
    """x = sum_i eigenvalues[i] * frame[i], eigenvalues nonincreasing."""

    algebra: AlgebraSpec
    eigenvalues: np.ndarray
    frame: JordanFrame


def multiplicity_blocks(eigenvalues: np.ndarray, tol: float = TIE_TOL) -> tuple[tuple[int, ...], ...]:
    """Group indices of a sorted spectrum whose gaps fall below tolerance.

    The tolerance is absolute-plus-relative: tol * (1 + |largest|).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        return ()
    thresh = tol * (1.0 + abs(lam[0]))
    blocks, cur = [], [0]
    for i in range(1, lam.size):
        if lam[i - 1] - lam[i] <= thresh:
            cur.append(i)
        else:
            blocks.append(tuple(cur))
            cur = [i]
    blocks.append(tuple(cur))
    return tuple(blocks)


def _decompose_simple(spec: AlgebraSpec, c: np.ndarray):
    """(eigenvalues desc, frame coord rows) of each row of a simple-algebra stack."""
    if spec.kind == "rn":
        order = np.argsort(-c, axis=-1, kind="stable")
        F = (order[..., None] == np.arange(spec.n)).astype(float)
        return -np.sort(-c, axis=-1), F
    if spec.kind == "sym":
        w, V = np.linalg.eigh(_sym_unpack(spec.n, c))
        # eigenvector k of each matrix as row k, largest eigenvalue first
        Vt = V.swapaxes(-1, -2)[..., ::-1, :]
        rows, cols, wt = _sym_indices(spec.n)
        return w[..., ::-1].copy(), Vt[..., rows] * Vt[..., cols] * wt
    if spec.kind == "spin":
        c0, cbar = c[..., :1], c[..., 1:]
        r = np.sqrt(np.add.reduce(cbar * cbar, axis=-1, keepdims=True))
        lam = np.concatenate([c0 + r, c0 - r], axis=-1) / _SQRT2
        F = np.empty(c.shape[:-1] + (2, spec.n))
        F[..., 0] = 1.0 / _SQRT2
        moving = r > 1e-14 * (1.0 + np.abs(c0))
        if moving.all():
            u = cbar / r
        else:
            # canonical frame where the vector part vanishes
            u = np.where(moving, cbar / np.where(moving, r, 1.0), np.eye(1, spec.n - 1))
        F[..., 0, 1:] = u / _SQRT2
        F[..., 1, 1:] = -F[..., 0, 1:]
        return lam, F
    raise AlgebraError(f"not a simple algebra: {spec}")


def _decompose_rows(spec: AlgebraSpec, c: np.ndarray):
    """(eigenvalues desc, frame coord rows) of each row of a (..., dim) stack.

    Returns (..., rank) eigenvalues and (..., rank, dim) frames.
    """
    if spec.kind != "prod":
        return _decompose_simple(spec, c)
    c2 = c.reshape(-1, spec.dim)
    lam = np.empty((len(c2), spec.rank))
    F = np.zeros((len(c2), spec.rank, spec.dim))
    at = 0
    for f, s in zip(spec.factors, _factor_slices(spec)):
        lam[:, at : at + f.rank], F[:, at : at + f.rank, s] = _decompose_simple(f, c2[:, s])
        at += f.rank
    order = np.argsort(-lam, axis=-1, kind="stable")
    at_row = np.arange(len(c2))[:, None]
    lead = c.shape[:-1]
    return lam[at_row, order].reshape(lead + (spec.rank,)), F[at_row, order].reshape(lead + F.shape[1:])


def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Full eigendecomposition with an explicit Jordan frame, eigenvalues nonincreasing."""
    spec = x.algebra
    lam, F = _decompose_rows(spec, x.coords)
    frame = JordanFrame(tuple(_make(spec, row) for row in F))
    return SpectralDecomposition(spec, lam, frame)


def _eigvals(spec: AlgebraSpec, c: np.ndarray) -> np.ndarray:
    """Nonincreasing eigenvalues of each row of a (..., dim) stack."""
    if spec.kind == "rn":
        return -np.sort(-c, axis=-1)
    if spec.kind == "sym":
        return np.linalg.eigvalsh(_sym_unpack(spec.n, c))[..., ::-1]
    if spec.kind == "spin":
        c0, cbar = c[..., :1], c[..., 1:]
        r = np.sqrt(np.add.reduce(cbar * cbar, axis=-1, keepdims=True))
        return np.concatenate([c0 + r, c0 - r], axis=-1) / _SQRT2
    parts = [_eigvals(f, c[..., s]) for f, s in zip(spec.factors, _factor_slices(spec))]
    return -np.sort(-np.concatenate(parts, axis=-1), axis=-1)


def eigenvalue_map(x: Element) -> np.ndarray:
    """Nonincreasing eigenvalues; avoids building the frame."""
    return _eigvals(x.algebra, x.coords)


def combine(frame: JordanFrame, values: np.ndarray) -> Element:
    """sum_i values[i] * frame[i]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(frame),):
        raise AlgebraError("values length does not match frame")
    spec = frame[0].algebra
    coords = np.zeros(spec.dim)
    for v, e in zip(values, frame):
        coords += v * e.coords
    return Element(spec, coords)


def reconstruct(sd: SpectralDecomposition) -> Element:
    return combine(sd.frame, sd.eigenvalues)


@functools.lru_cache(maxsize=None)
def canonical_frame(spec: AlgebraSpec) -> JordanFrame:
    """A fixed Jordan frame (the frame of the unit's decomposition)."""
    return spectral_decompose(unit(spec)).frame


# -- linear maps --------------------------------------------------------------
# Linear operators on V are plain (dim x dim) ndarrays acting on coords.


@functools.lru_cache(maxsize=None)
def _sym_basis_stack(n: int) -> np.ndarray:
    dim = n * (n + 1) // 2
    B = np.empty((dim, n, n))
    eye = np.eye(dim)
    for j in range(dim):
        B[j] = _sym_unpack(n, eye[j])
    return B


def _lyapunov_direct(spec: AlgebraSpec, c: np.ndarray) -> np.ndarray:
    if spec.kind == "rn":
        return np.diag(c)
    if spec.kind == "spin":
        L = np.zeros((spec.n, spec.n))
        L[0, :] = c
        L[:, 0] = c
        idx = np.arange(1, spec.n)
        L[idx, idx] = c[0]
        return L / _SQRT2
    if spec.kind == "sym":
        A = _sym_unpack(spec.n, c)
        B = _sym_basis_stack(spec.n)
        prods = 0.5 * (A @ B + B @ A)
        return _sym_pack(spec.n, prods).T
    L = np.zeros((spec.dim, spec.dim))
    for f, s in zip(spec.factors, _factor_slices(spec)):
        L[s, s] = _lyapunov_direct(f, c[s])
    return L


@functools.lru_cache(maxsize=None)
def lyapunov_basis_stack(spec: AlgebraSpec) -> np.ndarray:
    """(dim, dim, dim) stack of L_{c_j} over the orthonormal basis."""
    eye = np.eye(spec.dim)
    S = np.stack([_lyapunov_direct(spec, eye[j]) for j in range(spec.dim)])
    S.setflags(write=False)
    return S


def lyapunov_map(a: Element) -> np.ndarray:
    """Matrix of x -> a o x in the orthonormal basis (self-adjoint)."""
    # L is linear in a, so contract against the cached basis stack.
    return np.tensordot(a.coords, lyapunov_basis_stack(a.algebra), axes=(0, 0))


def tensor_map(u: Element, v: Element) -> np.ndarray:
    """Rank-one map x -> <v, x> u, i.e. the matrix u v^T."""
    _same_algebra(u, v)
    return np.outer(u.coords, v.coords)


def operator_commutes(a: Element, b: Element, tol: float = TIE_TOL) -> tuple[bool, float]:
    """Whether L_a and L_b commute; residual is the scaled commutator norm."""
    _same_algebra(a, b)
    La, Lb = lyapunov_map(a), lyapunov_map(b)
    K = La @ Lb - Lb @ La
    residual = float(np.linalg.norm(K) / (1.0 + norm(a) * norm(b)))
    return residual <= tol, residual


def commutator_residual(a: Element, b: Element) -> float:
    return operator_commutes(a, b)[1]


def strong_operator_commutes(a: Element, b: Element, tol: float = TIE_TOL) -> tuple[bool, float]:
    """Simultaneous-frame test via the Fan gap <lam(a), lam(b)> - <a, b>.

    The gap is nonnegative and vanishes exactly on strongly commuting
    pairs; the boolean compares it against tol * (1 + |a||b|).
    """
    _same_algebra(a, b)
    gap = float(eigenvalue_map(a) @ eigenvalue_map(b) - inner(a, b))
    return abs(gap) <= tol * (1.0 + norm(a) * norm(b)), gap
