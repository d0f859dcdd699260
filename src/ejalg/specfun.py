"""Symmetric functions of eigenvalues and their spectral lifts.

A SymmetricFunction is a permutation-invariant function on R^rank with
an optional subgradient oracle; composing one with the eigenvalue map
gives a spectral function on the algebra.  Subgradients of the lift live
on the frame of the argument with block-averaged coefficients, which
keeps them valid at eigenvalue ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    CERT_TOL,
    Element,
    TIE_TOL,
    eigenvalue_map,
    inner,
    multiplicity_blocks,
    norm,
    random_element,
    strong_operator_commutes,
    _decompose_rows,
    _eigvals,
)

MAJORIZE_TOL = 1e-10


@dataclass(frozen=True)
class SymmetricFunction:
    """Permutation-invariant f: R^k -> R with convexity metadata.

    value and subgrad map a (..., k) stack row by row, returning (...)
    values and (..., k) subgradients.  A 1-D call is a one-row stack:
    on a C-contiguous stack each row gets the bits of its one-row call;
    on another layout (the permutation oracle's column blocks) a row
    can differ from it in the last ulps.
    """

    name: str
    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray] | None
    is_convex: bool
    is_strictly_convex: bool
    is_norm: bool
    is_strictly_convex_norm: bool


def schatten(p: float) -> SymmetricFunction:
    """The p-norm of the spectrum; a strictly convex norm iff p > 1."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"schatten needs p >= 1, got {p}")

    def value(u: np.ndarray):
        u = np.asarray(u, dtype=float)
        if p == 2.0:
            return np.sqrt(np.add.reduce(u * u, axis=-1))
        if p == 1.0:
            return np.add.reduce(np.abs(u), axis=-1)
        # an array, not a scalar, takes the root: numpy's scalar power
        # rounds apart from its array loop
        return (np.add.reduce(np.abs(u) ** p, axis=-1, keepdims=True) ** (1.0 / p))[..., 0]

    def subgrad(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if p == 1.0:
            return np.sign(u)
        nu = value(u)[..., None]
        ratio = np.divide(np.abs(u), nu, out=np.zeros_like(u), where=nu != 0.0)
        return np.sign(u) * ratio ** (p - 1.0)

    label = f"schatten:{int(p)}" if p == int(p) else f"schatten:{p}"
    return SymmetricFunction(
        name=label,
        value=value,
        subgrad=subgrad,
        is_convex=True,
        is_strictly_convex=False,
        is_norm=True,
        is_strictly_convex_norm=p > 1.0,
    )


def sumsq() -> SymmetricFunction:
    """Sum of squared eigenvalues; strictly convex, not a norm."""

    def value(u: np.ndarray):
        u = np.asarray(u, dtype=float)
        return np.add.reduce(u * u, axis=-1)

    return SymmetricFunction(
        name="sumsq",
        value=value,
        subgrad=lambda u: 2.0 * np.asarray(u, dtype=float),
        is_convex=True,
        is_strictly_convex=True,
        is_norm=False,
        is_strictly_convex_norm=False,
    )


def builtin_function(name: str) -> SymmetricFunction:
    """Resolve CLI-addressable function names (schatten:p, sumsq)."""
    s = name.strip()
    if s == "sumsq":
        return sumsq()
    if s.startswith("schatten:"):
        try:
            return schatten(float(s.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad schatten exponent in {name!r}") from exc
    raise ValueError(f"unknown function {name!r}")


@dataclass(frozen=True)
class SpectralFunction:
    """f composed with the eigenvalue map on a fixed algebra."""

    f: SymmetricFunction
    algebra: AlgebraSpec


def spectral_value(F: SpectralFunction, x: Element) -> float:
    if x.algebra != F.algebra:
        raise AlgebraError("algebra mismatch")
    return float(F.f.value(_eigvals(F.algebra, x.coords)))


def spectral_value_coords(F: SpectralFunction, c: np.ndarray):
    """spectral_value on raw coordinates, per row of a (..., dim) stack."""
    lam = _eigvals(F.algebra, c)
    if c.ndim == 1:
        return float(F.f.value(lam))
    return np.asarray(F.f.value(lam), dtype=float)


def spectral_subgrad_coords(F: SpectralFunction, c: np.ndarray, tol: float = TIE_TOL) -> np.ndarray:
    """Block-averaged spectral subgradient per row of a (..., dim) stack."""
    lam, rows = _decompose_rows(F.algebra, c)
    g = np.asarray(F.f.subgrad(lam), dtype=float)
    # vectorized gap test; only rows with ties average their blocks
    close = lam[..., :-1] - lam[..., 1:] <= tol * (1.0 + np.abs(lam[..., :1]))
    if close.any():
        g = g.copy()
        lam2, g2 = lam.reshape(-1, lam.shape[-1]), g.reshape(-1, g.shape[-1])
        for i in np.flatnonzero(close.reshape(len(lam2), -1).any(axis=1)):
            for block in multiplicity_blocks(lam2[i], tol):
                if len(block) > 1:
                    g2[i, list(block)] = np.mean(g2[i, list(block)])
    return (g[..., None, :] @ rows)[..., 0, :]


def spectral_subgradient(F: SpectralFunction, x: Element, tol: float = TIE_TOL) -> Element:
    """Subgradient of f o lambda at x, on x's frame.

    Coefficients are the f-subgradient at the spectrum, averaged over
    multiplicity blocks so the result is well defined at ties.
    """
    if x.algebra != F.algebra:
        raise AlgebraError("algebra mismatch")
    if not F.f.is_convex:
        raise ValueError(f"{F.f.name} is not convex; no subgradient exists")
    if F.f.subgrad is None:
        raise ValueError(f"{F.f.name} has no subgradient oracle")
    return Element(F.algebra, spectral_subgrad_coords(F, x.coords, tol))


_PROBE_RADII = (0.5, 1.0, 4.0, 16.0, 64.0)
# probes per subgradient certificate, and the length of the vectors the
# strict Schur probe majorizes
CERT_PROBES = 64
SCHUR_LEN = 5


def is_subgradient(F: SpectralFunction, x: Element, v: Element) -> bool:
    """Sampled certificate that v lies in the subdifferential of F at x.

    Checks the subgradient inequality at random probes across several
    radii, strong operator commutation with x, and the vector-level
    inequality for lambda(v) at lambda(x).
    """
    if x.algebra != F.algebra or v.algebra != F.algebra:
        raise AlgebraError("algebra mismatch")
    rng = np.random.default_rng(0)
    fx = spectral_value(F, x)
    scale = 1.0 + norm(x)
    for k in range(CERT_PROBES):
        w = random_element(F.algebra, rng, scale=_PROBE_RADII[k % len(_PROBE_RADII)] * scale)
        gap = spectral_value(F, w) - fx - inner(v, w - x)
        if gap < -CERT_TOL * (1.0 + abs(fx) + norm(w - x)):
            return False
    ok, _ = strong_operator_commutes(v, x, CERT_TOL)
    if not ok:
        return False
    lam_x = eigenvalue_map(x)
    lam_v = eigenvalue_map(v)
    f_at = F.f.value(lam_x)
    rank = F.algebra.rank
    for k in range(CERT_PROBES):
        q = _PROBE_RADII[k % len(_PROBE_RADII)] * scale * rng.standard_normal(rank)
        gap = F.f.value(q) - f_at - float(lam_v @ (q - lam_x))
        if gap < -CERT_TOL * (1.0 + abs(f_at) + float(np.linalg.norm(q - lam_x))):
            return False
    return True


def majorizes(u: np.ndarray, v: np.ndarray, tol: float = MAJORIZE_TOL) -> bool:
    """Whether u is majorized by v (sorted partial sums, equal totals)."""
    u = np.sort(np.asarray(u, dtype=float))[::-1]
    v = np.sort(np.asarray(v, dtype=float))[::-1]
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    slack = tol * (1.0 + np.sum(np.abs(u)) + np.sum(np.abs(v)))
    cu, cv = np.cumsum(u), np.cumsum(v)
    if np.any(cu[:-1] > cv[:-1] + slack):
        return False
    return bool(abs(cu[-1] - cv[-1]) <= slack)


def check_strict_schur(f: SymmetricFunction, trials: int, seed: int) -> dict:
    """Strict Schur convexity probe for strictly convex symmetric f.

    See ``strict_schur_probe``; this entry point draws from its own seed.
    """
    if not f.is_strictly_convex:
        raise ValueError(f"{f.name} is not strictly convex")
    return strict_schur_probe(f, trials, np.random.default_rng(seed))


def strict_schur_probe(f: SymmetricFunction, trials: int, rng: np.random.Generator) -> dict:
    """Count strict majorizations u < v on which f(u) < f(v) fails.

    Draws v, averages it under a few random permutations to get a strict
    majorization u < v (resampling when the orbits coincide), and checks
    f(u) < f(v).  Returns trial count, violations, and the worst margin.
    """
    done = violations = 0
    min_margin = np.inf
    while done < trials:
        v = rng.standard_normal(SCHUR_LEN)
        k = int(rng.integers(2, 6))
        u = np.mean([v[rng.permutation(SCHUR_LEN)] for _ in range(k)], axis=0)
        if np.max(np.abs(np.sort(u) - np.sort(v))) <= 1e-9:
            continue
        if not majorizes(u, v):
            raise AlgebraError("permutation average does not majorize its source; the probe's premise fails")
        margin = f.value(v) - f.value(u)
        min_margin = min(min_margin, margin)
        if margin <= 0.0:
            violations += 1
        done += 1
    return {"trials": trials, "violations": violations, "min_margin": float(min_margin)}


def monotone_pairing_check(x: Element, v: Element, tol: float = TIE_TOL) -> bool:
    """Strict order agreement: lambda_i(x) > lambda_j(x) forces the same in v."""
    if x.algebra != v.algebra:
        raise AlgebraError("algebra mismatch")
    lam_x = eigenvalue_map(x)
    lam_v = eigenvalue_map(v)
    thresh = tol * (1.0 + abs(lam_x[0]))
    r = lam_x.size
    for i in range(r):
        for j in range(i + 1, r):
            if lam_x[i] > lam_x[j] + thresh and not (lam_v[i] > lam_v[j]):
                return False
    return True
