"""Spectral functions, subgradients, and majorization helpers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejalg import (
    AlgebraError,
    Element,
    SpectralFunction,
    builtin_function,
    check_strict_schur,
    combine,
    eigenvalue_map,
    inner,
    is_subgradient,
    majorizes,
    monotone_pairing_check,
    norm,
    parse_algebra,
    random_automorphism,
    random_element,
    schatten,
    spectral_decompose,
    spectral_subgradient,
    spectral_value,
    strong_operator_commutes,
    sumsq,
    unit,
)
from ejalg.specfun import spectral_subgrad_coords, spectral_value_coords


def test_schatten_values_frozen():
    f = schatten(2)
    assert abs(f.value(np.array([3.0, 4.0])) - 5.0) <= 1e-14
    assert abs(schatten(1).value(np.array([1.0, -1.0])) - 2.0) <= 1e-14
    assert abs(schatten(3).value(np.array([2.0, 0.0])) - 2.0) <= 1e-14
    assert abs(sumsq().value(np.array([1.0, 2.0, -2.0])) - 9.0) <= 1e-14


def test_function_flags():
    assert schatten(2).is_norm and not schatten(2).is_strictly_convex
    assert schatten(2).is_strictly_convex_norm
    assert not schatten(1).is_strictly_convex_norm
    assert sumsq().is_strictly_convex and not sumsq().is_norm


def test_builtin_function_names():
    assert builtin_function("schatten:2").name == "schatten:2"
    assert builtin_function("sumsq").name == "sumsq"
    with pytest.raises(ValueError):
        builtin_function("frobenius")
    with pytest.raises(ValueError):
        builtin_function("kappa")
    with pytest.raises(ValueError):
        builtin_function("schatten:x")


def test_spectral_value_is_orbit_invariant():
    spec = parse_algebra("prod(sym:3,spin:4)")
    rng = np.random.default_rng(0)
    F = SpectralFunction(schatten(3), spec)
    x = random_element(spec, rng)
    X = random_automorphism(spec, rng)
    assert abs(spectral_value(F, x) - spectral_value(F, X.apply(x))) <= 1e-9 * (1.0 + norm(x))


def test_schatten2_value_is_coordinate_norm():
    spec = parse_algebra("sym:4")
    rng = np.random.default_rng(1)
    F = SpectralFunction(schatten(2), spec)
    x = random_element(spec, rng)
    assert abs(spectral_value(F, x) - norm(x)) <= 1e-12


def test_subgradient_closed_forms():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(2)
    x = random_element(spec, rng)
    g2 = spectral_subgradient(SpectralFunction(schatten(2), spec), x)
    assert norm(g2 - x * (1.0 / norm(x))) <= 1e-10
    gs = spectral_subgradient(SpectralFunction(sumsq(), spec), x)
    assert norm(gs - x * 2.0) <= 1e-10


def test_subgradient_validates_and_commutes():
    for name in ("sym:3", "spin:4", "prod(sym:3,spin:4)"):
        spec = parse_algebra(name)
        rng = np.random.default_rng(3)
        for f in (schatten(1.5), schatten(2), schatten(3), sumsq()):
            F = SpectralFunction(f, spec)
            x = random_element(spec, rng)
            v = spectral_subgradient(F, x)
            assert is_subgradient(F, x, v)
            strong, _ = strong_operator_commutes(x, v)
            assert strong


def test_non_subgradient_rejected():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(4)
    F = SpectralFunction(schatten(2), spec)
    x = random_element(spec, rng, scale=2.0)
    assert not is_subgradient(F, x, x * 2.0)


def test_subgradient_near_tie_still_commutes():
    spec = parse_algebra("sym:2")
    rng = np.random.default_rng(5)
    x0 = random_element(spec, rng)
    frame = spectral_decompose(x0).frame
    x = combine(frame, np.array([1.0 + 1e-12, 1.0]))
    F = SpectralFunction(schatten(1.5), spec)
    v = spectral_subgradient(F, x)
    strong, _ = strong_operator_commutes(x, v)
    assert strong
    assert is_subgradient(F, x, v)


def test_coordinate_twins_match_element_api():
    spec = parse_algebra("spin:5")
    rng = np.random.default_rng(6)
    F = SpectralFunction(schatten(3), spec)
    x = random_element(spec, rng)
    assert spectral_value_coords(F, x.coords) == spectral_value(F, x)
    assert np.allclose(spectral_subgrad_coords(F, x.coords), spectral_subgradient(F, x).coords)


def test_majorizes_hand_cases():
    assert majorizes(np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    assert not majorizes(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
    assert not majorizes(np.array([1.0, 0.0]), np.array([2.0, 0.0]))  # sums differ
    assert majorizes(np.array([1.0, 2.0]), np.array([2.0, 1.0]))  # order-free


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_eigenvalues_of_sum_majorized(seed):
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(seed)
    x = random_element(spec, rng)
    y = random_element(spec, rng)
    assert majorizes(eigenvalue_map(x + y), eigenvalue_map(x) + eigenvalue_map(y), tol=1e-8)


def test_monotone_pairing_check_cases():
    # the check pairs both spectra sorted nonincreasing (the shared-frame
    # order under strong commutation); strict gaps in x forbid ties in v
    spec = parse_algebra("rn:3")
    x = Element(spec, np.array([3.0, 2.0, 1.0]))
    assert monotone_pairing_check(x, Element(spec, np.array([9.0, 4.0, 1.0])))
    assert not monotone_pairing_check(x, Element(spec, np.array([5.0, 5.0, 0.0])))
    # ties in x impose nothing
    xt = Element(spec, np.array([2.0, 2.0, 0.0]))
    assert monotone_pairing_check(xt, Element(spec, np.array([5.0, 1.0, 0.0])))


def test_check_strict_schur_contract():
    out = check_strict_schur(sumsq(), trials=200, seed=0)
    assert out["violations"] == 0 and out["min_margin"] > 0.0
    with pytest.raises(ValueError):
        check_strict_schur(schatten(2), trials=10, seed=0)


def test_strict_schur_probe_raises_when_its_premise_fails(monkeypatch):
    # a named error, not an assert that python -O strips
    import ejalg.specfun as sf

    monkeypatch.setattr(sf, "majorizes", lambda u, v: False)
    with pytest.raises(AlgebraError, match="majorize"):
        sf.strict_schur_probe(sumsq(), 5, np.random.default_rng(0))


def test_schur_strictness_fails_for_p1():
    # schatten:1 is not strictly Schur monotone on the positive orthant:
    # permutation averages keep the value exactly
    f = schatten(1)
    v = np.array([2.0, 1.0, 0.5])
    u = np.array([(2.0 + 1.0) / 2.0, (2.0 + 1.0) / 2.0, 0.5])
    assert abs(f.value(u) - f.value(v)) <= 1e-14


def test_subgradient_needs_convexity_oracle():
    spec = parse_algebra("sym:3")
    x = unit(spec) * 2.0
    nonconvex = dataclasses.replace(sumsq(), name="nonconvex", is_convex=False, is_strictly_convex=False)
    with pytest.raises(ValueError, match="not convex"):
        spectral_subgradient(SpectralFunction(nonconvex, spec), x)
    no_oracle = dataclasses.replace(sumsq(), name="no-oracle", subgrad=None)
    with pytest.raises(ValueError, match="no subgradient oracle"):
        spectral_subgradient(SpectralFunction(no_oracle, spec), x)


def test_spectral_subgradient_rejects_non_finite():
    spec = parse_algebra("sym:3")
    f = dataclasses.replace(sumsq(), subgrad=lambda u: np.full_like(u, np.nan))
    with pytest.raises(AlgebraError, match="coords must be finite"):
        spectral_subgradient(SpectralFunction(f, spec), random_element(spec, np.random.default_rng(10)))


def test_spectral_subgradient_scale_covariance():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(8)
    F = SpectralFunction(schatten(2), spec)
    x = random_element(spec, rng)
    v1 = spectral_subgradient(F, x)
    v2 = spectral_subgradient(F, x * 5.0)
    # the norm's subdifferential is scale-invariant away from zero
    assert norm(v1 - v2) <= 1e-10


def test_fenchel_tightness_at_point():
    spec = parse_algebra("sym:3")
    rng = np.random.default_rng(9)
    for f in (schatten(1.5), sumsq()):
        F = SpectralFunction(f, spec)
        x = random_element(spec, rng)
        v = spectral_subgradient(F, x)
        # subgradient inequality is tight in the x direction for norms,
        # and the pairing never exceeds the function value gap
        y = random_element(spec, rng)
        assert spectral_value(F, y) - spectral_value(F, x) >= inner(v, y - x) - 1e-8
