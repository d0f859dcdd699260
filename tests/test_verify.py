"""Certification suite behavior: validation, determinism, small passing runs."""

import dataclasses

import numpy as np
import pytest

from ejalg import (
    AlgebraError,
    Element,
    SolverParams,
    SuiteConfig,
    SuiteReport,
    Tolerances,
    commuting_witness,
    demo_kappa,
    jordan_product,
    kappa_clipping_oracle,
    lyapunov_map,
    midpoint_witness_record,
    multistart,
    operator_commutes,
    orbit,
    orbit_descent,
    parse_algebra,
    random_element,
    run_suite,
    suite_names,
    verify_appendix,
    verify_max_principle,
    verify_min_principle,
    verify_normal_cone,
    verify_shifted_principle,
    verify_smooth_principle,
)
from ejalg.verify import SUITES

SYM3 = parse_algebra("sym:3")


def small(algebra="sym:3", trials=4, seed=0):
    return SuiteConfig(algebra=parse_algebra(algebra), trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# config plumbing


def test_tolerances_must_be_positive():
    for bad in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(AlgebraError):
            Tolerances(commute=bad)
    assert Tolerances().commute == 1e-6


def test_config_rejects_zero_trials():
    with pytest.raises(AlgebraError):
        SuiteConfig(algebra=SYM3, trials=0)


def test_config_is_frozen():
    cfg = small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 7


def test_report_violation_bound_and_passed():
    rep = SuiteReport(
        suite="x", algebra="sym:3", trials=3, violations=0, skips=1,
        worst={}, records=(),
    )
    assert rep.passed
    rep = dataclasses.replace(rep, violations=2)
    assert not rep.passed
    with pytest.raises(AlgebraError):
        SuiteReport(
            suite="x", algebra="sym:3", trials=3, violations=4, skips=0,
            worst={}, records=(),
        )


def test_suite_names_expansion():
    assert suite_names(["all"]) == [
        "smooth", "max", "min", "shifted", "normalcone", "appendix", "kappa",
    ]
    # explicit names keep their order and drop duplicates
    assert suite_names(["kappa", "smooth", "kappa"]) == ["kappa", "smooth"]
    assert suite_names(["max", "all"])[0] == "max"
    with pytest.raises(KeyError):
        suite_names(["smoooth"])


def test_run_suite_dispatch():
    rep = run_suite("normalcone", small(trials=2))
    assert rep.suite == "normalcone"
    assert rep.algebra == "sym:3"


@pytest.mark.parametrize("name", SUITES)
@pytest.mark.parametrize("algebra", ["sym:2", "rn:3"])
def test_report_counts_match_records(name, algebra):
    rep = run_suite(name, small(algebra, trials=1))
    statuses = [r["status"] for r in rep.records]
    assert rep.trials == len(rep.records)
    assert rep.skips == statuses.count("skip")
    # normalcone adds one violation when its negative control rate fails
    control = name == "normalcone" and any("below" in n for n in rep.notes)
    assert rep.violations == statuses.count("violation") + control


# ---------------------------------------------------------------------------
# witness helpers


def _commutators(x, gens) -> np.ndarray:
    """The flattened commutators [L_x, L_{c_j}], one generator at a time."""
    Lx = lyapunov_map(x)
    return np.stack([(Lx @ lyapunov_map(g) - lyapunov_map(g) @ Lx).ravel() for g in gens])


def _enumerated_weights(x, gens) -> np.ndarray:
    """Reference witness weights: the best minimizer over every face of the simplex.

    |sum w_j K_j|^2 is a convex quadratic in w through the Gram matrix G
    of the commutators.  A vertex of its minimizer set lies in the
    relative interior of a face whose equality-KKT system is
    nonsingular, so solving that system on all 2^m faces finds a
    minimizer; when none beats the barycenter, the barycenter is kept.
    """
    Ks = _commutators(x, gens)
    m = len(gens)
    G = Ks @ Ks.T
    w = np.full(m, 1.0 / m)
    best = float(w @ G @ w)
    for mask in range(1, 2**m):
        idx = [j for j in range(m) if mask >> j & 1]
        r = len(idx)
        kkt = np.zeros((r + 1, r + 1))
        kkt[:r, :r] = 2.0 * G[np.ix_(idx, idx)]
        kkt[:r, r] = 1.0
        kkt[r, :r] = 1.0
        rhs = np.zeros(r + 1)
        rhs[r] = 1.0
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if np.any(sol[:r] < -1e-12):
            continue
        cand = np.zeros(m)
        cand[idx] = np.clip(sol[:r], 0.0, None)
        cand /= cand.sum()
        val = float(cand @ G @ cand)
        if val < best:
            best, w = val, cand
    return w


WITNESS_FAMILIES = ("random", "duplicated", "collinear", "rank-deficient", "commuting")


def _generator_set(spec, rng, m: int, family: str) -> tuple:
    """(x, m generators) of one degenerate family.

    duplicated: each of about m/2 generators twice; collinear: multiples
    of one generator, of both signs; rank-deficient: mixes of two
    generators and x o x, whose commutators span two directions;
    commuting: random generators with x o x last.
    """
    x = random_element(spec, rng)
    us = [random_element(spec, rng) for _ in range(m)]
    xx = jordan_product(x, x)
    if family == "duplicated":
        gens = [us[j // 2] for j in range(m)]
    elif family == "collinear":
        gens = [us[0] * float(t) for t in rng.uniform(-2.0, 2.0, m)]
    elif family == "rank-deficient":
        gens = [us[0] * float(a) + us[1 % m] * float(b) + xx * float(c) for a, b, c in rng.standard_normal((m, 3))]
    elif family == "commuting":
        gens = us[: m - 1] + [xx]
    else:
        gens = us
    return x, gens


def _witness_breaks(algebra: str, sets: int, seed: int) -> list:
    """The generator sets of a seeded draw on which ``commuting_witness`` breaks a bound.

    Set k is of family k mod 5 at scale 1, 1e-6 or 1e6 (by k // 5 mod 3)
    with 1 to 20 generators.  Its weights must lie on the simplex and
    p = sum w_j K_j must satisfy the nearest-point condition
    min_j <p, K_j> >= |p|^2 - 1e-12 max |K_j|^2; with at most 12
    generators at scale 1, |p| must also be within 1e-12 max |K_j| of
    the face enumeration's.  Returns (k, family, m, scale) per broken set.
    """
    spec = parse_algebra(algebra)
    rng = np.random.default_rng(seed)
    broken = []
    for k in range(sets):
        family, scale, m = WITNESS_FAMILIES[k % 5], (1.0, 1e-6, 1e6)[k // 5 % 3], 1 + int(rng.integers(20))
        x, gens = _generator_set(spec, rng, m, family)
        gens = [g * scale for g in gens]
        w, _ = commuting_witness(x, gens)
        K = _commutators(x, gens)
        top = float(np.max(np.linalg.norm(K, axis=1)))
        p = w @ K
        ok = bool(np.all(w >= 0.0)) and abs(w.sum() - 1.0) <= 1e-12
        ok = ok and float(np.min(K @ p)) >= p @ p - 1e-12 * top**2
        if ok and m <= 12 and scale == 1.0:
            ok = np.linalg.norm(p) <= np.linalg.norm(_enumerated_weights(x, gens) @ K) + 1e-12 * top
        if not ok:
            broken.append((k, family, m, scale))
    return broken


def test_commuting_witness_prefers_commuting_generator():
    rng = np.random.default_rng(3)
    x = random_element(SYM3, rng)
    good = jordan_product(x, x)
    bad = random_element(SYM3, rng)
    w, resid = commuting_witness(x, [good, bad])
    assert resid <= 1e-8
    assert w[0] >= 0.99


def _witness(x, gens):
    """``commuting_witness``, checking its weights lie on the simplex and its residual
    is |sum w_j K_j| / (1 + |x| max_j |c_j|), up to the rounding of the K_j."""
    w, resid = commuting_witness(x, gens)
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    top = max(np.linalg.norm(g.coords) for g in gens)
    assert abs(resid - np.linalg.norm(w @ _commutators(x, gens)) / (1.0 + np.linalg.norm(x.coords) * top)) <= 1e-14
    return w, resid


def test_commuting_witness_finds_an_interior_minimizer():
    # K_2 = -K_1: neither generator commutes with x, but their midpoint does
    rng = np.random.default_rng(5)
    x = random_element(SYM3, rng)
    good, u = jordan_product(x, x), random_element(SYM3, rng)
    gens = [good + u, good - u]
    assert min(operator_commutes(x, g)[1] for g in gens) > 1e-3
    w, resid = _witness(x, gens)
    assert resid <= 1e-14
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("case", ["duplicated", "rank-deficient", "collinear"])
def test_commuting_witness_on_degenerate_generator_sets(case):
    rng = np.random.default_rng(6)
    x = random_element(SYM3, rng)
    good, u, v = jordan_product(x, x), random_element(SYM3, rng), random_element(SYM3, rng)
    if case == "duplicated":
        w, resid = _witness(x, [u, good, u, good])
        assert resid <= 1e-14 and w[0] + w[2] <= 1e-12
    elif case == "rank-deficient":
        # the commutators span two directions; only the midpoint of the
        # first and third mixes to zero
        w, resid = _witness(x, [u, v, good * 2.0 - u, (u + v) * 0.5])
        assert resid <= 1e-14
        assert np.allclose(w, [0.5, 0.0, 0.5, 0.0], atol=1e-9)
    else:
        # positive multiples of one commutator: the shortest one wins
        w, resid = _witness(x, [u, u * 2.0, u * 3.0])
        assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)
        # u's own residual, scaled by the largest generator 3u instead of u
        xu = np.linalg.norm(x.coords) * np.linalg.norm(u.coords)
        assert abs(resid - operator_commutes(x, u)[1] * (1.0 + xu) / (1.0 + 3.0 * xu)) <= 1e-15


def test_commuting_witness_is_exact_past_twelve_generators():
    # 12 positive multiples of one generator, then x o x, which commutes
    # with x: the only minimizer is the last vertex
    rng = np.random.default_rng(7)
    x = random_element(SYM3, rng)
    u = random_element(SYM3, rng)
    w, resid = _witness(x, [u * float(t) for t in range(1, 13)] + [jordan_product(x, x)])
    assert np.max(np.abs(w - np.eye(13)[12])) <= 1e-12
    assert resid <= 1e-14


def test_commuting_witness_weights_do_not_depend_on_scale():
    rng = np.random.default_rng(1)
    x = random_element(SYM3, rng)
    gens = [random_element(SYM3, rng) for _ in range(4)]
    w1, _ = _witness(x, gens)
    for scale in (1e-6, 1e6):
        w, _ = _witness(x, [g * scale for g in gens])
        assert np.max(np.abs(w - w1)) <= 1e-12


@pytest.mark.parametrize("algebra", ["sym:3", "spin:4", "prod(sym:2,spin:3)"])
def test_commuting_witness_matches_the_face_enumeration(algebra):
    assert _witness_breaks(algebra, 60, 17) == []


def test_commuting_witness_negative_control():
    # three generic commutators in the 3-dimensional image of [L_x, L_.]
    # on sym:3 are independent, so no mix of them commutes with x
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = random_element(SYM3, rng)
        _, resid = _witness(x, [random_element(SYM3, rng) for _ in range(3)])
        assert resid > Tolerances().commute


def test_commuting_witness_residual_is_scaled_by_the_generators():
    # u, -u and u/2 mix to 0 at weights (0, 1/3, 2/3) at every scale s;
    # scaled by the mix, rounding read 1.8e-6 at s = 1e10 and 1.6e-4 at 1e12
    rng = np.random.default_rng(4)
    x, u = random_element(SYM3, rng), random_element(SYM3, rng)
    for s in (1.0, 1e6, 1e10, 1e12):
        w, resid = _witness(x, [u * s, u * -s, u * (0.5 * s)])
        assert np.allclose(w, [0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert resid <= Tolerances().commute
    # a generator that does not commute with x still reads as a violation
    _, resid = _witness(x, [random_element(SYM3, rng) * 1e10])
    assert resid > Tolerances().commute


def test_midpoint_witness_record_passes():
    rec = midpoint_witness_record()
    assert rec["status"] == "ok"
    assert min(rec["witness_weights"]) > 0.2
    assert abs(rec["value"] + 2.0) <= 1e-6
    assert rec["commute"] <= 1e-6
    # the generators themselves do not commute with the minimizer
    assert rec["endpoint_resid"] >= 1e-3


# ---------------------------------------------------------------------------
# suites on small configurations


def test_smooth_suite_passes():
    rep = verify_smooth_principle(small())
    assert rep.passed
    assert len(rep.records) == 4
    assert rep.worst["commute"] <= 1e-6


def test_smooth_suite_deterministic():
    a = verify_smooth_principle(small(seed=5))
    b = verify_smooth_principle(small(seed=5))
    assert a.records == b.records
    c = verify_smooth_principle(small(seed=6))
    assert c.records != a.records


def test_max_suite_passes():
    rep = verify_max_principle(small(trials=3))
    assert rep.passed


def test_min_suite_passes_and_appends_witness():
    rep = verify_min_principle(small(trials=3))
    assert rep.passed
    assert rep.records[-1]["trial"] == "witness"


def test_shifted_suite_passes():
    rep = verify_shifted_principle(small(trials=3))
    assert rep.passed
    assert rep.worst["value"] <= 1e-6


def test_shifted_suite_on_product():
    rep = verify_shifted_principle(small("prod(sym:2,spin:4)", trials=3))
    assert rep.passed


@pytest.mark.parametrize("name", ["rn:3", "spin:2", "prod(rn:2,sym:2)"])
def test_shifted_suite_skips_disconnected_orbits(name):
    # the solver cannot reach the whole eigenvalue orbit the oracle
    # enumerates, so a value gap there would be a false violation
    rep = verify_shifted_principle(small(name, trials=2))
    assert rep.passed
    assert rep.skips == 2
    assert all(r["reason"] == "orbit not connected" for r in rep.records)


def test_normalcone_suite_passes():
    rep = verify_normal_cone(small(trials=3))
    assert rep.passed
    assert rep.worst["pairing"] <= 1e-8


def test_normalcone_rn_has_no_derivations():
    rep = verify_normal_cone(small("rn:4", trials=2))
    assert rep.passed
    assert any("not applicable" in n for n in rep.notes)


def test_appendix_suite_passes():
    rep = verify_appendix(small(trials=3))
    assert rep.passed
    names = {r["trial"] for r in rep.records}
    assert {"schur:sumsq", "midpoint:sumsq", "strictnorm", "monotone", "transitivity"} <= names


def test_demo_kappa_rejects_bad_eps():
    for eps in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(AlgebraError):
            demo_kappa(small(trials=1), eps=eps)


def test_demo_kappa_reference_only_for_rank3():
    rep = demo_kappa(small(trials=2), eps=0.5)
    assert rep.passed
    ref = [r for r in rep.records if r["trial"] == "reference"]
    assert len(ref) == 1
    assert ref[0]["oracle_gap"] <= 1e-4
    rep = demo_kappa(small("rn:4", trials=2), eps=0.5)
    assert not any(r["trial"] == "reference" for r in rep.records)
    # rank 3, but rn:3 has no derivations, so no random frame to draw on
    rep = demo_kappa(small("rn:3", trials=1), eps=0.5)
    assert rep.passed
    assert not any(r["trial"] == "reference" for r in rep.records)
    assert "no reference: orbit not connected" in rep.notes


@pytest.mark.parametrize("seed", [24, 53, 54])
def test_demo_kappa_reference_reaches_closed_form(seed):
    rep = demo_kappa(small(trials=1, seed=seed), eps=0.5)
    (ref,) = [r for r in rep.records if r["trial"] == "reference"]
    assert ref["status"] == "ok"
    assert ref["oracle_gap"] <= 1e-4


def test_demo_kappa_never_increases():
    rep = demo_kappa(small(trials=4, seed=2), eps=0.7)
    assert rep.passed
    assert all(r["increase"] <= 1e-12 for r in rep.records)


def test_kappa_clipping_oracle_values():
    assert abs(kappa_clipping_oracle(np.array([4.0, 2.0, 1.0]), 0.5) - 7.0 / 3.0) <= 1e-15
    # a wide enough margin reaches the perfectly conditioned floor
    assert kappa_clipping_oracle(np.array([4.0, 2.0, 1.0]), 10.0) == 1.0


@pytest.mark.parametrize("stage", ["polish start", "returned point"])
def test_minimize_maxaffine_rejects_non_finite(monkeypatch, stage):
    import ejalg.verify as ver

    spec = parse_algebra("sym:2")
    rng = np.random.default_rng(14)
    C = np.stack([random_element(spec, rng).coords for _ in range(2)])
    nan = np.full(spec.dim, np.nan)
    b = random_element(spec, rng)
    trial = (C, np.zeros(2), None, b, 0)
    # the mu = 1e-3 solve starts where the batch's mu = 1e-2 solve ended;
    # the failed trial carries its error, the other one goes on
    start = nan
    if stage == "returned point":
        start = b.coords
        monkeypatch.setattr(ver, "_crease_newton", lambda *args: (0.0, nan, np.ones(1)))
    failed, other = ver._minimize_maxaffine([trial, trial], [start, b.coords])
    assert isinstance(failed, AlgebraError) and "coords must be finite" in str(failed)
    assert isinstance(other, AlgebraError) == (stage == "returned point")


# ---------------------------------------------------------------------------
# the min suite's staged solves against the per-trial loop


def _loop_minimize_maxaffine(spec, C, d, f_extra, fset, seed):
    """One trial: a 4-start ``multistart`` at mu = 1e-2, an ``orbit_descent`` at mu = 1e-3, then crease Newton."""
    import ejalg.verify as ver

    params = SolverParams(max_iters=200, tol=1e-9)
    x = multistart(ver._maxaffine_objective(spec, C, d, f_extra, 1e-2), fset, params, 4, seed).x
    mu = 1e-3
    x = orbit_descent(ver._maxaffine_objective(spec, C, d, f_extra, mu), fset, x0=x, params=params).x.coords
    z = C @ x + d
    zmax = float(np.max(z))
    active = [int(j) for j in np.nonzero(zmax - z <= 50.0 * mu)[0]]
    p = np.exp((z[active] - zmax) / mu)
    while True:
        stat, x, w = ver._crease_newton(spec, C, d, f_extra, x, active, p / p.sum())
        if len(active) == 1 or float(np.min(w)) >= -1e-6:
            break
        drop = int(np.argmin(w))
        active = [a for k, a in enumerate(active) if k != drop]
        p = np.maximum(np.delete(w, drop), 1e-8)
    return Element(spec, x), stat


def _staged_against_loop(name: str, trials: int, seed: int) -> tuple[int, list]:
    """(trials compared, trials that differ) of a min suite run against the loop.

    Runs ``verify_min_principle``, records every staged solve with the
    trials it solved, and solves each trial again with
    ``_loop_minimize_maxaffine``; a trial differs unless its point and
    stationarity bits (or its error text) are the loop's.  The midpoint
    instance is one more trial.
    """
    import ejalg.verify as ver

    calls = []
    real = ver._solve_min_trials

    def staged(trials):
        out = real(trials)
        calls.append((trials, out))
        return out

    ver._solve_min_trials = staged
    try:
        verify_min_principle(SuiteConfig(parse_algebra(name), trials=trials, seed=seed))
    finally:
        ver._solve_min_trials = real
    compared, differ = 0, []
    for trials, out in calls:
        for (C, d, f_extra, b, seed), got in zip(trials, out):
            try:
                want = _loop_minimize_maxaffine(b.algebra, C, d, f_extra, orbit(b), seed)
            except AlgebraError as exc:
                want = exc
            compared += 1
            if isinstance(got, AlgebraError) or isinstance(want, AlgebraError):
                same = str(got) == str(want)
            else:
                same = got[0].coords.tobytes() == want[0].coords.tobytes() and float(got[1]).hex() == float(want[1]).hex()
            if not same:
                differ.append(f"{name} {b.algebra} trial {compared - 1}")
    return compared, differ


@pytest.mark.parametrize("name", ["sym:3", "spin:4", "prod(sym:2,spin:3)"])
def test_staged_polishes_match_the_per_trial_loop(name):
    compared, differ = _staged_against_loop(name, 6, 70)
    assert compared == 7  # six trials and the midpoint instance
    assert differ == []


def test_min_suite_solves_in_stages(monkeypatch):
    import ejalg.optimize as opt

    stacks = []
    real = opt._orbit_lockstep
    monkeypatch.setattr(opt, "_orbit_lockstep", lambda *args: stacks.append(len(args[2])) or real(*args))
    for trials in (4, 24):
        stacks.clear()
        assert verify_min_principle(small(trials=trials)).passed
        # mu = 1e-2 from 4 starts, mu = 1e-3; then the same two for the midpoint
        assert stacks == [4 * trials, trials, 4, 1]


def test_suites_call_no_one_problem_solver(monkeypatch):
    import ejalg.optimize as opt
    import ejalg.verify as ver

    def refuse(*args, **kwargs):
        raise AssertionError("a suite called a one-problem solver")

    for mod in (opt, ver):
        for name in ("orbit_descent", "multistart"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    for name in ("smooth", "max", "min", "shifted", "kappa"):
        rep = run_suite(name, small(trials=2))
        assert rep.passed, name
    assert rep.records[-1]["trial"] == "reference"


def test_commutation_checks_have_power():
    # a 0.1-size automorphism kick off a commuting pair must be visible,
    # otherwise a suite could pass by never being able to fail
    from ejalg import exp_derivation, random_derivation
    from ejalg.algebra import commutator_residual

    hits = 0
    total = 0
    for name in ("sym:3", "spin:4"):
        spec = parse_algebra(name)
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = random_element(spec, rng)
            v = jordan_product(x, x) - 0.7 * x
            assert commutator_residual(x, v) <= 1e-10
            D = random_derivation(spec, rng)
            D = D / np.linalg.norm(D)
            moved = exp_derivation(spec, 0.1 * D).apply(x)
            total += 1
            if commutator_residual(moved, v) > 1e-3:
                hits += 1
    assert hits >= 0.95 * total
