"""Acceptance gate: every shipped claim at its stated tolerance and budget.

Each test prints exactly one PASS/FAIL line so a full run reads as a
checklist.  Budgets are wall-clock seconds on a single worker.
"""

import json
import time

import numpy as np

from ejalg import (
    SuiteConfig,
    demo_kappa,
    eigenvalue_map,
    inner,
    jordan_product,
    lyapunov_map,
    norm,
    operator_commutes,
    parse_algebra,
    random_element,
    reconstruct,
    spectral_decompose,
    tensor_map,
    unit,
    verify_appendix,
    verify_max_principle,
    verify_min_principle,
    verify_normal_cone,
    verify_shifted_principle,
    verify_smooth_principle,
    zero,
)
from ejalg.cli import main
from ejalg.liegroup import commutes_via_derivations, project_perp_derivations
from ejalg.verify import kappa_clipping_oracle

AXIOM_ALGEBRAS = ("rn:5", "sym:3", "sym:5", "spin:4", "spin:6", "prod(sym:3,spin:4)")
SHIFT_ALGEBRAS = ("sym:3", "sym:4", "spin:5", "prod(sym:3,spin:4)")


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_axioms():
    t0 = time.monotonic()
    worst = 0.0
    for name in AXIOM_ALGEBRAS:
        spec = parse_algebra(name)
        rng = np.random.default_rng(10)
        for _ in range(1000):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            u = random_element(spec, rng)
            v = random_element(spec, rng)
            scale = (1.0 + norm(x) + norm(y)) ** 3
            x2 = jordan_product(x, x)
            jordan = norm(
                jordan_product(x, jordan_product(x2, y))
                - jordan_product(x2, jordan_product(x, y))
            )
            assoc = abs(inner(jordan_product(x, y), u) - inner(y, jordan_product(x, u)))
            Ku = lyapunov_map(u) @ lyapunov_map(v) - lyapunov_map(v) @ lyapunov_map(u)
            Kx = lyapunov_map(x) @ lyapunov_map(y) - lyapunov_map(y) @ lyapunov_map(x)
            lyap = abs(float(x.coords @ Ku @ y.coords) - float(u.coords @ Kx @ v.coords))
            lscale = (1.0 + norm(x)) * (1.0 + norm(y)) * (1.0 + norm(u)) * (1.0 + norm(v))
            worst = max(worst, jordan / scale, assoc / scale, lyap / lscale)
    elapsed = time.monotonic() - t0
    report(
        1,
        f"axiom residuals (worst {worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s)",
        worst <= 1e-10 and elapsed < 30.0,
    )


def test_criterion_2_spectral_decomposition():
    worst_rec = 0.0
    worst_frame = 0.0
    lipschitz_violations = 0
    for name in AXIOM_ALGEBRAS:
        spec = parse_algebra(name)
        rng = np.random.default_rng(20)
        e = unit(spec)
        for _ in range(1000):
            x = random_element(spec, rng)
            sd = spectral_decompose(x)
            worst_rec = max(worst_rec, norm(reconstruct(sd) - x) / (1.0 + norm(x)))
            total = zero(spec)
            for i, f in enumerate(sd.frame):
                total = total + f
                worst_frame = max(worst_frame, norm(jordan_product(f, f) - f))
                for j in range(i):
                    worst_frame = max(worst_frame, abs(inner(f, sd.frame[j])))
            worst_frame = max(worst_frame, norm(total - e))
            y = random_element(spec, rng)
            gap = np.linalg.norm(eigenvalue_map(x) - eigenvalue_map(y)) - norm(x - y)
            if gap > 1e-9:
                lipschitz_violations += 1
    report(
        2,
        f"decomposition (reconstruction {worst_rec:.2e} <= 1e-10, frames {worst_frame:.2e},"
        f" Lipschitz violations {lipschitz_violations})",
        worst_rec <= 1e-10 and worst_frame <= 1e-8 and lipschitz_violations == 0,
    )


def _three_way_verdicts(a, b, tol=1e-8):
    va = operator_commutes(a, b, tol)[0]
    vb = commutes_via_derivations(a, b, tol)[0]
    M = tensor_map(a, b)
    resid = np.linalg.norm(M - project_perp_derivations(a.algebra, M))
    vc = resid / (1.0 + norm(a) * norm(b)) <= tol
    return va, vb, vc


def test_criterion_3_three_way_equivalence():
    disagreements = 0
    pairs = 0
    for name in AXIOM_ALGEBRAS:
        spec = parse_algebra(name)
        rng = np.random.default_rng(30)
        for _ in range(84):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            va, vb, vc = _three_way_verdicts(a, b)
            disagreements += int(not (va == vb == vc))
            pairs += 1
        # constructed commuting pairs: a polynomial in a shares its frame
        for _ in range(25):
            a = random_element(spec, rng)
            b = jordan_product(a, a) - 0.3 * a
            va, vb, vc = _three_way_verdicts(a, b)
            disagreements += int(not (va and vb and vc))
            # and a fresh random pair pushed off the frame is generic
            c = random_element(spec, rng)
            wa, wb, wc = _three_way_verdicts(a, c)
            disagreements += int(not (wa == wb == wc))
    report(
        3,
        f"three-way commutation verdicts agree on {pairs}+ pairs ({disagreements} disagreements)",
        pairs >= 500 and disagreements == 0,
    )


def test_criterion_4_normal_cone():
    ok = True
    detail = []
    for name in ("sym:3", "sym:4", "spin:4", "prod(sym:3,spin:4)"):
        rep = verify_normal_cone(SuiteConfig(algebra=parse_algebra(name), trials=200, seed=40))
        ok = ok and rep.passed and rep.worst["pairing"] <= 1e-8
        detail.append(f"{name} worst {rep.worst['pairing']:.1e}")
    report(4, "normal-cone pairing <= 1e-8 with live negative control (" + ", ".join(detail) + ")", ok)


def test_criterion_5_smooth_principle():
    t0 = time.monotonic()
    ok = True
    detail = []
    for name in ("sym:3", "spin:4"):
        rep = verify_smooth_principle(SuiteConfig(algebra=parse_algebra(name), trials=100, seed=50))
        ok = ok and rep.passed and rep.worst["commute"] <= 1e-6 and rep.skips <= 10
        detail.append(f"{name} commute {rep.worst['commute']:.1e} skips {rep.skips}")
    elapsed = time.monotonic() - t0
    report(
        5,
        f"smooth principle ({', '.join(detail)}, {elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_6_max_principle():
    rep = verify_max_principle(SuiteConfig(algebra=parse_algebra("sym:3"), trials=100, seed=60))
    report(
        6,
        f"max principle sampled subgradients commute (worst {rep.worst['commute']:.1e})",
        rep.passed and rep.worst["commute"] <= 1e-6,
    )


def test_criterion_7_min_principle():
    rep = verify_min_principle(SuiteConfig(algebra=parse_algebra("sym:3"), trials=50, seed=70))
    trial_recs = [r for r in rep.records if r["trial"] != "witness"]
    witness = [r for r in rep.records if r["trial"] == "witness"]
    every = all(r["status"] == "ok" and r["commute"] <= 1e-6 for r in trial_recs)
    report(
        7,
        f"min principle commuting witness in all {len(trial_recs)} trials plus midpoint instance",
        rep.passed and every and len(witness) == 1 and witness[0]["status"] == "ok",
    )


def test_criterion_8_shifted_distance():
    t0 = time.monotonic()
    ok = True
    detail = []
    for name in SHIFT_ALGEBRAS:
        rep = verify_shifted_principle(SuiteConfig(algebra=parse_algebra(name), trials=300, seed=80))
        ok = ok and rep.passed and rep.worst["value"] <= 1e-6 and rep.worst["commute"] <= 1e-6
        ok = ok and rep.skips <= 30
        detail.append(f"{name} value {rep.worst['value']:.1e}")
    elapsed = time.monotonic() - t0
    report(
        8,
        f"shifted-distance oracle match ({', '.join(detail)}, {elapsed:.1f}s < 180s)",
        ok and elapsed < 180.0,
    )


def test_criterion_9_appendix():
    rep = verify_appendix(SuiteConfig(algebra=parse_algebra("sym:3"), trials=1000, seed=90))
    boundary = [r for r in rep.records if r["trial"] == "strictnorm"][0]
    monotone = [r for r in rep.records if r["trial"] == "monotone"][0]
    report(
        9,
        f"appendix properties (boundary err {boundary['boundary_err']:.1e} <= 1e-12,"
        f" monotone violations {monotone.get('violations', 0)}/1000)",
        rep.passed and boundary["boundary_err"] <= 1e-12 and monotone["status"] == "ok",
    )


def test_criterion_10_kappa_demo():
    cfg = SuiteConfig(algebra=parse_algebra("sym:3"), trials=20, seed=100)
    rep = demo_kappa(cfg, eps=0.5)
    ref = [r for r in rep.records if r["trial"] == "reference"][0]
    oracle = kappa_clipping_oracle(np.array([4.0, 2.0, 1.0]), 0.5)
    never_up = all(r["increase"] <= 1e-12 for r in rep.records)
    report(
        10,
        f"kappa demo (reference gap {ref['oracle_gap']:.1e} <= 1e-4 vs {oracle:.6f},"
        f" no increase over {cfg.trials} trials)",
        rep.passed and ref["oracle_gap"] <= 1e-4 and never_up,
    )


def test_criterion_11_determinism(tmp_path, capsys):
    args = ["verify", "--suite", "smooth", "--suite", "shifted", "--suite", "kappa",
            "--trials", "3", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timestamp"), rb.pop("timestamp")
    report(11, "identical reports modulo timestamp", ra == rb)
