"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Criterion 2 checks the hybrid total-momentum commutator in its exact
form: once one particle is quantized, [p + k, L_h] is -i*kappa*lam_p,
not 0.  The relation catalog keeps the naive vanishing statement so that
``koopman check-algebra`` reports its failure; the criterion asserts that
it fails with exactly that residual.  The residual is confirmed
independently of the package by
``tests/test_suites.py::test_hybrid_momentum_commutator_sympy_crosscheck``.
"""

import time

import numpy as np
import pytest

from koopman import ccr, cli, suites
from koopman import characteristics as chars
from koopman import evolve as ev
from koopman import galilei as ga
from koopman.grid import Axis, GridSpec, gaussian_init


def _report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _scenario_objects(path):
    sc = cli.parse_scenario(path)
    grid = cli.build_grid(sc)
    plan = cli.build_plan_from(sc, grid)
    w0 = cli.build_initial(sc, grid)
    return sc, grid, plan, w0


# ---------------------------------------------------------------------------
# 1. symbolic Galilei suites, exact
# ---------------------------------------------------------------------------

def test_criterion_1_symbolic_galilei_tables():
    t0 = time.time()
    reports = [
        ccr.verify_algebra(suites.base_ccr_suite()),
        ccr.verify_algebra(suites.galilei_table_suite("kvn")),
        ccr.verify_algebra(suites.galilei_table_suite("kvh")),
        ccr.verify_algebra(suites.kvh_star_pair_suite()),
    ]
    elapsed = time.time() - t0
    passed = sum(r.counts[0] for r in reports)
    total = sum(r.counts[1] for r in reports)
    ok = all(r.all_passed for r in reports) and elapsed < 5.0
    assert _report(1, ok, f"{passed}/{total} exact relations, {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. symbolic hybrid suite, with the exact total-momentum commutator
# ---------------------------------------------------------------------------

def test_criterion_2_symbolic_hybrid_suite():
    t0 = time.time()
    relations = suites.hybrid_suite()
    report = ccr.verify_algebra(relations)
    quantum = ccr.verify_algebra(suites.quantum_suite())
    elapsed = time.time() - t0
    # [p + k, L_h] = [p, -V_q lam_p] + [k, V] + [k, -V_q lam_p]
    #             = -i V_q - i V_x + i V_qx lam_p = -i kappa lam_p,
    # since V_q = -V_x for V = kappa/2 (q - x)^2.  The catalog states the
    # vanishing form to report that it fails; this criterion pins the
    # exact residual, which the corrected relation and the sympy
    # cross-check in test_suites.py both give.
    claimed_id = "hybrid_total_momentum_vanishes"
    claimed = next(r for r in report.results if r.rid == claimed_id)
    corrected = next(r for r in relations
                     if r.rid == "hybrid_momentum_commutator_corrected")
    exact = corrected.expected.render()
    others = [r for r in report.results if r.rid != claimed_id]
    failing = [r.rid for r in others + quantum.results if not r.passed]
    ok = (not failing and not claimed.passed
          and claimed.residual == exact == "(-1/1i)*kappa*lam_p"
          and elapsed < 5.0)
    assert _report(2, ok,
                   f"quantum {quantum.counts[0]}/{quantum.counts[1]}, hybrid "
                   f"{sum(r.passed for r in others)}/{len(others)} (translation "
                   "invariance, central charge i(m1+m2), negative controls); "
                   f"[p+k, L_h] residual {claimed.residual}, expected "
                   f"{exact}, {elapsed:.2f}s"), failing


# ---------------------------------------------------------------------------
# 3. partial canonical quantization identities
# ---------------------------------------------------------------------------

def test_criterion_3_partial_quantization():
    report = ccr.verify_algebra(suites.klein_suite())
    ok = report.all_passed
    assert _report(3, ok, f"{report.counts[0]}/{report.counts[1]} exact "
                          "quantization identities (two-particle -> hybrid, "
                          "free -> quantum kinetic)")


# ---------------------------------------------------------------------------
# 4. free-particle dynamics vs closed forms
# ---------------------------------------------------------------------------

def test_criterion_4_free_particle_closed_forms():
    t0 = time.time()
    errs = {}
    for name in ("free_kvn", "free_kvh"):
        sc, grid, plan, w0 = _scenario_objects(f"scenarios/{name}.cfg")
        t_final = sc.require("dynamics", "t_final")
        _, w = ev.run(w0, plan, t_final, 100)
        q, p = grid.coordinate("q"), grid.coordinate("p")
        ref = w0.closed_form({"q": q - p * t_final, "p": p})
        if plan.formalism == "kvh":
            ref = ref * np.exp(1j * p ** 2 * t_final / 2)
        mag = np.abs(w.values)
        mask = mag > 1e-6 * mag.max()
        errs[name] = float(np.max(np.abs(w.values - ref)[mask]))
    elapsed = time.time() - t0
    ok = all(e <= 1e-6 for e in errs.values()) and elapsed < 10.0
    assert _report(4, ok, "masked-Linf vs closed form: "
                          + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
                          + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. reality invariant over 1e4 steps
# ---------------------------------------------------------------------------

def test_criterion_5_reality_invariant():
    grid = GridSpec((Axis("q", -10, 20, 128), Axis("p", -10, 20, 128)))
    w0 = gaussian_init(grid, centers=(1.5, 0.0), widths=(1.0, 1.0))
    pot = ev.make_potential("harmonic", grid, {"kappa": 1.0})
    plan = ev.build_plan(grid, "kvn", [1.0], pot, dt=1e-3)
    rec, _ = ev.run(w0, plan, 10.0, sample_every=100)
    worst = float(rec.series("im_max").max())
    ok = worst <= 1e-10
    assert _report(5, ok, f"max|Im psi| = {worst:.2e} over 10^4 steps")


# ---------------------------------------------------------------------------
# 6. projective phase equals the classical action (fixture shared with 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def harmonic_kvh_run():
    t0 = time.time()
    sc, grid, plan, w0 = _scenario_objects("scenarios/harmonic_kvh.cfg")
    t_final = sc.require("dynamics", "t_final")
    record, w = ev.run(w0, plan, t_final, sc.get("dynamics", "sample_every", 100))
    ref, valid = chars.reference_solution(
        w0, plan.masses, plan.potential, t_final, "kvh", flow_steps=1000)
    metrics = chars.compare(w, ref, mask_threshold=1e-6, valid_mask=valid)
    return record, metrics, time.time() - t0


def test_criterion_6_phase_is_action(harmonic_kvh_run):
    record, metrics, elapsed = harmonic_kvh_run
    ok = metrics.phase_masked_maxabs <= 1e-3 and elapsed < 60.0
    assert _report(6, ok, f"masked phase error {metrics.phase_masked_maxabs:.2e} rad "
                          f"(L2 {metrics.l2:.2e}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. projective vs non-projective finite transformations
# ---------------------------------------------------------------------------

def test_criterion_7_weyl_phases():
    t0 = time.time()
    grid = GridSpec((Axis("q", -8, 16, 128), Axis("p", -8, 16, 128)))
    w = gaussian_init(grid, centers=(0.3, -0.4), widths=(1.0, 0.7))
    ph, res, _ = ga.weyl_phase(ga.boost(1.3, 0.0, "kvn"), ga.translation(0.7, "kvn"), w)
    worst_res = res
    worst_angle = abs(np.angle(ph))
    for a in (0.5, 0.7, 0.9):
        for v in (1.1, 1.3, 1.5):
            g1, g2 = ga.boost(v, 0.0, "kvh"), ga.translation(a, "kvh")
            ph, res, _ = ga.weyl_phase(g1, g2, w)
            pred = ga.predicted_weyl_phase(g1, g2)
            worst_res = max(worst_res, res)
            worst_angle = max(worst_angle, abs(np.angle(ph * np.conj(pred))))
    elapsed = time.time() - t0
    ok = worst_res <= 1e-6 and worst_angle <= 1e-6 and elapsed < 30.0
    assert _report(7, ok, f"worst residual {worst_res:.2e}, worst angle "
                          f"deviation {worst_angle:.2e} rad over 3x3 sweep + "
                          f"plain pair, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. hybrid total-momentum conservation in expectation
# ---------------------------------------------------------------------------

def test_criterion_8_hybrid_conservation():
    t0 = time.time()
    sc, grid, plan, w0 = _scenario_objects("scenarios/hybrid_harmonic.cfg")
    rec, _ = ev.run(w0, plan, sc.require("dynamics", "t_final"),
                    sc.get("dynamics", "sample_every", 100))
    total = rec.series("p_mean") + rec.series("k_mean")
    drift = float(np.max(np.abs(total - total[0])))
    p_change = float(np.max(np.abs(rec.series("p_mean") - rec.series("p_mean")[0])))

    scn, gridn, plann, w0n = _scenario_objects("scenarios/hybrid_negative_control.cfg")
    recn, _ = ev.run(w0n, plann, scn.require("dynamics", "t_final"),
                     scn.get("dynamics", "sample_every", 100))
    totaln = recn.series("p_mean") + recn.series("k_mean")
    driftn = float(np.max(np.abs(totaln - totaln[0])))
    elapsed = time.time() - t0
    ok = drift <= 1e-6 and p_change >= 1e-2 and driftn >= 1e-3 and elapsed < 120.0
    assert _report(8, ok, f"<p+k> drift {drift:.2e}, single-sector <p> change "
                          f"{p_change:.2e}, multiplication-only control drift "
                          f"{driftn:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. two-particle classical conservation
# ---------------------------------------------------------------------------

def test_criterion_9_two_particle_conservation():
    t0 = time.time()
    sc, grid, plan, w0 = _scenario_objects("scenarios/two_particle_pair.cfg")
    rec, _ = ev.run(w0, plan, sc.require("dynamics", "t_final"),
                    sc.get("dynamics", "sample_every", 20))
    p = rec.series("p_mean")
    drift = float(np.max(np.abs(p - p[0])))
    elapsed = time.time() - t0
    ok = drift <= 1e-6 and elapsed < 120.0
    assert _report(9, ok, f"<p1+p2> drift {drift:.2e} on the 32^4 grid, "
                          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. numerical hygiene
# ---------------------------------------------------------------------------

def test_criterion_10_hygiene(harmonic_kvh_run, tmp_path):
    record, _, _ = harmonic_kvh_run
    norm_drift = float(np.max(np.abs(record.series("norm") - 1.0)))

    # Strang second order: halving dt divides the oracle error by 4 +- 20%
    grid = GridSpec((Axis("q", -8, 16, 128), Axis("p", -8, 16, 128)))
    w0 = gaussian_init(grid, centers=(0.0, 2.0), widths=(1.0, 1.0))
    pot = ev.make_potential("harmonic", grid, {"kappa": 1.0})
    ref, valid = chars.reference_solution(w0, [1.0], pot, 0.5, "kvh",
                                          flow_steps=2000)
    errs = []
    for dt in (4e-3, 2e-3):
        plan = ev.build_plan(grid, "kvh", [1.0], pot, dt=dt)
        _, w = ev.run(w0, plan, 0.5, sample_every=int(round(0.5 / dt)))
        errs.append(chars.compare(w, ref, valid_mask=valid).l2)
    factor = errs[0] / errs[1]

    # byte-identical CSV output across FFT worker counts
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
[run]
kind = evolve
[grid]
axes = q, p
[axis.q]
min = -8.0
extent = 16.0
points = 64
[axis.p]
min = -8.0
extent = 16.0
points = 64
[dynamics]
formalism = kvh
masses = 1.0
potential = harmonic
kappa = 1.0
dt = 0.01
t_final = 0.2
sample_every = 5
[initial]
centers = 0.0, 1.0
widths = 1.0, 1.0
[output]
dump_state = true
""")
    blobs = []
    for i, threads in enumerate(("1", "3")):
        out = tmp_path / f"d{i}"
        assert cli.main(["evolve", str(cfg), "--out", str(out),
                         "--threads", threads]) == cli.EXIT_OK
        blobs.append((out / "run.csv").read_bytes()
                     + (out / "final.kvhw").read_bytes())
    identical = blobs[0] == blobs[1]

    ok = norm_drift <= 1e-10 and 3.2 <= factor <= 4.8 and identical
    assert _report(10, ok, f"unitarity drift {norm_drift:.2e}, Strang factor "
                           f"{factor:.2f}, thread-count determinism "
                           f"{'exact' if identical else 'BROKEN'}")
