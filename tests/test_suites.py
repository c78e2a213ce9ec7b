import os
import subprocess
import sys
from pathlib import Path

import pytest

from koopman import ccr, suites

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(relations):
    return ccr.verify_algebra(relations)


def test_base_ccr_suite_passes():
    report = _run(suites.base_ccr_suite())
    assert report.all_passed
    assert report.counts == (6, 6)


@pytest.mark.parametrize("formalism", ["kvn", "kvh"])
def test_galilei_tables_pass(formalism):
    report = _run(suites.galilei_table_suite(formalism))
    assert report.all_passed, [r.rid for r in report.results if not r.passed]
    assert report.counts == (45, 45)


def test_kvh_star_pair_passes():
    report = _run(suites.kvh_star_pair_suite())
    assert report.all_passed
    assert report.counts == (9, 9)


def test_two_particle_suite():
    report = _run(suites.two_particle_suite())
    assert report.all_passed, [r.rid for r in report.results if not r.passed]
    byid = {r.rid: r for r in report.results}
    neg = byid["two_particle_nonrelative_potential_breaks_invariance"]
    assert not neg.expect_match and neg.passed and neg.residual != "0"


def test_two_particle_rotations_pass():
    report = _run(suites.two_particle_rotation_suite())
    assert report.all_passed


def test_quantum_suite_passes():
    report = _run(suites.quantum_suite())
    assert report.all_passed


def test_hybrid_suite_pattern():
    report = _run(suites.hybrid_suite())
    byid = {r.rid: r for r in report.results}
    assert byid["hybrid_translation_invariance"].passed
    assert byid["hybrid_central_charge=i.(m1+m2)"].passed
    assert byid["hybrid_momentum_commutator_corrected"].passed
    assert byid["hybrid_negcontrol_v_only_momentum"].passed
    assert byid["hybrid_negcontrol_kick_only_momentum"].passed
    assert byid["hybrid_v_only_still_translation_invariant"].passed
    # the vanishing total-momentum commutator does not hold as an
    # operator identity; the suite reports its exact residual
    claimed = byid["hybrid_total_momentum_vanishes"]
    assert not claimed.passed
    assert claimed.residual == "(-1/1i)*kappa*lam_p"


def test_hybrid_momentum_commutator_sympy_crosscheck():
    """[p + k, L_h] = -i kappa lam_p and [lam_q + k, L_h] = 0, by calculus.

    The generators act as differential operators on a generic f(q, p, x),
    with no use of the package's normal ordering:
    L_h = (p/m1) lam_q - V_q lam_p + V - p^2/2m1 + k^2/2m2,
    V = kappa/2 (q - x)^2, lam_q = -i d/dq, lam_p = -i d/dp, k = -i d/dx.
    """
    sp = pytest.importorskip("sympy")
    q, p, x, m1, m2, kappa = sp.symbols("q p x m1 m2 kappa")
    f = sp.Function("f")(q, p, x)
    V = kappa / 2 * (q - x) ** 2

    def lam_q(g):
        return -sp.I * sp.diff(g, q)

    def lam_p(g):
        return -sp.I * sp.diff(g, p)

    def k(g):
        return -sp.I * sp.diff(g, x)

    def liouvillian(g):
        return (p / m1 * lam_q(g) - sp.diff(V, q) * lam_p(g) + V * g
                - p ** 2 / (2 * m1) * g + k(k(g)) / (2 * m2))

    def total_momentum(g):
        return p * g + k(g)

    def translation(g):
        return lam_q(g) + k(g)

    def commutator(a, b, g):
        return a(b(g)) - b(a(g))

    assert sp.expand(commutator(total_momentum, liouvillian, f)
                     + sp.I * kappa * lam_p(f)) == 0
    assert sp.expand(commutator(translation, liouvillian, f)) == 0


def test_klein_suite_passes():
    report = _run(suites.klein_suite())
    assert report.all_passed, [r.rid for r in report.results if not r.passed]
    assert report.counts == (5, 5)


def test_group_registry():
    for name in ("kvn", "kvh", "hybrid", "all"):
        sections = suites.suite_group(name)
        assert sections and all(rels for _, rels in sections)
    assert len(suites.suite_group("all")) \
        == sum(len(suites.suite_group(n)) for n in ("kvn", "kvh", "hybrid"))
    with pytest.raises(ValueError):
        suites.suite_group("nope")


def test_csv_rows_shape():
    report = _run(suites.quantum_suite())
    rows = report.csv_rows()
    assert all(len(r) == 3 for r in rows)
    assert all(r[1] in ("PASS", "FAIL") for r in rows)


def _fresh_python(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


_TINY_KVH = """
[run]
kind = evolve
[grid]
axes = q, p
[axis.q]
min = -8.0
extent = 16.0
points = 16
[axis.p]
min = -8.0
extent = 16.0
points = 16
[dynamics]
formalism = kvh
masses = 1.0
potential = harmonic
dt = 0.05
t_final = 0.1
[initial]
centers = 0.0, 1.0
widths = 3.0, 3.0
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # numpy's FFT propagates and the oracle's cubic interpolation is
    # numpy too, so neither a propagation nor its oracle imports scipy
    no_scipy = ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "assert not loaded, loaded\n")
    _fresh_python("import sys\nimport koopman.cli\n" + no_scipy)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(_TINY_KVH + "[oracle]\ninterp = cubic\nflow_steps = 8\n")
    _fresh_python(
        "import sys\n"
        "from koopman import cli\n"
        f"assert cli.main(['evolve', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        + no_scipy)
    assert (tmp_path / "out" / "run.csv").exists()
    assert (tmp_path / "out" / "oracle.csv").exists()


def test_exact_algebra_imports_without_numeric_stack():
    # the exact algebra is pure Python; the numeric layer does not depend on it
    _fresh_python(
        "import sys\n"
        "from koopman import ccr, suites\n"
        "reports = [ccr.verify_algebra(r) for _, r in suites.suite_group('all')]\n"
        "assert sum(r.counts[1] for r in reports) == 128\n"
        "loaded = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "assert not loaded, loaded\n")
    _fresh_python(
        "import sys\n"
        "import koopman.grid\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('koopman.'))\n"
        "assert loaded == ['koopman.grid'], loaded\n")
