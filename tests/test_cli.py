import numpy as np
import pytest

from koopman import cli
from koopman import evolve as ev
from koopman.grid import load_state

TINY_EVOLVE = """
[run]
kind = evolve

[grid]
axes = q, p

[axis.q]
min = -8.0
extent = 16.0
points = 32

[axis.p]
min = -8.0
extent = 16.0
points = 32

[dynamics]
formalism = kvh
masses = 1.0
potential = harmonic
kappa = 1.0
dt = 0.01
t_final = 0.1
sample_every = 5

[initial]
centers = 0.0, 1.0
widths = 1.5, 1.5
phase = none

[output]
dump_state = true
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_EVOLVE)
    return path


def test_check_algebra_exit_codes(tmp_path, capsys):
    rc = cli.main(["check-algebra", "--formalism", "kvn",
                   "--out", str(tmp_path / "a")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "PASS 6/6 relations" in out and "PASS 45/45 relations" in out
    assert (tmp_path / "a" / "algebra_report.txt").exists()
    assert (tmp_path / "a" / "algebra_relations.csv").exists()

    rc = cli.main(["check-algebra", "--formalism", "kvh",
                   "--out", str(tmp_path / "b")])
    assert rc == cli.EXIT_OK

    # the hybrid group carries the one genuinely failing relation: the
    # vanishing total-momentum commutator; verification must say so
    rc = cli.main(["check-algebra", "--formalism", "hybrid",
                   "--out", str(tmp_path / "c")])
    assert rc == cli.EXIT_VERIFY
    report = (tmp_path / "c" / "algebra_report.txt").read_text()
    assert "FAIL  hybrid_total_momentum_vanishes" in report
    assert "(-1/1i)*kappa*lam_p" in report
    assert "PASS  hybrid_momentum_commutator_corrected" in report


def test_evolve_outputs(tiny_cfg, tmp_path):
    out = tmp_path / "run1"
    rc = cli.main(["evolve", str(tiny_cfg), "--out", str(out)])
    assert rc == cli.EXIT_OK
    csv_text = (out / "run.csv").read_text()
    assert csv_text.splitlines()[0] \
        == "t,norm,q_mean,p_mean,k_mean,energy,im_max,leakage"
    assert (out / "manifest.cfg").read_text().startswith("# koopman")
    final = load_state(out / "final.kvhw")
    assert final.grid.shape == (32, 32)


def test_evolve_dump_cadence(tiny_cfg, tmp_path):
    cadenced = tmp_path / "cadence.cfg"
    cadenced.write_text(TINY_EVOLVE.replace("dump_state = true",
                                            "dump_state = true\ndump_every = 1"))
    out = tmp_path / "runs"
    assert cli.main(["evolve", str(cadenced), "--out", str(out)]) == cli.EXIT_OK
    dumps = sorted(f.name for f in out.glob("state_*.kvhw"))
    # t=0 plus samples at steps 5 and 10
    assert dumps == ["state_000000.kvhw", "state_000005.kvhw", "state_000010.kvhw"]


def test_evolve_deterministic_across_threads(tiny_cfg, tmp_path):
    outs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"run{i}"
        rc = cli.main(["evolve", str(tiny_cfg), "--out", str(out),
                       "--threads", threads])
        assert rc == cli.EXIT_OK
        outs.append((out / "run.csv").read_bytes()
                    + (out / "final.kvhw").read_bytes())
    assert outs[0] == outs[1]


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_EVOLVE.replace("kappa = 1.0", "kapa = 1.0"))
    assert cli.main(["evolve", str(bad)]) == cli.EXIT_CONFIG
    assert "unknown key 'kapa'" in capsys.readouterr().err

    missing = tmp_path / "missing.cfg"
    assert cli.main(["evolve", str(missing)]) == cli.EXIT_CONFIG

    nosec = tmp_path / "nosec.cfg"
    nosec.write_text("[grid]\naxes = q, p\n")
    assert cli.main(["evolve", str(nosec)]) == cli.EXIT_CONFIG

    wrong_kind = tmp_path / "wrong.cfg"
    wrong_kind.write_text(TINY_EVOLVE.replace("kind = evolve", "kind = oracle"))
    assert cli.main(["evolve", str(wrong_kind)]) == cli.EXIT_CONFIG

    badval = tmp_path / "badval.cfg"
    badval.write_text(TINY_EVOLVE.replace("dt = 0.01", "dt = soon"))
    assert cli.main(["evolve", str(badval)]) == cli.EXIT_CONFIG
    assert "bad value" in capsys.readouterr().err

    unparsable = tmp_path / "unparsable.cfg"
    unparsable.write_text("[run\nkind =")
    assert cli.main(["evolve", str(unparsable)]) == cli.EXIT_CONFIG

    # malformed time settings: one-line messages, no traceback
    capsys.readouterr()

    def one_line_error(argv, needle):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err

    cov = tmp_path / "cov.cfg"
    cov.write_text(open("scenarios/covariance_kvh.cfg").read()
                   .replace("t_final = 0.5", "t_final = 0.0"))
    one_line_error(["covariance", str(cov), "--out", str(tmp_path / "c")],
                   "t_final must be positive")
    offgrid = tmp_path / "offgrid.cfg"
    offgrid.write_text(TINY_EVOLVE.replace("t_final = 0.1", "t_final = 0.105"))
    one_line_error(["evolve", str(offgrid), "--out", str(tmp_path / "e")],
                   "integer multiple of dt")
    oracle = tmp_path / "oracle.cfg"
    oracle.write_text(open("scenarios/oracle_free_kvh.cfg").read()
                      .replace("t_final = 0.5", "t_final = 0.52"))
    one_line_error(["oracle", str(oracle), "--out", str(tmp_path / "o")],
                   "integer multiple of dt")
    nosample = tmp_path / "nosample.cfg"
    nosample.write_text(TINY_EVOLVE.replace("sample_every = 5", "sample_every = 0"))
    one_line_error(["evolve", str(nosample), "--out", str(tmp_path / "s")],
                   "sample_every")


def test_numerical_abort_exit_code(tiny_cfg, monkeypatch, tmp_path):
    def boom(*a, **k):
        raise ev.NumericalAbort(7)
    monkeypatch.setattr(cli.ev, "run", boom)
    rc = cli.main(["evolve", str(tiny_cfg), "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_NUMERIC


def test_covariance_command(tmp_path):
    rc = cli.main(["covariance", "scenarios/weyl_kvh.cfg",
                   "--out", str(tmp_path / "w")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "w" / "covariance.csv").read_text().splitlines()
    assert len(lines) == 1 + 9  # header + 3x3 sweep
    assert lines[0].startswith("formalism,g1,g2,a,v,t,phase_re")
    # measured phases sit on the predicted curve
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[10]) <= 1e-6   # angle error
        assert float(cells[11]) <= 1e-6   # residual

    rc = cli.main(["covariance", "scenarios/covariance_kvh.cfg",
                   "--out", str(tmp_path / "c")])
    assert rc == cli.EXIT_OK


def test_oracle_command(tmp_path):
    rc = cli.main(["oracle", "scenarios/oracle_free_kvh.cfg",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "o" / "oracle.csv").read_text().splitlines()
    assert lines[0].startswith("t,l2,masked_linf")
    values = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(values["modulus_masked_linf"]) <= 1e-8
    assert float(values["phase_masked_maxabs"]) <= 1e-8


def test_free_scenario_phase_check(tmp_path):
    rc = cli.main(["evolve", "scenarios/free_kvh.cfg",
                   "--out", str(tmp_path / "f")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "f" / "phase_check.csv").read_text().splitlines()
    assert lines[0] == "t,masked_linf,modulus_masked_linf,phase_masked_maxabs"
    cells = lines[-1].split(",")
    assert float(cells[3]) <= 1e-6
