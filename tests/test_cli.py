import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_check_algebra_golden_output(tmp_path, capsys):
    # the committed files pin the verdicts, the residuals and the term
    # order of every rendered operator
    data = Path(__file__).parent / "data"
    rc = cli.main(["check-algebra", "--formalism", "all", "--out", str(tmp_path)])
    assert rc == cli.EXIT_VERIFY
    assert capsys.readouterr().out.encode() \
        == (data / "check_algebra_all.stdout").read_bytes()
    assert (tmp_path / "algebra_relations.csv").read_bytes() \
        == (data / "check_algebra_all.csv").read_bytes()


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
    wrong_kind.write_text(TINY_EVOLVE)
    assert cli.main(["covariance", str(wrong_kind)]) == cli.EXIT_CONFIG
    assert "scenario kind 'evolve', expected 'covariance'" in capsys.readouterr().err

    badval = tmp_path / "badval.cfg"
    badval.write_text(TINY_EVOLVE.replace("dt = 0.01", "dt = soon"))
    assert cli.main(["evolve", str(badval)]) == cli.EXIT_CONFIG
    assert "bad value" in capsys.readouterr().err

    capsys.readouterr()

    def one_line_error(argv, needle):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err
        if "--out" in argv:     # a config error makes no output directory
            assert not Path(argv[argv.index("--out") + 1]).exists()

    # unparsable files: first line of the parser's message and the line number
    unparsable = tmp_path / "unparsable.cfg"
    unparsable.write_text("[run\nkind =")
    one_line_error(["evolve", str(unparsable)], "no section headers. (line 1)")
    dangling = tmp_path / "dangling.cfg"
    dangling.write_text("[run]\nkind = evolve\norphan\n")
    one_line_error(["evolve", str(dangling)], "(line 3)")

    # malformed axis values go through the same typed parse as every section
    for old, new, needle in (
            ("points = 32\n\n[axis.p]", "points = 12.5\n\n[axis.p]",
             "bad value for 'points' in [axis.q]: '12.5'"),
            ("min = -8.0\nextent = 16.0\npoints = 32\n\n[dynamics]",
             "min =\nextent = 16.0\npoints = 32\n\n[dynamics]",
             "bad value for 'min' in [axis.p]: ''")):
        assert old in TINY_EVOLVE
        axis_cfg = tmp_path / "axis.cfg"
        axis_cfg.write_text(TINY_EVOLVE.replace(old, new))
        one_line_error(["evolve", str(axis_cfg), "--out", str(tmp_path / "a")], needle)

    # malformed time settings: one-line messages, no traceback
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
    oracle.write_text(open("scenarios/free_kvh.cfg").read()
                      .replace("t_final = 0.5", "t_final = 0.52"))
    one_line_error(["evolve", str(oracle), "--out", str(tmp_path / "o")],
                   "integer multiple of dt")
    nosample = tmp_path / "nosample.cfg"
    nosample.write_text(TINY_EVOLVE.replace("sample_every = 5", "sample_every = 0"))
    one_line_error(["evolve", str(nosample), "--out", str(tmp_path / "s")],
                   "sample_every")

    # malformed covariance, oracle and mass settings: one-line messages
    weyl, weyl_kvn = "scenarios/weyl_kvh.cfg", "scenarios/weyl_kvn.cfg"
    oracle_cfg = "scenarios/free_kvh.cfg"
    zero_mass = (("masses = 1.0", "masses = 0.0"),)
    x_axis = (("axes = q, p", "axes = q, p, x"),
              ("[dynamics]", "[axis.x]\nmin = -8.0\nextent = 16.0\npoints = 16\n\n[dynamics]"),
              ("centers = 0.3, -0.4", "centers = 0.3, -0.4, 0.0"),
              ("widths = 1.0, 0.7", "widths = 1.0, 0.7, 3.0"))
    cases = [
        ("covariance", weyl, (("masses = 1.0", "masses ="),),
         "[dynamics]: need one mass per classical pair and per x axis"),
        ("covariance", weyl, x_axis + (("masses = 1.0", "masses = 1.0, 1.0"),),
         "[dynamics]: kvh needs an all-classical layout"),
        ("covariance", weyl_kvn, (("formalism = kvn", "formalism = hybrid"),),
         "[dynamics]: hybrid needs a mixed layout"),
        ("covariance", "scenarios/weyl_hybrid.cfg", (("formalism = hybrid", "formalism = magic"),),
         "[dynamics]: unknown formalism 'magic'"),
        # runs share one list of formalisms: quantum is refused by name, as
        # evolve runs refuse it, even on a grid of x axes only
        ("covariance", "scenarios/weyl_hybrid.cfg",
         (("axes = q, p, x", "axes = x"), ("formalism = hybrid", "formalism = quantum"),
          ("[axis.q]\nmin = -8.0\nextent = 16.0\npoints = 64\n\n"
           "[axis.p]\nmin = -8.0\nextent = 16.0\npoints = 64\n\n", ""),
          ("masses = 1.0, 2.0", "masses = 2.0"), ("centers = 0.3, -0.4, -0.2", "centers = -0.2"),
          ("widths = 1.0, 1.0, 1.0", "widths = 1.0")),
         "[dynamics]: unknown formalism 'quantum'"),
        ("covariance", weyl, (("masses = 1.0\n", ""),),
         "config error: missing key 'masses' in section [dynamics]\n"),
        ("covariance", weyl_kvn, (("sweep_v = 1.3", "sweep_v = inf"),),
         "bad value for 'sweep_v' in [transform]: 'inf' (must be finite)"),
        ("covariance", weyl_kvn, (("sweep_a = 0.7\n", ""),),
         "missing key 'sweep_a' in section [transform]"),
        ("covariance", weyl_kvn, (("sweep_a = 0.7", "sweep_a ="),),
         "sweep_a needs at least one offset"),
        ("covariance", weyl_kvn, (("kind = weyl", "kind = rotation"),),
         "unknown transform kind 'rotation'"),
        ("covariance", weyl_kvn, zero_mass, "[dynamics]: masses must be positive and finite"),
        ("covariance", "scenarios/covariance_kvh.cfg", zero_mass,
         "[dynamics]: masses must be positive and finite"),
        ("evolve", "scenarios/free_kvh.cfg", zero_mass,
         "[dynamics]: masses must be positive and finite"),
        ("evolve", oracle_cfg, (("flow_steps = 64", "flow_steps = 0"),),
         "[oracle]: steps must be >= 1"),
        ("evolve", oracle_cfg, (("interp = closed_form", "interp = nope"),),
         "unknown interpolation mode 'nope'"),
        ("evolve", oracle_cfg, (("interp = closed_form", "interp = spectral"),),
         "unknown interpolation mode 'spectral'"),
        # the reference covers kvn and kvh; a hybrid run with [oracle] fails
        # before it propagates or makes its output directory
        ("evolve", "scenarios/hybrid_harmonic.cfg",
         (("[output]", "[oracle]\nflow_steps = 8\n\n[output]"),),
         "[oracle]: reference solutions cover kvn and kvh only"),
        ("evolve", "scenarios/free_kvh.cfg", (("kind = evolve", "kind = oracle"),),
         "unknown run kind 'oracle'"),
        ("evolve", "scenarios/harmonic_kvn.cfg",
         (("sample_every = 512", "sample_every = 512\ninteraction = potential_only"),),
         "[dynamics]: kvn has no potential phase: potential_only would run free"),
        ("evolve", "scenarios/hybrid_negative_control.cfg",
         (("interaction = potential_only", "interaction = kick_only"),),
         "unknown interaction mode 'kick_only'"),
        ("evolve", "scenarios/free_kvh.cfg", (("axes = q, p", "axes = q, q"),),
         "[grid]: duplicate axis names"),
        ("evolve", "scenarios/free_kvh.cfg",
         (("axes = q, p", "axes = q, , p"),
          ("[dynamics]", "[axis.]\nmin = -8.0\nextent = 16.0\npoints = 32\n\n[dynamics]")),
         "[axis.]: axis name '' must start with q, p or x"),
        ("covariance", "scenarios/covariance_kvh.cfg",
         (("sweep_v = 0.0, 0.5, 1.0", "sweep_v ="),), "sweep_v needs at least one velocity"),
        ("covariance", "scenarios/covariance_kvh.cfg",
         (("sweep_v = 0.0, 0.5, 1.0", ""),), "missing key 'sweep_v'"),
        # a packet outside the box has no norm to normalize
        ("evolve", "scenarios/harmonic_kvh.cfg", (("centers = 0.0, 2.0", "centers = 100.0, 1.0"),),
         "[initial]: the packet's norm on the grid is 0"),
        ("covariance", "scenarios/covariance_kvh.cfg",
         (("centers = 0.0, 1.0", "centers = 100.0, 1.0"),), "[initial]: the packet's norm on the grid is 0"),
        # dump records are checked before the run, not after it
        ("evolve", "scenarios/free_kvh.cfg", (("axes = q, p", "axes = q_position, p"),
                                              ("[axis.q]", "[axis.q_position]")),
         "[output] dump_state: axis name 'q_position' is not ASCII or longer than 8 bytes"),
        ("evolve", "scenarios/free_kvh.cfg", (("points = 256", "points = 1099511627776"),),
         f"[grid]: grid of {2 ** 80} cells exceeds the cap of {2 ** 26}"),
        # keys that no longer exist fail as unknown keys
        ("evolve", "scenarios/free_kvh.cfg", (("points = 256", "points = 256\nrole = q"),),
         "unknown key 'role' in section [axis.q]"),
        ("evolve", "scenarios/free_kvh.cfg", (("widths = 1.0, 1.0", "widths = 1.0, 1.0\nphase = none"),),
         "unknown key 'phase' in section [initial]"),
        ("evolve", "scenarios/free_kvh.cfg", (("dump_state = true", "dump_every = 1"),),
         "unknown key 'dump_every' in section [output]"),
        ("evolve", oracle_cfg, (("flow_steps = 64", "flow_steps = 64\nmask_threshold = 1e-6"),),
         "unknown key 'mask_threshold' in section [oracle]"),
        ("evolve", oracle_cfg, (("[oracle]", "[checks]\nclosed_form = true\n\n[oracle]"),),
         "unknown section [checks]"),
        ("covariance", "scenarios/covariance_kvh.cfg", (("sweep_v =", "v = 1.0\nsweep_v ="),),
         "unknown key 'v' in section [transform]"),
        ("covariance", weyl_kvn, (("kind = weyl", "kind = weyl\ng1 = boost"),),
         "unknown key 'g1' in section [transform]"),
        ("covariance", weyl_kvn, (("kind = weyl", "kind = weyl\ng1_v = 1.3"),),
         "unknown key 'g1_v' in section [transform]"),
        # known keys that the run kind never reads
        ("covariance", "scenarios/covariance_kvh.cfg",
         (("t_final = 0.5", "potential = harmonic\nkappa = 5.0\ndt = 0.37\nt_final = 0.5"),),
         "key 'potential' in section [dynamics] is not read by covariance runs"),
        ("covariance", weyl, (("masses = 1.0", "masses = 1.0\nt_final = -3.0"),),
         "key 't_final' in section [dynamics] is not read by weyl runs"),
        ("evolve", "scenarios/free_kvh.cfg", (("[oracle]", "[transform]\nkind = weyl\n\n[oracle]"),),
         "key 'kind' in section [transform] is not read by evolve runs"),
        ("evolve", "scenarios/free_kvh.cfg", (("[oracle]", "[transform]\n\n[oracle]"),),
         "section [transform] is not read by evolve runs"),
        ("covariance", weyl_kvn, (("[output]", "[oracle]\nflow_steps = 8\n\n[output]"),),
         "section [oracle] is not read by weyl runs"),
        ("evolve", "scenarios/free_kvh.cfg",
         (("[dynamics]", "[axis.q9]\nmin = -1.0\nextent = 2.0\npoints = 8\n\n[dynamics]"),),
         "section [axis.q9] is not read: [grid] axes does not list 'q9'"),
        ("covariance", "scenarios/covariance_kvh.cfg",
         (("sweep_v =", "sweep_a = 0.5\nsweep_v ="),),
         "key 'sweep_a' in section [transform] is not read by covariance runs"),
    ]
    # every float, scalar or list entry, must be finite: none of these may
    # run, round to zero steps or end in a numerical abort
    for old, new in (("dt = 1e-3", "dt = inf"), ("dt = 1e-3", "dt = nan"),
                     ("kappa = 1.0", "kappa = nan"), ("kappa = 1.0", "kappa = inf"),
                     ("centers = 0.0, 2.0", "centers = nan, 2.0"),
                     ("widths = 1.0, 1.0", "widths = nan, 1.0"),
                     ("widths = 1.0, 1.0", "widths = inf, 1.0")):
        key, value = new.split(" = ")
        section = "initial" if key in ("centers", "widths") else "dynamics"
        cases.append(("evolve", "scenarios/harmonic_kvh.cfg", ((old, new),),
                      f"bad value for {key!r} in [{section}]: {value!r} (must be finite)"))
    for n, (command, source, edits, needle) in enumerate(cases):
        text = open(source).read()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / f"case{n}.cfg"
        path.write_text(text)
        one_line_error([command, str(path), "--out", str(tmp_path / "v")], needle)


@pytest.mark.parametrize("argv", [["check-algebra", "--threads", "0"],
                                  ["evolve", "TINY", "--threads", "-3"]])
def test_bad_thread_count_is_a_one_line_config_error(tiny_cfg, tmp_path, argv):
    argv = [str(tiny_cfg) if a == "TINY" else a for a in argv]
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "koopman.cli", *argv,
                           "--out", str(tmp_path / "t")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("config error: --threads: worker count must be >= 1")


SCENARIOS = sorted((Path(__file__).parents[1] / "scenarios").glob("*.cfg"))


def _build(path):
    """Parse and build a scenario the way the subcommands do before a run."""
    sc = cli._load_scenario(path, cli.parse_scenario(path).kind)
    grid = cli.build_grid(sc)
    cli.build_initial(sc, grid)
    if sc.kind == "evolve":
        cli.read_t_final(sc, cli.build_plan_from(sc, grid).dt)


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_scenarios_fail_only_as_scenario_errors(tmp_path_factory, data):
    # a shipped scenario cut at any byte either builds or raises ScenarioError
    text = data.draw(st.sampled_from(SCENARIOS)).read_bytes()
    path = tmp_path_factory.mktemp("cut") / "cut.cfg"
    path.write_bytes(text[:data.draw(st.integers(0, len(text)))])
    try:
        _build(path)
    except cli.ScenarioError:
        pass


_LIST_VALUE = re.compile(r"^(axes|centers|widths|masses|sweep_a|sweep_v) *=(.*)$", re.M)
_POINTS = re.compile(r"^points *=(.*)$", re.M)
# point counts that shrink a grid or break a rule; none builds a large grid
_POINT_COUNTS = (0, -16, 12, 8, 16, 2 ** 27, 2 ** 40)


@st.composite
def list_edits(draw):
    """A shipped scenario with one or two of its list values edited: an
    entry dropped, duplicated, appended or inserted empty, or the entries
    shuffled; and maybe one axis given another point count."""
    text = draw(st.sampled_from(SCENARIOS)).read_text()
    if draw(st.booleans()):
        m = draw(st.sampled_from(list(_POINTS.finditer(text))))
        points = draw(st.sampled_from(_POINT_COUNTS))
        text = text[:m.start(1)] + f" {points}" + text[m.end(1):]
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.sampled_from(list(_LIST_VALUE.finditer(text))))
        entries = [e.strip() for e in m.group(2).split(",")]
        i = draw(st.integers(0, len(entries) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "append", "empty", "shuffle")))
        if edit == "drop":
            del entries[i]
        elif edit == "duplicate":
            entries.insert(i, entries[i])
        elif edit == "append":
            pool = ("q", "p", "x", "q2") if m.group(1) == "axes" else ("0.0", "1.0", "-2.5")
            entries.append(draw(st.sampled_from(pool)))
        elif edit == "empty":
            entries.insert(i, "")
        else:
            entries = draw(st.permutations(entries))
        text = text[:m.start(2)] + " " + ", ".join(entries) + text[m.end(2):]
    return text


@pytest.mark.filterwarnings("ignore:dt=.*wrap:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(text=list_edits())
def test_list_edits_fail_only_as_scenario_errors(tmp_path_factory, text):
    # rank and size mismatches either build or raise ScenarioError
    path = tmp_path_factory.mktemp("edit") / "edit.cfg"
    path.write_text(text)
    try:
        _build(path)
    except cli.ScenarioError:
        pass


def test_every_scenario_key_has_a_shipped_caller():
    # every settable key is set by a shipped scenario, and every shipped
    # scenario sets only what its run reads
    set_keys = set()
    for path in SCENARIOS:
        sc = cli._load_scenario(path, cli.parse_scenario(path).kind)
        for sec, values in sc.sections.items():
            if sec == "axis":
                set_keys |= {("axis", k) for axis in values.values() for k in axis}
            else:
                set_keys |= {(sec, k) for k in values}
    keys = {(sec, k) for sec, schema in cli._SCHEMA.items() for k in schema}
    keys |= {("axis", k) for k in cli._AXIS_KEYS}
    # alpha sets the quartic potential, which only tests use: it is what
    # checks the oracle and the kick away from linear forces
    assert keys - set_keys == {("dynamics", "alpha")}
    assert len(keys) == 23


def test_nonfinite_covariance_sweep_fails(tmp_path, capsys):
    # max() drops a NaN, so a sweep of NaN rows once passed with "worst
    # deviation 0"; it exits 1, and the rows are still written
    cfg = tmp_path / "huge_v.cfg"
    cfg.write_text(open("scenarios/weyl_kvh.cfg").read()
                   .replace("sweep_v = 1.1, 1.3, 1.5", "sweep_v = 1e308"))
    with np.errstate(all="ignore"):
        assert cli.main(["covariance", str(cfg), "--out", str(tmp_path / "w")]) == cli.EXIT_VERIFY
    assert "worst deviation nan" in capsys.readouterr().out
    rows = (tmp_path / "w" / "covariance.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(row.split(",")[-3:-1] == ["nan", "nan"] for row in rows)


def test_numerical_abort_exit_code(tiny_cfg, monkeypatch, tmp_path):
    def boom(*a, **k):
        raise ev.NumericalAbort(7, 6)
    monkeypatch.setattr(cli.ev, "run", boom)
    rc = cli.main(["evolve", str(tiny_cfg), "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_NUMERIC


@pytest.mark.parametrize("command,source", [("evolve", "TINY"),
                                            ("evolve", "scenarios/free_kvh.cfg"),
                                            ("covariance", "scenarios/weyl_kvh.cfg"),
                                            ("check-algebra", None)])
def test_unusable_out_fails_before_the_run(tiny_cfg, monkeypatch, tmp_path, capsys,
                                           command, source):
    def never(*a, **k):
        raise AssertionError("propagated before making the output directory")
    monkeypatch.setattr(cli.ev, "run", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    source = str(tiny_cfg) if source == "TINY" else source
    argv = [command, source] if source else [command, "--formalism", "kvn"]
    assert cli.main(argv + ["--out", str(blocker / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unusable_output_dir_is_named_as_config(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_EVOLVE.replace("[output]", f"[output]\ndir = {blocker / 'out'}"))
    assert cli.main(["evolve", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [output] dir: ")


def test_covariance_command(tmp_path):
    # one classical particle (3x3 sweep) and a hybrid pair (2x2)
    for layout, sweep in (("kvh", 9), ("hybrid", 4)):
        rc = cli.main(["covariance", f"scenarios/weyl_{layout}.cfg",
                       "--out", str(tmp_path / f"w_{layout}")])
        assert rc == cli.EXIT_OK
        lines = (tmp_path / f"w_{layout}" / "covariance.csv").read_text().splitlines()
        assert len(lines) == 1 + sweep  # header + sweep_a x sweep_v
        assert lines[0].startswith("formalism,g1,g2,a,v,t,phase_re")
        # measured phases sit on the predicted curve
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[10]) <= 1e-6   # angle error
            assert float(cells[11]) <= 1e-6   # residual
            assert float(cells[12]) <= 1e-18  # leakage, the last column

        rc = cli.main(["covariance", f"scenarios/covariance_{layout}.cfg",
                       "--out", str(tmp_path / f"c_{layout}")])
        assert rc == cli.EXIT_OK


def test_oracle_command(tmp_path):
    # the oracle runs as the [oracle] section of an evolve run: the error
    # against the characteristics reference, exact on a free packet
    rc = cli.main(["evolve", "scenarios/free_kvh.cfg",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    lines = (tmp_path / "o" / "oracle.csv").read_text().splitlines()
    assert lines[0] == ("t,l2,masked_linf,modulus_l2,modulus_masked_linf,"
                        "phase_masked_maxabs,global_phase,residual_after_global,"
                        "excluded_fraction")
    values = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(values["t"]) == 0.5
    assert float(values["modulus_masked_linf"]) <= 1e-8
    assert float(values["phase_masked_maxabs"]) <= 1e-8


def test_free_scenario_phase_check(tmp_path, capsys):
    # a free scenario's run also writes its phase against the reference
    for cfg in ("scenarios/free_kvh.cfg", "scenarios/free_kvn.cfg"):
        out_dir = tmp_path / Path(cfg).stem
        rc = cli.main(["evolve", cfg, "--out", str(out_dir)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == ["evolve", "oracle"]
        lines = (out_dir / "oracle.csv").read_text().splitlines()
        values = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(values["phase_masked_maxabs"]) <= 1e-6
        assert (out_dir / "run.csv").exists() and (out_dir / "final.kvhw").exists()


@pytest.mark.parametrize("text", [None, TINY_EVOLVE,
                                  TINY_EVOLVE.replace("[output]\ndump_state = true\n", "")],
                         ids=["weyl_kvn", "no_dir", "no_output_section"])
def test_manifest_records_the_directory_the_run_wrote(tmp_path, text):
    # --out overrides [output] dir, and a scenario may set no dir or no
    # [output] at all; the manifest parses back to the scenario with the
    # directory the run wrote
    source = Path("scenarios/weyl_kvn.cfg")
    if text is not None:
        source = tmp_path / "tiny.cfg"
        source.write_text(text)
    sc = cli.parse_scenario(source)
    out = tmp_path / "elsewhere"
    assert cli.main([sc.kind, str(source), "--out", str(out)]) == cli.EXIT_OK
    sc.sections["output"] = {**sc.sections.get("output", {}), "dir": str(out)}
    assert cli.parse_scenario(out / "manifest.cfg").sections == sc.sections
