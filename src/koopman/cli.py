"""Command-line entry point.

Subcommands:

  check-algebra   run the exact symbolic verification suites
  evolve CFG      propagate a scenario, emit observables CSV and dumps, and
                  with [oracle] its error against the characteristics reference
  covariance CFG  Weyl-phase and boost-covariance experiments

Scenarios are strict INI files (unknown sections or keys, and those the
run kind never reads, are errors, exit code 2).  Exit codes: 0 success,
1 verification failure, 2 usage or config error, 3 numerical abort.
Outputs are byte-identical for a given config and version, independent
of --threads.  The scenario subcommands make their output directory only
after every config check.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, ccr, suites
from . import characteristics as chars
from . import evolve as ev
from . import galilei as ga
from .grid import (
    Axis, GridSpec, Wavefunction, axis_records, dump_state, gaussian_init, set_fft_workers,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ScenarioError(ValueError):
    """Configuration problem; maps to exit code 2."""


@contextmanager
def _config_errors(where: str):
    """Report a library ValueError raised inside the block as a config error."""
    try:
        yield
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


# ---------------------------------------------------------------------------
# scenario parsing (strict, typed)
# ---------------------------------------------------------------------------

def _float(s: str) -> float:
    if not math.isfinite(value := float(s)):
        raise ValueError("must be finite")
    return value


def _floats(s: str):
    return tuple(_float(v) for v in s.split(",")) if s.strip() else ()


_SCHEMA = {
    "run": {"kind": str},
    "grid": {"axes": lambda s: tuple(v.strip() for v in s.split(","))},
    "dynamics": {
        "formalism": str, "masses": _floats, "potential": str,
        "kappa": _float, "alpha": _float, "dt": _float, "t_final": _float,
        "sample_every": int, "interaction": str,
    },
    "initial": {"centers": _floats, "widths": _floats},
    "transform": {"kind": str, "sweep_a": _floats, "sweep_v": _floats},
    "oracle": {"flow_steps": int, "interp": str},   # reference_solution's keywords
    "output": {"dir": str, "dump_state": lambda s: s.lower() in ("1", "true", "yes")},
}
_AXIS_KEYS = {"min": _float, "extent": _float, "points": int}

# the keys each run reads beside [run], [grid], the axes and [initial]; a
# covariance scenario runs as its [transform] kind
_READS = {
    "evolve": {"dynamics": " ".join(_SCHEMA["dynamics"]), "oracle": "flow_steps interp",
               "output": "dir dump_state"},
    "weyl": {"dynamics": "formalism masses", "transform": "kind sweep_a sweep_v",
             "output": "dir"},
    "covariance": {"dynamics": "formalism masses t_final", "transform": "kind sweep_v",
                   "output": "dir"},
}


@dataclass
class Scenario:
    path: Path
    kind: str
    sections: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        v = self.get(section, key)
        if v is None:
            raise ScenarioError(f"missing key {key!r} in section [{section}]")
        return v


def parse_scenario(path) -> Scenario:
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from e
    except configparser.Error as e:      # first line of the message, and the line number
        first = str(e).splitlines()[0]
        line = getattr(e, "lineno", None) or getattr(e, "errors", [(None,)])[0][0]
        where = f" (line {line})" if line and "[line" not in first else ""
        raise ScenarioError(f"config parse error: {first}{where}") from e

    sections: dict = {}
    for sec in cp.sections():
        axis = sec.startswith("axis.")
        schema = _AXIS_KEYS if axis else _SCHEMA.get(sec)
        if schema is None:
            raise ScenarioError(f"unknown section [{sec}]")
        parsed = {}
        for key, raw in cp[sec].items():
            if key not in schema:
                raise ScenarioError(f"unknown key {key!r} in section [{sec}]")
            try:
                parsed[key] = schema[key](raw)
            except ValueError as e:
                raise ScenarioError(
                    f"bad value for {key!r} in [{sec}]: {raw!r} ({e})") from e
        if axis:
            sections.setdefault("axis", {})[sec.split(".", 1)[1]] = parsed
        else:
            sections[sec] = parsed
    if "run" not in sections or "kind" not in sections["run"]:
        raise ScenarioError("missing [run] kind")
    kind = sections["run"]["kind"]
    if kind not in ("evolve", "covariance"):
        raise ScenarioError(f"unknown run kind {kind!r}")
    return Scenario(path, kind, sections)


def _load_scenario(path, kind: str) -> Scenario:
    """The scenario at ``path``; it must be of run ``kind`` and set no
    section or key that the run never reads."""
    sc = parse_scenario(path)
    if sc.kind != kind:
        raise ScenarioError(f"scenario kind {sc.kind!r}, expected {kind!r}")
    if kind == "covariance":
        kind = sc.require("transform", "kind")
        if kind not in ("weyl", "covariance"):
            raise ScenarioError(f"unknown transform kind {kind!r}")
    for sec, values in sc.sections.items():
        if sec in ("run", "grid", "axis", "initial"):      # every run reads them
            continue
        reads = _READS[kind].get(sec)
        unread = [k for k in values if k not in (reads or "").split()]
        if unread or reads is None:
            what = f"key {unread[0]!r} in section" if unread else "section"
            raise ScenarioError(f"{what} [{sec}] is not read by {kind} runs")
    return sc


def build_grid(sc: Scenario) -> GridSpec:
    names = sc.require("grid", "axes")
    specs = sc.sections.get("axis", {})
    axes = []
    for name in names:
        spec = specs.get(name)
        if spec is None:
            raise ScenarioError(f"axis {name!r} listed but no [axis.{name}] section")
        for key in ("min", "extent", "points"):
            if key not in spec:
                raise ScenarioError(f"[axis.{name}] missing {key!r}")
        with _config_errors(f"[axis.{name}]"):
            axes.append(Axis(name, spec["min"], spec["extent"], spec["points"]))
    with _config_errors("[grid]"):
        grid = GridSpec(tuple(axes))
    unlisted = [name for name in specs if name not in names]
    if unlisted:
        raise ScenarioError(f"section [axis.{unlisted[0]}] is not read: "
                            f"[grid] axes does not list {unlisted[0]!r}")
    return grid


def build_initial(sc: Scenario, grid: GridSpec) -> Wavefunction:
    centers = sc.require("initial", "centers")
    widths = sc.require("initial", "widths")
    with _config_errors("[initial]"):
        return gaussian_init(grid, centers, widths)


def build_plan_from(sc: Scenario, grid: GridSpec) -> ev.PropagatorPlan:
    dyn = sc.sections.get("dynamics", {})
    for key in ("formalism", "masses", "potential", "dt"):
        if key not in dyn:
            raise ScenarioError(f"[dynamics] missing {key!r}")
    constants = {k: dyn[k] for k in ("kappa", "alpha") if k in dyn}
    with _config_errors("[dynamics]"):
        pot = ev.make_potential(dyn["potential"], grid, constants)
        return ev.build_plan(grid, dyn["formalism"], dyn["masses"], pot,
                             dyn["dt"], dyn.get("interaction", "full"))


def read_t_final(sc: Scenario, dt: float | None = None) -> float:
    """[dynamics] t_final: positive and, given dt, a whole number of steps."""
    t_final = sc.require("dynamics", "t_final")
    if not 0 < t_final < np.inf:
        raise ScenarioError(f"[dynamics]: t_final must be positive, got {t_final!r}")
    if dt is not None:
        with _config_errors("[dynamics]"):
            ev.step_count(t_final, dt)
    return t_final


def write_manifest(sc: Scenario, out_dir: Path) -> None:
    """Echo of the resolved configuration, sufficient to reproduce the run;
    [output] dir is the directory the run wrote, whatever gave it."""
    sections = {**sc.sections,
                "output": {**sc.sections.get("output", {}), "dir": str(out_dir)}}
    lines = [f"# koopman {__version__}", f"# scenario {sc.path.name}"]
    for sec in sorted(sections):
        if sec == "axis":
            for name in sections["axis"]:
                lines.append(f"[axis.{name}]")
                for k, v in sorted(sections["axis"][name].items()):
                    lines.append(f"{k} = {v}")
            continue
        lines.append(f"[{sec}]")
        for k, v in sorted(sections[sec].items()):
            if isinstance(v, tuple):
                v = ", ".join(str(x) for x in v)
            lines.append(f"{k} = {v}")
    (out_dir / "manifest.cfg").write_text("\n".join(lines) + "\n")


def _make_out_dir(args, sc: Scenario | None = None) -> Path:
    """The output directory, made: --out, else [output] dir, else "out".
    One that cannot be made is a config error."""
    out_dir = Path(args.out or sc.get("output", "dir", "out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ScenarioError(f"{'--out' if args.out else '[output] dir'}: {e}") from e
    return out_dir


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_algebra(args) -> int:
    out_dir = _make_out_dir(args)
    all_ok = True
    lines = []
    rows = []
    npass = ntotal = 0
    for title, rels in suites.suite_group(args.formalism):
        report = ccr.verify_algebra(rels)
        lines.append(f"== {title}")
        lines.extend(report.lines())
        rows.extend(report.csv_rows())
        all_ok = all_ok and report.all_passed
        npass += report.counts[0]
        ntotal += report.counts[1]
    lines.append(f"{'PASS' if all_ok else 'FAIL'} {npass}/{ntotal} relations total")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    (out_dir / "algebra_report.txt").write_text(text)
    with open(out_dir / "algebra_relations.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("relation_id", "status", "residual"))
        wr.writerows(rows)
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_evolve(args) -> int:
    sc = _load_scenario(args.scenario, "evolve")
    grid = build_grid(sc)
    plan = build_plan_from(sc, grid)
    w0 = build_initial(sc, grid)
    t_final = read_t_final(sc, plan.dt)
    sample_every = sc.get("dynamics", "sample_every", 1)
    if sample_every < 1:
        raise ScenarioError("[dynamics]: sample_every must be >= 1")
    if sc.get("output", "dump_state", False):
        with _config_errors("[output] dump_state"):     # before the run, not after it
            axis_records(grid)
    ref = None
    if "oracle" in sc.sections:
        with _config_errors("[oracle]"):    # before the run, so bad settings fail fast
            ref, valid = chars.reference_solution(
                w0, plan.masses, plan.potential, t_final, plan.formalism,
                **sc.sections["oracle"])
    out_dir = _make_out_dir(args, sc)

    record, w = ev.run(w0, plan, t_final, sample_every)
    record.to_csv(out_dir / "run.csv")
    if sc.get("output", "dump_state", False):
        dump_state(w, out_dir / "final.kvhw")
    write_manifest(sc, out_dir)
    sys.stdout.write(f"evolve: {len(record.rows)} samples -> {out_dir}\n")
    if ref is not None:
        metrics = chars.compare(w, ref, valid_mask=valid)
        with open(out_dir / "oracle.csv", "w", newline="") as fh:
            fh.write(",".join(["t"] + [f.name for f in fields(metrics)]) + "\n")
            fh.write(",".join(_fmt(v) for v in (t_final,) + astuple(metrics)) + "\n")
        sys.stdout.write(
            f"oracle: l2={metrics.l2:.3e} masked_linf={metrics.masked_linf:.3e} "
            f"phase={metrics.phase_masked_maxabs:.3e} -> {out_dir}\n")
    return EXIT_OK


def _sweep(sc: Scenario, key: str, what: str) -> tuple:
    values = sc.require("transform", key)
    if not values:
        raise ScenarioError(f"[transform]: {key} needs at least one {what}")
    return values


def cmd_covariance(args) -> int:
    sc = _load_scenario(args.scenario, "covariance")
    grid = build_grid(sc)
    w0 = build_initial(sc, grid)
    formalism = sc.require("dynamics", "formalism")
    masses = sc.require("dynamics", "masses")
    with _config_errors("[dynamics]"):
        alg = ev.layout(grid, masses, formalism)
    sweep_v = _sweep(sc, "sweep_v", "velocity")
    worst = 0.0
    rows = []
    if sc.require("transform", "kind") == "weyl":
        # boost(v, t=0) against translation(a): the paper's Weyl pair
        for a in _sweep(sc, "sweep_a", "offset"):
            for v in sweep_v:
                with _config_errors("[transform]"):
                    g1 = ga.boost(v, 0.0, formalism, alg)
                    g2 = ga.translation(a, alg)
                    phase, residual, leak = ga.weyl_phase(g1, g2, w0)
                    predicted = ga.predicted_weyl_phase(g1, g2)
                angle_err = abs(np.angle(phase * np.conj(predicted)))
                worst = np.max((worst, residual, angle_err))    # keeps a NaN, as max() would not
                rows.append((formalism, "boost", "translation", a, v, 0,
                             phase.real, phase.imag, predicted.real,
                             predicted.imag, angle_err, residual, leak))
    else:
        t_final = read_t_final(sc)
        for v in sweep_v:
            with _config_errors("[transform]"):
                phase, residual, leak = ga.covariance_check(formalism, v, t_final, w0, alg)
            worst = np.max((worst, residual))
            rows.append((formalism, "boost+evolve", "evolve+boost", "", v,
                         t_final, phase.real, phase.imag, "", "", "", residual, leak))
    # after the sweep, which checks the elements and the grid, and
    # takes milliseconds
    out_dir = _make_out_dir(args, sc)
    with open(out_dir / "covariance.csv", "w", newline="") as fh:
        fh.write("formalism,g1,g2,a,v,t,phase_re,phase_im,"
                 "predicted_re,predicted_im,angle_error,residual,leakage\n")
        for r in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in r) + "\n")
    write_manifest(sc, out_dir)
    sys.stdout.write(f"covariance: {len(rows)} rows, worst deviation "
                     f"{worst:.3e} -> {out_dir}\n")
    return EXIT_OK if worst <= 1e-6 else EXIT_VERIFY


def main(argv=None) -> int:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--threads", type=int, default=1,
                        help="FFT worker threads (results are identical)")
    shared.add_argument("--out", default=None, help="output directory")
    parser = argparse.ArgumentParser(
        prog="koopman",
        description="Koopman wavefunction mechanics: symbolic verification "
                    "and phase-space spectral simulation",
        parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", help="run the symbolic suites",
                       parents=[shared])
    p.add_argument("--formalism", choices=("kvn", "kvh", "hybrid", "all"),
                   default="all")
    p.set_defaults(func=cmd_check_algebra)

    for name, func in (("evolve", cmd_evolve), ("covariance", cmd_covariance)):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("scenario", help="scenario .cfg file")
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    if args.out is None and args.command == "check-algebra":
        args.out = "out"
    try:
        with _config_errors("--threads"):
            set_fft_workers(args.threads)
        return args.func(args)
    except ScenarioError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except ev.NumericalAbort as e:
        sys.stderr.write(f"numerical abort: {e}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
