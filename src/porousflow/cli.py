"""Command-line driver: convergence study, case simulations, porosity
validation, and a quick invariant suite.

Every simulation writes its resolved configuration (flat ``key = value``
text) next to the outputs; a ``--config`` file provides defaults that
explicit flags override.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from porousflow import cases as case_lib
from porousflow import fem
from porousflow.assembly import make_context
from porousflow.mesh import generate_rect_mesh
from porousflow.porous import (PhysicalParams, builtin_porosity,
                               validate_porosity_admissibility)
from porousflow.scheme import SchemeDivergenceError, run
from porousflow.verification import (ab2_consistency_check, build_mms_case,
                                     default_consistency_field,
                                     drag_equivalence_check,
                                     polynomial_exactness_check, run_eoc,
                                     transport_identity_check, write_eoc_csv)
from porousflow.vtkio import SeriesWriter, write_snapshot

# expected slope ranges for refinement pairs with N >= 16, those of
# acceptance criterion 1: the H1 velocity error and the L2 pressure error
SLOPE_BANDS = {"Er1": (1.7, 2.4), "Er2": (1.7, 2.6)}


#: The keys a flag or a ``--config`` file can set, with their types; every
#: other key that ``config.txt`` records is fixed by the case.
SETTABLE = {"n": int, "tau": float, "t_final": float, "out_dir": str,
            "snapshot_every": int}


@dataclass
class RunConfig:
    """Settings of one ``simulate`` run: its case and the ``SETTABLE`` keys.
    ``tau`` ``None`` takes the cell width along x at ``n`` cells."""

    case: case_lib.CaseDefinition
    n: int
    t_final: float
    out_dir: str
    tau: float | None = None
    snapshot_every: int = 10

    def __post_init__(self):
        for name in ("n", "tau", "t_final", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"config field {name} must be positive and "
                                 f"finite, got {value}")
        # the coarsest mesh generate_rect_mesh builds
        if self.n < 2:
            raise ValueError(f"config field n must be at least 2, "
                             f"got {self.n}")
        if self.tau is None:
            self.tau = self.case.nominal_h(self.n)

    def recorded(self) -> dict[str, str]:
        """What ``config.txt`` records, key to text, in its order."""
        case = self.case
        values = {"case": case.name, "n": self.n, "tau": self.tau,
                  "t_final": self.t_final, **asdict(case.params),
                  "out_dir": self.out_dir,
                  "snapshot_every": self.snapshot_every,
                  # every run writes diagnostics.jsonl; the line stays in
                  # the record
                  "diagnostics": True,
                  "x_extent": case.x_extent, "y_extent": case.y_extent,
                  **case.constants}
        return {key: repr(value) if isinstance(value, str) else str(value)
                for key, value in values.items()}

    def to_text(self) -> str:
        return "".join(f"{key} = {text}\n"
                       for key, text in self.recorded().items())


# a line before its comment; an unclosed quote runs to the end of the line
_UNCOMMENTED = re.compile(r"""(?:[^#'"]|'[^']*'?|"[^"]*"?)*""")


def parse_config_file(path) -> dict:
    """Flat ``key = value`` text; ``#`` outside quotes starts a comment.
    A key given twice raises ``ValueError`` naming it and both lines."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ValueError(f"config key {key!r} is set on line "
                             f"{line_of[key]} and again on line {number}")
        line_of[key] = number
        out[key] = value.strip("'\"")
    return out


def resolve_run_config(args) -> RunConfig:
    """The run's settings: flags over ``--config`` file values over the
    case's defaults.  A file may hold only the keys ``config.txt`` records;
    one not in ``SETTABLE`` (the case, its extents, its physical parameters
    and constants) must carry the text this run records, so a written
    ``config.txt`` can be fed back.  Anything else, or a value its key's
    type cannot read, raises ``ValueError`` naming the key."""
    case = case_lib.get_case(args.case)
    file_cfg = parse_config_file(args.config) if args.config else {}
    settings = {"n": case.default_n, "t_final": case.t_final,
                "out_dir": f"out/{case.name}"}
    for key, cast in SETTABLE.items():
        value = getattr(args, key)
        value = file_cfg.get(key) if value is None else value
        if value is not None:
            try:
                settings[key] = cast(value)
            except ValueError:
                article = "an" if cast is int else "a"
                raise ValueError(f"config key {key!r} = {value!r} is not "
                                 f"{article} {cast.__name__}") from None
    cfg = RunConfig(case, **settings)
    recorded = cfg.recorded()
    for key, value in file_cfg.items():
        if key not in recorded:
            raise ValueError(f"unknown config key {key!r}")
        text = recorded[key].strip("'\"")
        if key not in SETTABLE and value != text:
            raise ValueError(f"config key {key!r} = {value!r} cannot be "
                             f"set; this run records {text!r}")
    return cfg


def _cmd_eoc(args) -> int:
    try:
        n_list = [int(v) for v in args.n_list.split(",") if v]
    except ValueError:
        raise ValueError(f"--n-list {args.n_list!r} is not a comma-separated "
                         "list of ints") from None
    records = run_eoc(n_list, t_final=args.t_final,
                      progress=lambda msg: print(msg, flush=True))
    out_dir = Path(args.out_dir or "out/eoc")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "eoc.csv"
    write_eoc_csv(records, csv_path)
    print(f"{'N':>5} {'h':>12} {'Er1':>12} {'slope':>7} {'Er2':>12} {'slope':>7}")
    for r in records:
        s1 = "-" if r.slope1 is None else f"{r.slope1:.2f}"
        s2 = "-" if r.slope2 is None else f"{r.slope2:.2f}"
        print(f"{r.n:>5} {r.h:>12.4e} {r.er1:>12.4e} {s1:>7} "
              f"{r.er2:>12.4e} {s2:>7}")
    print("final-time relative errors (diagnostic, start-up transient "
          "excluded by construction):")
    for r in records:
        print(f"{r.n:>5} rel_H1(u)={r.final_rel1:.4e} "
              f"rel_L2(p)={r.final_rel2:.4e}")
    print(f"wrote {csv_path}")
    ok = True
    for r in records:
        if r.n < 16 or r.slope1 is None:
            continue
        for label, slope in (("Er1", r.slope1), ("Er2", r.slope2)):
            lo, hi = SLOPE_BANDS[label]
            inside = lo <= slope <= hi
            ok = ok and inside
            verdict = "PASS" if inside else "FAIL"
            print(f"slope check N={r.n} {label}: {slope:.2f} in "
                  f"[{lo}, {hi}] -> {verdict}")
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    cfg = resolve_run_config(args)
    case = cfg.case
    text = cfg.to_text()
    if args.show_config:
        sys.stdout.write(text)
        return 0
    # a set-up that cannot run (no steps) fails before anything is written
    mesh, ctx, setup = case_lib.build_setup(case, cfg.n, cfg.tau, cfg.t_final)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(text)

    report = validate_porosity_admissibility(
        case.porosity, case.params,
        (case.x_extent, case.y_extent), resolution=256)
    print(report.summary())
    if not report.passed:
        print("note: the admissibility hypothesis fails for this porosity; "
              "the stability theory does not cover this run")
    print(f"case {case.name}: N={cfg.n}, tau={cfg.tau:g}, T={cfg.t_final:g}, "
          f"{mesh.n_triangles} triangles, {setup.n_steps} steps")

    series = SeriesWriter()
    u0 = fem.interpolate(ctx.vspace, case.u_initial)
    p0 = fem.zero_field(ctx.pspace)
    write_snapshot(u0, p0, case.porosity, mesh, 0.0,
                   out_dir / f"{case.name}_{0:06d}.vtk")
    series.add(0.0, u0, p0, fem.norm(u0, "L2"), 0.0)

    def observer(k, t, u_field, p_field, diag):
        if k % cfg.snapshot_every == 0:
            write_snapshot(u_field, p_field, case.porosity, mesh, t,
                           out_dir / f"{case.name}_{k:06d}.vtk")
            series.add(t, u_field, p_field, diag["velocity_l2"],
                       diag["pressure_l2"])
        diag_fh.write(json.dumps(diag, sort_keys=True) + "\n")

    with open(out_dir / "diagnostics.jsonl", "w") as diag_fh:
        t0 = time.perf_counter()
        try:
            run(setup, observers=[observer])
        except SchemeDivergenceError as exc:
            print(f"run aborted: {exc}", file=sys.stderr)
            return 1
        wall_time = time.perf_counter() - t0
    series.write(out_dir / "series.csv")
    print(f"finished {setup.n_steps} steps in {wall_time:.1f} s; "
          f"outputs in {out_dir}")
    return 0


def _cmd_validate_porosity(args) -> int:
    case = case_lib.get_case(args.case)
    report = validate_porosity_admissibility(case.porosity, case.params,
                                  (case.x_extent, case.y_extent),
                                  resolution=args.resolution)
    print(f"case {case.name}: porosity {case.porosity.name}")
    print(report.summary())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    """Quick invariant suite over the numerical kernels."""
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    # quadrature exactness against factorial-form monomial integrals (the
    # degree-2 rule is the degree-5 one, so it is not checked apart)
    for deg in (5, 9):
        rule = fem.tri_quadrature(deg)
        worst = 0.0
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                got = 0.5 * float(rule.weights
                                  @ (rule.points[:, 1] ** a
                                     * rule.points[:, 2] ** b))
                worst = max(worst, abs(got - exact))
        check(f"quadrature degree {deg} monomial exactness", worst < 1e-14,
              "worst < 1e-14")

    params = PhysicalParams()
    rel_lin, rel_quad = drag_equivalence_check(params, seed=7)
    check("drag coefficients match compositional forms",
          rel_lin < 1e-12 and rel_quad < 1e-12, "worst < 1e-12")

    case = build_mms_case()
    rep = transport_identity_check(case.velocity_field(0.0), case.porosity,
                                n_divisions=48, degree=9)
    check("transport identity (divergence-free field)", rep.relative < 1e-6,
          "relative residual < 1e-6")

    w_fn, mat_fn = default_consistency_field()
    ab2 = ab2_consistency_check(w_fn, mat_fn)
    check("two-step material derivative order",
          1.8 <= ab2.observed_order <= 2.2, f"order {ab2.observed_order:.2f}")

    mesh = generate_rect_mesh((0.0, 1.0), (0.0, 1.0), 4)
    ctx = make_context(mesh, builtin_porosity("constant", value=1.0), params)
    u_err, p_err = polynomial_exactness_check(ctx)
    check("mixed-element polynomial exactness",
          u_err <= 1e-10 and p_err <= 1e-10, "u and p nodal errors <= 1e-10")

    two_layer = case_lib.get_case("two-layer")
    rep2 = validate_porosity_admissibility(two_layer.porosity, two_layer.params,
                                (two_layer.x_extent, two_layer.y_extent), 256)
    check("two-layer porosity flagged inadmissible", not rep2.passed,
          f"margin {rep2.max_margin:.1f}")
    sin_case = case_lib.get_case("sinusoidal")
    rep3 = validate_porosity_admissibility(sin_case.porosity, sin_case.params,
                                (sin_case.x_extent, sin_case.y_extent), 256)
    check("sinusoidal porosity admissible", rep3.passed,
          f"margin {rep3.max_margin:.1f}")

    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porousflow",
        description="Finite element solver for flow in non-homogeneous "
                    "porous media")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eoc = sub.add_parser("eoc", help="manufactured-solution convergence study")
    p_eoc.add_argument("--n-list", default="8,16,32",
                       help="comma-separated ascending resolutions")
    p_eoc.add_argument("--t-final", type=float, default=1.0)
    p_eoc.add_argument("--out-dir", default=None)
    p_eoc.set_defaults(func=_cmd_eoc)

    p_sim = sub.add_parser("simulate", help="run a bundled experiment case")
    p_sim.add_argument("case", choices=case_lib.case_names())
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--tau", type=float, default=None)
    p_sim.add_argument("--t-final", type=float, default=None)
    p_sim.add_argument("--snapshot-every", type=int, default=None)
    p_sim.add_argument("--out-dir", default=None)
    p_sim.add_argument("--config", default=None,
                       help="flat key = value defaults file")
    p_sim.add_argument("--show-config", action="store_true",
                       help="print the resolved configuration and exit")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate-porosity",
                           help="check a case porosity against the "
                                "gradient-bound hypothesis")
    p_val.add_argument("case", choices=case_lib.case_names())
    p_val.add_argument("--resolution", type=int, default=512)
    p_val.add_argument("--out", default=None, help="write a JSON report")
    p_val.set_defaults(func=_cmd_validate_porosity)

    p_chk = sub.add_parser("check", help="run the quick invariant suite")
    p_chk.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
