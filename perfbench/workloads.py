"""The benchmark's two workloads, driven through the public library API.

Each workload has a ``setup()`` (mesh, form tables, constant blocks, initial
interpolation) and a ``rep(prepared, out_dir, calibrate)`` that performs one
time-to-solution run and returns its timings and correctness fingerprint.
``calibrate()``, when given, times the host-speed kernel of ``hostspeed``
once and returns its time; a repetition pairs every timed sample with the
kernel times taken right after it or around it (see ``RepResult``), and the
calibration time is excluded from every timed sample.

Step timings come from observer timestamps: a step ``k >= 2`` lasts from the
moment the observer of step ``k-1`` returned until the observer of step ``k``
is entered; the start-up step lasts from the call of ``scheme.run`` until its
observer is entered.  Observer work (snapshots, diagnostics lines, error
norms) is therefore inside ``run_s`` but outside the step times.  After the
timed run, ``STARTUP_RUNS`` more runs cut to their first step add start-up
samples; they are checked against the reference's first step.

Every call into the program goes through a module attribute
(``scheme.run``, ``vtkio.write_snapshot``, ...) so that a traced run can wrap
it; untraced runs touch nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from porousflow import assembly, cases, fem, scheme, verification, vtkio
from porousflow import mesh as mesh_mod

# start-up-only runs per repetition: one start-up step is a single sample per
# run, and these make the start-up time a median over several
STARTUP_RUNS = 2
# kernel times taken right before and right after a timed phase that has no
# observer to calibrate in (``run_eoc``)
BRACKET_SAMPLES = 3


@dataclass
class RepResult:
    """Timings and fingerprint of one repetition of a workload.

    Each ``*_kernel_s`` list holds the calibration kernel times paired with
    the samples beside it: one per start-up and per step, taken in the
    observer call right after it, and for ``run_s`` the kernel times taken
    during or around it.  They are empty when the repetition ran without
    calibration.
    """

    run_s: float
    run_kernel_s: list
    startup_s: list           # start-up steps of the timed level
    startup_kernel_s: list
    step_s: list              # general steps (k >= 2) of the timed level
    step_kernel_s: list
    dof_steps: int            # unknowns x steps over everything in run_s
    fingerprint: dict         # compared against the recorded reference


@dataclass
class _Timeline:
    """Observer timestamps of one ``scheme.run`` call, with the kernel time
    taken at each observer call and the time all calibration took."""

    calibrate: object = None
    run_start: float = 0.0
    entered: list = field(default_factory=list)
    left: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    calibration_s: float = 0.0

    def enter(self) -> None:
        """Mark the end of a step; call first thing in an observer."""
        self.entered.append(time.perf_counter())
        if self.calibrate:
            self.kernel_s.append(self.calibrate())
            self.calibration_s += time.perf_counter() - self.entered[-1]

    def leave(self) -> None:
        """Mark the start of the next step; call last thing in an
        observer."""
        self.left.append(time.perf_counter())

    def startup_s(self) -> float:
        return self.entered[0] - self.run_start

    def general_step_s(self) -> list:
        return [self.entered[k] - self.left[k - 1]
                for k in range(1, len(self.entered))]


def _step_fingerprint(diags: list) -> dict:
    return {
        "velocity_l2": [d["velocity_l2"] for d in diags],
        "pressure_l2": [d["pressure_l2"] for d in diags],
        "clamped_feet": [d["clamped_feet"] for d in diags],
        "algebraic_residual": [d["algebraic_residual"] for d in diags],
        "incompressibility_residual":
            [d["incompressibility_residual"] for d in diags],
    }


def _unknowns(ctx) -> int:
    return ctx.vspace.dof_count + ctx.pspace.dof_count


def _startup_runs(setup, calibrate) -> tuple[list, list, dict]:
    """Times, kernel times and fingerprint of ``STARTUP_RUNS`` runs of
    ``setup`` cut to the start-up step, each from the call of ``scheme.run``
    to its observer."""
    one_step = dataclasses.replace(setup, t_final=1.5 * setup.tau)
    times, kernel_s, diags = [], [], []
    for _ in range(STARTUP_RUNS):
        timeline = _Timeline(calibrate)

        def observer(k, t, u, p, diag):
            timeline.enter()
            diags.append(diag)
            timeline.leave()

        timeline.run_start = time.perf_counter()
        scheme.run(one_step, observers=[observer])
        times.append(timeline.startup_s())
        kernel_s += timeline.kernel_s
    return times, kernel_s, _step_fingerprint(diags)


@dataclass(frozen=True)
class ChannelWorkload:
    """``porousflow simulate <case> --n <n>`` truncated to ``steps`` steps.

    The run writes what the CLI writes: a VTK snapshot at t=0 and every
    ``snapshot_every`` steps, one diagnostics line per step, and the series
    CSV at the end.
    """

    name: str
    rep_seconds: float
    setup_probes: int
    case: str
    n: int
    steps: int
    snapshot_every: int

    def setup(self):
        case = cases.get_case(self.case)
        tau = case.nominal_h(self.n)
        # half a step of slack so floor(t_final / tau) is exactly `steps`
        mesh, ctx, setup = cases.build_setup(
            case, self.n, tau=tau, t_final=(self.steps + 0.5) * tau)
        setup.constant_blocks()
        u0 = fem.interpolate(ctx.vspace, case.u_initial)
        p0 = fem.zero_field(ctx.pspace, 0.0)
        return case, mesh, setup, u0, p0

    def rep(self, prepared, out_dir: Path, calibrate=None) -> RepResult:
        """``run_s`` excludes the calibration in the observer calls and is
        paired with the kernel times taken there."""
        case, mesh, setup, u0, p0 = prepared
        every = self.snapshot_every
        series = vtkio.SeriesWriter()
        timeline = _Timeline(calibrate)
        diags: list = []

        def snapshot(k, t, u, p):
            vtkio.write_snapshot(u, p, case.porosity, mesh, t,
                                 out_dir / f"{case.name}_{k:06d}.vtk")

        t0 = time.perf_counter()
        snapshot(0, 0.0, u0, p0)
        series.add(0.0, u0, p0, fem.norm(u0, "L2"), 0.0)
        with open(out_dir / "diagnostics.jsonl", "w") as diag_fh:
            def observer(k, t, u, p, diag):
                timeline.enter()
                if k % every == 0:
                    snapshot(k, t, u, p)
                    series.add(t, u, p, diag["velocity_l2"],
                               diag["pressure_l2"])
                diag_fh.write(json.dumps(diag, sort_keys=True) + "\n")
                diags.append(diag)
                timeline.leave()

            timeline.run_start = time.perf_counter()
            scheme.run(setup, observers=[observer])
        series.write(out_dir / "series.csv")
        run_s = time.perf_counter() - t0 - timeline.calibration_s
        startups, startup_kernel_s, startup_diags = _startup_runs(setup,
                                                                  calibrate)
        return RepResult(
            run_s=run_s,
            run_kernel_s=timeline.kernel_s,
            startup_s=[timeline.startup_s(), *startups],
            startup_kernel_s=timeline.kernel_s[:1] + startup_kernel_s,
            step_s=timeline.general_step_s(),
            step_kernel_s=timeline.kernel_s[1:],
            dof_steps=_unknowns(setup.ctx) * setup.n_steps,
            fingerprint={"steps": _step_fingerprint(diags),
                         "startups": startup_diags},
        )


@dataclass(frozen=True)
class EocWorkload:
    """``porousflow eoc --n-list ...`` through ``verification.run_eoc``.

    ``run_s`` is the wall time of ``run_eoc``.  Because ``run_eoc`` accepts no
    observer, the step timings come from a second run of the finest level,
    set up the way ``run_eoc`` sets up each level but carried on to
    ``timed_steps`` steps, outside ``run_s``, and ``run_s`` is paired with
    ``BRACKET_SAMPLES`` kernel times taken right before and right after it.
    """

    name: str
    rep_seconds: float
    setup_probes: int
    n_list: tuple
    timed_steps: int

    def _level(self, mms, n_div: int, t_final: float = 1.0):
        mesh = mesh_mod.generate_rect_mesh((0.0, math.pi), (0.0, math.pi),
                                           n_div)
        ctx = assembly.make_context(mesh, mms.porosity, mms.params)
        setup = scheme.ProblemSetup(
            ctx=ctx, u_initial=lambda pts: mms.u(pts, 0.0),
            dirichlet=mms.u, forcing=mms.f, tau=math.pi / n_div,
            t_final=t_final, gauge=True)
        setup.constant_blocks()
        fem.interpolate(ctx.vspace, setup.u_initial)   # part of set-up cost
        return setup

    def setup(self):
        # set-up cost is that of every level run_eoc builds; the levels are
        # not kept, so that during run_eoc the process holds only what the
        # `eoc` command would hold
        mms = verification.build_mms_case()
        dof_steps = 0
        for n_div in self.n_list:
            level = self._level(mms, n_div)
            dof_steps += _unknowns(level.ctx) * level.n_steps
        return mms, dof_steps

    def rep(self, prepared, out_dir: Path, calibrate=None) -> RepResult:
        mms, dof_steps = prepared
        bracket = (lambda: [calibrate() for _ in range(BRACKET_SAMPLES)]
                   if calibrate else [])
        run_kernel_s = bracket()
        t0 = time.perf_counter()
        records = verification.run_eoc(list(self.n_list))
        run_s = time.perf_counter() - t0
        run_kernel_s += bracket()

        n_div = self.n_list[-1]
        timed = self._level(mms, n_div, (self.timed_steps + 0.5) * math.pi
                            / n_div)
        timeline = _Timeline(calibrate)
        diags: list = []

        def observer(k, t, u, p, diag):
            timeline.enter()
            diags.append(diag)
            timeline.leave()

        timeline.run_start = time.perf_counter()
        scheme.run(timed, observers=[observer])
        startups, startup_kernel_s, startup_diags = _startup_runs(timed,
                                                                  calibrate)
        eoc = {str(r.n): {"er1": r.er1, "er2": r.er2,
                          "final_rel1": r.final_rel1,
                          "final_rel2": r.final_rel2} for r in records}
        return RepResult(
            run_s=run_s,
            run_kernel_s=run_kernel_s,
            startup_s=[timeline.startup_s(), *startups],
            startup_kernel_s=timeline.kernel_s[:1] + startup_kernel_s,
            step_s=timeline.general_step_s(),
            step_kernel_s=timeline.kernel_s[1:],
            dof_steps=dof_steps,
            fingerprint={"eoc": eoc, "steps": _step_fingerprint(diags),
                         "startups": startup_diags},
        )


# Why each workload is in the set is recorded in BENCHMARK.json and README.md.
# rep_seconds is the measured wall time of one repetition on the reference
# box; a run makes ceil(--seconds / rep_seconds) repetitions, which at the
# run_seconds of BENCHMARK.json (25) are 4 and 2.  setup_probes is the
# number of cold set-ups timed per untraced run; it is larger where a set-up
# is short, so that each run spends a few seconds on them.
WORKLOADS = {w.name: w for w in (
    ChannelWorkload(name="two-layer-60", rep_seconds=7.3, setup_probes=15,
                    case="two-layer", n=60, steps=16, snapshot_every=10),
    EocWorkload(name="mms-eoc", rep_seconds=19.8, setup_probes=7,
                n_list=(8, 16, 32), timed_steps=14),
)}
