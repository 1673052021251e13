"""Spans around the module attributes the program calls through.

A traced repetition replaces each hooked attribute (``porousflow.scheme.
assemble_c1``, ``porousflow.saddle.splu``, ...) with a wrapper that records a
span ``[name, start, end, parent, attrs]`` in memory, and restores the
originals afterwards.  A hook whose target no longer exists is reported as
absent and skipped, and a hook whose counts can no longer be read from the
call is reported as unreadable, so a refactor of the program never fails a
traced run.

Per-layer figures are computed from the spans of the general steps of the
largest system in the workload.  A step interval runs from the start of
step ``k`` to the start of step ``k+1`` of the same run, so it holds the step
itself, the run loop's diagnostics and the observers.  Within an interval
the self times of all spans plus the time covered by no span (reported as
``scheme.unattributed_s``) add up to the interval exactly.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Span ``span`` around ``module:attr.path``.  ``after(tracer, args,
    result)`` returns ``(attrs, result)`` and may replace the result."""

    span: str
    target: str
    after: Callable | None = None


class _TracedLU:
    """Stands in for a ``SuperLU`` object so its ``solve`` gets a span."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap("saddle.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _unknowns(setup) -> int:
    return setup.ctx.vspace.dof_count + setup.ctx.pspace.dof_count


def _initial_attrs(tracer, args, result):
    return {"k": 1, "unknowns": _unknowns(args[0])}, result


def _general_attrs(tracer, args, result):
    return {"k": args[1].k, "unknowns": _unknowns(args[0])}, result


def _locate_attrs(tracer, args, result):
    return {"points": len(args[1])}, result


def _lu_attrs(tracer, args, result):
    return ({"unknowns": result.shape[0], "fill": result.nnz},
            _TracedLU(result, tracer))


def _snapshot_attrs(tracer, args, result):
    return {"bytes": Path(result).stat().st_size}, result


HOOKS = (
    Hook("cases.build_setup", "porousflow.cases:build_setup"),
    Hook("verification.build_mms_case",
         "porousflow.verification:build_mms_case"),
    Hook("assembly.constant_blocks",
         "porousflow.scheme:ProblemSetup.constant_blocks"),
    Hook("scheme.initial_step", "porousflow.scheme:initial_step",
         _initial_attrs),
    Hook("scheme.general_step", "porousflow.scheme:general_step",
         _general_attrs),
    Hook("characteristics.material_terms",
         "porousflow.scheme:lg1_material_terms"),
    Hook("characteristics.material_terms",
         "porousflow.scheme:ab2_material_terms"),
    Hook("mesh.locate_many", "porousflow.characteristics:locate_many",
         _locate_attrs),
    Hook("mesh.boundary_exit",
         "porousflow.characteristics:boundary_exit_point"),
    Hook("assembly.mass_phi_rhs", "porousflow.scheme:assemble_mass_phi_rhs"),
    Hook("assembly.c1", "porousflow.scheme:assemble_c1"),
    Hook("assembly.load", "porousflow.scheme:assemble_load"),
    Hook("saddle.constraints",
         "porousflow.saddle:SaddleSystem.apply_dirichlet"),
    Hook("saddle.constraints", "porousflow.saddle:SaddleSystem.apply_slip"),
    Hook("saddle.constraints", "porousflow.saddle:SaddleSystem.apply_gauge"),
    Hook("saddle.solve", "porousflow.saddle:SaddleSystem.solve"),
    Hook("saddle.factor", "porousflow.saddle:splu", _lu_attrs),
    Hook("fem.norm", "porousflow.scheme:norm"),
    Hook("fem.error_norm", "porousflow.verification:error_norm"),
    Hook("vtkio.snapshot", "porousflow.vtkio:write_snapshot",
         _snapshot_attrs),
)


def resolve(target: str):
    """``(owner, attribute, current value)`` of a hook target; raises
    ``LookupError`` when the module or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        value = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"{target}: {exc}") from None
    if not callable(value):
        raise LookupError(f"{target}: not callable")
    return owner, attr, value


class Tracer:
    """In-memory span recorder with hook installation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unreadable: set[str] = set()   # spans whose counts failed

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                try:
                    rec[4], result = after(self, args, result)
                except Exception:   # a changed signature must not fail a run
                    self.unreadable.add(name)
            return result

        return traced

    @contextmanager
    def phase(self, name: str):
        """A span around benchmark code, e.g. the set-up or one repetition."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def installed(self, hooks=HOOKS):
        """Install the hooks for the duration of the block; yields the list
        of absent targets."""
        done, absent = [], []
        for hook in hooks:
            try:
                owner, attr, original = resolve(hook.target)
            except LookupError as exc:
                absent.append(str(exc))
                continue
            setattr(owner, attr, self.wrap(hook.span, original, hook.after))
            done.append((owner, attr, original))
        try:
            yield absent
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------

STEP_SPANS = ("scheme.initial_step", "scheme.general_step")


def _self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def step_intervals(spans):
    """``(start, end)`` of every general step of the largest system that is
    followed by the next step of the same run."""
    steps = [rec for rec in spans if rec[0] in STEP_SPANS and rec[4]]
    if not steps:
        return []
    largest = max(rec[4]["unknowns"] for rec in steps)
    return [(a[1], b[1]) for a, b in zip(steps, steps[1:])
            if a[0] == "scheme.general_step"
            and a[4]["unknowns"] == largest
            and b[4]["unknowns"] == largest and b[4]["k"] == a[4]["k"] + 1]


def step_accounting(spans):
    """Per-name totals over the step intervals.

    Returns ``(n_intervals, interval_total, self_s, inclusive_s, calls,
    attrs)`` where the dicts are keyed by span name and ``attrs`` collects
    the attribute dicts of the spans per name.
    """
    intervals = step_intervals(spans)
    selfs = _self_times(spans)
    self_s: dict = {}
    incl_s: dict = {}
    calls: dict = {}
    attrs: dict = {}
    i = 0
    for start, end in intervals:
        while i < len(spans) and spans[i][1] < start:
            i += 1
        j = i
        while j < len(spans) and spans[j][1] < end:
            name = spans[j][0]
            self_s[name] = self_s.get(name, 0.0) + selfs[j]
            incl_s[name] = incl_s.get(name, 0.0) + spans[j][2] - spans[j][1]
            calls[name] = calls.get(name, 0) + 1
            if spans[j][4]:
                attrs.setdefault(name, []).append(spans[j][4])
            j += 1
        i = j
    total = sum(end - start for start, end in intervals)
    return len(intervals), total, self_s, incl_s, calls, attrs


def _setup_inclusive(spans) -> dict:
    """Inclusive time per span name inside the ``bench.setup`` phase."""
    inside = set()
    out: dict = {}
    for idx, rec in enumerate(spans):
        if rec[0] == "bench.setup" or rec[3] in inside:
            inside.add(idx)
            if rec[0] != "bench.setup":
                out[rec[0]] = out.get(rec[0], 0.0) + rec[2] - rec[1]
    return out


# metric -> (span name, "self" | "inclusive"), in seconds per step interval
STEP_TIME_METRICS = {
    "scheme.step_self_s": ("scheme.general_step", "self"),
    "characteristics.material_terms_s":
        ("characteristics.material_terms", "inclusive"),
    "characteristics.self_s": ("characteristics.material_terms", "self"),
    "mesh.locate_many_s": ("mesh.locate_many", "self"),
    "mesh.boundary_exit_s": ("mesh.boundary_exit", "self"),
    "assembly.rhs_self_s": ("assembly.mass_phi_rhs", "self"),
    "assembly.c1_s": ("assembly.c1", "self"),
    "assembly.load_s": ("assembly.load", "self"),
    "saddle.constraints_s": ("saddle.constraints", "self"),
    "saddle.solve_s": ("saddle.solve", "inclusive"),
    "saddle.eliminate_s": ("saddle.solve", "self"),
    "saddle.factor_s": ("saddle.factor", "self"),
    "saddle.lu_solve_s": ("saddle.lu_solve", "self"),
    "fem.norm_s": ("fem.norm", "self"),
    "fem.error_norm_s": ("fem.error_norm", "self"),
    "vtkio.snapshot_s": ("vtkio.snapshot", "self"),
}
# metric -> span name, inclusive seconds inside the set-up phase
SETUP_METRICS = {
    "cases.build_setup_s": "cases.build_setup",
    "verification.build_mms_case_s": "verification.build_mms_case",
    "assembly.constant_blocks_s": "assembly.constant_blocks",
}


def layer_metrics(spans) -> dict:
    """Per-layer figures ``{name: (value, unit)}`` from a traced run's
    spans; per-step figures are means over the step intervals."""
    n, total, self_s, incl_s, calls, attrs = step_accounting(spans)
    per = 1.0 / n if n else 0.0
    out = {"scheme.step_s": (total * per, "s/step")}
    for name, (span, kind) in STEP_TIME_METRICS.items():
        source = self_s if kind == "self" else incl_s
        out[name] = (source.get(span, 0.0) * per, "s/step")
    out["scheme.unattributed_s"] = (
        (total - sum(self_s.values())) * per, "s/step")

    points = sum(a["points"] for a in attrs.get("mesh.locate_many", ()))
    exits = calls.get("mesh.boundary_exit", 0)
    factors = attrs.get("saddle.factor", ())
    out["mesh.locate_many.points"] = (points * per, "count/step")
    out["mesh.boundary_exit.calls"] = (exits * per, "count/step")
    out["characteristics.clamped_frac"] = (
        exits / points if points else 0.0, "fraction")
    out["saddle.factorizations"] = (len(factors) * per, "count/step")
    out["saddle.factor_fill"] = (
        statistics.median(a["fill"] for a in factors) if factors else 0,
        "count")
    out["saddle.unknowns"] = (
        max((a["unknowns"] for a in factors), default=0), "count")

    setup = _setup_inclusive(spans)
    for name, span in SETUP_METRICS.items():
        out[name] = (setup.get(span, 0.0), "s")
    sizes = [rec[4]["bytes"] for rec in spans
             if rec[0] == "vtkio.snapshot" and rec[4]]
    out["vtkio.bytes"] = (statistics.median(sizes) if sizes else 0, "bytes")
    return out


def accounting_table(spans) -> list[str]:
    """Human-readable split of the mean step interval by span self time."""
    n, total, self_s, _, calls, _ = step_accounting(spans)
    if not n:
        return ["no step intervals traced"]
    lines = [f"step accounting over {n} general steps, mean "
             f"{total / n:.4f} s/step (self time per step, share):"]
    rows = sorted(self_s.items(), key=lambda kv: -kv[1])
    rows.append(("(unattributed)", total - sum(self_s.values())))
    for name, value in rows:
        lines.append(f"  {name:<34} {value / n:10.5f} s  "
                     f"{100.0 * value / total:6.2f}%  "
                     f"calls/step {calls.get(name, 0) / n:8.1f}")
    return lines
