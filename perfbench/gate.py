"""Correctness gate: compare a repetition's fingerprint with the reference.

A reference (``reference/<workload>.json``) holds what the program computed
when the benchmark was defined: per-step velocity and pressure L2 norms and
clamped-feet counts, and for the convergence study the Er1/Er2/final-time
relative errors per resolution.  The gate counts one check per reference
step, one per reference resolution and one per start-up-only run, which is
compared with the reference's first step; a check fails on a missing value, a
non-finite value, a value off the reference, or a solve residual above the
solver's own acceptance bound.

Deviations and residuals are pass/fail here and never reported as metrics: a
change of linear solver legitimately moves them by orders of magnitude while
they stay far inside the tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A solve that matches the direct solve to ~1e-12 relative moves the step
# norms by about that much per step; over the at most 16 steps this stays three
# orders of magnitude inside RTOL, while any change of the discretization
# moves them by far more.
RTOL = 1e-9
# saddle.SaddleSystem.solve rejects a direct solve whose relative residual
# exceeds this; a replacement solver must stay inside the same bound.
SOLVER_RESIDUAL_BOUND = 1e-6

STEP_NORMS = ("velocity_l2", "pressure_l2")
EOC_VALUES = ("er1", "er2", "final_rel1", "final_rel2")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= RTOL * abs(want))


def _step_problem(steps: dict, ref: dict, i: int) -> str | None:
    n_got = len(steps.get("velocity_l2", ()))
    if i >= n_got:
        return "step missing"
    for key in STEP_NORMS:
        if not _close(steps[key][i], ref[key][i]):
            return f"{key} {steps[key][i]!r} != reference {ref[key][i]!r}"
    if steps["clamped_feet"][i] != ref["clamped_feet"][i]:
        return (f"clamped_feet {steps['clamped_feet'][i]} != reference "
                f"{ref['clamped_feet'][i]}")
    resid = steps["algebraic_residual"][i]
    if not (math.isfinite(resid) and resid <= SOLVER_RESIDUAL_BOUND):
        return f"solve residual {resid!r} above {SOLVER_RESIDUAL_BOUND}"
    if not math.isfinite(steps["incompressibility_residual"][i]):
        return "non-finite incompressibility residual"
    return None


def _level_problem(got: dict | None, want: dict) -> str | None:
    if got is None:
        return "level missing"
    for key in EOC_VALUES:
        if not _close(got.get(key), want[key]):
            return f"{key} {got.get(key)!r} != reference {want[key]!r}"
    return None


def check(fingerprint: dict | None, reference: dict):
    """Return ``(attempted, failed, problems)`` for one repetition.

    ``fingerprint`` is ``None`` when the repetition raised; every check then
    counts as failed.
    """
    fingerprint = fingerprint or {}
    steps = fingerprint.get("steps", {})
    eoc = fingerprint.get("eoc", {})
    ref_steps = reference["steps"]
    ref_eoc = reference.get("eoc", {})
    n_steps = len(ref_steps["velocity_l2"])
    problems = [f"step {i + 1}: {p}" for i in range(n_steps)
                if (p := _step_problem(steps, ref_steps, i))]
    problems += [f"N={n}: {p}" for n, want in ref_eoc.items()
                 if (p := _level_problem(eoc.get(n), want))]
    starts = fingerprint.get("startups", {})
    first = {key: values[:1] for key, values in ref_steps.items()}
    n_starts = len(starts.get("velocity_l2", ()))
    for j in range(n_starts):
        one = {key: values[j:j + 1] for key, values in starts.items()}
        if p := _step_problem(one, first, 0):
            problems.append(f"start-up run {j + 1}: {p}")
    attempted = n_steps + len(ref_eoc) + n_starts
    failed = len(problems)
    if len(steps.get("velocity_l2", ())) > n_steps:
        problems.append("more steps than the reference")
        failed = max(failed, 1)
    return attempted, failed, problems
