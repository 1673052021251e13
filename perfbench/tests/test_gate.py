"""The correctness gate accepts the recorded results and rejects changes."""

import copy
import math

import pytest

import gate

WORKLOADS = ("two-layer-60", "mms-eoc")


def _as_fingerprint(reference):
    """What a repetition reproducing the reference exactly would report."""
    steps = copy.deepcopy(reference["steps"])
    n = len(steps["velocity_l2"])
    steps["algebraic_residual"] = [1e-15] * n
    steps["incompressibility_residual"] = [1e-14] * n
    out = {"steps": steps,
           "startups": {key: values[:1] * 2 for key, values in steps.items()}}
    if "eoc" in reference:
        out["eoc"] = copy.deepcopy(reference["eoc"])
    return out


@pytest.fixture(params=WORKLOADS)
def reference(request):
    return gate.load_reference(request.param)


def test_reference_passes(reference):
    attempted, failed, problems = gate.check(_as_fingerprint(reference),
                                             reference)
    assert attempted == (len(reference["steps"]["velocity_l2"])
                         + len(reference.get("eoc", {})) + 2)
    assert (failed, problems) == (0, [])


def test_solver_level_deviation_passes(reference):
    fp = _as_fingerprint(reference)
    fp["steps"]["velocity_l2"] = [v * (1 + 1e-12)
                                  for v in fp["steps"]["velocity_l2"]]
    fp["steps"]["algebraic_residual"] = [1e-13] * len(
        fp["steps"]["algebraic_residual"])
    assert gate.check(fp, reference)[1] == 0


@pytest.mark.parametrize("key", ["velocity_l2", "pressure_l2"])
def test_perturbed_reference_fails(reference, key):
    perturbed = copy.deepcopy(reference)
    perturbed["steps"][key][-1] *= 1 + 1e-6
    _, failed, problems = gate.check(_as_fingerprint(reference), perturbed)
    assert failed == 1
    assert key in problems[0]


def test_perturbed_startup_run_fails(reference):
    fp = _as_fingerprint(reference)
    fp["startups"]["pressure_l2"][1] *= 1 + 1e-6
    _, failed, problems = gate.check(fp, reference)
    assert failed == 1
    assert problems[0].startswith("start-up run 2: pressure_l2")


def test_clamped_count_change_fails(reference):
    perturbed = copy.deepcopy(reference)
    perturbed["steps"]["clamped_feet"][-1] += 1
    assert gate.check(_as_fingerprint(reference), perturbed)[1] == 1


def test_perturbed_eoc_reference_fails():
    reference = gate.load_reference("mms-eoc")
    for key in gate.EOC_VALUES:
        perturbed = copy.deepcopy(reference)
        perturbed["eoc"]["32"][key] *= 1 + 1e-6
        _, failed, problems = gate.check(_as_fingerprint(reference), perturbed)
        assert failed == 1 and problems[0].startswith("N=32")


def test_eoc_figures_match_the_seed():
    eoc = gate.load_reference("mms-eoc")["eoc"]["32"]
    assert round(eoc["er1"], 5) == 0.18837
    assert round(eoc["er2"], 5) == 0.39023


@pytest.mark.parametrize("key,value", [
    ("velocity_l2", math.nan),
    ("algebraic_residual", 2 * gate.SOLVER_RESIDUAL_BOUND),
    ("algebraic_residual", math.inf),
    ("incompressibility_residual", math.nan),
])
def test_bad_step_values_fail(key, value):
    reference = gate.load_reference("two-layer-60")
    fp = _as_fingerprint(reference)
    fp["steps"][key][3] = value
    _, failed, problems = gate.check(fp, reference)
    assert failed == 1 and problems[0].startswith("step 4")


def test_missing_and_extra_steps_fail():
    reference = gate.load_reference("two-layer-60")
    n = len(reference["steps"]["velocity_l2"])
    fp = _as_fingerprint(reference)
    for values in fp["steps"].values():
        del values[-2:]
    assert gate.check(fp, reference)[1] == 2
    fp = _as_fingerprint(reference)
    for values in fp["steps"].values():
        values.append(values[-1])
    assert gate.check(fp, reference)[1] == 1
    assert gate.check(None, reference)[:2] == (n, n)
