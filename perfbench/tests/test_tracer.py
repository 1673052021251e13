"""Every hook resolves against the program; tracing never breaks a run."""

import numpy as np
import pytest
import scipy.sparse as sparse

import tracer
from porousflow import saddle


@pytest.mark.parametrize("hook", tracer.HOOKS, ids=lambda h: h.target)
def test_hook_resolves(hook):
    tracer.resolve(hook.target)


def test_absent_hook_is_reported_and_originals_restored():
    hooks = tracer.HOOKS + (tracer.Hook("gone", "porousflow.saddle:NoSuch"),
                            tracer.Hook("gone", "porousflow.nosuch:f"))
    before = {h.target: tracer.resolve(h.target)[2] for h in tracer.HOOKS}
    t = tracer.Tracer()
    with t.installed(hooks) as absent:
        assert len(absent) == 2
        assert tracer.resolve("porousflow.saddle:splu")[2] \
            is not before["porousflow.saddle:splu"]
    after = {h.target: tracer.resolve(h.target)[2] for h in tracer.HOOKS}
    assert after == before


def test_traced_factorization_records_fill_and_solve():
    a = sparse.random(40, 40, density=0.1, random_state=3) \
        + 4 * sparse.eye(40)
    t = tracer.Tracer()
    with t.installed():
        lu = saddle.splu(sparse.csc_matrix(a))
        x = lu.solve(np.ones(40))
    assert np.allclose(a @ x, 1.0)
    names = [rec[0] for rec in t.spans]
    assert names == ["saddle.factor", "saddle.lu_solve"]
    assert t.spans[0][4] == {"unknowns": 40, "fill": lu.nnz}


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_accounting_adds_up_to_the_step_interval():
    step = {"unknowns": 10}
    spans = [
        _span("bench.rep", 0.0, 10.0, -1),
        _span("scheme.initial_step", 0.0, 1.0, 0, {**step, "k": 1}),
        _span("scheme.general_step", 1.5, 3.0, 0, {**step, "k": 2}),
        _span("saddle.solve", 1.6, 2.6, 2),
        _span("saddle.factor", 1.7, 2.4, 3, {"unknowns": 11, "fill": 7}),
        _span("fem.norm", 3.1, 3.3, 0),
        _span("scheme.general_step", 4.0, 5.0, 0, {**step, "k": 3}),
    ]
    n, total, self_s, incl_s, calls, _ = tracer.step_accounting(spans)
    assert (n, total) == (1, 2.5)     # only k=2 is followed by k=3
    assert self_s == pytest.approx({"scheme.general_step": 0.5,
                                    "saddle.solve": 0.3,
                                    "saddle.factor": 0.7, "fem.norm": 0.2})
    metrics = tracer.layer_metrics(spans)
    assert metrics["scheme.unattributed_s"][0] == pytest.approx(0.8)
    assert metrics["saddle.solve_s"][0] == pytest.approx(1.0)
    assert metrics["saddle.eliminate_s"][0] == pytest.approx(0.3)
    assert metrics["saddle.factor_fill"][0] == 7


def test_unreadable_counts_do_not_fail_the_call():
    def broken_after(tracer_, args, result):
        raise IndexError("signature changed")

    t = tracer.Tracer()
    traced = t.wrap("x", lambda a: a + 1, broken_after)
    assert traced(1) == 2
    assert t.unreadable == {"x"} and t.spans[0][4] is None
