"""Symbolic derivation of the manufactured solution and the generator of
``src/porousflow/_mms_generated.py``.

The stream-function flow ``psi = sin^3 x sin^3 y e^{-2t}``, the pressure
``sin x sin y e^{-2t}`` and the ``mms-sine`` porosity ``(2 + sin(2y/5))/3``
with the default physical parameters give the velocity, its gradient, the
pressure and the forcing that makes them an exact solution.  Each of them is
a polynomial in ``E = e^{-2t}`` whose coefficients are functions of ``(x,
y)`` alone: ``E`` times a spatial factor for the velocity, its gradient and
the pressure, and ``E F1 + E^2 F2`` for the forcing, whose convection and
Forchheimer speed ``sqrt(E^2 |U|^2) = E |U|`` carry the square.  The
generator separates every expression that way, refuses one that does not
separate, and sympy prints each quantity's coefficients, their common
subexpressions computed once, as a numpy function of ``(x, y)``.  Those
functions make up the generated module, so the program needs no sympy at
run time.

Rewrite the module after changing the derivation or the defaults of
:class:`porousflow.porous.PhysicalParams`::

    PYTHONPATH=src python tests/mms_derivation.py

and check, writing nothing, that the committed module is what the generator
writes (exit status 1 and a diff when it is not)::

    PYTHONPATH=src python tests/mms_derivation.py --check

The test suite compares the committed functions against a per-expression
evaluation of :func:`derive`, so a module that drifted fails it.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import sys
from pathlib import Path

import numpy as np
import sympy as sp

from porousflow.porous import PhysicalParams

MODULE = Path(__file__).resolve().parents[1] / "src" / "porousflow" \
    / "_mms_generated.py"
DIFF_LINES = 40          # lines of the diff that --check prints at most

HEADER = '''"""The manufactured solution's spatial factors as numpy functions of ``(x,
y)``.

With ``E = e^{-2t}`` every quantity is ``sum_k E^k c_k(x, y)``: the velocity
``u`` (2 components), its gradient ``grad_u`` (2 x 2, row-major) and the
pressure ``p`` (1) have only ``k = 1``, the forcing ``f`` (2) has ``k = 1``
and ``k = 2``.  Each function returns the pairs ``(k, components of c_k)``
in ascending ``k``; a component may be a constant where it does not depend
on the point.

Generated by ``tests/mms_derivation.py`` from the symbolic derivation with
the default physical parameters; do not edit.  Rewrite it, or check that it
is up to date, with::

    PYTHONPATH=src python tests/mms_derivation.py [--check]
"""
'''


def derive() -> tuple[tuple, list[tuple[str, list, tuple]]]:
    """The symbols ``(x, y, t)`` and, for ``u``, ``grad_u``, ``p`` and
    ``f`` in turn, the name, the flat list of expressions and the shape they
    stack to at one point."""
    params = PhysicalParams()

    x, y, t = sp.symbols("x y t", real=True)
    psi = sp.sin(x) ** 3 * sp.sin(y) ** 3 * sp.exp(-2 * t)
    u = sp.Matrix([-sp.diff(psi, y), sp.diff(psi, x)])
    p = sp.sin(x) * sp.sin(y) * sp.exp(-2 * t)
    phi = (2 + sp.sin(2 * y / 5)) / 3

    grad_u = sp.Matrix([[sp.diff(u[c], v) for v in (x, y)] for c in range(2)])
    w = u / phi
    conv = sp.Matrix([u[0] * sp.diff(w[c], x) + u[1] * sp.diff(w[c], y)
                      for c in range(2)])
    d_tensor = sp.Matrix([[sp.Rational(1, 2)
                           * (sp.diff(u[i], v_j) + sp.diff(u[j], v_i))
                           for j, v_j in enumerate((x, y))]
                          for i, v_i in enumerate((x, y))])
    div_stress = sp.Matrix([sum(sp.diff(2 * params.mu * d_tensor[i, j], v)
                                for j, v in enumerate((x, y)))
                            for i in range(2)])
    speed = sp.sqrt(u[0] ** 2 + u[1] ** 2)
    lin = params.a * (1 - phi) ** 2 / (params.d_p ** 2 * phi ** 2)
    quad = params.b * (1 - phi) / (params.d_p * phi ** 2)
    drag = -params.mu * lin * u - params.rho * quad * speed * u
    grad_p = sp.Matrix([sp.diff(p, x), sp.diff(p, y)])
    f = params.rho * (sp.diff(u, t) + conv) - div_stress + grad_p - drag

    return (x, y, t), [("u", list(u), (2,)),
                       ("grad_u", list(grad_u), (2, 2)),
                       ("p", [p], ()),
                       ("f", list(f), (2,))]


def separate(expr, t, decay) -> list[tuple[int, sp.Expr]]:
    """The coefficients of ``expr`` as a polynomial in ``decay = e^{-2t}``,
    as ``(power, coefficient)`` pairs in ascending power; each coefficient is
    free of ``t``.  A square root (any non-integer power) keeps its factors
    of ``decay`` outside once its base is factored, so ``sqrt(E^2 A) = E
    sqrt(A)``.  Raises ``ValueError`` for an expression that is not such a
    polynomial.

    The coefficients are the Taylor coefficients at ``decay = 0``, which keep
    the factored form of the derivation; the polynomial only validates."""
    separated = expr.subs(sp.exp(-2 * t), decay).replace(
        lambda e: e.is_Pow and not e.exp.is_integer,
        lambda e: sp.Pow(sp.factor_terms(e.base), e.exp))
    try:
        poly = sp.Poly(separated, decay)
    except sp.PolynomialError as exc:
        raise ValueError(f"not a polynomial in e^(-2t): {expr}") from exc
    if any(c.has(t) for c in poly.coeffs()):
        raise ValueError(f"a coefficient of e^(-2t) depends on t: {expr}")
    return [(k, sp.diff(separated, decay, k).subs(decay, 0) / sp.factorial(k))
            for (k,) in sorted(poly.monoms())]


def _cse_by_power(coefficients):
    """lambdify's ``cse`` for the ``(power, components)`` pairs: common
    subexpressions across every component of every power."""
    flat = [c for _, comps in coefficients for c in comps]
    replacements, reduced = sp.cse(flat)
    rows, start = [], 0
    for k, comps in coefficients:
        rows.append((k, reduced[start:start + len(comps)]))
        start += len(comps)
    return replacements, rows


def generate() -> str:
    """The source of the generated module."""
    (x, y, t), stacks = derive()
    decay = sp.Symbol("E", positive=True)
    names: set[str] = set()
    bodies = []
    for name, exprs, _ in stacks:
        terms = [dict(separate(e, t, decay)) for e in exprs]
        coefficients = [(k, [c.get(k, sp.Integer(0)) for c in terms])
                        for k in sorted(set().union(*terms))]
        fn = sp.lambdify((x, y), coefficients, modules="numpy",
                         cse=_cse_by_power)
        unknown = [n for n in fn.__code__.co_names if not hasattr(np, n)]
        if unknown:
            raise RuntimeError(f"{name} calls {unknown}, not numpy names")
        names.update(fn.__code__.co_names)
        source = inspect.getsource(fn)
        bodies.append(source.replace("def _lambdifygenerated(",
                                     f"def {name}(", 1).rstrip() + "\n")
    imports = f"from numpy import {', '.join(sorted(names))}\n"
    return HEADER + "\n" + imports + "".join("\n\n" + b for b in bodies)


def check() -> int:
    """0 when the committed module is what :func:`generate` writes, else 1
    after printing the start of a unified diff; writes nothing."""
    want, have = generate(), MODULE.read_text()
    if want == have:
        print(f"{MODULE.name} is up to date")
        return 0
    diff = list(difflib.unified_diff(
        have.splitlines(), want.splitlines(), f"{MODULE.name} (committed)",
        f"{MODULE.name} (generated)", lineterm=""))
    print("\n".join(diff[:DIFF_LINES]))
    if len(diff) > DIFF_LINES:
        print(f"... {len(diff) - DIFF_LINES} more diff lines")
    return 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the committed module with the "
                             "generated one and write nothing")
    if parser.parse_args().check:
        sys.exit(check())
    MODULE.write_text(generate())
    print(f"wrote {MODULE}")
