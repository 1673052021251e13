"""Symbolic derivation of the manufactured solution and the generator of
``src/porousflow/_mms_generated.py``.

The stream-function flow ``psi = sin^3 x sin^3 y e^{-2t}``, the pressure
``sin x sin y e^{-2t}`` and the ``mms-sine`` porosity ``(2 + sin(2y/5))/3``
with the default physical parameters give the velocity, its gradient, the
pressure and the forcing that makes them an exact solution.  sympy prints
each stacked set of expressions, its common subexpressions computed once, as
a numpy function of ``(x, y, t)``, and those functions make up the generated
module, so the program needs no sympy at run time.

Rewrite the module after changing the derivation or the defaults of
:class:`porousflow.porous.PhysicalParams`::

    PYTHONPATH=src python tests/mms_derivation.py

The test suite compares the committed functions against a per-expression
evaluation of :func:`derive`, so a module that drifted fails it.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import sympy as sp

from porousflow.porous import PhysicalParams

MODULE = Path(__file__).resolve().parents[1] / "src" / "porousflow" \
    / "_mms_generated.py"

HEADER = '''"""The manufactured solution as numpy functions of ``(x, y, t)``: the
velocity ``u`` (2), its gradient ``grad_u`` (2 x 2, row-major), the pressure
``p`` and the forcing ``f`` (2), each returning a list of its components.

Generated by ``tests/mms_derivation.py`` from the symbolic derivation with
the default physical parameters; do not edit.  Rewrite it with::

    PYTHONPATH=src python tests/mms_derivation.py
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


def generate() -> str:
    """The source of the generated module."""
    args, stacks = derive()
    names: set[str] = set()
    bodies = []
    for name, exprs, _ in stacks:
        fn = sp.lambdify(args, exprs, modules="numpy", cse=True)
        unknown = [n for n in fn.__code__.co_names if not hasattr(np, n)]
        if unknown:
            raise RuntimeError(f"{name} calls {unknown}, not numpy names")
        names.update(fn.__code__.co_names)
        source = inspect.getsource(fn)
        bodies.append(source.replace("def _lambdifygenerated(",
                                     f"def {name}(", 1).rstrip() + "\n")
    imports = f"from numpy import {', '.join(sorted(names))}\n"
    return HEADER + "\n" + imports + "".join("\n\n" + b for b in bodies)


if __name__ == "__main__":
    MODULE.write_text(generate())
    print(f"wrote {MODULE}")
