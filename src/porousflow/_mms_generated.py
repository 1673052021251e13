"""The manufactured solution's spatial factors as numpy functions of ``(x,
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

from numpy import cos, sin, sqrt


def u(x, y):
    x0 = sin(x)
    x1 = sin(y)
    return [(1, [-3*x0**3*x1**2*cos(y), 3*x0**2*x1**3*cos(x)],)]


def grad_u(x, y):
    x0 = cos(x)
    x1 = cos(y)
    x2 = sin(x)
    x3 = sin(y)
    x4 = 9*x0*x1*x2**2*x3**2
    x5 = x2**3
    x6 = x3**3
    x7 = 3*x5*x6
    return [(1, [-x4, -6*x1**2*x3*x5 + x7, 6*x0**2*x2*x6 - x7, x4],)]


def p(x, y):
    return [(1, [sin(x)*sin(y)],)]


def f(x, y):
    x0 = sin(y)
    x1 = cos(x)
    x2 = x0*x1
    x3 = sin(x)
    x4 = x3**3
    x5 = cos(y)
    x6 = x0**2
    x7 = x4*x5*x6
    x8 = x1**2
    x9 = x6*x8
    x10 = (2/5)*y
    x11 = sin(x10)
    x12 = (1/3)*x11
    x13 = (1/3 - x12)**2
    x14 = (x12 + 2/3)**(-2.0)
    x15 = x0**3
    x16 = x3**2
    x17 = x5**2
    x18 = x16*x17
    x19 = (x11 + 2)**(-1.0)
    x20 = 2*x0*x19*cos(x10)
    x21 = 9403.695*x19*(x11 - 1)*sqrt(x18 + x9)
    x22 = (1/10)*x19
    return [(1, [-1600.2*x13*x14*x7 + x2 + 0.16002*x3*x5*x9 + 0.05334*x4*x5**3 + 5.7039*x7, -0.05334*x1**3*x15 + 1600.2*x1*x13*x14*x15*x16 - 5.7039*x1*x15*x16 - 0.16002*x18*x2 + x3*x5],), (2, [x0**4*x22*x3**5*(806.031*x1*x17 + 53.7354*x1*(-10*x17 + x20*x5 + 5*x6) + x21*x5), x0**5*x22*x3**4*(-x1*x21 + 268.677*x5*(x16 - 2*x8) + 53.7354*x8*(-x20 + 15*x5))],)]
