"""The manufactured solution as numpy functions of ``(x, y, t)``: the
velocity ``u`` (2), its gradient ``grad_u`` (2 x 2, row-major), the pressure
``p`` and the forcing ``f`` (2), each returning a list of its components.

Generated by ``tests/mms_derivation.py`` from the symbolic derivation with
the default physical parameters; do not edit.  Rewrite it with::

    PYTHONPATH=src python tests/mms_derivation.py
"""

from numpy import cos, exp, sin, sqrt


def u(x, y, t):
    x0 = sin(x)
    x1 = sin(y)
    x2 = 3*exp(-2*t)
    return [-x0**3*x1**2*x2*cos(y), x0**2*x1**3*x2*cos(x)]


def grad_u(x, y, t):
    x0 = cos(x)
    x1 = cos(y)
    x2 = exp(-2*t)
    x3 = sin(x)
    x4 = sin(y)
    x5 = 9*x0*x1*x2*x3**2*x4**2
    x6 = x4**3
    x7 = x2*x3**3
    x8 = 3*x6*x7
    return [-x5, -6*x1**2*x4*x7 + x8, 6*x0**2*x2*x3*x6 - x8, x5]


def p(x, y, t):
    return [exp(-2*t)*sin(x)*sin(y)]


def f(x, y, t):
    x0 = sin(y)
    x1 = cos(x)
    x2 = exp(-2*t)
    x3 = x1*x2
    x4 = x0*x3
    x5 = cos(y)
    x6 = sin(x)
    x7 = x6**3
    x8 = 0.05334*x2
    x9 = x0**2
    x10 = x2*x5
    x11 = x10*x7*x9
    x12 = x1**2
    x13 = x10*x6
    x14 = (2/5)*y
    x15 = sin(x14)
    x16 = (1/3)*x15
    x17 = x16 + 2/3
    x18 = x17**(-1.0)
    x19 = exp(-4*t)
    x20 = x5**2
    x21 = x0**4*x20
    x22 = x17**(-2.0)
    x23 = x11*x22
    x24 = 1600.2*(1/3 - x16)**2
    x25 = 9*x19
    x26 = 59.706*(0.583333333333333 - 0.583333333333333*x15)*sqrt(x0**6*x12*x25*x6**4 + x21*x25*x6**6)
    x27 = x0**3
    x28 = x18*x2*x7
    x29 = 3*x27*x28
    x30 = (2/5)*cos(x14)
    x31 = x6**2
    x32 = x3*x31
    x33 = x27*x32
    x34 = 2.9853*x33
    x35 = x22*x33
    return [26.8677*x1*x18*x19*x21*x6**5 + 5.7039*x11 + 0.16002*x12*x13*x9 - x23*x24 - x23*x26 + x34*(-6*x0*x20*x28 + x23*x30 + x29) + x4 + x5**3*x7*x8, -x1**3*x27*x8 - 2.9853*x11*(6*x12*x18*x2*x27*x6 - x29) + x13 - 0.16002*x20*x31*x4 + x24*x35 + x26*x35 - 5.7039*x33 + x34*(9*x18*x32*x5*x9 - x30*x35)]
