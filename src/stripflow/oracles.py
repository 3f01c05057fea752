"""Independent reference integrators for the per-mode linear systems.

These deliberately avoid the closed-form eigenvalue route: each mode of
the (omega, theta) pair, or of the unforced damped-wave equation theta
obeys, is integrated as a stiff complex ODE with scipy's adaptive BDF
(zvode) at tight tolerance.  Used by the oracle-suite experiment and the
test suite to certify the propagator formulas.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import ode

#: Comparison floor: modes whose solution has decayed below this fraction
#: of the initial scale are compared absolutely (the reference integrator
#: cannot resolve relative accuracy below its own atol there).
DEAD_SCALE = 1e-6

_RTOL = 1e-12
_ATOL = 1e-16


def pair_reference(xi, k, nu, y0, times):
    """Integrate d/dt (w, th) = A (w, th) adaptively; values at ``times``.

    Returns an array of shape (len(times), 2), complex.
    """
    p = xi * xi + (math.pi * k) ** 2
    A = np.array([[-nu * p, 1j * xi], [1j * xi / p, 0.0]], dtype=complex)
    return _integrate_linear(A, np.asarray(y0, dtype=complex), times)


def damped_wave_reference(xi, k, nu, phi0, phi1, times):
    """Adaptive integration of phi'' + nu p phi' + (xi^2/p) phi = 0.

    Returns:
        array (len(times), 2) of (phi, dphi/dt), complex.
    """
    p = xi * xi + (math.pi * k) ** 2
    A = np.array([[0.0, 1.0], [-(xi * xi) / p, -nu * p]], dtype=complex)
    return _integrate_linear(A, np.array([phi0, phi1], dtype=complex), times)


def _integrate_linear(A, y0, times):
    r = ode(lambda t, y: A @ y, lambda t, y: A)
    r.set_integrator("zvode", method="bdf", rtol=_RTOL, atol=_ATOL, nsteps=10_000_000)
    r.set_initial_value(y0.copy(), 0.0)
    out = np.empty((len(times), len(y0)), dtype=complex)
    for i, t in enumerate(times):
        if t == 0.0:
            out[i] = y0
            continue
        out[i] = r.integrate(t)
        if not r.successful():
            raise RuntimeError(f"reference integration failed at t={t}")
    return out


def relative_gap(a, b, scale0):
    """||a - b|| over max(||a||, ||b||, DEAD_SCALE * scale0).

    The floor makes the comparison absolute once both solutions have
    decayed to the reference integrator's noise level.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    num = float(np.linalg.norm(a - b))
    den = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), DEAD_SCALE * scale0)
    return num / den
