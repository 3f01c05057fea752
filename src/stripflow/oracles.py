"""Independent reference integrators for the per-mode linear systems.

These deliberately avoid the closed-form eigenvalue route: each mode of
the (omega, theta) pair, or of the unforced damped-wave equation theta
obeys, is integrated as a complex ODE with scipy's adaptive zvode at
tight tolerance.  Used by the oracle-suite experiment and the test suite
to certify the propagator formulas.

The method is chosen per mode by stiffness, read from A and the times
alone: |trace A| max(times) < STIFF_HORIZON takes Adams (rtol 1e-13,
atol 1e-18), anything stiffer takes BDF (rtol 1e-12, atol 1e-16).  BDF
loses accuracy on weakly damped oscillatory modes, where Adams does not;
Adams on a stiff mode needs many more steps than BDF.

scipy.integrate is imported on the first integration, so importing the
package, the CLI or the solver does not load it.
"""

from __future__ import annotations

import math

import numpy as np

#: Comparison floor: modes whose solution has decayed below this fraction
#: of the initial scale are compared absolutely (the reference integrator
#: cannot resolve relative accuracy below its own atol there).
DEAD_SCALE = 1e-6

#: |trace A| max(times) below which a mode is integrated by Adams, not BDF.
STIFF_HORIZON = 1e3

_ADAMS = {"method": "adams", "rtol": 1e-13, "atol": 1e-18}
_BDF = {"method": "bdf", "rtol": 1e-12, "atol": 1e-16}


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
    from scipy.integrate import ode

    stiff = abs(np.trace(A)) * max(times) >= STIFF_HORIZON
    buf = np.empty_like(y0)
    r = ode(lambda t, y: np.dot(A, y, out=buf), lambda t, y: A)
    r.set_integrator("zvode", nsteps=10_000_000, **(_BDF if stiff else _ADAMS))
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
    """||a - b|| over max(||a||, ||b||, DEAD_SCALE * scale0), along the last axis.

    The floor makes the comparison absolute once both solutions have
    decayed to the reference integrator's noise level.  Stacked rows
    give one gap per row; a single vector gives a scalar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    num = np.linalg.norm(a - b, axis=-1)
    den = np.maximum(
        np.maximum(np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)),
        DEAD_SCALE * scale0,
    )
    return num / den
