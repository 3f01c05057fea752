"""Independent reference integrators for the per-mode linear systems.

These deliberately avoid the closed-form eigenvalue route: each mode of
the (omega, theta) pair, or of the unforced damped-wave equation theta
obeys, is integrated as a complex ODE with scipy's adaptive zvode at
tight tolerance.  Used by the oracle-suite experiment and the test suite
to certify the propagator formulas.

The method is chosen per mode by stiffness, read from A and the times
alone: |trace A| max(times) < STIFF_HORIZON takes Adams (rtol 1e-13,
atol 1e-18 per mode), anything stiffer takes BDF (rtol 1e-12, atol 1e-16
per mode).  BDF loses accuracy on weakly damped oscillatory modes, where
Adams does not; Adams on a stiff mode needs many more steps than BDF.

A call takes a batch of modes and integrates each method's modes as one
block-diagonal zvode system with a tridiagonal banded Jacobian, so zvode
calls back into Python once per evaluation of the whole batch, not once
per mode.  zvode's error test is a weighted RMS over all 2n components of
the system, so a batch of n modes at the per-mode tolerances would let
one mode's error grow by a factor sqrt(n).  Both tolerances are divided
by sqrt(n) of the method's batch: each mode's bound is then no looser
than when it is integrated alone, and a batch of one runs at the
per-mode tolerances.  The two methods' batches never share a system, so
a mode's values do not depend on the modes of the other class.

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

    ``y0`` is one mode's (w, th) or an (n, 2) array of n modes; ``xi``,
    ``k`` and ``nu`` broadcast against its rows.  Returns an array of
    shape (len(times), 2), complex, for one mode and (n, len(times), 2)
    for n.
    """
    p = xi * xi + (math.pi * k) ** 2
    return _integrate_linear(-nu * p, 1j * xi, 1j * xi / p, 0.0, y0, times)


def damped_wave_reference(xi, k, nu, phi0, phi1, times):
    """Adaptive integration of phi'' + nu p phi' + (xi^2/p) phi = 0.

    Takes one mode's scalars or n modes' arrays, as pair_reference.

    Returns:
        array (len(times), 2) of (phi, dphi/dt), complex; (n, len(times), 2)
        for n modes.
    """
    p = xi * xi + (math.pi * k) ** 2
    y0 = np.stack([phi0, phi1], axis=-1)
    return _integrate_linear(0.0, 1.0, -(xi * xi) / p, -nu * p, y0, times)


def _integrate_linear(a11, a12, a21, a22, y0, times):
    """y' = A y per mode from y0 at t = 0, A = [[a11, a12], [a21, a22]].

    One block-diagonal zvode system per method, on the interleaved state
    (y_0[0], y_0[1], y_1[0], y_1[1], ...), whose Jacobian is tridiagonal.
    """
    from scipy.integrate import ode

    y0 = np.asarray(y0, dtype=complex)
    a11, a12, a21, a22 = (np.ravel(a).astype(complex) for a in
                          np.broadcast_arrays(a11, a12, a21, a22, y0[..., 0])[:4])
    modes0 = y0.reshape(-1, 2)
    out = np.empty((len(modes0), len(times), 2), dtype=complex)
    stiff = np.abs(a11 + a22) * max(times) >= STIFF_HORIZON
    for method, rows in ((_ADAMS, ~stiff), (_BDF, stiff)):
        n = int(rows.sum())
        if n == 0:
            continue
        # packed tridiagonal Jacobian: band[1 + i - j, j] = A[i, j]
        band = np.zeros((3, 2 * n), dtype=complex)
        band[0, 1::2] = a12[rows]
        band[1, 0::2] = a11[rows]
        band[1, 1::2] = a22[rows]
        band[2, 0::2] = a21[rows]
        up, diag, low = band[0, 1:], band[1], band[2, :-1]
        f = np.empty(2 * n, dtype=complex)
        tmp = np.empty(2 * n - 1, dtype=complex)

        def rhs(t, y):
            np.multiply(diag, y, out=f)
            f[:-1] += np.multiply(up, y[1:], out=tmp)
            f[1:] += np.multiply(low, y[:-1], out=tmp)
            return f

        # zvode's error test is an RMS over all 2n components: dividing by
        # sqrt(n) keeps each mode's own bound (module docstring)
        rtol, atol = method["rtol"] / math.sqrt(n), method["atol"] / math.sqrt(n)
        r = ode(rhs, lambda t, y: band)
        r.set_integrator("zvode", method=method["method"], rtol=rtol, atol=atol,
                         lband=1, uband=1, nsteps=10_000_000)
        r.set_initial_value(modes0[rows].ravel(), 0.0)
        for i, t in enumerate(times):
            if t == 0.0:
                out[rows, i] = modes0[rows]
                continue
            y = r.integrate(t)
            if not r.successful():
                raise RuntimeError(
                    f"reference integration failed at t={t}: {method['method']} on "
                    f"{n} modes at rtol {rtol:.2e}, zvode return code "
                    f"{r.get_return_code()}")
            out[rows, i] = y.reshape(n, 2)
    return out[0] if y0.ndim == 1 else out


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
