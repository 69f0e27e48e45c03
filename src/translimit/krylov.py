"""Unrestarted GMRES for the Krylov steps of the transport iteration.

The transport solve runs GMRES on its DSA-preconditioned step; nothing here
depends on transport, so any affine fixed point on an array of unknowns can
use it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import ValidationError


# rows by which the GMRES basis grows; a DSA-preconditioned solve takes
# 10-25 Krylov steps
_BASIS_ROWS = 8
# the smallest normal double; scale * y rounds below it
_TINY = float(np.finfo(float).tiny)


def _gmres(matvec, b, rtol, max_steps, residuals):
    """Unrestarted GMRES from zero for matvec(x) = b; returns the iterate.

    Arnoldi builds an orthonormal Krylov basis, held as the rows of one
    array that grows by _BASIS_ROWS rows when full.  Each new vector is
    orthogonalised by classical Gram-Schmidt applied twice (CGS2): per pass
    one product with the basis for the coefficients and one to subtract
    them.  That keeps the basis orthogonal to working precision, as modified
    Gram-Schmidt does, in BLAS calls instead of a loop over the basis.
    Givens rotations keep the Hessenberg matrix triangular, so the relative
    residual |b - matvec(x_k)| / |b| of step k's minimizer is known without
    forming x_k.  That residual is appended to residuals after each step,
    one entry per matvec.  The iteration stops once the residual is <= rtol
    or not finite, after max_steps steps, or on a breakdown, where the
    Krylov space is invariant and the iterate exact.  The iterate is one
    product of the triangular solve's coefficients with the basis.  b is
    any array; matvec maps that shape to it.  A zero b gives zeros without a
    matvec; a nonzero b whose largest magnitude is subnormal raises
    ValidationError, since the iterate scaled back to it would round away.
    """
    # solve for b / max|b|, whose norm neither underflows nor overflows
    scale = float(np.max(np.abs(b), initial=0.0))
    if 0.0 < scale < _TINY:
        raise ValidationError(
            f"GMRES right-hand side max |b| = {scale:.3e} is below the "
            f"smallest normal double {_TINY:.3e}")
    if not (scale > 0.0 and np.isfinite(scale)) or max_steps < 1:
        return np.zeros_like(b)
    flat = b.reshape(-1) / scale
    beta = math.sqrt(flat.dot(flat))
    basis = np.empty((min(max_steps, _BASIS_ROWS), flat.size))
    np.divide(flat, beta, out=basis[0])
    columns = []
    rotations = []
    g = [beta]
    for k in range(max_steps):
        v = matvec(basis[k].reshape(b.shape)).reshape(-1)
        q = basis[:k + 1]
        coefs = np.dot(q, v)
        v -= np.dot(coefs, q)
        again = np.dot(q, v)
        v -= np.dot(again, q)
        col = (coefs + again).tolist()
        h_next = math.sqrt(v.dot(v))
        col.append(h_next)
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  c * col[i + 1] - s * col[i])
        rho = float(np.hypot(col[k], col[k + 1]))
        if not (rho > 0.0 and np.isfinite(rho)):
            # matvec singular on the Krylov space, or not finite: no progress
            residuals.append(abs(g[k]) / beta)
            break
        c, s = col[k] / rho, col[k + 1] / rho
        rotations.append((c, s))
        col[k] = rho
        columns.append(col[:k + 1])
        g.append(-s * g[k])
        g[k] *= c
        residuals.append(abs(g[k + 1]) / beta)
        if not residuals[-1] > rtol or h_next == 0.0 or k + 1 == max_steps:
            break
        if k + 1 == basis.shape[0]:
            grown = np.empty((min(k + 1 + _BASIS_ROWS, max_steps), flat.size))
            grown[:k + 1] = basis
            basis = grown
        np.divide(v, h_next, out=basis[k + 1])
    steps = len(columns)
    if steps == 0:
        return np.zeros_like(b)
    r = np.zeros((steps, steps))
    for j, col in enumerate(columns):
        r[:j + 1, j] = col
    y = _solve_upper(r, np.array(g[:steps]))
    return (scale * np.dot(y, basis[:steps])).reshape(b.shape)


def _solve_upper(r, rhs):
    """Solve r y = rhs for a C-order upper-triangular r.

    One dtrtrs on r.T, the Fortran-order lower triangle, with trans set:
    the LAPACK call scipy.linalg.solve_triangular(r, rhs) makes, so y has
    the same bits, without that function's checks and dispatch.
    """
    y, info = dtrtrs(r.T, rhs, lower=1, trans=1)
    if info != 0:
        raise ValidationError(f"GMRES triangular solve failed (dtrtrs info {info})")
    return y
