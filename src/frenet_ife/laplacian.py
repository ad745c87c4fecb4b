"""Pullback of the Laplacian to tubular coordinates.

For u_hat(eta, xi) = u(P(eta, xi)) the physical Laplacian transforms to

    L(u_hat) = u_hat_etaeta + a u_hat_eta + b u_hat_xixi + c u_hat_xi,

with J = s(xi)(1 + eta*kappa(xi)) the metric factor and

    a = s*kappa / J,   b = 1 / J^2,   c = -J_xi / J^3,
    J_xi = s'(1 + eta*kappa) + s*eta*kappa'.

The local space construction needs eta-derivatives of these coefficients at
eta = 0; they are produced by truncated power-series arithmetic, exact to
roundoff.
"""

from __future__ import annotations

import numpy as np

from .curves import frenet_frame
from .frenet import FrenetChart


def _series_mul(A, B):
    """Cauchy product of truncated eta-series, coefficients shaped (n_terms, ...)."""
    n = A.shape[0]
    out = np.zeros_like(A)
    for k in range(n):
        for i in range(k + 1):
            out[k] += A[i] * B[k - i]
    return out


def _series_reciprocal(A):
    """Truncated series of 1/A; requires A[0] != 0."""
    n = A.shape[0]
    out = np.zeros_like(A)
    out[0] = 1.0 / A[0]
    for k in range(1, n):
        acc = np.zeros_like(A[0])
        for i in range(1, k + 1):
            acc = acc + A[i] * out[k - i]
        out[k] = -acc / A[0]
    return out


class FrenetLaplacian:
    """Eta-jets of the tubular-coordinate Laplacian's coefficients."""

    def __init__(self, chart: FrenetChart):
        self.curve = chart.curve

    # -- pointwise curve data ------------------------------------------------
    def curve_data(self, xi):
        """(s, kappa, s', kappa') at parameter(s) xi."""
        xi = np.asarray(xi, dtype=float)
        v = self.curve.velocity(xi)
        acc = self.curve.accel(xi)
        jrk = self.curve.jerk(xi)
        _, _, kappa, s = frenet_frame(v, acc)
        det_vj = v[..., 0] * jrk[..., 1] - v[..., 1] * jrk[..., 0]
        sp = np.einsum("...i,...i->...", v, acc) / s
        kappa_p = det_vj / s**3 - 3.0 * kappa * sp / s
        return s, kappa, sp, kappa_p

    def coefficient_jets(self, xi, order: int):
        """eta-series coefficients of (a, b, c) at eta = 0, up to eta^order.

        Returns three arrays shaped (order+1, len(xi)): entry [k] is the
        coefficient of eta^k (the k-th derivative divided by k!).
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        n = order + 1
        s, kappa, sp, kappa_p = self.curve_data(xi)
        J = np.zeros((n, len(xi)))
        J[0] = s
        if n > 1:
            J[1] = s * kappa
        J_xi = np.zeros_like(J)
        J_xi[0] = sp
        if n > 1:
            J_xi[1] = sp * kappa + s * kappa_p
        inv = _series_reciprocal(J)
        inv2 = _series_mul(inv, inv)
        a = (s * kappa) * inv
        b = inv2
        c = -_series_mul(J_xi, _series_mul(inv2, inv))
        return a, b, c
