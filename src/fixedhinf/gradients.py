"""Gradients of closed-loop objectives with respect to controller parameters.

Both objectives (spectral abscissa, H-infinity norm) are nonsmooth: the
gradient returned is the gradient of the active branch (dominant eigenvalue,
peak singular value) chosen deterministically, valid wherever that branch is
strictly active.  A near-tie hint flags points where a competing branch is
close enough that the gradient may be one-sided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .analysis import DEFAULT_TIE_TOL, _secondary_peak_gap, hinf_norm
from .errors import EigenFailure
from .statespace import Controller, Plant, _interconnect

__all__ = [
    "Smoothness",
    "GradientReport",
    "abscissa_gradient",
    "hinf_gradient",
]

# Competing branch within this relative window flags the gradient as near-tie.
DEFAULT_NEAR_TIE_TOL = 1e-3


class Smoothness(enum.Enum):
    SMOOTH = "smooth"
    NEAR_TIE = "near-tie"


@dataclass(frozen=True, eq=False)
class GradientReport:
    """Objective value, packed gradient, and a local smoothness diagnostic.

    tie_gap is the margin to the nearest competing branch (+inf when there
    is none); the gradient is still returned when the hint is NEAR_TIE, it
    is just not trustworthy as a two-sided derivative there.
    """

    value: float
    grad: np.ndarray
    smoothness_hint: Smoothness
    tie_gap: float


def _chain_to_controller(
    k: Controller, L: np.ndarray, R: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Gradient over the packed controller of a function whose gradient over
    the closed loop's [[A, B], [C, D]] is the rank-one left right^T.

    L and R are the factors from _interconnect, or matching row slices of L
    and column slices of R when left and right vanish outside them.  The
    gradient over K = [[DK, CK], [BK, AK]] is Re((L^T left)(R right)^T),
    packed column-major in (AK, BK, CK, DK) order."""
    G = np.real(np.outer(L.T @ left, R @ right))
    nu, ny = k.nu, k.ny
    return np.concatenate(
        [
            G[nu:, ny:].ravel(order="F"),
            G[nu:, :ny].ravel(order="F"),
            G[:nu, ny:].ravel(order="F"),
            G[:nu, :ny].ravel(order="F"),
        ]
    )


def abscissa_gradient(plant: Plant, k: Controller) -> GradientReport:
    """Gradient of the closed-loop spectral abscissa at k.

    Differentiates the first eigenvalue (by solver index) inside the active
    window.  Near-tie is flagged when another eigenvalue group is within
    DEFAULT_NEAR_TIE_TOL * (1 + |alpha|) of the abscissa, or the active
    eigenvalue is so ill conditioned that it is numerically defective.
    """
    cl, L, R = _interconnect(plant, k)
    try:
        w, vl, vr = la.eig(cl.A, left=True, right=True)
    except la.LinAlgError as exc:
        raise EigenFailure("eigenvalue iteration failed on the closed loop") from exc
    alpha = float(w.real.max())
    window = DEFAULT_TIE_TOL * (1.0 + abs(alpha))
    i_star = int(np.flatnonzero(w.real >= alpha - window)[0])
    lam = w[i_star]
    x = vr[:, i_star]
    y = vl[:, i_star]
    s = np.vdot(y, x)
    defective = abs(s) < 1e-8 * la.norm(x) * la.norm(y)
    if s == 0:
        s = 1e-300
    grad = _chain_to_controller(k, L[: cl.n], R[:, : cl.n], np.conj(y) / s, x)
    if not np.all(np.isfinite(grad)):
        grad = np.zeros_like(grad)
        defective = True

    # margin to the nearest eigenvalue outside {lam, conj(lam)}
    exclude = {i_star}
    if abs(lam.imag) > 0:
        dist = np.abs(w - np.conj(lam))
        partner = np.argsort(dist)
        for j in partner:
            if j != i_star and dist[j] <= 1e-6 * (1.0 + abs(lam)):
                exclude.add(int(j))
                break
    rest = [w[j].real for j in range(w.size) if j not in exclude]
    tie_gap = alpha - max(rest) if rest else math.inf
    near = defective or tie_gap <= DEFAULT_NEAR_TIE_TOL * (1.0 + abs(alpha))
    hint = Smoothness.NEAR_TIE if near else Smoothness.SMOOTH
    return GradientReport(alpha, grad, hint, tie_gap)


def hinf_gradient(
    plant: Plant,
    k: Controller,
    *,
    rel_tol: float = 1e-7,
    scan_secondary_peaks: bool = True,
) -> GradientReport:
    """Gradient of the closed-loop H-infinity norm at k.

    Differentiates the largest singular value at the peak frequency via its
    singular vectors; when the peak is attained at infinity only the D
    feedthrough path contributes.  Near-tie is flagged when the second
    singular value at the peak, a secondary frequency peak, or the
    at-infinity value sigma_max(D_cl) comes within DEFAULT_NEAR_TIE_TOL
    relative of the norm.  Raises UnstableSystem for unstable closed loops.
    """
    cl, L, R = _interconnect(plant, k)
    result = hinf_norm(cl, rel_tol=rel_tol)
    gamma = result.gamma

    if result.attained_at_infinity:
        # the norm is sigma_max(D) itself; a distinct finite peak near it is
        # the competing branch, which the rival scan below looks for
        U, svals, Vh = np.linalg.svd(cl.D)
        grad = _chain_to_controller(k, L[cl.n :], R[:, cl.n :], U[:, 0], Vh[0])
        gaps = []
    else:
        # hinf_norm polishes the peak until d sigma/d omega vanishes, so the
        # envelope theorem gives the gradient from the singular vectors there
        omega = result.omega_peak
        M = 1j * omega * np.eye(cl.n) - cl.A
        X = np.linalg.solve(M, cl.B)
        T = cl.C @ X + cl.D
        U, svals, Vh = np.linalg.svd(T)
        u = U[:, 0]
        v = np.conj(Vh[0])
        b = X @ v
        r = np.linalg.solve(M.T, cl.C.T @ np.conj(u))
        grad = _chain_to_controller(
            k, L, R, np.concatenate([r, np.conj(u)]), np.concatenate([b, v])
        )
        gaps = [gamma - float(np.linalg.svd(cl.D, compute_uv=False)[0])]
    if svals.size > 1:
        gaps.append(float(svals[0] - svals[1]))
    if scan_secondary_peaks:
        gaps.append(_secondary_peak_gap(result))

    tie_gap = min(gaps, default=math.inf)
    near = tie_gap <= DEFAULT_NEAR_TIE_TOL * (1.0 + gamma)
    hint = Smoothness.NEAR_TIE if near else Smoothness.SMOOTH
    return GradientReport(float(gamma), grad, hint, tie_gap)
