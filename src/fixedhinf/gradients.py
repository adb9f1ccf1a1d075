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

from .analysis import DEFAULT_TIE_TOL, _FreqEvaluator, _polish, _scan_grid, hinf_norm
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


def _secondary_peak_gap(
    cl, omega_peak: float, gamma: float, *, at_infinity: bool = False
) -> float:
    """Margin between the norm and the next-highest distinct local maximum of
    sigma_max over frequency (+inf when the response has a single peak).

    Distinct means separated from the main basin by a genuine valley; grid
    wiggles at machine precision on a flat top are not rivals, and when the
    peak is attained at infinity the tail rising toward sigma_max(D) belongs
    to the main branch itself.
    """
    ev = _FreqEvaluator(cl)
    grid = _scan_grid(ev, omega_peak, 256)
    vals = ev.sigma_max_many(grid)
    nn = len(grid)
    maxima = [
        i
        for i in range(nn)
        if (i == 0 or vals[i] > vals[i - 1]) and (i == nn - 1 or vals[i] >= vals[i + 1])
    ]
    if not maxima:
        return math.inf
    if at_infinity:
        main = nn - 1
    else:
        main = min(maxima, key=lambda i: abs(grid[i] - omega_peak))
    dip = 1e-9 * (1.0 + gamma)
    competitors = []
    for i in maxima:
        a, b = (i, main) if i < main else (main, i)
        if b - a < 1:
            continue
        valley = float(np.min(vals[a : b + 1]))
        if min(float(vals[a]), float(vals[b])) - valley > dip:
            competitors.append(i)
    if not competitors:
        return math.inf
    competitors.sort(key=lambda i: -vals[i])
    # grid values undersample sharp resonances; polish the strongest rivals
    best = max(_polish(ev, grid, vals, i)[1] for i in competitors[:4])
    return float(gamma - best)


def _chain_to_controller(
    plant: Plant,
    k: Controller,
    delta: np.ndarray,
    delta2: np.ndarray,
    Ga: np.ndarray | None,
    Gb: np.ndarray | None = None,
    Gc: np.ndarray | None = None,
    Gd: np.ndarray | None = None,
) -> np.ndarray:
    """Map sensitivities w.r.t. closed-loop (A, B, C, D) onto packed controller
    parameters.  Inputs may be complex; the real part of the chained result is
    packed column-major in (AK, BK, CK, DK) order.  delta and delta2 are the
    coupling inverses (I - D22 DK)^-1 and (I - DK D22)^-1 of the closed loop."""
    n, nK = plant.n, k.order
    L = np.vstack([plant.B2 @ delta2, k.BK @ delta @ plant.D22])
    Lz = plant.D12 @ delta2
    M = np.hstack([delta @ plant.C2, delta @ plant.D22 @ k.CK])
    Mw = delta @ plant.D21

    N = n + nK
    if Ga is None:
        Ga = np.zeros((N, N))
    dAK = Ga[n:, n:].copy()
    dBK = Ga[n:, :] @ M.T
    dCK = L.T @ Ga[:, n:]
    dDK = L.T @ Ga @ M.T
    if Gb is not None:
        dBK = dBK + Gb[n:, :] @ Mw.T
        dDK = dDK + L.T @ Gb @ Mw.T
    if Gc is not None:
        dCK = dCK + Lz.T @ Gc[:, n:]
        dDK = dDK + Lz.T @ Gc @ M.T
    if Gd is not None:
        dDK = dDK + Lz.T @ Gd @ Mw.T
    return np.concatenate(
        [
            np.real(dAK).ravel(order="F"),
            np.real(dBK).ravel(order="F"),
            np.real(dCK).ravel(order="F"),
            np.real(dDK).ravel(order="F"),
        ]
    )


def abscissa_gradient(plant: Plant, k: Controller) -> GradientReport:
    """Gradient of the closed-loop spectral abscissa at k.

    Differentiates the first eigenvalue (by solver index) inside the active
    window.  Near-tie is flagged when another eigenvalue group is within
    DEFAULT_NEAR_TIE_TOL * (1 + |alpha|) of the abscissa, or the active
    eigenvalue is so ill conditioned that it is numerically defective.
    """
    cl, delta, delta2 = _interconnect(plant, k)
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
    Ga = np.outer(np.conj(y), x) / s
    grad = _chain_to_controller(plant, k, delta, delta2, Ga)
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
    cl, delta, delta2 = _interconnect(plant, k)
    result = hinf_norm(cl, rel_tol=rel_tol)
    gamma = result.gamma
    sigma_d = float(np.linalg.svd(cl.D, compute_uv=False)[0])
    gaps = []

    if result.attained_at_infinity:
        U, svals, Vh = np.linalg.svd(cl.D)
        u = U[:, 0]
        v = Vh[0]
        Gd = np.outer(u, v)
        grad = _chain_to_controller(plant, k, delta, delta2, None, None, None, Gd)
        if svals.size > 1:
            gaps.append(float(svals[0] - svals[1]))
        if scan_secondary_peaks and cl.n:
            # a distinct finite peak approaching sigma_max(D) is the
            # competing branch; the tail itself rises to that value anyway
            gaps.append(_secondary_peak_gap(cl, 0.0, gamma, at_infinity=True))
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
        Ga = np.outer(r, b)
        Gb = np.outer(r, v)
        Gc = np.outer(np.conj(u), b)
        Gd = np.outer(np.conj(u), v)
        grad = _chain_to_controller(plant, k, delta, delta2, Ga, Gb, Gc, Gd)
        if svals.size > 1:
            gaps.append(float(svals[0] - svals[1]))
        gaps.append(gamma - sigma_d)
        if scan_secondary_peaks:
            gaps.append(_secondary_peak_gap(cl, omega, gamma))

    tie_gap = min(gaps) if gaps else math.inf
    near = tie_gap <= DEFAULT_NEAR_TIE_TOL * (1.0 + gamma)
    hint = Smoothness.NEAR_TIE if near else Smoothness.SMOOTH
    return GradientReport(float(gamma), grad, hint, tie_gap)
