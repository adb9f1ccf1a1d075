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

from .analysis import (
    AbscissaResult,
    NormResult,
    _abscissa,
    _check_rel_tol,
    _hinf,
    _secondary_peak_gap,
)
from .errors import EigenFailure, IllPosed
from .statespace import Controller, Plant, StateSpace, _interconnect, _pack_gain

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
    ports: tuple[int, int], L: np.ndarray, R: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Gradient over the packed controller of a function whose gradient over
    the closed loop's [[A, B], [C, D]] is the rank-one left right^T, or one
    such gradient per member of a stack (leading member axis throughout).

    ports is the controller's (nu, ny).  L and R are the factors from
    `_Interconnection.close`, or matching row slices of L and column slices
    of R when left and right vanish outside them.  The gradient over
    the controller's gain is Re((L^T left)(R right)^T), packed as
    pack_controller packs the gain."""
    Lt_left = L.swapaxes(-1, -2) @ left[..., None]
    R_right = R @ right[..., None]
    return _pack_gain(np.real(Lt_left * R_right.swapaxes(-1, -2)), *ports)


def _abscissa_branch(
    ports: tuple[int, int], cl: StateSpace, L: np.ndarray, R: np.ndarray, errors: list
) -> tuple[AbscissaResult, np.ndarray, bool] | IllPosed | EigenFailure:
    """For the loop that `_Interconnection.close` closes from one gain, with
    its factors L and R and its error list, the abscissa, the gradient over
    the packed controller, of ports (nu, ny), of the real part of its first
    active eigenvalue (by solver index), and whether that eigenvalue is
    numerically defective; or the loop's IllPosed error, or EigenFailure
    when its eigenvalue iteration fails.  A gradient that is not finite is
    returned as zero and flagged defective."""
    (error,) = errors
    if error is not None:
        return error
    try:
        w, vl, vr = la.eig(cl.A[0], left=True, right=True)
    except la.LinAlgError:
        return EigenFailure("eigenvalue iteration failed on the closed loop")
    absc = _abscissa(w)
    i_star = absc.active_indices[0]
    x, y = vr[:, i_star], vl[:, i_star]
    s = np.vdot(y, x)
    defective = abs(s) < 1e-8 * la.norm(x) * la.norm(y)
    if s == 0:
        s = 1e-300
    grad = _chain_to_controller(ports, L[0, : cl.n], R[0, :, : cl.n], np.conj(y) / s, x)
    if not np.all(np.isfinite(grad)):
        grad = np.zeros_like(grad)
        defective = True
    return absc, grad, defective


def abscissa_gradient(plant: Plant, k: Controller) -> GradientReport:
    """Gradient of the closed-loop spectral abscissa at k.

    Differentiates the first eigenvalue (by solver index) inside the active
    window, as the synthesis stage-1 oracle does (both go through
    `_abscissa_branch`).  Near-tie is flagged when another eigenvalue group
    is within DEFAULT_NEAR_TIE_TOL * (1 + |alpha|) of the abscissa, or the
    active eigenvalue is so ill conditioned that it is numerically
    defective.  Raises IllPosed when the closed loop does not exist and
    EigenFailure when the eigenvalue iteration fails.
    """
    found = _abscissa_branch((k.nu, k.ny), *_interconnect(plant, k))
    if isinstance(found, Exception):
        raise found
    absc, grad, defective = found
    alpha, i_star, w = absc.alpha, absc.active_indices[0], absc.eigenvalues
    lam = w[i_star]

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


def _peak_gradient(
    ports: tuple[int, int], cl: StateSpace, L: np.ndarray, R: np.ndarray, norms: list[NormResult]
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients over the packed controller, of ports (nu, ny), of sigma_max
    at each norm's peak, and the singular values there, for a stack of loops
    cl with their stacked factors L and R and one NormResult per member.

    At infinity only the D feedthrough path contributes.  A finite peak is
    polished until d sigma/d omega vanishes, so the envelope theorem gives
    the gradient from the singular vectors there.  The members at infinity
    and those at a finite peak each go through one stack.
    """
    at_inf = [norm.attained_at_infinity for norm in norms]
    if any(at_inf) and not all(at_inf):
        grads = np.empty((len(norms), L.shape[-1] * R.shape[-2]))
        svals = np.empty((len(norms), min(cl.p, cl.m)))
        mask = np.array(at_inf)
        for group in (mask, ~mask):
            part = [norm for norm, inside in zip(norms, group) if inside]
            grads[group], svals[group] = _peak_gradient(
                ports, cl._members(group), L[group], R[group], part
            )
        return grads, svals
    n = cl.n
    if at_inf[0]:
        U, svals, Vh = np.linalg.svd(cl.D)
        grads = _chain_to_controller(ports, L[:, n:], R[:, :, n:], U[..., :, 0], Vh[..., 0, :])
        return grads, svals
    omegas = np.array([norm.omega_peak for norm in norms])
    M = 1j * omegas[:, None, None] * np.eye(n) - cl.A
    X = np.linalg.solve(M, cl.B)
    T = cl.C @ X + cl.D
    U, svals, Vh = np.linalg.svd(T)
    u = U[..., :, 0]
    v = np.conj(Vh[..., 0, :])
    b = (X @ v[..., None])[..., 0]
    r = np.linalg.solve(M.swapaxes(-1, -2), cl.C.swapaxes(-1, -2) @ np.conj(u)[..., None])[..., 0]
    left = np.concatenate([r, np.conj(u)], axis=-1)
    grads = _chain_to_controller(ports, L, R, left, np.concatenate([b, v], axis=-1))
    return grads, svals


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
    feedthrough path contributes.  The norm and its gradient are those of
    the synthesis stage-2 oracle without a bound (both go through
    `_hinf_branch`).  Near-tie is flagged when the second singular value at
    the peak, a secondary frequency peak, or the at-infinity value
    sigma_max(D_cl) comes within DEFAULT_NEAR_TIE_TOL relative of the norm.
    Raises IllPosed when the closed loop does not exist, UnstableSystem
    when it is unstable and EigenFailure when its eigenvalue iteration, on
    A or on a Hamiltonian probe, fails.
    """
    _check_rel_tol(rel_tol)
    cl, L, R, errors = _interconnect(plant, k)
    (found,) = _hinf_branch((k.nu, k.ny), cl, L, R, errors, rel_tol=rel_tol, bound=math.inf)
    if isinstance(found, Exception):
        raise found
    result, grad, svals = found
    gamma = result.gamma
    # at infinity a distinct finite peak near the norm is the competing
    # branch, which the rival scan below looks for
    gaps = []
    if not result.attained_at_infinity:
        gaps.append(gamma - float(np.linalg.svd(cl.D[0], compute_uv=False)[0]))
    if svals.size > 1:
        gaps.append(float(svals[0] - svals[1]))
    if scan_secondary_peaks:
        gaps.append(_secondary_peak_gap(result))

    tie_gap = min(gaps, default=math.inf)
    near = tie_gap <= DEFAULT_NEAR_TIE_TOL * (1.0 + gamma)
    hint = Smoothness.NEAR_TIE if near else Smoothness.SMOOTH
    return GradientReport(float(gamma), grad, hint, tie_gap)


def _hinf_branch(
    ports: tuple[int, int],
    cl: StateSpace,
    L: np.ndarray,
    R: np.ndarray,
    errors: list,
    *,
    rel_tol: float,
    bound: float,
    hints: tuple[float, ...] = (),
) -> list:
    """Closed-loop H-infinity norms of a stack of loops from
    `_Interconnection.close`, with their factors L and R and their error
    list, under the optimizer's oracle contract; each member gets the bits
    it gets alone.

    Each norm's lower bound, with the hints (the stage-2 oracle's: the peak
    of its last call whose level set ran) among its candidates, is returned
    unconverged once it exceeds the bound, in (bound, norm]; otherwise the
    norm is certified.  Returns per member the NormResult, the gradient
    over the packed controller, of ports (nu, ny), of the branch that
    attains its value, and the singular values at the peak; or the member's
    IllPosed, UnstableSystem or EigenFailure.  At a finite bound a value
    above it is a verdict (see `_hinf`): it takes no gradient and no
    singular values.
    """
    found = _hinf(cl, rel_tol, bound=bound, hints=hints)
    rows = [res if isinstance(res, Exception) else (res, None, None) for res in found]
    ok = [
        k
        for k, res in enumerate(found)
        if not isinstance(res, Exception) and not -math.inf < bound < res.gamma
    ]
    if ok:
        if len(ok) < len(found):
            cl, L, R = cl._members(ok), L[ok], R[ok]
        for k, grad, sval in zip(ok, *_peak_gradient(ports, cl, L, R, [found[k] for k in ok])):
            rows[k] = (found[k], grad, sval)
    # cl holds the loops that exist, in order
    posed = iter(rows)
    return [next(posed) if error is None else error for error in errors]
