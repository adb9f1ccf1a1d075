"""Checks on the program's outputs, computed apart from the program.

Nothing here calls fixedhinf's numerics.  Plants, controllers and state-space
systems are read only through their matrix attributes, and every quantity is
recomputed with a different algorithm from the one the package uses:

- the closed loop is formed by solving the loop equations for (u, y) jointly,
  not by the package's push-through formulas;
- stability is read from the eigenvalues of that closed loop;
- a reported H-infinity norm gamma must lie in a two-sided bracket.  The
  lower side is the peak of sigma_max over a frequency grid with local
  golden-section refinement, each point a direct resolvent solve on the
  complex Schur form; the reported gamma may exceed it by at most the
  relative tolerance.  The upper side is the bounded real lemma at
  gamma * (1 + tol): a stabilizing solution of the gamma-Riccati equation
  from `scipy.linalg.solve_continuous_are`, verified by its residual, its
  sign and the eigenvalues of the closed loop it defines;
- gradients are compared with a central finite difference along a direction.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as la

# Relative width of the norm bracket.  The package certifies norms to 1e-9
# (synthesis, certification) or 1e-7 (stage-2 settings); the bracket is wider
# than both and far narrower than the 1% errors it must catch.
BRACKET_TOL = 1e-5


def closed_loop(plant, k):
    """(A, B, C, D) of the loop u = K y around the plant, states (x, xK).

    The loop equations u = CK xK + DK y and y = C2 x + D21 w + D22 u are
    solved for (u, y) together; a singular system means an ill-posed loop.
    """
    n, nk = plant.n, k.AK.shape[0]
    m2, p2 = plant.B2.shape[1], plant.C2.shape[0]
    E = np.block([[np.eye(m2), -k.DK], [-plant.D22, np.eye(p2)]])
    # [u; y] = E^-1 (Fx [x; xK] + Fw w)
    Fx = np.block([[np.zeros((m2, n)), k.CK], [plant.C2, np.zeros((p2, nk))]])
    Fw = np.vstack([np.zeros((m2, plant.B1.shape[1])), plant.D21])
    Gx = np.linalg.solve(E, Fx)
    Gw = np.linalg.solve(E, Fw)
    ux, yx = Gx[:m2], Gx[m2:]
    uw, yw = Gw[:m2], Gw[m2:]
    A = np.block([[plant.A, np.zeros((n, nk))], [np.zeros((nk, n)), k.AK]])
    A = A + np.vstack([plant.B2 @ ux, k.BK @ yx])
    B = np.vstack([plant.B1 + plant.B2 @ uw, k.BK @ yw])
    C = np.hstack([plant.C1, np.zeros((plant.C1.shape[0], nk))]) + plant.D12 @ ux
    D = plant.D11 + plant.D12 @ uw
    return A, B, C, D


def abscissa(A) -> float:
    return float(np.max(np.linalg.eigvals(A).real))


class Response:
    """sigma_max of C (jw I - A)^-1 B + D by triangular solves on A's Schur form."""

    def __init__(self, A, B, C, D):
        T, Z = la.schur(np.asarray(A, dtype=complex), output="complex")
        self.T = T
        self.ZB = Z.conj().T @ B
        self.CZ = C @ Z
        self.D = D
        self.eigs = np.diag(T)

    def sigma(self, w: float) -> float:
        X = la.solve_triangular(1j * w * np.eye(self.T.shape[0]) - self.T, self.ZB)
        return float(np.linalg.norm(self.CZ @ X + self.D, 2))


def _golden_max(f, a: float, b: float, iters: int = 60) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a <= 1e-12 * (1.0 + b):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)


def peak_gain(A, B, C, D, hints=(), *, grid: int = 200, refine: int = 8) -> tuple[float, float]:
    """(lower bound on the H-infinity norm, frequency attaining it).

    The grid spans the pole magnitudes three decades each way and includes
    every pole's imaginary part, which is where a lightly damped mode peaks,
    and a few points around each hinted frequency (such as the peak a program
    reports; the gain there is computed here, so a hint cannot inflate the
    bound).  The highest local maxima of the grid are refined by golden
    section between their neighbours.  Frequency +inf stands for the
    feedthrough sigma_max(D).
    """
    resp = Response(A, B, C, D)
    mags = np.abs(resp.eigs)
    mags = mags[mags > 0]
    lo = max(float(mags.min()) * 1e-3, 1e-9) if mags.size else 1e-3
    hi = float(mags.max()) * 1e3 if mags.size else 1e3
    near = [h * np.geomspace(0.98, 1.02, 9) for h in hints if math.isfinite(h) and h > 0]
    w = np.unique(np.concatenate([[0.0], np.geomspace(lo, hi, grid), np.abs(resp.eigs.imag), *near]))
    # a conjugate pair gives two imaginary parts a rounding error apart; a
    # duplicate would make a neighbour of the peak and cut it off the bracket
    w = w[np.concatenate([[True], np.diff(w) > 1e-9 * w[1:]])]
    vals = np.array([resp.sigma(x) for x in w])
    best, best_w = (float(np.linalg.norm(D, 2)) if D.size else 0.0), math.inf
    interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    maxima = np.concatenate([[0], 1 + np.flatnonzero(interior), [w.size - 1]])
    for i in maxima[np.argsort(vals[maxima])[::-1][:refine]]:
        wi, vi = float(w[i]), float(vals[i])
        a, b = w[max(i - 1, 0)], w[min(i + 1, w.size - 1)]
        if b > a:
            wr, vr = _golden_max(resp.sigma, float(a), float(b))
            if vr > vi:
                wi, vi = wr, vr
        if vi > best:
            best, best_w = vi, wi
    return best, best_w


def brl_holds(A, B, C, D, gamma: float) -> tuple[bool, str]:
    """Bounded real lemma: is ||C (sI - A)^-1 B + D||_inf < gamma?

    True when R = gamma^2 I - D'D > 0 and the Riccati equation
        A'X + XA + C'C + (XB + C'D) R^-1 (B'X + D'C) = 0
    has a stabilizing solution X >= 0, with A stable.
    """
    m = B.shape[1]
    R = gamma * gamma * np.eye(m) - D.T @ D
    if np.min(np.linalg.eigvalsh(R)) <= 0:
        return False, "gamma <= sigma_max(D)"
    if abscissa(A) >= 0:
        return False, "A is not stable"
    try:
        # scipy solves A'X + XA - (XB + S) r^-1 (B'X + S') + Q = 0; r = -R
        X = la.solve_continuous_are(A, B, C.T @ C, -R, s=C.T @ D)
    except (la.LinAlgError, ValueError) as exc:
        return False, f"no stabilizing Riccati solution ({exc})"
    if not np.all(np.isfinite(X)):
        return False, "Riccati solution not finite"
    XB = X @ B + C.T @ D
    res = A.T @ X + X @ A + C.T @ C + XB @ np.linalg.solve(R, XB.T)
    scale = max(1.0, float(np.linalg.norm(X, 1)) * float(np.linalg.norm(A, 1)),
                float(np.linalg.norm(C.T @ C, 1)))
    if float(np.linalg.norm(res, 1)) > 1e-7 * scale:
        return False, f"Riccati residual {np.linalg.norm(res, 1):.2e} (scale {scale:.2e})"
    Xs = 0.5 * (X + X.T)
    if float(np.min(np.linalg.eigvalsh(Xs))) < -1e-8 * max(1.0, float(np.linalg.norm(Xs, 2))):
        return False, "Riccati solution not positive semidefinite"
    Acl = A + B @ np.linalg.solve(R, XB.T)
    if abscissa(Acl) >= 0:
        return False, "Riccati solution not stabilizing"
    return True, "ok"


def check_norms(A, B, C, D, gammas, lower: float, tol: float = BRACKET_TOL) -> list[tuple[bool, str]]:
    """Two-sided bracket on each reported norm of one system: gamma <= lower
    (1 + tol), with `lower` from `peak_gain`, and the bounded real lemma
    holds at gamma (1 + tol).

    The lemma is solved at the smallest gamma that passes the lower side;
    where it holds, it holds for every larger gamma too.
    """
    verdicts = {}
    upper = None
    for i in sorted(range(len(gammas)), key=lambda j: gammas[j]):
        gamma = gammas[i]
        if not (math.isfinite(gamma) and gamma > 0):
            verdicts[i] = (False, f"norm {gamma!r} is not a positive number")
        elif gamma > lower * (1.0 + tol):
            verdicts[i] = (False, f"norm {gamma!r} above the attained gain {lower!r}")
        else:
            if upper is None or not upper[0]:
                upper = brl_holds(A, B, C, D, gamma * (1.0 + tol))
            verdicts[i] = (upper[0], f"{lower!r} <= {gamma!r}, bounded real lemma: {upper[1]}")
    return [verdicts[i] for i in range(len(gammas))]


def check_norm(A, B, C, D, gamma: float, hints=()) -> tuple[bool, str]:
    return check_norms(A, B, C, D, [gamma], peak_gain(A, B, C, D, hints)[0])[0]


def check_controller(plant, k, gamma: float, hints=()) -> tuple[bool, str]:
    """The controller stabilizes the plant and gamma is its closed-loop norm."""
    A, B, C, D = closed_loop(plant, k)
    alpha = abscissa(A)
    if not alpha < 0:
        return False, f"closed loop unstable (abscissa {alpha:.6g})"
    return check_norm(A, B, C, D, gamma, hints)


def fd_directional(f, theta: np.ndarray, d: np.ndarray, h: float) -> float:
    return (f(theta + h * d) - f(theta - h * d)) / (2.0 * h)


def check_directional(fd: float, grad: np.ndarray, d: np.ndarray, rtol: float = 1e-4):
    """Analytic directional derivative grad . d against a finite difference."""
    an = float(grad @ d)
    scale = max(abs(fd), abs(an), 1e-3 * float(np.linalg.norm(grad)) * float(np.linalg.norm(d)))
    ok = abs(fd - an) <= rtol * scale + 1e-9
    return ok, f"analytic {an:.9g} finite difference {fd:.9g}"
