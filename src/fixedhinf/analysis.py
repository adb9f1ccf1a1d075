"""Closed-loop analysis: spectral abscissa and H-infinity norm.

The norm computation is a level-set iteration (Bruinsma & Steinbuch, 1990):
a lower bound gamma is probed at gamma*(1 + rel_tol); purely imaginary
eigenvalues of the associated Hamiltonian matrix locate frequency intervals
where the largest singular value exceeds the probe, and evaluating at the
crossings and interval midpoints pushes the lower bound up.  No imaginary
eigenvalues means the probe is an upper bound, which brackets the norm to
the requested relative tolerance.

Each new lower bound is polished to a local peak of sigma_max by safeguarded
Newton steps on d(sigma^2)/dw, with derivatives from the singular vectors
(Boyd & Balakrishnan, 1990), so one Hamiltonian eigen-solve usually certifies
the polished best pole-frequency guess.  Polishing happens only where it can
raise the lower bound: not when the best pole-frequency guess lies below
sigma_max(D), and not past the last grid point while sigma still rises
there.  Either way a finite peak above the bound is left to the Hamiltonian
probe, which finds any such peak.  One eigendecomposition of A serves the
stability test and every frequency evaluation, the gradient's rival-peak
scan included: the result carries the evaluator on.

Once the probe finds no crossing, one grid scan guards against eigenvalues
misclassified as off the axis.  It takes an SVD only at grid points that
two cheap tests cannot place below its floor (the Frobenius norm, then
positive definiteness of floor^2 I minus the Gram matrix), which cannot
change its outcome.  A dense-grid search with the same polish backs the
method up when the Hamiltonian eigenvalue solve is unusable; its result is
not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import EigenFailure, UnstableSystem
from .statespace import StateSpace

__all__ = [
    "AbscissaResult",
    "NormResult",
    "spectral_abscissa",
    "hinf_norm",
]

# Relative half-width of the eigenvalue tie window, scaled by 1 + |alpha|.
DEFAULT_TIE_TOL = 1e-8
# Cap on Hamiltonian probes per norm; one or two usually certify.
_LEVEL_ITERS = 60
# |Re(lam)| below this times the eigenvalue scale counts as "on the axis".
_HAM_IMAG_TOL = 1e-7
# Cap on peak-polish steps; Newton needs a handful, bisection from a bracket
# down to the 1e-13 relative step tolerance about 45.
_POLISH_ITERS = 50
# Relative offsets of the scan points that densify the grid near a peak.
_NEAR_PEAK = np.geomspace(0.9, 1.1, 15)


@dataclass(frozen=True, eq=False)
class AbscissaResult:
    """Spectral abscissa with the indices of the eigenvalues attaining it."""

    alpha: float
    active_indices: tuple[int, ...]
    eigenvalues: np.ndarray

    @property
    def is_stable(self) -> bool:
        return self.alpha < 0.0


@dataclass(frozen=True, eq=False)
class NormResult:
    """H-infinity norm value and where it is (approximately) attained.

    `converged` is False when the level-set iteration stalled before
    certifying the requested tolerance; `gamma` is then the best verified
    lower bound rather than a bracketed value.  `_ev` is the frequency
    evaluator of the system (None when it has no states), for later scans
    of the same system.
    """

    gamma: float
    omega_peak: float
    attained_at_infinity: bool
    converged: bool = True
    iterations: int = 0
    _ev: _FreqEvaluator | None = field(default=None, repr=False)


def spectral_abscissa(A: np.ndarray) -> AbscissaResult:
    """Max real part over the spectrum of A, with the active eigenvalue set.

    Eigenvalues within DEFAULT_TIE_TOL * (1 + |alpha|) of the abscissa are
    reported active.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        return AbscissaResult(-math.inf, (), np.zeros(0, dtype=complex))
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure("eigenvalue iteration failed on A") from exc
    alpha = float(w.real.max())
    tol = DEFAULT_TIE_TOL * (1.0 + abs(alpha))
    active = tuple(int(i) for i in np.flatnonzero(w.real >= alpha - tol))
    return AbscissaResult(alpha, active, w)


class _FreqEvaluator:
    """Frequency response T(jw) = C (jw I - A)^-1 B + D of a stable system, n > 0.

    Eigendecomposes A once (EigenFailure when that fails), keeps the
    eigenvalues in `lam` and raises UnstableSystem unless they all lie in the
    open left half-plane; `cands` holds their candidate peak frequencies.
    With a well-conditioned eigenvector basis T is a sum of modal terms;
    otherwise each frequency takes a factor-and-solve, and only then are A,
    B and C kept.
    """

    def __init__(self, sys: StateSpace):
        self.n, self.p, self.m, self.D = sys.n, sys.p, sys.m, sys.D
        try:
            self.lam, V = np.linalg.eig(sys.A)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure("eigenvalue iteration failed on A") from exc
        alpha = float(self.lam.real.max())
        if alpha >= 0.0:
            raise UnstableSystem(f"spectral abscissa is {alpha:.6g} >= 0; H-infinity norm undefined")
        self.cands = _candidate_frequencies(self.lam)
        self._modal, self._abc = None, (sys.A, sys.B, sys.C)
        # one LU of V gives both the condition estimate and V^-1 B; the 1e8
        # cap applies to LAPACK's 1-norm estimate of cond(V)
        lu, piv, info = la.lapack.zgetrf(V)
        rcond = la.lapack.zgecon(lu, np.abs(V).sum(axis=0).max())[0] if info == 0 else 0.0
        if rcond > 1e-8:
            CV = sys.C @ V
            VB = la.lapack.zgetrs(lu, piv, sys.B)[0]
            # row k holds the residue CV[:, k] VB[k, :] of the pole lam[k]
            self._modal = (CV.T[:, :, None] * VB[:, None, :]).reshape(sys.n, -1)
            self._abc = None

    def responses(self, omegas: np.ndarray) -> np.ndarray:
        """T(jw) stacked over the frequencies, shape (len(omegas), p, m)."""
        if self._modal is None:
            return np.stack([self.derivatives(w)[0] for w in omegas])
        R = 1.0 / (1j * np.asarray(omegas, dtype=float)[:, None] - self.lam)
        return (R @ self._modal).reshape(-1, self.p, self.m) + self.D

    def sigma_max_many(self, omegas: np.ndarray) -> np.ndarray:
        return np.linalg.svd(self.responses(omegas), compute_uv=False)[:, 0]

    def derivatives(self, omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """T, dT/dw and d2T/dw2 at one frequency."""
        if self._modal is None:
            A, B, C = self._abc
            lu = la.lu_factor(1j * omega * np.eye(self.n) - A)
            X1 = la.lu_solve(lu, B.astype(complex))
            X2 = la.lu_solve(lu, X1)
            X3 = la.lu_solve(lu, X2)
            return C @ X1 + self.D, -1j * (C @ X2), -2.0 * (C @ X3)
        r = 1.0 / (1j * omega - self.lam)
        T0, T1, T2 = (np.stack([r, -1j * r * r, -2.0 * r**3]) @ self._modal).reshape(
            3, self.p, self.m
        )
        return T0 + self.D, T1, T2


def _sigma_slope(T0: np.ndarray, T1: np.ndarray, T2: np.ndarray) -> tuple[float, float, float]:
    """sigma_max(T) and the first two frequency derivatives of sigma_max(T)^2.

    Perturbation theory for the top eigenvalue of T^H T, whose eigenvectors
    are the right singular vectors of T; T1 and T2 are dT/dw and d2T/dw2.
    """
    U, s, Vh = np.linalg.svd(T0)
    V = Vh.conj().T
    a = U.conj().T @ T1 @ V
    s1 = s[0]
    slope = 2.0 * s1 * a[0, 0].real
    curv = 2.0 * s1 * (U[:, 0].conj() @ T2 @ V[:, 0]).real + 2.0 * np.sum(np.abs(a[:, 0]) ** 2)
    # coupling through v_k^H (T^H T)' v_1 to the other eigenvectors of T^H T
    cross = s1 * a[0, 1:].conj()
    cross[: s.size - 1] += s[1:] * a[1 : s.size, 0]
    gaps = s1 * s1 - np.concatenate([s[1:], np.zeros(V.shape[1] - s.size)]) ** 2
    curv += 2.0 * np.sum(np.abs(cross) ** 2 / np.maximum(gaps, 1e-300))
    return float(s1), float(slope), float(curv)


def _polish(ev: _FreqEvaluator, omegas: np.ndarray, vals: np.ndarray, i: int) -> tuple[float, float]:
    """Local maximum (w, sigma) of sigma_max from point i of an ascending grid.

    Safeguarded Newton steps on d(sigma^2)/dw inside the bracket of the
    point's grid neighbours: the slope's sign moves the bracket end on the
    descending side, and any step that is not a concave Newton step inside
    the bracket becomes a bisection.  Past the last grid point the bracket
    is open on the right; while sigma still rises there the polish stops
    rather than bisect toward an arbitrary end (a finite peak beyond it is
    left to the Hamiltonian probe).  sigma is even in w, so the slope
    vanishes at w = 0 and the curvature decides there.  Returns the best
    point evaluated, never worse than (omegas[i], vals[i]).
    """
    lo = float(omegas[i - 1]) if i > 0 else 0.0
    open_right = i + 1 == omegas.size
    hi = float(2.0 * omegas[i] if open_right else omegas[i + 1])
    w = best_omega = float(omegas[i])
    best = float(vals[i])
    tol = 1e-13 * max(w, hi - lo)
    for _ in range(_POLISH_ITERS):
        s, slope, curv = _sigma_slope(*ev.derivatives(w))
        if s > best:
            best_omega, best = w, s
        if slope > 0.0:
            lo = w
        elif slope < 0.0:
            hi = w
            open_right = False
        nxt = max(w - slope / curv, 0.0) if curv < 0.0 else math.nan
        if not lo <= nxt <= hi:
            if open_right and slope > 0.0:
                break
            nxt = 0.5 * (lo + hi)
        if abs(nxt - w) <= tol:
            break
        w = nxt
    return best_omega, best


def _hamiltonian(sys: StateSpace, gamma: float) -> np.ndarray:
    """Hamiltonian whose imaginary-axis eigenvalues mark sigma crossings of gamma.

    With R = gamma^2 I - D^T D = L L^T and S = gamma^2 I - D D^T = M M^T,
    the off-diagonal blocks are gamma (L^-1 B^T)^T (L^-1 B^T) and
    -gamma (M^-1 C)^T (M^-1 C); a Cholesky failure raises LinAlgError.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n
    L = np.linalg.cholesky(gamma * gamma * np.eye(sys.m) - D.T @ D)
    M = np.linalg.cholesky(gamma * gamma * np.eye(sys.p) - D @ D.T)
    W = np.linalg.solve(L, np.hstack([B.T, D.T @ C]))
    Wb = W[:, :n]
    Wc = np.linalg.solve(M, C)
    H11 = A + Wb.T @ W[:, n:]
    H12 = gamma * (Wb.T @ Wb)
    H21 = -gamma * (Wc.T @ Wc)
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = H11
    H[:n, n:] = 0.5 * (H12 + H12.T)
    H[n:, :n] = 0.5 * (H21 + H21.T)
    H[n:, n:] = -H11.T
    return H


def _candidate_frequencies(eigenvalues: np.ndarray) -> np.ndarray:
    """Initial probe frequencies from the pole pattern (plus dc), ascending."""
    mags = np.abs(eigenvalues)
    imags = np.abs(eigenvalues.imag)
    return np.unique(np.concatenate([[0.0], mags[mags > 0], imags[imags > 0]]))


def _scan_grid(ev: _FreqEvaluator, best_omega: float, points: int) -> np.ndarray:
    """Log grid spanning the pole frequencies, densified near the current peak."""
    mags = np.abs(ev.lam)
    mags = mags[mags > 0]
    lo = float(mags.min()) * 1e-4 if mags.size else 1e-4
    hi = float(mags.max()) * 1e4 if mags.size else 1e4
    lo = max(lo, 1e-12)
    hi = max(hi, 10.0 * lo)
    grid = [np.zeros(1), np.geomspace(lo, hi, points), ev.cands]
    if best_omega > 0:
        grid.append(best_omega * _NEAR_PEAK)
    return np.unique(np.concatenate(grid))


def _below(G: np.ndarray, c2: float) -> np.ndarray:
    """Mask of the stacked Hermitian k x k matrices G whose largest eigenvalue
    is below c2: those with c2 I - G positive definite, decided by an LDL^H
    sweep (Cholesky without square roots).  It is backward stable, so a pass
    holds for G up to rounding of a few ulps times k."""
    k = G.shape[1]
    S = -G
    S[:, range(k), range(k)] += c2
    ok = np.ones(G.shape[0], dtype=bool)
    for _ in range(k):
        d = S[:, 0, 0].real
        ok &= d > 0.0
        d = np.where(ok, d, 1.0)[:, None, None]
        S = S[:, 1:, 1:] - S[:, 1:, :1] * (S[:, :1, 1:] / d)
    return ok


def _scan_above(ev: _FreqEvaluator, best_omega: float, floor: float) -> tuple[float, float] | None:
    """Polished grid peak of sigma_max when it exceeds floor, else None.

    A grid point takes an SVD only when sigma_max may reach a cut 1e-12
    below the floor: its Frobenius norm must reach the cut, and then the
    Gram matrix of size min(p, m) may not have all eigenvalues below the
    cut squared.  Rounding in both tests is a few ulps times the port
    widths, far inside the margin, so the outcome is the one an SVD at
    every point would give.
    """
    omegas = _scan_grid(ev, best_omega, 512)
    T = ev.responses(omegas)
    cut = floor * (1.0 - 1e-12)
    keep = np.flatnonzero(np.linalg.norm(T, axis=(1, 2)) >= cut)
    if keep.size:
        Tk = T[keep]
        Th = Tk.conj().transpose(0, 2, 1)
        keep = keep[~_below(Th @ Tk if ev.m <= ev.p else Tk @ Th, cut * cut)]
    vals = np.full(omegas.shape, -math.inf)
    if keep.size:
        vals[keep] = np.linalg.svd(T[keep], compute_uv=False)[:, 0]
    i = int(np.argmax(vals))
    if vals[i] <= floor:
        return None
    return _polish(ev, omegas, vals, i)


def _grid_fallback(ev: _FreqEvaluator, sigma_d: float, iterations: int) -> NormResult:
    """Dense-grid peak search; a grid certifies nothing, so not converged."""
    omegas = _scan_grid(ev, 0.0, 2048 if ev.n <= 60 else 512)
    vals = ev.sigma_max_many(omegas)
    peaks = [_polish(ev, omegas, vals, int(i)) for i in np.argsort(vals)[::-1][:8]]
    best_omega, best = max(peaks, key=lambda peak: peak[1])
    if sigma_d >= best:
        return NormResult(sigma_d, 0.0, True, False, iterations, ev)
    return NormResult(best, best_omega, False, False, iterations, ev)


def _secondary_peak_gap(norm: NormResult) -> float:
    """Margin between the norm and the next-highest distinct local maximum of
    sigma_max over frequency (+inf when the response has a single peak).

    Distinct means separated from the main basin by a genuine valley; grid
    wiggles at machine precision on a flat top are not rivals, and when the
    peak is attained at infinity the tail rising toward sigma_max(D) belongs
    to the main branch itself.  Scans with the norm's own evaluator.
    """
    ev, gamma = norm._ev, norm.gamma
    grid = _scan_grid(ev, norm.omega_peak, 256)
    vals = ev.sigma_max_many(grid)
    nn = len(grid)
    maxima = [
        i
        for i in range(nn)
        if (i == 0 or vals[i] > vals[i - 1]) and (i == nn - 1 or vals[i] >= vals[i + 1])
    ]
    if not maxima:
        return math.inf
    if norm.attained_at_infinity:
        main = nn - 1
    else:
        main = min(maxima, key=lambda i: abs(grid[i] - norm.omega_peak))
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


def hinf_norm(sys: StateSpace, *, rel_tol: float = 1e-7) -> NormResult:
    """H-infinity norm of a stable system to relative tolerance rel_tol.

    Raises UnstableSystem when the spectral abscissa of A is not strictly
    negative.  When the level iteration cannot certify the tolerance within
    60 Hamiltonian probes, the best verified lower bound is returned with
    converged=False instead of raising.  A finite omega_peak is a polished
    local peak of sigma_max, where its frequency derivative vanishes.
    """
    if not (0.0 < rel_tol <= 1e-2):
        raise ValueError(f"rel_tol must be in (0, 1e-2], got {rel_tol}")
    sigma_d = float(np.linalg.svd(sys.D, compute_uv=False)[0])
    if sys.n == 0:
        return NormResult(sigma_d, 0.0, True, True, 0)
    ev = _FreqEvaluator(sys)

    cands = ev.cands
    vals = ev.sigma_max_many(cands)
    if float(vals.max()) == 0.0 and sigma_d == 0.0:
        # possibly a zero system; a coarse scan decides
        cands = _scan_grid(ev, 0.0, 256)
        vals = ev.sigma_max_many(cands)
        if float(vals.max()) == 0.0:
            return NormResult(0.0, 0.0, False, True, 0, ev)
    i = int(np.argmax(vals))
    best_omega, best_finite = float(cands[i]), float(vals[i])
    if best_finite >= sigma_d:
        # otherwise the probe at sigma_max(D) finds any finite peak above it
        best_omega, best_finite = _polish(ev, cands, vals, i)

    lower = max(best_finite, sigma_d)
    iterations = 0
    converged = False
    scanned = False
    while iterations < _LEVEL_ITERS:
        iterations += 1
        probe = lower * (1.0 + rel_tol)
        try:
            ew = np.linalg.eigvals(_hamiltonian(sys, probe))
        except np.linalg.LinAlgError:
            return _grid_fallback(ev, sigma_d, iterations)
        if not np.all(np.isfinite(ew)):
            return _grid_fallback(ev, sigma_d, iterations)
        scale = max(1.0, float(np.abs(ew).max()))
        on_axis = ew[np.abs(ew.real) <= _HAM_IMAG_TOL * scale]
        omegas = np.unique(np.abs(on_axis.imag))
        if omegas.size >= 2:
            # merge crossings that are numerically identical
            keep = np.concatenate([[True], np.diff(omegas) > 1e-9 * (1.0 + omegas[1:])])
            omegas = omegas[keep]
        if omegas.size:
            trial = np.sort(np.concatenate([omegas, 0.5 * (omegas[:-1] + omegas[1:])]))
            tvals = ev.sigma_max_many(trial)
            omega, top = _polish(ev, trial, tvals, int(np.argmax(tvals)))
            if top > best_finite:
                best_finite, best_omega = top, omega
            if top > lower * (1.0 + 1e-14):
                lower = top
                continue
        # no crossings, or a probe that only grazes the curve: the probe is
        # an upper bound, and one confirmation scan guards against
        # eigenvalues misclassified as off-axis
        if not scanned:
            scanned = True
            found = _scan_above(ev, best_omega, lower * (1.0 + 1e-12))
            if found is not None:
                if found[1] > sigma_d:
                    best_omega, best_finite = found
                lower = found[1]
                continue
        converged = True
        break

    at_infinity = sigma_d > best_finite
    omega_peak = 0.0 if at_infinity else best_omega
    return NormResult(max(sigma_d, best_finite), omega_peak, at_infinity, converged, iterations, ev)
