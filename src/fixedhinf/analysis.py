"""Closed-loop analysis: spectral abscissa and H-infinity norm.

The norm computation is a level-set iteration (Bruinsma & Steinbuch, 1990):
a lower bound gamma is probed at gamma*(1 + rel_tol); purely imaginary
eigenvalues of the associated Hamiltonian matrix locate frequency intervals
where the largest singular value exceeds the probe.  No imaginary
eigenvalues means the probe is an upper bound, which brackets the norm to
the requested relative tolerance.  After each probe sigma_max is evaluated
once, at the imaginary parts of all the probe's eigenvalues and the
midpoints between them, with no eigenvalue classified as on or off the
axis: a crossing of the probe shows up there, and so does a peak just
under the probe, at a near-tangent eigenvalue pair.  A value more than
1e-12 above the lower bound is polished; a peak above the probe is probed
again, and one at or below it is the norm, which the probe still brackets.

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

One routine, `_hinf`, runs the norm over a stack of systems of one shape,
whose blocks carry a leading member axis: `hinf_norm` passes a stack of one,
`hinf_gradient` a closed loop as a stack of one, and the optimizer's
stage-2 oracle one point as a stack of one, or a batch of sample points as
a longer stack.
Each member takes an eigendecomposition call of its own, for its stability
test and its evaluator.  The lower-bound stage takes the polished best
candidate frequency of every member: the candidates go through one padded
stack, and each Newton step takes every start still running as one stack.
The level-set stage takes the Hamiltonian probes and the sigma_max pass
after each, member by member, on the same evaluator.  numpy's stacked svd,
solve and matmul give each member the bits of a single call, so a member
gets the same bits in any stack, a stack of one included.
The bound says what a member needs, as in the optimizer's oracle
contract.  At +inf, which `hinf_norm` and `hinf_gradient` pass, every
member is certified.  A finite bound is the threshold a line-search trial
tests, and a value above it is a verdict: a member whose lower bound
before polishing already exceeds it returns that value as it is, since
the polish could only raise it, and one whose lower bound exceeds it
later, once polished or at a level-set probe, returns at once.  At -inf,
which gradient-sampling sample points take in a run without a target,
every member returns its polished lower bound, with no level set.

A probe whose Hamiltonian cannot be formed or eigendecomposed is an
EigenFailure, as a failed eigendecomposition of A is: no frequency grid
stands in for it, since a grid certifies nothing.  The relative tolerance is
at least 1e-12, so every probe lies at least that far above sigma_max(D),
where gamma^2 I - D^T D can be Cholesky-factored.
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
# Least relative tolerance of a norm: a probe at sigma_max(D)(1 + 1e-12) or
# above leaves gamma^2 I - D^T D positive definite enough to Cholesky-factor,
# and the level set tells a peak more than this far above its lower bound
# from the bound itself.
_MIN_REL_TOL = 1e-12
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

    `converged` is False when `gamma` is only a verified lower bound, not a
    value bracketed to the requested tolerance: it passed the bound `_hinf`
    was given, or 60 Hamiltonian probes did not certify it.
    `iterations` counts the Hamiltonian probes (eigen-solves) of the
    level-set stage, 0 where it did not run; the benchmark's
    `analysis.hinf_norm_iters` sums it.  `_ev` is the frequency evaluator of
    the system (None when it has no states), for later scans of the same
    system and the abscissa of its eigenvalues.
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
    return _abscissa(w)


def _abscissa(w: np.ndarray) -> AbscissaResult:
    """The abscissa of a nonempty spectrum w: its largest real part, with the
    eigenvalues within DEFAULT_TIE_TOL * (1 + |alpha|) of it active."""
    alpha = float(w.real.max())
    tol = DEFAULT_TIE_TOL * (1.0 + abs(alpha))
    active = tuple(int(i) for i in np.flatnonzero(w.real >= alpha - tol))
    return AbscissaResult(alpha, active, w)


class _FreqEvaluator:
    """Frequency response T(jw) = C (jw I - A)^-1 B + D of a stack of
    stable systems of order n > 0, from their eigendecompositions.

    The arrays carry a leading member axis: `lam` holds each member's
    eigenvalues, D its feedthrough and `cands` its candidate peak
    frequencies.  With well-conditioned eigenvector bases T is a sum of
    modal terms, `modal` holding each member's residues (see `_residues`).
    A system without one is a stack of one with modal None and abc its
    (A, B, C), which takes a factor-and-solve at each frequency.
    """

    def __init__(self, lam, D, modal, abc=None, cands=None):
        self.n, self.p, self.m = lam.shape[1], D.shape[1], D.shape[2]
        self.lam, self.D, self._modal, self._abc = lam, D, modal, abc
        self.cands = cands if cands is not None else [_candidate_frequencies(w) for w in lam]

    def member(self, j: int) -> "_FreqEvaluator":
        """Member j as a stack of one."""
        if self._modal is None:
            return self
        s = slice(j, j + 1)
        return _FreqEvaluator(self.lam[s], self.D[s], self._modal[s], cands=self.cands[s])

    def responses(self, omegas: np.ndarray) -> np.ndarray:
        """T(jw) at the frequencies, shape omegas.shape + (p, m).  The
        frequencies of a stack have one row per member; a stack of one
        also takes a flat array."""
        omegas = np.asarray(omegas, dtype=float)
        if self._modal is None:
            T = [self._solve(w, 1)[0] + self.D[0] for w in omegas.ravel()]
            return np.stack(T).reshape(*omegas.shape, self.p, self.m)
        R = 1.0 / (1j * omegas.reshape(len(self.lam), -1, 1) - self.lam[:, None, :])
        T = (R @ self._modal).reshape(*R.shape[:2], self.p, self.m) + self.D[:, None]
        return T.reshape(*omegas.shape, self.p, self.m)

    def sigma_max_many(self, omegas: np.ndarray) -> np.ndarray:
        return np.linalg.svd(self.responses(omegas), compute_uv=False)[..., 0]

    def _solve(self, omega: float, powers: int) -> list[np.ndarray]:
        """C (jw I - A)^-k B for k = 1 .. powers, from one factorization."""
        A, B, C = self._abc
        lu = la.lu_factor(1j * omega * np.eye(self.n) - A)
        X = B.astype(complex)
        out = []
        for _ in range(powers):
            X = la.lu_solve(lu, X)
            out.append(C @ X)
        return out

    def derivatives(self, omegas, members=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """T, dT/dw and d2T/dw2 at the frequencies, each of shape
        omegas.shape + (p, m): frequency k on member members[k], or every
        frequency on the one member `members` (by default the only member
        of a stack of one)."""
        omegas = np.asarray(omegas, dtype=float)
        if self._modal is None:
            T = np.array([self._solve(w, 3) for w in omegas.ravel()])
            T = T.reshape(*omegas.shape, 3, self.p, self.m)
            return T[..., 0, :, :] + self.D[0], -1j * T[..., 1, :, :], -2.0 * T[..., 2, :, :]
        r = 1.0 / (1j * omegas[..., None] - self.lam[members])
        T = np.stack([r, -1j * r * r, -2.0 * r**3], axis=-2) @ self._modal[members]
        T = T.reshape(*omegas.shape, 3, self.p, self.m)
        return T[..., 0, :, :] + self.D[members], T[..., 1, :, :], T[..., 2, :, :]


def _instability(lam: np.ndarray) -> UnstableSystem | None:
    """UnstableSystem for a system with eigenvalues lam, None when they all
    lie in the open left half-plane."""
    alpha = float(lam.real.max())
    if alpha >= 0.0:
        return UnstableSystem(f"spectral abscissa is {alpha:.6g} >= 0; H-infinity norm undefined")
    return None


def _residues(V: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """Modal residues of a system with eigenvector basis V: row k holds the
    residue CV[:, k] (V^-1 B)[k, :] of the k-th pole, flattened; None when
    LAPACK's 1-norm estimate of cond(V) exceeds 1e8.  One LU of V gives both
    the estimate and V^-1 B."""
    lu, piv, info = la.lapack.zgetrf(V)
    rcond = la.lapack.zgecon(lu, np.abs(V).sum(axis=0).max())[0] if info == 0 else 0.0
    if not rcond > 1e-8:
        return None
    CV = C @ V
    VB = la.lapack.zgetrs(lu, piv, B)[0]
    return (CV.T[:, :, None] * VB[:, None, :]).reshape(V.shape[0], -1)


def _sigma_slope(T0: np.ndarray, T1: np.ndarray, T2: np.ndarray) -> tuple:
    """sigma_max(T) and the first two frequency derivatives of sigma_max(T)^2,
    of one matrix or of each matrix of a stack (leading axis).

    Perturbation theory for the top eigenvalue of T^H T, whose eigenvectors
    are the right singular vectors of T; T1 and T2 are dT/dw and d2T/dw2.
    """
    U, s, Vh = np.linalg.svd(T0)
    V = Vh.conj().swapaxes(-1, -2)
    a = U.conj().swapaxes(-1, -2) @ T1 @ V
    # .T[0] indexes the last axis: a scalar for one matrix, an array for a stack
    s1 = s.T[0]
    slope = 2.0 * s1 * a.T[0, 0].real
    top = (U[..., :, 0].conj()[..., None, :] @ T2 @ V[..., :, :1]).T[0, 0]
    curv = 2.0 * s1 * top.real + 2.0 * np.sum(np.abs(a[..., :, 0]) ** 2, axis=-1)
    # coupling through v_k^H (T^H T)' v_1 to the other eigenvectors of T^H T
    k = s.shape[-1]
    cross = s1[..., None] * a[..., 0, 1:].conj()
    cross[..., : k - 1] += s[..., 1:] * a[..., 1:k, 0]
    rest = np.zeros(cross.shape)
    rest[..., : k - 1] = s[..., 1:]
    gaps = (s1 * s1)[..., None] - rest**2
    curv += 2.0 * np.sum(np.abs(cross) ** 2 / np.maximum(gaps, 1e-300), axis=-1)
    return s1, slope, curv


def _polish_many(ev: _FreqEvaluator, starts) -> list[tuple[float, float]]:
    """Local maxima (w, sigma) of sigma_max, one per start (j, omegas, vals,
    i): member j of the stack ev from point i of its ascending grid omegas
    with sigma values vals.

    Safeguarded Newton steps on d(sigma^2)/dw inside the bracket of the
    point's grid neighbours: the slope's sign moves the bracket end on the
    descending side, and any step that is not a concave Newton step inside
    the bracket becomes a bisection.  Past the last grid point the bracket
    is open on the right; while sigma still rises there the polish stops
    rather than bisect toward an arbitrary end (a finite peak beyond it is
    left to the Hamiltonian probe).  sigma is even in w, so the slope
    vanishes at w = 0 and the curvature decides there.  Each start returns
    the best point evaluated, never worse than (omegas[i], vals[i]).  The
    starts still running take each step as one stack.
    """
    runs = []
    for j, omegas, vals, i in starts:
        lo = float(omegas[i - 1]) if i > 0 else 0.0
        open_right = i + 1 == omegas.size
        hi = float(2.0 * omegas[i] if open_right else omegas[i + 1])
        w = float(omegas[i])
        # lo, hi, w, open right, tolerance, best omega, best sigma
        runs.append([lo, hi, w, open_right, 1e-13 * max(w, hi - lo), w, float(vals[i])])
    going = list(range(len(runs)))
    for _ in range(_POLISH_ITERS):
        if not going:
            break
        if len(going) == 1:
            # one start left: its member's arrays without the stack axis
            k = going[0]
            steps = [[float(x) for x in _sigma_slope(*ev.derivatives(runs[k][2], starts[k][0]))]]
        else:
            members = [starts[k][0] for k in going]
            # a slice takes views where every member of the stack is going
            if members == list(range(len(ev.lam))):
                members = slice(None)
            T = ev.derivatives([runs[k][2] for k in going], members)
            steps = zip(*(x.tolist() for x in _sigma_slope(*T)))
        still = []
        for k, (s, slope, curv) in zip(going, steps):
            run = runs[k]
            lo, hi, w, open_right, tol = run[:5]
            if s > run[6]:
                run[5], run[6] = w, s
            if slope > 0.0:
                lo = w
            elif slope < 0.0:
                hi = w
                open_right = False
            nxt = max(w - slope / curv, 0.0) if curv < 0.0 else math.nan
            if not lo <= nxt <= hi:
                if open_right and slope > 0.0:
                    continue
                nxt = 0.5 * (lo + hi)
            if abs(nxt - w) <= tol:
                continue
            run[:4] = lo, hi, nxt, open_right
            still.append(k)
        going = still
    return [(run[5], run[6]) for run in runs]


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


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a real array without NaNs, for a fraction of its fixed
    cost: sorted the same way, each repeat after the first dropped."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _level_grid(lam: np.ndarray) -> np.ndarray:
    """The distinct |Im lam| of Hamiltonian eigenvalues and the midpoints
    between them, ascending; a value within 1e-9 (1 + w) of the one below it
    is numerically identical and dropped."""
    w = _unique(np.abs(lam.imag))
    keep = np.ones(w.size, dtype=bool)
    keep[1:] = np.diff(w) > 1e-9 * (1.0 + w[1:])
    w = w[keep]
    return np.sort(np.concatenate([w, 0.5 * (w[:-1] + w[1:])]))


def _candidate_frequencies(eigenvalues: np.ndarray) -> np.ndarray:
    """Initial probe frequencies from the pole pattern (plus dc), ascending."""
    w = np.ravel(eigenvalues)
    return _unique(np.concatenate([[0.0], np.abs(w), np.abs(w.imag)]))


def _scan_grid(ev: _FreqEvaluator, best_omega: float, points: int) -> np.ndarray:
    """Log grid spanning the pole frequencies of a stack of one, densified
    near the current peak."""
    mags = np.abs(ev.lam)
    mags = mags[mags > 0]
    lo = float(mags.min()) * 1e-4 if mags.size else 1e-4
    hi = float(mags.max()) * 1e4 if mags.size else 1e4
    lo = max(lo, 1e-12)
    hi = max(hi, 10.0 * lo)
    grid = [np.zeros(1), np.geomspace(lo, hi, points), ev.cands[0]]
    if best_omega > 0:
        grid.append(best_omega * _NEAR_PEAK)
    return _unique(np.concatenate(grid))


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
    best = max(peak[1] for peak in _polish_many(ev, [(0, grid, vals, i) for i in competitors[:4]]))
    return float(gamma - best)


def _check_rel_tol(rel_tol: float) -> None:
    if not (_MIN_REL_TOL <= rel_tol <= 1e-2):
        raise ValueError(f"rel_tol must be in [{_MIN_REL_TOL:g}, 1e-2], got {rel_tol}")


def _hinf(
    sys: StateSpace,
    rel_tol: float,
    *,
    bound: float,
    hints: tuple[float, ...] = (),
) -> list:
    """H-infinity norms of a stack of finite systems of order n > 0, each
    certified only where it may be at most bound.  Returns per member its
    NormResult, or its error: UnstableSystem, or EigenFailure for a member
    whose eigenvalue iteration, on A or on a Hamiltonian probe, fails.

    Each member takes an eigendecomposition call of its own.  The members
    fall into evaluator groups: one stack of those with a well-conditioned
    eigenvector basis, and one factor-and-solve evaluator for each of the
    others.  Each group takes one lower-bound stage (see `_lower_bounds`),
    then each of its members takes the level-set stage on the same
    evaluator while its lower bound is at most the bound (see
    `_level_set`).  At a finite bound (a line-search trial's) a member is
    polished only where its lower bound before polishing is at most the
    bound; at -inf every member is.
    """
    out: list = [None] * len(sys.A)
    groups, modal, lams, residues = [], [], [], []
    for k in range(len(sys.A)):
        try:
            w, vectors = np.linalg.eig(sys.A[k])
        except np.linalg.LinAlgError:
            out[k] = EigenFailure("eigenvalue iteration failed on A")
            continue
        out[k] = _instability(w)
        if out[k] is not None:
            continue
        res = _residues(vectors, sys.B[k], sys.C[k])
        if res is None:
            abc = (sys.A[k], sys.B[k], sys.C[k])
            groups.append((_FreqEvaluator(w[None], sys.D[k : k + 1], None, abc), [k]))
        else:
            modal.append(k)
            lams.append(w)
            residues.append(res)
    # the eigenvector basis, 1.4 MB at n = 300, is not needed past here
    vectors = None
    sigma_d = np.linalg.svd(sys.D, compute_uv=False)[:, 0].tolist()
    if modal:
        # each member's residues keep the column-major layout `_residues`
        # gives them: a product at one frequency rounds differently on a
        # row-major copy
        stacked = np.array([r.T for r in residues]).swapaxes(1, 2)
        D = sys.D if len(modal) == len(sys.A) else sys.D[modal]
        groups.insert(0, (_FreqEvaluator(np.array(lams), D, stacked), modal))
    limit = math.inf if bound == -math.inf else bound
    for ev, ks in groups:
        peaks = _lower_bounds(ev, [sigma_d[k] for k in ks], hints, limit)
        for i, (k, peak) in enumerate(zip(ks, peaks)):
            out[k] = _level_set(sys._members(k), ev.member(i), sigma_d[k], peak, rel_tol, bound)
    return out


def _lower_bounds(ev: _FreqEvaluator, sigma_d, hints: tuple[float, ...], limit: float) -> list:
    """The lower-bound stage on every member of the stack ev, whose
    sigma_max(D) are sigma_d: per member the best (omega, sigma) of
    sigma_max at its candidate frequencies and the hints, or None for a zero
    system.  A best value in [sigma_max(D), limit] is polished, all of them
    in one `_polish_many` stack; one below sigma_max(D) is left to the probe
    at sigma_max(D), which finds any finite peak above it, and one above
    limit is already too high: polishing could only raise it.  The
    members' candidates go through one stack, each row padded to the
    longest with copies of its last frequency."""
    cands = [_unique(np.concatenate([c, hints])) if len(hints) else c for c in ev.cands]
    grid = np.empty((len(cands), max(c.size for c in cands)))
    for row, c in zip(grid, cands):
        row[: c.size] = c
        row[c.size :] = c[-1]
    peaks: list = []
    starts: list = []
    for j, (c, v) in enumerate(zip(cands, ev.sigma_max_many(grid))):
        v = v[: c.size]
        if float(v.max()) == 0.0 and sigma_d[j] == 0.0:
            # possibly a zero system; a coarse scan decides
            member = ev.member(j)
            c = _scan_grid(member, 0.0, 256)
            v = member.sigma_max_many(c)
            if float(v.max()) == 0.0:
                peaks.append(None)
                continue
        i = int(np.argmax(v))
        peaks.append((float(c[i]), float(v[i])))
        if sigma_d[j] <= v[i] <= limit:
            starts.append((j, c, v, i))
    if starts:
        for start, peak in zip(starts, _polish_many(ev, starts)):
            peaks[start[0]] = peak
    return peaks


def _level_set(
    sys: StateSpace,
    ev: _FreqEvaluator,
    sigma_d: float,
    peak: tuple[float, float] | None,
    rel_tol: float,
    bound: float,
) -> NormResult | EigenFailure:
    """`_hinf`'s result for one system from its lower-bound stage's peak
    (None for a zero system).  The level set probes while the lower bound
    is at most `bound`; one above it, from that peak or a probe's, is
    returned unconverged.  A probe whose Hamiltonian cannot be formed or
    eigendecomposed, or has non-finite eigenvalues, brackets nothing: the
    result is then EigenFailure."""
    if peak is None:
        return NormResult(0.0, 0.0, False, True, 0, ev)
    best_omega, best_finite = peak
    lower = max(sigma_d, best_finite)
    iterations = 0
    converged = False
    while lower <= bound and iterations < _LEVEL_ITERS:
        iterations += 1
        probe = lower * (1.0 + rel_tol)
        try:
            ew = np.linalg.eigvals(_hamiltonian(sys, probe))
        except np.linalg.LinAlgError:
            return EigenFailure("eigenvalue iteration failed on a Hamiltonian probe")
        if not np.all(np.isfinite(ew)):
            return EigenFailure("a Hamiltonian probe has non-finite eigenvalues")
        # one sigma_max pass at the frequencies of all the probe's eigenvalues
        # and the midpoints between them: a crossing of the probe raises the
        # lower bound above it, and a near-tied peak at or below the probe
        # raises it inside the same bracket
        trial = _level_grid(ew)
        tvals = ev.sigma_max_many(trial)
        i = int(np.argmax(tvals))
        if tvals[i] > lower * (1.0 + _MIN_REL_TOL):
            best_omega, best_finite = _polish_many(ev, [(0, trial, tvals, i)])[0]
            if best_finite > probe:
                lower = best_finite
                continue
        converged = True
        break

    at_infinity = sigma_d > best_finite
    omega_peak = 0.0 if at_infinity else best_omega
    return NormResult(max(sigma_d, best_finite), omega_peak, at_infinity, converged, iterations, ev)


def hinf_norm(sys: StateSpace, *, rel_tol: float = 1e-7) -> NormResult:
    """H-infinity norm of a stable system to relative tolerance rel_tol.

    rel_tol must lie in [1e-12, 1e-2]: the level set cannot bracket a
    tighter tolerance.  Raises UnstableSystem when the spectral abscissa of
    A is not strictly negative, and EigenFailure when the eigenvalue
    iteration on A or on a Hamiltonian probe fails.  When the level
    iteration cannot certify the tolerance within 60 Hamiltonian probes,
    the best verified lower bound is returned with converged=False instead
    of raising.  A finite omega_peak is a polished local peak of sigma_max,
    where its frequency derivative vanishes.
    """
    _check_rel_tol(rel_tol)
    if sys.n == 0:
        return NormResult(float(np.linalg.svd(sys.D, compute_uv=False)[0]), 0.0, True, True, 0)
    (found,) = _hinf(sys._members(None), rel_tol, bound=math.inf)
    if isinstance(found, Exception):
        raise found
    return found
