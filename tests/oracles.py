"""Independent reference implementations used to cross-check the package.

Everything here is computed from first definitions with the most direct
formulas available: explicit inverses, dense frequency grids with golden
section refinement, simplex enumeration.  Only the plain data containers are
imported from the package, never its numerics, so a bug in the implementation
cannot hide inside its own oracle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.linalg as la


def controller_tf(k, s: complex) -> np.ndarray:
    """K(s) = DK + CK (sI - AK)^-1 BK by explicit inverse."""
    if k.order == 0:
        return k.DK.astype(complex)
    resolvent = np.linalg.inv(s * np.eye(k.order) - k.AK)
    return k.DK + k.CK @ resolvent @ k.BK


def plant_tf_blocks(plant, s: complex):
    """The four open-loop transfer blocks of the two-port plant at s."""
    resolvent = np.linalg.inv(s * np.eye(plant.n) - plant.A)
    g11 = plant.C1 @ resolvent @ plant.B1 + plant.D11
    g12 = plant.C1 @ resolvent @ plant.B2 + plant.D12
    g21 = plant.C2 @ resolvent @ plant.B1 + plant.D21
    g22 = plant.C2 @ resolvent @ plant.B2 + plant.D22
    return g11, g12, g21, g22


def closed_loop_tf(plant, k, s: complex) -> np.ndarray:
    """Feedback interconnection evaluated blockwise at a single point s.

    T(s) = G11 + G12 K (I - G22 K)^-1 G21 with every factor formed by
    explicit inversion.
    """
    g11, g12, g21, g22 = plant_tf_blocks(plant, s)
    ks = controller_tf(k, s)
    inner = np.linalg.inv(np.eye(plant.p2) - g22 @ ks)
    return g11 + g12 @ ks @ inner @ g21


def abscissa(A) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real))


def _sigma_max(A, B, C, D, omega: float) -> float:
    n = A.shape[0]
    if n == 0:
        return float(np.linalg.norm(D, 2))
    x = np.linalg.solve(1j * omega * np.eye(n) - A, B)
    return float(np.linalg.norm(C @ x + D, 2))


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    """Golden section maximization of a scalar function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    return max(fc, fd)


def hinf_window(sys, lo: float, hi: float, coarse: int = 96, iters: int = 200) -> float:
    """Maximum of sigma_max over a fixed frequency window [lo, hi].

    Dense scan to bracket the top, then golden refinement inside the winning
    cell.  Because the window is fixed, the result is a plain function
    evaluation at machine precision, which makes it safe to difference.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D

    def f(w):
        return _sigma_max(A, B, C, D, w)

    if hi <= lo:
        return f(lo)
    if lo <= 0.0:
        pts = np.concatenate([[0.0], np.geomspace(hi * 1e-6, hi, coarse)])
    else:
        pts = np.geomspace(lo, hi, coarse)
    vals = np.array([f(w) for w in pts])
    i = int(np.argmax(vals))
    a = float(pts[max(i - 1, 0)])
    b = float(pts[min(i + 1, len(pts) - 1)])
    best = float(vals[i])
    if b > a:
        best = max(best, _golden_max(f, a, b, iters))
    return best


def hinf_grid(sys, grid_points: int = 4000) -> float:
    """H-infinity norm by dense frequency grid plus golden section polish.

    Slow and simple on purpose.  The grid spans six decades around the
    eigenvalue magnitudes of A; every strict local maximum of the sampled
    curve is refined by golden section to machine precision.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    D = np.asarray(sys.D, dtype=float)
    n = A.shape[0]
    if n == 0:
        return float(np.linalg.norm(D, 2))
    eigs = np.linalg.eigvals(A)
    assert np.max(eigs.real) < 0.0, "grid oracle requires a stable system"

    mags = np.abs(eigs)
    lo = max(np.min(mags[mags > 0], initial=1.0) * 1e-3, 1e-8)
    hi = np.max(mags, initial=1.0) * 1e3
    omegas = np.concatenate(
        [
            [0.0],
            np.geomspace(lo, hi, grid_points),
            np.abs(eigs.imag[np.abs(eigs.imag) > 0]),
        ]
    )
    omegas = np.unique(omegas)
    vals = np.array([_sigma_max(A, B, C, D, w) for w in omegas])

    best = float(np.linalg.norm(D, 2))
    idx = np.argsort(vals)[::-1][:12]
    peaks = set()
    for i in idx:
        peaks.add(int(i))
    for i in range(1, len(omegas) - 1):
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            peaks.add(i)
    f = lambda w: _sigma_max(A, B, C, D, w)  # noqa: E731
    for i in peaks:
        lo_i = omegas[max(i - 1, 0)]
        hi_i = omegas[min(i + 1, len(omegas) - 1)]
        if hi_i <= lo_i:
            continue
        best = max(best, _golden_max(f, lo_i, hi_i))
    return float(max(best, np.max(vals)))


def brl_holds(sys, gamma: float) -> bool:
    """Bounded real lemma: is ||C (sI - A)^-1 B + D||_inf < gamma?

    For stable A it holds exactly when R = gamma^2 I - D^T D is positive
    definite and the Riccati equation
        A^T X + X A + C^T C + (X B + C^T D) R^-1 (B^T X + D^T C) = 0
    has a stabilizing solution, one with A + B R^-1 (B^T X + D^T C) stable.
    scipy's solver is given the input weight -R.  Below the norm it still
    returns an answer, with a residual near 1e-9 of its scale and closed-loop
    eigenvalues a rounding error off the imaginary axis; an answer counts
    only with a residual under 1e-10 of its scale and closed-loop
    eigenvalues at least 1e-9 max(1, |A|) left of the axis.
    """
    A = np.asarray(sys.A, dtype=float)
    B = np.asarray(sys.B, dtype=float)
    C = np.asarray(sys.C, dtype=float)
    D = np.asarray(sys.D, dtype=float)
    assert np.max(np.linalg.eigvals(A).real) < 0.0, "the lemma needs a stable system"
    R = gamma * gamma * np.eye(D.shape[1]) - D.T @ D
    if np.min(np.linalg.eigvalsh(R)) <= 0.0:
        return False
    S = C.T @ D
    try:
        X = la.solve_continuous_are(A, B, C.T @ C, -R, s=S)
    except (np.linalg.LinAlgError, ValueError):
        return False
    if not np.all(np.isfinite(X)):
        return False
    K = np.linalg.solve(R, B.T @ X + S.T)
    residual = A.T @ X + X @ A + C.T @ C + (X @ B + S) @ K
    scale = max(1.0, np.linalg.norm(X) * np.linalg.norm(A), np.linalg.norm(C.T @ C))
    if np.linalg.norm(residual) > 1e-10 * scale:
        return False
    return bool(np.max(np.linalg.eigvals(A + B @ K).real) < -1e-9 * max(1.0, np.linalg.norm(A)))


def _stable_riccati(H: np.ndarray):
    """The stabilizing solution X = U21 U11^-1 of the Riccati equation of
    the Hamiltonian H, from an orthonormal basis [U11; U21] of its stable
    invariant subspace; None when H has an eigenvalue within 1e-10 |H| of
    the imaginary axis or U11 is singular to 1e-12."""
    n = H.shape[0] // 2
    scale = max(1.0, np.linalg.norm(H))
    if np.min(np.abs(la.eigvals(H).real)) <= 1e-10 * scale:
        return None
    _, U, stable = la.schur(H, output="real", sort="lhp")
    if stable != n or np.linalg.cond(U[:n, :n]) > 1e12:
        return None
    X = la.solve(U[:n, :n].T, U[n:, :n].T).T
    return 0.5 * (X + X.T)


def dgkf_gamma_opt(plant) -> float:
    """The least H-infinity norm over all stabilizing controllers of any
    order, by DGKF gamma-iteration (Doyle, Glover, Khargonekar & Francis,
    IEEE TAC 1989).

    gamma is admissible when both Hamiltonians
        [[A, B1 B1^T / gamma^2 - B2 B2^T], [-C1^T C1, -A^T]] and
        [[A^T, C1^T C1 / gamma^2 - C2^T C2], [-B1 B1^T, -A]]
    have stabilizing Riccati solutions X, Y >= 0 and rho(X Y) < gamma^2;
    gamma_opt is the bound of the admissible set, found by doubling and then
    bisection to 1e-15 relative.  The plant must meet DGKF's normalizing
    assumptions, which are asserted: D11 = 0, D22 = 0,
    D12^T [C1 D12] = [0 I] and [B1; D21] D21^T = [0; I].
    """
    A, B1, B2, C1, C2 = plant.A, plant.B1, plant.B2, plant.C1, plant.C2
    D12, D21 = plant.D12, plant.D21
    assert np.allclose(plant.D11, 0.0, atol=1e-12) and np.allclose(plant.D22, 0.0, atol=1e-12)
    assert np.allclose(D12.T @ C1, 0.0, atol=1e-12)
    assert np.allclose(D12.T @ D12, np.eye(D12.shape[1]), atol=1e-12)
    assert np.allclose(B1 @ D21.T, 0.0, atol=1e-12)
    assert np.allclose(D21 @ D21.T, np.eye(D21.shape[0]), atol=1e-12)

    def admissible(gamma: float) -> bool:
        g2 = gamma * gamma
        X = _stable_riccati(np.block([[A, B1 @ B1.T / g2 - B2 @ B2.T], [-C1.T @ C1, -A.T]]))
        Y = _stable_riccati(np.block([[A.T, C1.T @ C1 / g2 - C2.T @ C2], [-B1 @ B1.T, -A]]))
        if X is None or Y is None:
            return False
        for Z in (X, Y):
            if np.min(np.linalg.eigvalsh(Z)) < -1e-10 * max(1.0, np.linalg.norm(Z)):
                return False
        return bool(np.max(np.abs(np.linalg.eigvals(X @ Y))) < g2)

    hi = 1.0
    while not admissible(hi):
        hi *= 2.0
    lo = 0.5 * hi
    while admissible(lo):
        hi, lo = lo, 0.5 * lo
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_directional(f, x, d, h: float = 1e-6) -> float:
    """Central finite difference of f along direction d."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    return float((f(x + h * d) - f(x - h * d)) / (2.0 * h))


def _simplex_grid(k: int, divisions: int) -> np.ndarray:
    """All points of the unit simplex in R^k at resolution 1/divisions."""
    pts = []
    for bars in combinations(range(divisions + k - 1), k - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(divisions + k - 1 - prev - 1)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / float(divisions)


def min_norm_hull_grid(vectors, divisions: int = 16, rounds: int = 200):
    """Smallest-norm convex combination by shrinking simplex grids.

    Enumerates the simplex at a fixed resolution centered on the incumbent
    and contracts the grid only after a round yields no improvement, so the
    resolution never outruns the incumbent.  The problem is convex, which
    rules out spurious traps; the loop stops once the grid scale is far
    below the accuracy anything here is checked against.
    """
    G = np.asarray(vectors, dtype=float)
    k = G.shape[0]
    if k == 1:
        return G[0].copy(), np.ones(1)
    grid = _simplex_grid(k, divisions)
    lam_best = np.full(k, 1.0 / k)
    best = np.linalg.norm(lam_best @ G)
    shrink = 1.0
    for _ in range(rounds):
        cand = lam_best + shrink * (grid - lam_best)
        norms = np.linalg.norm(cand @ G, axis=1)
        i = int(np.argmin(norms))
        if norms[i] < best - 1e-15 * (1.0 + best):
            best = float(norms[i])
            lam_best = cand[i]
        else:
            shrink *= 0.5
            if shrink < 1e-8:
                break
    return lam_best @ G, lam_best
