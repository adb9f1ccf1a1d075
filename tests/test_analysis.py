"""Spectral abscissa and H-infinity norm computation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as la

import oracles
from conftest import INTERIOR_OPTIMUM, stable_system
from fixedhinf import (
    Controller,
    StateSpace,
    UnstableSystem,
    analysis,
    hinf_norm,
    lft_closed_loop,
    spectral_abscissa,
)


def test_abscissa_of_diagonal_matrix():
    res = spectral_abscissa(np.diag([-3.0, -0.25, -7.0]))
    assert res.alpha == pytest.approx(-0.25, abs=1e-14)
    assert res.active_indices == (1,)
    assert res.is_stable


def test_abscissa_reports_all_tied_eigenvalues():
    # complex pair and a real eigenvalue share the same real part
    A = np.array(
        [
            [-1.0, 2.0, 0.0],
            [-2.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    res = spectral_abscissa(A)
    assert res.alpha == pytest.approx(-1.0, abs=1e-12)
    assert len(res.active_indices) == 3


def test_abscissa_matches_eigvals_oracle(rng):
    for n in (1, 2, 5, 9):
        A = rng.standard_normal((n, n))
        res = spectral_abscissa(A)
        assert res.alpha == pytest.approx(oracles.abscissa(A), rel=1e-12, abs=1e-12)


def test_is_stable():
    assert spectral_abscissa(np.diag([-1.0, -2.0])).is_stable
    assert not spectral_abscissa(np.diag([-1.0, 0.0])).is_stable
    assert not spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])).is_stable


def test_norm_of_first_order_lag():
    # G(s) = 1/(s+1): peak value 1 at omega = 0, where the slope of sigma
    # vanishes by symmetry and the polish must stay put
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    res = hinf_norm(sys)
    assert res.gamma == pytest.approx(1.0, rel=1e-15)
    assert res.omega_peak == 0.0
    assert not res.attained_at_infinity
    assert res.converged


def _oscillator(wn=2.0, zeta=0.1):
    return StateSpace(
        [[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]],
        [[0.0], [wn * wn]],
        [[1.0, 0.0]],
        [[0.0]],
    )


def test_norm_of_resonant_second_order_system():
    """Underdamped oscillator against closed-form peak value and location."""
    wn, zeta = 2.0, 0.1
    sys = _oscillator(wn, zeta)
    peak = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta * zeta))
    omega_r = wn * np.sqrt(1.0 - 2.0 * zeta * zeta)
    res = hinf_norm(sys)
    assert res.gamma == pytest.approx(peak, rel=1e-7)
    assert res.omega_peak == pytest.approx(omega_r, rel=1e-4)


def test_lightly_damped_norm_is_certified_by_one_or_two_solves():
    """20 resonances in dense coordinates: the polished starting peak is
    certified by the first Hamiltonian probe or the one after it, and sigma
    at the reported frequency (direct solve) is the norm itself."""
    rng = np.random.default_rng(4040)
    freqs = np.geomspace(0.3, 30.0, 20) * rng.uniform(0.95, 1.05, 20)
    zetas = rng.uniform(0.01, 0.05, 20)
    A0 = la.block_diag(*[[[0.0, 1.0], [-w * w, -2.0 * z * w]] for w, z in zip(freqs, zetas)])
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    sys = StateSpace(
        Q.T @ A0 @ Q, rng.standard_normal((40, 2)), rng.standard_normal((2, 40)), np.zeros((2, 2))
    )
    res = hinf_norm(sys)
    assert res.converged
    assert res.iterations <= 2
    got = oracles._sigma_max(sys.A, sys.B, sys.C, sys.D, res.omega_peak)
    assert got == pytest.approx(res.gamma, rel=1e-12)


def test_grid_fallback_is_not_converged(monkeypatch):
    # a grid search brackets nothing, so it may not claim convergence
    def unusable(sys, gamma):
        raise np.linalg.LinAlgError("Hamiltonian solve failed")

    monkeypatch.setattr(analysis, "_hamiltonian", unusable)
    res = hinf_norm(_oscillator(2.0, 0.1))
    assert not res.converged
    assert res.iterations == 1
    assert res.gamma == pytest.approx(1.0 / (0.2 * np.sqrt(0.99)), rel=1e-12)


def test_norm_attained_at_infinity():
    # |G(jw)| increases toward |D| = 5 without reaching it at finite frequency
    sys = StateSpace([[-1.0]], [[1.0]], [[-0.5]], [[5.0]])
    res = hinf_norm(sys)
    assert res.gamma == pytest.approx(5.0, rel=1e-12)
    assert res.attained_at_infinity


def _count_slope_calls(monkeypatch):
    calls = []
    slope = analysis._sigma_slope

    def counted(*args):
        calls.append(1)
        return slope(*args)

    monkeypatch.setattr(analysis, "_sigma_slope", counted)
    return calls


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-6])
def test_polish_does_not_march_toward_a_peak_at_infinity(monkeypatch, interior_plant, scale):
    """sigma rising toward sigma_max(D) has no finite peak to polish: a norm
    takes a handful of derivative evaluations, none when the peak is at
    infinity, not a bisection toward an arbitrary bracket end.  The
    1 + sqrt(3) plant at and just past its optimal static gain ties and then
    loses the finite peak to D."""
    gain = INTERIOR_OPTIMUM * scale
    cases = [
        (StateSpace([[-1.0]], [[1.0]], [[-0.5]], [[5.0]]), 5.0),
        (lft_closed_loop(interior_plant, Controller.static([[-gain]])), gain),
    ]
    for sys, want in cases:
        calls = _count_slope_calls(monkeypatch)
        res = hinf_norm(sys)
        assert len(calls) <= (0 if res.attained_at_infinity else 8)
        assert res.converged
        assert res.gamma == pytest.approx(want, rel=1e-12)


def test_polish_stops_where_the_open_bracket_still_rises(monkeypatch, interior_plant):
    # from the last pole frequency sigma keeps rising toward sigma_max(D):
    # no finite maximum lies beyond it
    gain = INTERIOR_OPTIMUM * (1.0 + 1e-6)
    ev = analysis._FreqEvaluator(lft_closed_loop(interior_plant, Controller.static([[-gain]])))
    omegas = analysis._candidate_frequencies(ev.lam)
    vals = ev.sigma_max_many(omegas)
    i = omegas.size - 1
    assert int(np.argmax(vals)) == i
    calls = _count_slope_calls(monkeypatch)
    omega, sigma = analysis._polish(ev, omegas, vals, i)
    assert len(calls) <= 8
    assert omega >= omegas[i] and vals[i] <= sigma < gain


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_scan_filter_matches_full_svd_scan(p, m):
    """The tests that spare SVDs in the confirmation scan never change its
    outcome: against an SVD at every grid point, the same None or the same
    polished (w, sigma), for floors below, at and above the grid maximum."""
    rng = np.random.default_rng(6100 + 10 * p + m)
    for _ in range(3):
        sys = stable_system(rng, int(rng.integers(2, 7)), m, p, margin=0.1 + rng.random())
        ev = analysis._FreqEvaluator(sys)
        best_omega = float(np.abs(ev.lam).max())
        omegas = analysis._scan_grid(ev, best_omega, 512)
        vals = np.linalg.svd(ev.responses(omegas), compute_uv=False)[:, 0]
        i = int(np.argmax(vals))
        top = vals[i]
        floors = [
            0.5 * top,
            float(np.quantile(vals, 0.9)),
            top * (1.0 - 1e-9),
            np.nextafter(top, 0.0),
            top,
            np.nextafter(top, np.inf),
            top * (1.0 + 1e-9),
            1.5 * top,
        ]
        for floor in floors:
            want = None if top <= floor else analysis._polish(ev, omegas, vals, i)
            assert analysis._scan_above(ev, best_omega, floor) == want


def test_norm_of_static_system_is_largest_singular_value():
    D = np.array([[3.0, 0.0], [4.0, 1.0]])
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D)
    res = hinf_norm(sys)
    assert res.gamma == pytest.approx(np.linalg.norm(D, 2), rel=1e-14)
    assert res.attained_at_infinity


def test_norm_of_zero_system_is_zero():
    sys = StateSpace(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
    res = hinf_norm(sys)
    assert res.gamma == 0.0
    assert res.converged


def test_norm_rejects_unstable_system():
    sys = StateSpace([[0.1]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(UnstableSystem, match="abscissa"):
        hinf_norm(sys)


def test_norm_rejects_marginally_stable_system():
    A = np.array([[0.0, 1.0], [-4.0, 0.0]])
    sys = StateSpace(A, np.eye(2)[:, :1], np.eye(2)[:1, :], [[0.0]])
    with pytest.raises(UnstableSystem):
        hinf_norm(sys)


def test_norm_validates_rel_tol():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        hinf_norm(sys, rel_tol=0.0)
    with pytest.raises(ValueError):
        hinf_norm(sys, rel_tol=0.5)


def test_norm_agrees_with_grid_oracle(rng):
    """Random stable systems against the dense-grid golden-section oracle."""
    for trial in range(25):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        sys = stable_system(rng, n, m, p, margin=0.3 + rng.random())
        got = hinf_norm(sys, rel_tol=1e-9)
        want = oracles.hinf_grid(sys)
        assert got.gamma == pytest.approx(want, rel=1e-6), f"trial {trial}"


def test_norm_scales_with_output_gain(make_stable_system):
    sys = make_stable_system(n=5, m=2, p=2)
    base = hinf_norm(sys, rel_tol=1e-9).gamma
    for c in (0.1, 3.0, 250.0):
        scaled = StateSpace(sys.A, sys.B, c * sys.C, c * sys.D)
        assert hinf_norm(scaled, rel_tol=1e-9).gamma == pytest.approx(c * base, rel=1e-7)


def test_norm_invariant_under_similarity_transform(rng, make_stable_system):
    sys = make_stable_system(n=6, m=2, p=3)
    base = hinf_norm(sys, rel_tol=1e-9).gamma
    T = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    Ti = np.linalg.inv(T)
    sim = StateSpace(T @ sys.A @ Ti, T @ sys.B, sys.C @ Ti, sys.D)
    assert hinf_norm(sim, rel_tol=1e-9).gamma == pytest.approx(base, rel=1e-7)


def test_norm_of_parallel_connection_is_subadditive(make_stable_system):
    s1 = make_stable_system(n=3, m=2, p=2)
    s2 = make_stable_system(n=4, m=2, p=2)
    A = np.block(
        [[s1.A, np.zeros((3, 4))], [np.zeros((4, 3)), s2.A]]
    )
    par = StateSpace(A, np.vstack([s1.B, s2.B]), np.hstack([s1.C, s2.C]), s1.D + s2.D)
    g1 = hinf_norm(s1).gamma
    g2 = hinf_norm(s2).gamma
    gp = hinf_norm(par).gamma
    assert gp <= (g1 + g2) * (1.0 + 1e-9)


def test_norm_handles_defective_a_matrix():
    # Jordan block: the eigenvector fallback path must still be accurate
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    sys = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    # G(s) = 1/(s+1)^2, peak 1 at omega = 0
    res = hinf_norm(sys, rel_tol=1e-9)
    assert res.gamma == pytest.approx(1.0, rel=1e-8)


def test_norm_tight_tolerance_reports_convergence(make_stable_system):
    sys = make_stable_system(n=7, m=3, p=2)
    res = hinf_norm(sys, rel_tol=1e-9)
    assert res.converged
    assert res.iterations >= 1
    # the certified value is attained: sigma at the reported peak matches
    if not res.attained_at_infinity:
        got = oracles._sigma_max(sys.A, sys.B, sys.C, sys.D, res.omega_peak)
        assert got == pytest.approx(res.gamma, rel=1e-7)
