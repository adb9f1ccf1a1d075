"""Spectral abscissa and H-infinity norm computation."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest
import scipy.linalg as la

import oracles
from conftest import INTERIOR_OPTIMUM, random_plant, stable_system
from fixedhinf import (
    Controller,
    EigenFailure,
    StateSpace,
    UnstableSystem,
    analysis,
    hinf_gradient,
    hinf_norm,
    lft_closed_loop,
    pack_controller,
    spectral_abscissa,
    unpack_controller,
)
from fixedhinf.synthesis import _stage2_oracle


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


def _raising_hamiltonian(sys, gamma):
    raise np.linalg.LinAlgError("Hamiltonian solve failed")


def _nan_eigvals(m):
    return np.full(len(m), np.nan + 0j)


@pytest.mark.parametrize(
    "target, name, unusable, message",
    [
        (analysis, "_hamiltonian", _raising_hamiltonian, "iteration failed on a Hamiltonian probe"),
        (np.linalg, "eigvals", _nan_eigvals, "a Hamiltonian probe has non-finite eigenvalues"),
    ],
    ids=["raises", "not-finite"],
)
def test_an_unusable_hamiltonian_probe_is_an_eigen_failure(
    monkeypatch, interior_plant, target, name, unusable, message
):
    """A probe that cannot be eigendecomposed brackets nothing, and no grid
    search stands in for it: the norm raises EigenFailure, and the stage-2
    oracle takes the point as f = +inf."""
    theta = pack_controller(Controller.static([[-2.0]]))
    oracle = _stage2_oracle(interior_plant, 0, 1e-7)
    assert math.isfinite(oracle(theta, math.inf)[0])
    monkeypatch.setattr(target, name, unusable)
    with pytest.raises(EigenFailure, match=message):
        hinf_norm(_oscillator(2.0, 0.1))
    assert oracle(theta, math.inf) == (math.inf, None)


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
    ev = hinf_norm(lft_closed_loop(interior_plant, Controller.static([[-gain]])))._ev
    omegas = analysis._candidate_frequencies(ev.lam)
    vals = ev.sigma_max_many(omegas)
    i = omegas.size - 1
    assert int(np.argmax(vals)) == i
    calls = _count_slope_calls(monkeypatch)
    omega, sigma = analysis._polish(ev, omegas, vals, i)
    assert len(calls) <= 8
    assert omega >= omegas[i] and vals[i] <= sigma < gain


def test_probe_eigenvalues_give_away_a_near_tied_peak(rng):
    """The lower-bound stage polishes the peak at w = 2.03, which lies less
    than rel_tol below the one at w = 0.36, so the first probe finds no
    crossing.  sigma_max at the probe's near-tangent eigenvalue pair near
    0.36 finds the higher peak, which the norm must return without a second
    probe: the first one already bounds it."""
    plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True)
    theta = np.array([0.1478530260447952, 0.4398693899371137, 0.1324065708272934, 0.02990042237084518])
    sys = lft_closed_loop(plant, unpack_controller(theta, 0, 2, 2))
    norm = hinf_norm(sys)
    sigma_d = float(np.linalg.norm(sys.D, 2))
    ((omega, sigma),) = analysis._lower_bounds(norm._ev, [sigma_d], (), math.inf)
    assert omega == pytest.approx(2.02745, rel=1e-5)
    assert sigma < norm.gamma < sigma * (1.0 + 1e-7)
    assert norm.converged and norm.iterations == 1
    assert norm.gamma == pytest.approx(3.504442261913726, rel=1e-14)
    # sigma is flat to below one ulp over about 1e-8 of frequency here
    assert norm.omega_peak == pytest.approx(0.3600358794507249, rel=1e-8)


def test_probe_eigenvalues_give_away_the_crossings_of_a_probe(rng):
    """No Hamiltonian eigenvalue is classified as on or off the axis:
    sigma_max at the imaginary parts of all of a probe's eigenvalues finds
    its crossings, on systems whose first probe has some."""
    systems = []
    while len(systems) < 6:
        sys = stable_system(rng, int(rng.integers(2, 9)), 2, 2, margin=0.1)
        got = hinf_norm(sys)
        if got.iterations >= 2:
            systems.append((sys, got))
    for sys, got in systems:
        assert got.converged
        assert got.gamma == pytest.approx(oracles.hinf_grid(sys), rel=1e-7)


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


def test_norm_validates_rel_tol(interior_plant):
    # below 1e-12 the level set cannot bracket the tolerance
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    for rel_tol in (0.0, 1e-13, 0.5):
        with pytest.raises(ValueError, match="rel_tol"):
            hinf_norm(sys, rel_tol=rel_tol)
    assert hinf_norm(sys, rel_tol=1e-12).gamma == pytest.approx(1.0, rel=1e-12)
    k = Controller.static([[-2.0]])
    with pytest.raises(ValueError, match="rel_tol"):
        hinf_gradient(interior_plant, k, rel_tol=1e-13)


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


def _bracket_systems():
    """The 100 seeded systems of the acceptance test hinf-norm-oracle, a
    lightly damped two-resonance system and a system with D != 0."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        n, m, p = (int(rng.integers(lo, hi)) for lo, hi in ((1, 11), (1, 4), (1, 4)))
        yield stable_system(rng, n, m, p, margin=0.3)
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A[1] = [-1.0, -0.01, 0.0, 0.0]
    A[3] = [0.0, 0.0, -9.0, -0.012]
    yield StateSpace(A, [[0.0], [1.0], [0.0], [1.0]], [[0.0, 1.0, 0.0, 1.0]], [[0.0]])
    A = np.array([[-0.2, 2.0, 0.0], [-2.0, -0.2, 0.0], [0.0, 0.0, -1.0]])
    B = np.array([[1.0, 0.0], [0.0, 0.5], [1.0, 1.0]])
    C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    yield StateSpace(A, B, C, [[1.0, 0.5], [0.0, -0.8]])


def test_bounded_real_lemma_brackets_the_norm():
    """A check apart from the level-set iteration brackets the norm from
    above: the bounded real lemma holds at gamma (1 + 1e-5) and fails at
    gamma (1 - 1e-5).  A peak at infinity within 1e-5 of sigma_max(D) is
    skipped: there gamma^2 I - D^T D is nearly singular, and the lemma is
    ill conditioned on both sides."""
    checked = 0
    for sys in _bracket_systems():
        gamma = hinf_norm(sys).gamma
        if gamma <= np.linalg.norm(sys.D, 2) * (1.0 + 1e-5):
            continue
        checked += 1
        assert oracles.brl_holds(sys, gamma * (1.0 + 1e-5))
        assert not oracles.brl_holds(sys, gamma * (1.0 - 1e-5))
    assert checked >= 90


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


def test_responses_take_one_solve_per_frequency_on_the_solve_path(rng, monkeypatch):
    # a 40-state Jordan block has no usable eigenvector basis, so every
    # frequency is a factor-and-solve
    n = 40
    A = -np.eye(n) + np.diag(np.ones(n - 1), 1)
    sys = StateSpace(A, rng.standard_normal((n, 2)), rng.standard_normal((2, n)), np.zeros((2, 2)))
    ev = hinf_norm(sys)._ev
    omegas = np.linspace(0.0, 3.0, 10)
    calls = []
    lu_solve = la.lu_solve
    monkeypatch.setattr(la, "lu_solve", lambda *a, **k: calls.append(1) or lu_solve(*a, **k))
    T = ev.responses(omegas)
    assert len(calls) == omegas.size
    for w, Tw in zip(omegas, T):
        assert np.array_equal(Tw, ev.derivatives(w)[0])


def _norm_bits(norm: analysis.NormResult):
    fields = (norm.gamma, norm.omega_peak, norm.attained_at_infinity, norm.converged)
    return tuple(repr(x) for x in fields) + (norm.iterations,)


def _alone(sys: StateSpace, bound, **kwargs):
    """The (NormResult, flag) of sys run as a stack of one."""
    (found,) = analysis._hinf(sys._members(None), 1e-7, bound=bound, **kwargs)
    return found


def _stacked(members):
    """The stack of the systems members, all of one shape."""
    blocks = zip(*((s.A, s.B, s.C, s.D) for s in members))
    return StateSpace._unchecked(*(np.stack(group) for group in blocks))


@pytest.mark.parametrize("hints", [(), (0.7,)])
def test_a_stack_of_one_equals_hinf(rng, hints):
    """A stack of one, on the modal and the solve path, certifies where its
    lower bound is at most the bound and then gives hinf_norm's norm (its
    bits, without hints); otherwise it returns that lower bound, above the
    bound and below the norm to within its tolerance, unconverged and with
    no level-set iteration."""
    n = 30
    jordan = -np.eye(n) + np.diag(np.ones(n - 1), 1)
    systems = [stable_system(rng, int(rng.integers(1, 9)), 2, 3, margin=0.1) for _ in range(6)]
    systems.append(StateSpace(jordan, rng.standard_normal((n, 2)), rng.standard_normal((2, n)), np.eye(2)))
    assert hinf_norm(systems[-1])._ev._modal is None
    for sys in systems:
        want = hinf_norm(sys)
        for bound in (-math.inf, 0.5 * want.gamma, 2.0 * want.gamma, math.inf):
            got, flag = _alone(sys, bound, hints=hints)
            if bound != 0.5 * want.gamma:
                assert flag == (bound > want.gamma)
            if flag and not hints:
                assert _norm_bits(got) == _norm_bits(want)
            elif flag:
                assert got.converged and math.isclose(got.gamma, want.gamma, rel_tol=1e-6)
            else:
                assert bound < got.gamma <= want.gamma * (1.0 + 1e-7)
                assert not got.converged and got.iterations == 0


def test_a_stack_reports_each_members_failure(rng):
    stable = stable_system(rng, 4, 2, 2, margin=0.5)
    unstable = StateSpace(-stable.A, stable.B, stable.C, stable.D)
    blocks = zip((stable.A, stable.B, stable.C, stable.D), (unstable.A, stable.B, stable.C, stable.D))
    stack = StateSpace._unchecked(*(np.stack([a, b, a]) for a, b in blocks))
    stack.A[2, 0, 0] = math.nan
    got = analysis._hinf(stack, 1e-7, bound=math.inf)
    assert _norm_bits(got[0][0]) == _norm_bits(hinf_norm(stable))
    assert isinstance(got[1], UnstableSystem)
    assert isinstance(got[2], EigenFailure)


def test_a_member_whose_eigenvalue_iteration_fails_fails_alone(rng, monkeypatch):
    """Each member takes an eigendecomposition of its own: a member whose
    one fails gets EigenFailure, and the others keep their bits."""
    stable = stable_system(rng, 4, 2, 2, margin=0.5)
    unstable = StateSpace(-stable.A, stable.B, stable.C, stable.D)
    broken = stable_system(rng, 4, 2, 2, margin=0.5)
    stack = _stacked([stable, unstable, broken])
    want = _norm_bits(hinf_norm(stable))
    eig = np.linalg.eig

    def fails_on_broken(a):
        if np.array_equal(a, broken.A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", fails_on_broken)
    gc.collect()
    got = analysis._hinf(stack, 1e-7, bound=math.inf)
    assert _norm_bits(got[0][0]) == want
    assert isinstance(got[1], UnstableSystem)
    assert isinstance(got[2], EigenFailure)
    # an error kept with a traceback would hold the stack in a reference cycle
    del got
    assert gc.collect() == 0


def test_a_stack_gives_each_member_its_bits_alone(rng):
    """Every member of a stack gets the bits of the same system run as a
    stack of one, at every bound, with and without hints, certified or not.
    Members with real eigenvalues share a stack with members whose
    eigenvalues are complex: each member's own eigendecomposition keeps its
    real V real, and with one output C V takes a matrix-vector product
    whose rounding on a complex V would differ.  Modal members share a
    stack with a Jordan block, which has no usable eigenvector basis and
    takes the solve path."""
    stacks = []
    n = 10
    for _ in range(6):
        real = np.diag(-rng.uniform(0.5, 3.0, n)) + 0.5 * np.triu(rng.standard_normal((n, n)), 1)
        B, C, D = rng.standard_normal((n, 2)), rng.standard_normal((1, n)), 0.1 * rng.standard_normal((1, 2))
        stacks.append([StateSpace(real, B, C, D), stable_system(rng, n, 2, 1, margin=0.3)])
    for n in [int(rng.integers(2, 9)) for _ in range(6)] + [30]:
        jordan = -np.eye(n) + np.diag(np.ones(n - 1), 1)
        solved = StateSpace(jordan, rng.standard_normal((n, 2)), rng.standard_normal((3, n)), np.eye(3, 2))
        assert hinf_norm(solved)._ev._modal is None
        stacks.append([stable_system(rng, n, 2, 3, margin=0.1), solved])
    for members in stacks:
        stack = _stacked(members)
        gammas = [hinf_norm(sys).gamma for sys in members]
        # each bound lies below, between or above the members' norms
        bounds = {-math.inf, math.inf} | {scale * g for scale in (0.5, 2.0) for g in gammas}
        for bound in sorted(bounds):
            for hints in ((), (0.7,)):
                got = analysis._hinf(stack, 1e-7, bound=bound, hints=hints)
                for sys, (norm, flag) in zip(members, got):
                    want, want_flag = _alone(sys, bound, hints=hints)
                    assert flag == want_flag and _norm_bits(norm) == _norm_bits(want)


def test_a_trial_is_polished_only_where_its_lower_bound_may_be_certified(rng, monkeypatch):
    """A trial, a call at a finite bound, whose lower bound before
    polishing exceeds its bound is not polished, and returns that bound,
    above the bound and at most the norm; any other trial gets the bits of
    a call at +inf."""
    n = 6
    members = [stable_system(rng, n, 2, 2, margin=0.3) for _ in range(5)]
    # the third member is ill conditioned and takes the solve path
    jordan = -np.eye(n) + np.diag(np.ones(n - 1), 1)
    members[2] = StateSpace(jordan, members[2].B, members[2].C, members[2].D)
    assert analysis._residues(np.linalg.eig(members[2].A)[1], members[2].B, members[2].C) is None
    gammas = [hinf_norm(sys).gamma for sys in members]
    # rejected well below the norm, rejected, rejected on the solve path,
    # accepted, accepted
    bounds = [0.2 * gammas[0], 0.5 * gammas[1], 0.2 * gammas[2], 2.0 * gammas[3], 2.0 * gammas[4]]
    polished = []
    polish = analysis._polish_many

    def counted(ev, starts):
        polished.append(len(starts))
        return polish(ev, starts)

    monkeypatch.setattr(analysis, "_polish_many", counted)
    for sys, bound, gamma in zip(members, bounds, gammas):
        polished.clear()
        norm, flag = _alone(sys, bound, hints=(0.7,))
        assert flag == (bound > gamma)
        if flag:
            assert polished
            want, want_flag = _alone(sys, math.inf, hints=(0.7,))
            assert want_flag and _norm_bits(norm) == _norm_bits(want)
        else:
            assert polished == []
            assert bound < norm.gamma <= gamma and not norm.converged
