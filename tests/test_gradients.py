"""Gradient formulas checked against central finite differences."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from conftest import random_plant
from fixedhinf import (
    Controller,
    Plant,
    Smoothness,
    abscissa_gradient,
    analysis,
    hinf_gradient,
    hinf_norm,
    lft_closed_loop,
    pack_controller,
    param_count,
    spectral_abscissa,
    unpack_controller,
)

FD_STEP = 1e-6
FD_REL = 1e-5


def _abscissa_of(plant, theta, order):
    k = unpack_controller(theta, order, plant.p2, plant.m2)
    return spectral_abscissa(lft_closed_loop(plant, k).A).alpha


def _norm_of(plant, theta, order):
    # tight certificate: differencing over h = 1e-6 amplifies any slack in
    # the evaluations by 1e6, so the default tolerance is nowhere near enough
    k = unpack_controller(theta, order, plant.p2, plant.m2)
    return hinf_norm(lft_closed_loop(plant, k), rel_tol=1e-11).gamma


def test_abscissa_gradient_scalar_loop_is_exact():
    # closed loop a + dk, so d(alpha)/d(dk) = 1 identically
    plant = Plant.from_blocks(
        [[-2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]
    )
    rep = abscissa_gradient(plant, Controller.static([[0.5]]))
    assert rep.value == pytest.approx(-1.5, abs=1e-12)
    assert rep.grad.shape == (1,)
    assert rep.grad[0] == pytest.approx(1.0, rel=1e-10)
    assert rep.smoothness_hint is Smoothness.SMOOTH


def test_gradient_length_matches_param_count(make_plant):
    plant = make_plant(n=3, m1=2, m2=2, p1=2, p2=2, stable=True)
    for order in (0, 1, 2):
        k = Controller.zero(order, plant.p2, plant.m2)
        rep = abscissa_gradient(plant, k)
        assert rep.grad.shape == (param_count(order, plant.p2, plant.m2),)


def test_abscissa_gradient_matches_fd(rng):
    hits = 0
    trials = 0
    for _ in range(20):
        order = int(rng.integers(0, 3))
        plant = random_plant(rng, 4, 2, 2, 2, 2, d22=bool(rng.integers(0, 2)))
        theta = 0.5 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
        k = unpack_controller(theta, order, plant.p2, plant.m2)
        rep = abscissa_gradient(plant, k)
        if rep.smoothness_hint is not Smoothness.SMOOTH:
            continue
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        fd = oracles.fd_directional(
            lambda t: _abscissa_of(plant, t, order), theta, d, FD_STEP
        )
        trials += 1
        if abs(fd - rep.grad @ d) <= FD_REL * (1.0 + abs(fd)):
            hits += 1
    assert trials >= 10
    assert hits == trials


def test_hinf_gradient_matches_fd(rng):
    hits = 0
    trials = 0
    while trials < 12:
        order = int(rng.integers(0, 3))
        plant = random_plant(
            rng, 3, 2, 2, 2, 2, stable=True, margin=1.0, d22=bool(rng.integers(0, 2))
        )
        theta = 0.1 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
        k = unpack_controller(theta, order, plant.p2, plant.m2)
        if spectral_abscissa(lft_closed_loop(plant, k).A).alpha >= -1e-3:
            continue
        rep = hinf_gradient(plant, k)
        if rep.smoothness_hint is not Smoothness.SMOOTH:
            continue
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        fd = oracles.fd_directional(
            lambda t: _norm_of(plant, t, order), theta, d, FD_STEP
        )
        trials += 1
        if abs(fd - rep.grad @ d) <= FD_REL * (1.0 + abs(fd)):
            hits += 1
    assert hits == trials


def test_gradients_with_d22_and_dynamic_controller_match_fd():
    """D22 != 0 and a first-order controller: both chain rules run through
    L = P (I - K D22)^-1 and R = (I - D22 K)^-1 Q of the augmented plant,
    with K = [[DK, CK], [BK, AK]], in every parameter block."""
    rng = np.random.default_rng(5150)
    plant = random_plant(rng, 3, 2, 2, 2, 2, stable=True, margin=1.0)
    plant = dataclasses.replace(plant, D22=0.6 * rng.standard_normal((2, 2)))
    order = 1
    theta = 0.3 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
    k = unpack_controller(theta, order, plant.p2, plant.m2)
    assert np.linalg.norm(plant.D22 @ k.DK, 2) > 0.05
    for grad_of, value_of in (
        (abscissa_gradient, _abscissa_of),
        (hinf_gradient, _norm_of),
    ):
        rep = grad_of(plant, k)
        assert rep.smoothness_hint is Smoothness.SMOOTH
        for _ in range(3):
            d = rng.standard_normal(theta.size)
            d /= np.linalg.norm(d)
            fd = oracles.fd_directional(lambda t: value_of(plant, t, order), theta, d, FD_STEP)
            assert abs(fd - rep.grad @ d) <= FD_REL * (1.0 + abs(fd))


def test_hinf_gradient_value_matches_norm(make_plant):
    plant = make_plant(n=4, m1=2, m2=1, p1=2, p2=1, stable=True)
    k = Controller.zero(0, plant.p2, plant.m2)
    rep = hinf_gradient(plant, k)
    direct = hinf_norm(lft_closed_loop(plant, k)).gamma
    # value tracks hinf_norm to within the norm's own certification tolerance
    assert rep.value == pytest.approx(direct, rel=1e-7)


def _feedthrough_static():
    plant = Plant.from_blocks(
        [[-1.0]], [[1.0]], [[1.0]], [[-0.5]], [[1.0]],
        D11=[[5.0]], D12=[[1.0]], D21=[[1.0]],
    )
    return plant, Controller.static([[0.25]])


def _feedthrough_order2_d22():
    plant = Plant.from_blocks(
        np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([-0.5, 0.3]), np.eye(2),
        D11=np.diag([5.0, 3.0]), D12=np.eye(2), D21=np.eye(2), D22=[[0.5, 0.2], [0.0, 0.4]],
    )
    k = Controller(
        [[-2.0, 0.5], [0.0, -3.0]],
        [[0.1, 0.0], [0.0, 0.2]],
        [[0.1, 0.0], [0.3, 0.1]],
        [[0.25, 0.1], [-0.05, 0.2]],
    )
    return plant, k


@pytest.mark.parametrize(
    "make", [_feedthrough_static, _feedthrough_order2_d22], ids=["static", "order2-d22"]
)
def test_hinf_gradient_at_infinity_differentiates_feedthrough(make):
    """Peak at infinity: only D_cl = D11 + D12 DK (I - D22 DK)^-1 D21 carries
    sensitivity, so the AK, BK and CK blocks vanish exactly and the DK block
    is the derivative of sigma_max(D_cl)."""
    plant, k = make()
    assert hinf_norm(lft_closed_loop(plant, k)).attained_at_infinity
    theta = pack_controller(k)

    def sigma_d(t):
        kt = unpack_controller(t, k.order, k.ny, k.nu)
        return np.linalg.norm(lft_closed_loop(plant, kt).D, 2)

    rep = hinf_gradient(plant, k)
    assert rep.value == pytest.approx(sigma_d(theta), rel=1e-9)
    n_dk = k.nu * k.ny
    assert np.all(rep.grad[: theta.size - n_dk] == 0.0)
    for i in range(theta.size - n_dk, theta.size):
        fd = oracles.fd_directional(sigma_d, theta, np.eye(theta.size)[i], FD_STEP)
        assert abs(fd - rep.grad[i]) <= FD_REL * (1.0 + abs(fd))
    if k.order == 0:
        # D_cl = 5 + dk, so the norm is 5.25 and its derivative 1
        assert rep.value == pytest.approx(5.25, rel=1e-9)
        assert rep.grad[0] == pytest.approx(1.0, rel=1e-9)


def test_abscissa_near_tie_on_repeated_eigenvalue():
    # decoupled states with identical decay rates tie at any static gain small
    # enough to keep the loop influence below the tie window
    plant = Plant.from_blocks(
        np.diag([-1.0, -1.0]),
        np.eye(2),
        [[1e-6], [0.0]],
        np.eye(2),
        [[1.0, 0.0]],
    )
    rep = abscissa_gradient(plant, Controller.static([[0.0]]))
    assert rep.smoothness_hint is Smoothness.NEAR_TIE
    assert rep.tie_gap <= 1e-3


def test_abscissa_complex_pair_is_not_a_tie():
    # a conjugate pair is one smooth branch, not two competing ones
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    plant = Plant.from_blocks(A, np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0, 0.0]])
    rep = abscissa_gradient(plant, Controller.static([[0.1]]))
    assert rep.smoothness_hint is Smoothness.SMOOTH


def test_hinf_near_tie_on_twin_resonant_peaks():
    """Two decoupled resonators with equal damping peak at the same height
    at different frequencies; the scan must flag the competing peak."""

    def osc(wn, zeta=0.1):
        return (
            np.array([[0.0, 1.0], [-wn * wn, -2.0 * zeta * wn]]),
            np.array([[0.0], [wn * wn]]),
            np.array([[1.0, 0.0]]),
        )

    A1, b1, c1 = osc(1.0)
    A2, b2, c2 = osc(3.0)
    A = np.block([[A1, np.zeros((2, 2))], [np.zeros((2, 2)), A2]])
    B1 = np.block([[b1, np.zeros((2, 1))], [np.zeros((2, 1)), b2]])
    C1 = np.block([[c1, np.zeros((1, 2))], [np.zeros((1, 2)), c2]])
    plant = Plant.from_blocks(A, B1, np.zeros((4, 1)) + 1e-9, C1, [[1.0, 0.0, 0.0, 0.0]])
    rep = hinf_gradient(plant, Controller.static([[0.0]]))
    assert rep.smoothness_hint is Smoothness.NEAR_TIE
    assert abs(rep.tie_gap) <= 1e-3 * (1.0 + rep.value)
    # the singular-value and feedthrough gaps are wide: the rival-peak scan
    # alone flags the tie
    rep = hinf_gradient(plant, Controller.static([[0.0]]), scan_secondary_peaks=False)
    assert rep.smoothness_hint is Smoothness.SMOOTH


@pytest.mark.parametrize("at_infinity", [False, True])
def test_hinf_gradient_builds_one_frequency_evaluator(monkeypatch, at_infinity):
    """The rival-peak scan reuses the evaluator of the norm, so a default
    gradient call eigendecomposes its closed loop once."""
    # a resonance at w = 1, or 1/(s + 1) - 2 rising to |-2| at infinity
    A = [[-1.0, 0.0], [0.0, -2.0]] if at_infinity else [[0.0, 1.0], [-1.0, -0.2]]
    plant = Plant.from_blocks(
        A, [[1.0], [0.0]], [[1e-9], [0.0]], [[1.0, 0.0]], [[1.0, 0.0]],
        D11=[[-2.0 if at_infinity else 0.0]],
    )
    built = []
    init = analysis._FreqEvaluator.__init__

    def counting_init(self, sys):
        built.append(sys.n)
        init(self, sys)

    monkeypatch.setattr(analysis._FreqEvaluator, "__init__", counting_init)
    k = Controller.static([[0.0]])
    assert hinf_norm(lft_closed_loop(plant, k)).attained_at_infinity is at_infinity
    built.clear()
    rep = hinf_gradient(plant, k)
    assert built == [2]
    assert np.isfinite(rep.value) and np.all(np.isfinite(rep.grad))


def test_hinf_near_tie_when_feedthrough_competes():
    # G = 1e-4/(s+1) + 1: finite peak 1.0001 at omega 0, sigma_max(D) = 1
    plant = Plant.from_blocks(
        [[-1.0]], [[1e-4]], [[1e-9]], [[1.0]], [[1.0]], D11=[[1.0]]
    )
    rep = hinf_gradient(plant, Controller.static([[0.0]]))
    assert rep.value == pytest.approx(1.0001, rel=1e-9)
    assert not np.isnan(rep.tie_gap)
    assert rep.smoothness_hint is Smoothness.NEAR_TIE


def test_gradient_consistent_with_packing_layout(rng):
    """Perturbing one packed coordinate must move the objective by the
    matching gradient entry, which pins the AK/BK/CK/DK ordering."""
    plant = random_plant(rng, 3, 2, 2, 2, 2, stable=True, margin=1.0)
    order = 2
    theta = 0.1 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
    k = unpack_controller(theta, order, plant.p2, plant.m2)
    assert np.array_equal(pack_controller(k), theta)
    rep = abscissa_gradient(plant, k)
    if rep.smoothness_hint is not Smoothness.SMOOTH:
        pytest.skip("tied abscissa at the sampled point")
    for idx in (0, theta.size // 2, theta.size - 1):
        e = np.zeros_like(theta)
        e[idx] = 1.0
        fd = oracles.fd_directional(
            lambda t: _abscissa_of(plant, t, order), theta, e, FD_STEP
        )
        assert fd == pytest.approx(rep.grad[idx], rel=1e-4, abs=1e-8)
