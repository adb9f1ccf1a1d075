"""Containers, packing, and the closed-loop interconnection."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import random_plant
from fixedhinf import (
    Controller,
    DimensionMismatch,
    IllPosed,
    LengthMismatch,
    Plant,
    SingularResolvent,
    StateSpace,
    lft_closed_loop,
    pack_controller,
    param_count,
    transfer_eval,
    unpack_controller,
)
from fixedhinf.statespace import _Interconnection


def test_statespace_shapes_and_properties():
    sys = StateSpace(np.eye(3) * -1.0, np.ones((3, 2)), np.ones((4, 3)), np.zeros((4, 2)))
    assert (sys.n, sys.m, sys.p) == (3, 2, 4)


def test_statespace_accepts_scalar_d():
    sys = StateSpace(np.array([[-1.0]]), np.array([[2.0]]), np.array([[3.0]]), 0.5)
    assert sys.D.shape == (1, 1)
    assert sys.D[0, 0] == 0.5


def test_statespace_matrices_are_read_only():
    sys = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        sys.A[0, 0] = 7.0


def test_statespace_rejects_nonsquare_a():
    with pytest.raises(DimensionMismatch):
        StateSpace(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))


def test_statespace_rejects_wrong_b_rows():
    with pytest.raises(DimensionMismatch, match="B"):
        StateSpace(-np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))


def test_statespace_rejects_nonfinite_entries():
    A = np.array([[-1.0, np.nan], [0.0, -2.0]])
    with pytest.raises(DimensionMismatch, match="finite"):
        StateSpace(A, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))


def test_plant_from_blocks_defaults_d_to_zero():
    plant = Plant.from_blocks(
        -np.eye(2), np.ones((2, 2)), np.ones((2, 1)), np.ones((3, 2)), np.ones((1, 2))
    )
    assert plant.D11.shape == (3, 2) and not plant.D11.any()
    assert plant.D12.shape == (3, 1) and not plant.D12.any()
    assert plant.D21.shape == (1, 2) and not plant.D21.any()
    assert plant.D22.shape == (1, 1) and not plant.D22.any()
    assert (plant.n, plant.m1, plant.m2, plant.p1, plant.p2) == (2, 2, 1, 3, 1)


def test_plant_rejects_mismatched_blocks_by_name():
    with pytest.raises(DimensionMismatch, match="B1"):
        Plant.from_blocks(
            -np.eye(2), np.ones((3, 1)), np.ones((2, 1)), np.eye(2), np.ones((1, 2))
        )
    with pytest.raises(DimensionMismatch, match="C1/C2"):
        Plant.from_blocks(
            -np.eye(2), np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 3)), np.ones((1, 2))
        )
    with pytest.raises(DimensionMismatch, match="D12"):
        Plant.from_blocks(
            -np.eye(2),
            np.ones((2, 1)),
            np.ones((2, 1)),
            np.eye(2),
            np.ones((1, 2)),
            D12=np.ones((2, 5)),
        )


def test_controller_static_and_zero_constructors():
    ks = Controller.static([[1.0, -2.0]])
    assert ks.order == 0 and ks.nu == 1 and ks.ny == 2
    assert ks.AK.shape == (0, 0) and ks.BK.shape == (0, 2) and ks.CK.shape == (1, 0)
    kz = Controller.zero(3, ny=2, nu=1)
    assert kz.order == 3 and not kz.AK.any() and not kz.DK.any()


def test_param_count_formula():
    for order in range(4):
        for ny in (1, 2, 3):
            for nu in (1, 2):
                expected = order * order + order * ny + nu * order + nu * ny
                assert param_count(order, ny, nu) == expected


def test_pack_is_column_major_blockwise():
    k = Controller(
        np.array([[1.0, 3.0], [2.0, 4.0]]),
        np.array([[5.0], [6.0]]),
        np.array([[7.0, 8.0]]),
        np.array([[9.0]]),
    )
    expected = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    assert np.array_equal(pack_controller(k), expected)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("ny,nu", [(1, 1), (2, 1), (1, 3), (2, 2)])
def test_pack_unpack_round_trip(rng, order, ny, nu):
    theta = rng.standard_normal(param_count(order, ny, nu))
    k = unpack_controller(theta, order, ny, nu)
    assert np.array_equal(pack_controller(k), theta)
    k2 = unpack_controller(pack_controller(k), order, ny, nu)
    for blk in ("AK", "BK", "CK", "DK"):
        assert np.array_equal(getattr(k, blk), getattr(k2, blk))


def test_unpack_rejects_wrong_length():
    with pytest.raises(LengthMismatch, match="expected 9"):
        unpack_controller(np.zeros(8), 2, 1, 1)


def test_zero_static_controller_reduces_to_open_loop(make_plant):
    plant = make_plant(n=4, m1=2, m2=2, p1=3, p2=2)
    cl = lft_closed_loop(plant, Controller.zero(0, plant.p2, plant.m2))
    assert np.array_equal(cl.A, plant.A)
    assert np.array_equal(cl.B, plant.B1)
    assert np.array_equal(cl.C, plant.C1)
    assert np.array_equal(cl.D, plant.D11)


def test_closed_loop_dimensions(make_plant):
    plant = make_plant(n=3, m1=2, m2=1, p1=2, p2=1)
    k = Controller.zero(2, plant.p2, plant.m2)
    cl = lft_closed_loop(plant, k)
    assert (cl.n, cl.m, cl.p) == (5, 2, 2)


def test_static_feedback_matches_textbook_formula(rng):
    # with D22 = 0 the closed-loop blocks are affine in DK
    plant = random_plant(rng, 3, 2, 2, 2, 2)
    DK = rng.standard_normal((2, 2))
    cl = lft_closed_loop(plant, Controller.static(DK))
    assert np.allclose(cl.A, plant.A + plant.B2 @ DK @ plant.C2, atol=1e-14)
    assert np.allclose(cl.B, plant.B1 + plant.B2 @ DK @ plant.D21, atol=1e-14)
    assert np.allclose(cl.C, plant.C1 + plant.D12 @ DK @ plant.C2, atol=1e-14)
    assert np.allclose(cl.D, plant.D11 + plant.D12 @ DK @ plant.D21, atol=1e-14)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("d22", [False, True])
def test_closed_loop_transfer_matches_blockwise_oracle(rng, order, d22):
    """The realization must agree with the transfer-function composition.

    The oracle closes the loop pointwise from the four open-loop blocks by
    explicit inversion, so it never sees the realization formulas.
    """
    for trial in range(5):
        plant = random_plant(rng, 4, 2, 2, 3, 2, d22=d22)
        theta = 0.7 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
        k = unpack_controller(theta, order, plant.p2, plant.m2)
        cl = lft_closed_loop(plant, k)
        for s in (0.31 + 1.7j, 2.0 - 0.4j, 5.0j + 0.05):
            got = transfer_eval(cl, s)
            want = oracles.closed_loop_tf(plant, k, s)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_singular_interconnection_raises_ill_posed():
    plant = Plant.from_blocks(
        -np.eye(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
        np.ones((1, 1)), D22=np.ones((1, 1)),
    )
    with pytest.raises(IllPosed):
        lft_closed_loop(plant, Controller.static([[1.0]]))


def test_nearly_singular_interconnection_raises_ill_posed():
    # ||(I - D22 DK)^-1|| = 1e13 sits above the well-posedness cap
    plant = Plant.from_blocks(
        -np.eye(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
        np.ones((1, 1)), D22=np.ones((1, 1)),
    )
    with pytest.raises(IllPosed, match="conditioned"):
        lft_closed_loop(plant, Controller.static([[1.0 - 1e-13]]))


@pytest.mark.parametrize(
    "theta, d22", [(np.nan, 0.0), (np.inf, 0.0), (np.nan, 0.5), (np.inf, 0.5)]
)
def test_a_gain_that_is_not_finite_has_no_loop(theta, d22):
    # with D22 = 0, I - D22*DK is 1 - 0*DK = NaN at such a gain, whose
    # inverse used to read as a badly conditioned interconnection
    plant = Plant.from_blocks(
        -np.eye(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
        np.ones((1, 1)), D22=[[d22]],
    )
    loop = _Interconnection(plant, 0)
    cl, L, R, errors = loop.close(loop.gain(np.array([[theta], [0.25]])))
    assert isinstance(errors[0], IllPosed) and str(errors[0]) == "the closed loop is not finite"
    assert errors[1] is None and len(cl.A) == len(L) == len(R) == 1
    # the finite member keeps the bits of a stack of one
    one, L1, R1, _ = loop.close(loop.gain(np.array([[0.25]])))
    for got, want in zip((cl.A, cl.B, cl.C, cl.D, L, R), (one.A, one.B, one.C, one.D, L1, R1)):
        assert np.array_equal(got, want)


def test_a_singular_member_fails_alone():
    # with D22 = 1, the gain 1 makes I - D22*DK exactly zero
    plant = Plant.from_blocks(
        -np.eye(1), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
        np.ones((1, 1)), D22=np.ones((1, 1)),
    )
    loop = _Interconnection(plant, 0)
    cl, L, R, errors = loop.close(loop.gain(np.array([[1.0], [0.25]])))
    assert isinstance(errors[0], IllPosed) and str(errors[0]) == "I - D22*DK is singular"
    assert errors[1] is None and len(cl.A) == len(L) == len(R) == 1
    # the other member keeps the bits of a stack of one
    one, L1, R1, _ = loop.close(loop.gain(np.array([[0.25]])))
    for got, want in zip((cl.A, cl.B, cl.C, cl.D, L, R), (one.A, one.B, one.C, one.D, L1, R1)):
        assert np.array_equal(got, want)


def test_controller_port_mismatch_is_rejected(make_plant):
    plant = make_plant(n=2, m1=1, m2=1, p1=1, p2=1)
    with pytest.raises(DimensionMismatch, match="port"):
        lft_closed_loop(plant, Controller.static(np.zeros((2, 2))))


def test_transfer_eval_matches_explicit_inverse(make_stable_system):
    sys = make_stable_system(n=5, m=2, p=3)
    s = 0.2 + 0.9j
    want = sys.C @ np.linalg.inv(s * np.eye(5) - sys.A) @ sys.B + sys.D
    assert np.allclose(transfer_eval(sys, s), want, rtol=1e-12)


def test_transfer_eval_static_system_returns_d():
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[3.0, -1.0]])
    got = transfer_eval(sys, 1.0j)
    assert np.array_equal(got, np.array([[3.0, -1.0]], dtype=complex))


def test_transfer_eval_at_eigenvalue_raises():
    sys = StateSpace(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
    with pytest.raises(SingularResolvent):
        transfer_eval(sys, -1.0)

