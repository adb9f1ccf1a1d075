"""State-space containers and the plant/controller interconnection.

Conventions: a generalized plant maps exogenous inputs w (m1 wide) and control
inputs u (m2 wide) to performance outputs z (p1 tall) and measured outputs y
(p2 tall).  A controller of order nK maps y to u.  Parameter vectors stack the
controller blocks AK, BK, CK, DK in column-major order.

The loop is closed as static feedback: the controller is the gain
K = [[DK, CK], [BK, AK]] from [y; xK] to [u; xK'] on the plant augmented with
nK integrator states, so every controller order shares one formula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la

from .errors import (
    DimensionMismatch,
    IllPosed,
    LengthMismatch,
    SingularResolvent,
)

__all__ = [
    "StateSpace",
    "Plant",
    "Controller",
    "lft_closed_loop",
    "transfer_eval",
    "pack_controller",
    "unpack_controller",
    "param_count",
]

# Largest admitted 2-norm of (I - D22*DK)^-1; above it the loop is ill posed.
_WELLPOSEDNESS_CAP = 1e12
# Largest admitted condition estimate of sI - A in transfer_eval.
_COND_CAP = 1e12


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    """Coerce `value` to a read-only float64 matrix of the given shape."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat vector is acceptable only when one target dimension is 1
        # (or the block is empty).
        if rows == 1:
            arr = arr.reshape(1, -1)
        elif cols == 1:
            arr = arr.reshape(-1, 1)
        elif arr.size == 0:
            arr = arr.reshape(rows if rows * cols == 0 else -1, cols)
    if arr.ndim != 2 or arr.shape != (rows, cols):
        raise DimensionMismatch(
            f"{name} must have shape ({rows}, {cols}), got {np.asarray(value).shape}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A plain state-space system (A, B, C, D) with transfer C (sI-A)^-1 B + D.

    Inside the package a StateSpace may also hold a stack of systems of one
    shape: every block then carries a leading member axis, and n, m and p
    are those of a member.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        D = np.asarray(self.D, dtype=float)
        if D.ndim == 0:
            D = D.reshape(1, 1)
        if D.ndim != 2:
            raise DimensionMismatch(f"D must be a matrix, got shape {D.shape}")
        p, m = D.shape
        if p < 1 or m < 1:
            raise DimensionMismatch("D must have at least one row and column")
        object.__setattr__(self, "A", _as_matrix(A, n, n, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, n, m, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, p, n, "C"))
        object.__setattr__(self, "D", _as_matrix(D, p, m, "D"))

    @classmethod
    def _unchecked(cls, A, B, C, D) -> "StateSpace":
        """A StateSpace of blocks the package built itself, used as they are."""
        sys = object.__new__(cls)
        for name, block in zip("ABCD", (A, B, C, D)):
            object.__setattr__(sys, name, block)
        return sys

    def _members(self, index) -> "StateSpace":
        """Members of a stack: one system for an integer index, a stack for
        an index array, and a stack of one of a single system for None."""
        return StateSpace._unchecked(self.A[index], self.B[index], self.C[index], self.D[index])

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def m(self) -> int:
        return self.D.shape[-1]

    @property
    def p(self) -> int:
        return self.D.shape[-2]


@dataclass(frozen=True, eq=False)
class Plant:
    """Generalized plant in 9-block form.

    State dimension n >= 1 and all four port widths m1, m2, p1, p2 >= 1.
    Block shapes: A (n,n), B1 (n,m1), B2 (n,m2), C1 (p1,n), C2 (p2,n),
    D11 (p1,m1), D12 (p1,m2), D21 (p2,m1), D22 (p2,m2).
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D11: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    D22: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise DimensionMismatch(f"A must be square and nonempty, got shape {A.shape}")
        n = A.shape[0]
        B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        C1 = np.atleast_2d(np.asarray(self.C1, dtype=float))
        C2 = np.atleast_2d(np.asarray(self.C2, dtype=float))
        if B1.shape[0] != n or B2.shape[0] != n:
            raise DimensionMismatch(
                f"B1/B2 must have {n} rows, got {B1.shape} and {B2.shape}"
            )
        if C1.shape[1] != n or C2.shape[1] != n:
            raise DimensionMismatch(
                f"C1/C2 must have {n} columns, got {C1.shape} and {C2.shape}"
            )
        m1, m2 = B1.shape[1], B2.shape[1]
        p1, p2 = C1.shape[0], C2.shape[0]
        if min(m1, m2, p1, p2) < 1:
            raise DimensionMismatch(
                f"all port widths must be >= 1, got m1={m1} m2={m2} p1={p1} p2={p2}"
            )
        object.__setattr__(self, "A", _as_matrix(A, n, n, "A"))
        object.__setattr__(self, "B1", _as_matrix(B1, n, m1, "B1"))
        object.__setattr__(self, "B2", _as_matrix(B2, n, m2, "B2"))
        object.__setattr__(self, "C1", _as_matrix(C1, p1, n, "C1"))
        object.__setattr__(self, "C2", _as_matrix(C2, p2, n, "C2"))
        object.__setattr__(self, "D11", _as_matrix(self.D11, p1, m1, "D11"))
        object.__setattr__(self, "D12", _as_matrix(self.D12, p1, m2, "D12"))
        object.__setattr__(self, "D21", _as_matrix(self.D21, p2, m1, "D21"))
        object.__setattr__(self, "D22", _as_matrix(self.D22, p2, m2, "D22"))

    @classmethod
    def from_blocks(cls, A, B1, B2, C1, C2, D11=None, D12=None, D21=None, D22=None) -> "Plant":
        """Build a plant, defaulting any omitted D block to zeros."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B1 = np.atleast_2d(np.asarray(B1, dtype=float))
        B2 = np.atleast_2d(np.asarray(B2, dtype=float))
        C1 = np.atleast_2d(np.asarray(C1, dtype=float))
        C2 = np.atleast_2d(np.asarray(C2, dtype=float))
        m1, m2 = B1.shape[-1], B2.shape[-1]
        p1, p2 = C1.shape[0], C2.shape[0]
        if D11 is None:
            D11 = np.zeros((p1, m1))
        if D12 is None:
            D12 = np.zeros((p1, m2))
        if D21 is None:
            D21 = np.zeros((p2, m1))
        if D22 is None:
            D22 = np.zeros((p2, m2))
        return cls(A, B1, B2, C1, C2, D11, D12, D21, D22)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m1(self) -> int:
        return self.B1.shape[1]

    @property
    def m2(self) -> int:
        return self.B2.shape[1]

    @property
    def p1(self) -> int:
        return self.C1.shape[0]

    @property
    def p2(self) -> int:
        return self.C2.shape[0]


@dataclass(frozen=True, eq=False)
class Controller:
    """Fixed-order output-feedback controller (AK, BK, CK, DK).

    Order nK may be zero, in which case AK, BK, CK are empty and the
    controller is the static gain u = DK y.
    """

    AK: np.ndarray
    BK: np.ndarray
    CK: np.ndarray
    DK: np.ndarray

    def __post_init__(self):
        DK = np.atleast_2d(np.asarray(self.DK, dtype=float))
        if DK.ndim != 2 or min(DK.shape) < 1:
            raise DimensionMismatch(f"DK must be a nonempty matrix, got shape {DK.shape}")
        nu, ny = DK.shape
        AK = np.asarray(self.AK, dtype=float)
        nK = AK.shape[0] if AK.ndim == 2 else AK.size
        if AK.size == 0:
            nK = 0
        object.__setattr__(self, "AK", _as_matrix(AK.reshape(nK, -1) if nK else AK, nK, nK, "AK"))
        object.__setattr__(self, "BK", _as_matrix(self.BK, nK, ny, "BK"))
        object.__setattr__(self, "CK", _as_matrix(self.CK, nu, nK, "CK"))
        object.__setattr__(self, "DK", _as_matrix(DK, nu, ny, "DK"))

    @classmethod
    def static(cls, DK) -> "Controller":
        DK = np.atleast_2d(np.asarray(DK, dtype=float))
        nu, ny = DK.shape
        return cls(np.zeros((0, 0)), np.zeros((0, ny)), np.zeros((nu, 0)), DK)

    @classmethod
    def zero(cls, order: int, ny: int, nu: int) -> "Controller":
        return cls(
            np.zeros((order, order)),
            np.zeros((order, ny)),
            np.zeros((nu, order)),
            np.zeros((nu, ny)),
        )

    @property
    def order(self) -> int:
        return self.AK.shape[0]

    @property
    def ny(self) -> int:
        """Number of controller inputs (measured plant outputs)."""
        return self.DK.shape[1]

    @property
    def nu(self) -> int:
        """Number of controller outputs (plant control inputs)."""
        return self.DK.shape[0]


def param_count(order: int, ny: int, nu: int) -> int:
    """Length of the packed parameter vector for the given controller shape."""
    return order * order + order * ny + nu * order + nu * ny


def _gain(k: Controller) -> np.ndarray:
    """The static gain K = [[DK, CK], [BK, AK]] from [y; xK] to [u; xK']."""
    return np.concatenate([np.concatenate([k.DK, k.CK], 1), np.concatenate([k.BK, k.AK], 1)])


def _pack_gain(G: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """The (AK, BK, CK, DK) blocks of a gain-shaped G, each column-major; a
    stack of gains (leading member axis) packs member by member."""
    blocks = (G[..., nu:, ny:], G[..., nu:, :ny], G[..., :nu, ny:], G[..., :nu, :ny])
    lead = G.shape[:-2]
    return np.concatenate([b.swapaxes(-1, -2).reshape(*lead, -1) for b in blocks], axis=-1)


def pack_controller(k: Controller) -> np.ndarray:
    """Flatten (AK, BK, CK, DK) into one vector, each block column-major."""
    return _pack_gain(_gain(k), k.nu, k.ny)


def unpack_controller(theta: np.ndarray, order: int, ny: int, nu: int) -> Controller:
    """Inverse of pack_controller for the given dimensions."""
    theta = np.asarray(theta, dtype=float).ravel()
    expected = param_count(order, ny, nu)
    if theta.size != expected:
        raise LengthMismatch(
            f"parameter vector has length {theta.size}, expected {expected} "
            f"for order={order}, ny={ny}, nu={nu}"
        )
    splits = np.cumsum([order * order, order * ny, nu * order])
    a, b, c, d = np.split(theta, splits)
    return Controller(
        a.reshape((order, order), order="F"),
        b.reshape((order, ny), order="F"),
        c.reshape((nu, order), order="F"),
        d.reshape((nu, ny), order="F"),
    )


def lft_closed_loop(plant: Plant, k: Controller) -> StateSpace:
    """Close the loop u = K y around the generalized plant.

    The controller acts as the static gain K = [[DK, CK], [BK, AK]] from
    [y; xK] to [u; xK'] on the plant augmented with nK integrator states, so
    the result is a StateSpace of order n + nK.  Raises IllPosed when the
    loop does not exist: I - D22*DK is singular, its inverse has 2-norm
    above 1e12, or the loop's entries overflow.
    """
    cl, _, _, errors = _interconnect(plant, k)
    if errors[0] is not None:
        raise errors[0]
    return StateSpace(cl.A[0], cl.B[0], cl.C[0], cl.D[0])


def _interconnect(plant: Plant, k: Controller) -> tuple[StateSpace, np.ndarray, np.ndarray, list]:
    """`_Interconnection.close` of k's gain, a stack of one, on a plant whose
    ports match k's."""
    if k.ny != plant.p2 or k.nu != plant.m2:
        raise DimensionMismatch(
            f"controller is {k.nu}x{k.ny} but plant ports need {plant.m2}x{plant.p2}"
        )
    return _Interconnection(plant, k.order).close(_gain(k)[None])


class _Interconnection:
    """The closed loop of one plant as a function of the gain of a controller
    of one order, with the plant-side padding built once.

    A change dK of the gain moves the loop's [[A, B], [C, D]] by L dK R.
    With the augmented plant's S0 = [[A, B1], [C1, D11]], P = [[B2], [D12]],
    Q = [C2, D21] and D22, the loop is S0 + P K R, R = (I - D22 K)^-1 Q and
    L = P (I - K D22)^-1.  Nothing here validates K: `gain` takes packed
    vectors of the right length, and `close` takes a stack of gains and
    returns the stack of the loops that exist, whose blocks are not
    copied, with each other member's error as a value.
    """

    def __init__(self, plant: Plant, order: int):
        n, nK, m2, p2 = plant.n, order, plant.m2, plant.p2
        N = n + nK
        self.plant, self.N = plant, N
        self.P = np.zeros((N + plant.p1, m2 + nK))
        self.P[:n, :m2] = plant.B2
        self.P[n:N, m2:] = np.eye(nK)
        self.P[N:, :m2] = plant.D12
        self.Q = np.zeros((p2 + nK, N + plant.m1))
        self.Q[:p2, :n] = plant.C2
        self.Q[p2:, n:N] = np.eye(nK)
        self.Q[:p2, N:] = plant.D21
        self.D22 = np.zeros((p2 + nK, m2 + nK))
        self.D22[:p2, :m2] = plant.D22
        self.eye = np.eye(p2 + nK)

    @cached_property
    def _unpack(self) -> np.ndarray:
        """Entry i of the gain, in C order, is entry _unpack[i] of the packed vector."""
        cells = np.arange(self.D22.size).reshape(self.D22.T.shape)
        return np.argsort(_pack_gain(cells, self.plant.m2, self.plant.p2))

    def gain(self, theta: np.ndarray) -> np.ndarray:
        """K = [[DK, CK], [BK, AK]] from a packed controller vector, or a
        stack of gains from a stack of vectors (one per row)."""
        return theta[..., self._unpack].reshape(*theta.shape[:-1], *self.D22.T.shape)

    def close(self, K: np.ndarray) -> tuple[StateSpace, np.ndarray, np.ndarray, list]:
        """The loops closed by a stack of gains K (leading member axis).

        Returns the stack of loops and their factors L and R, stacked alike,
        for the members whose loop exists, and per member its IllPosed error
        or None.  A loop does not exist when an entry of the loop is not
        finite (a gain that is not finite, whatever else holds, or one whose
        loop overflows), I - D22*DK is singular or its inverse has 2-norm
        above 1e12; the arithmetic of such a member raises no floating-point
        warning.  Each member's I - D22*DK is inverted on its own, so that a
        singular one fails only its member, and each member gets the bits
        that a stack of one gives it.
        """
        plant, N, P, D22 = self.plant, self.N, self.P, self.D22
        n, p2 = plant.n, plant.p2
        gain_ok = np.isfinite(K).all(axis=(1, 2))
        errors = [None if ok else IllPosed("the closed loop is not finite") for ok in gain_ok]
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = self.eye - D22 @ K
            delta = np.full_like(lhs, np.nan)
            for j, M in enumerate(lhs):
                try:
                    delta[j] = np.linalg.inv(M)
                except np.linalg.LinAlgError:
                    errors[j] = IllPosed("I - D22*DK is singular")
            # delta = [[(I - D22*DK)^-1, *], [0, I]]: its leading block sets the conditioning
            posed = np.isfinite(delta).all(axis=(1, 2))
            lead = delta[:, :p2, :p2] if posed.all() else delta[posed, :p2, :p2]
            posed[posed] = np.linalg.svd(lead, compute_uv=False)[:, 0] <= _WELLPOSEDNESS_CAP
            if not posed.all():
                for j in np.flatnonzero(~posed):
                    if errors[j] is None:
                        errors[j] = IllPosed(
                            f"interconnection badly conditioned: ||(I - D22*DK)^-1|| exceeds "
                            f"{_WELLPOSEDNESS_CAP:g}"
                        )
                K, delta = K[posed], delta[posed]
            R = delta @ self.Q
            # (I - K D22)^-1 = I + K delta D22 by the push-through identity
            L = P + P @ (K @ delta @ D22)
            # S0 + P K R block by block, with no loop-sized temporary; S0 is zero off the plant
            PK = P @ K
            A = PK[:, :N] @ R[:, :, :N]
            A[:, :n, :n] += plant.A
            B = PK[:, :N] @ R[:, :, N:]
            B[:, :n] += plant.B1
            C = PK[:, N:] @ R[:, :, :N]
            C[:, :, :n] += plant.C1
            D = PK[:, N:] @ R[:, :, N:] + plant.D11
        finite = np.logical_and.reduce([np.isfinite(X).all(axis=(1, 2)) for X in (A, B, C, D)])
        if not finite.all():
            for j, ok in zip(np.flatnonzero(posed), finite):
                if not ok:
                    errors[j] = IllPosed("the closed loop is not finite")
            A, B, C, D, L, R = (X[finite] for X in (A, B, C, D, L, R))
        return StateSpace._unchecked(A, B, C, D), L, R, errors


def transfer_eval(sys: StateSpace, s: complex) -> np.ndarray:
    """Evaluate the transfer matrix C (sI - A)^-1 B + D at one complex point.

    Uses a factor-and-solve, never an explicit inverse.  Raises
    SingularResolvent when its condition estimate exceeds 1e12.
    """
    if sys.n == 0:
        return sys.D.astype(complex)
    M = s * np.eye(sys.n, dtype=complex) - sys.A
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(M)
    except la.LinAlgError as exc:
        raise SingularResolvent(f"sI - A is singular at s = {s}") from exc
    if not np.all(np.isfinite(lu)):
        raise SingularResolvent(f"sI - A is singular at s = {s}")
    anorm = la.norm(M, 1)
    rcond = la.lapack.zgecon(lu, anorm)[0]
    if not np.isfinite(rcond) or rcond < 1.0 / _COND_CAP:
        raise SingularResolvent(
            f"sI - A numerically singular at s = {s} (rcond = {rcond:.3e})"
        )
    X = la.lu_solve((lu, piv), sys.B.astype(complex))
    return sys.C @ X + sys.D

