"""State containers: jet points, state pairs, time grids, and discrete paths.

All types are immutable after construction (arrays are marked read-only), so
instances can be shared freely between concurrent workers.  Pair states are
packed-first: each holds the flat vector that :func:`pack` returns, which the
solvers work on, and :func:`unpack` wraps such a vector without building jets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def _frozen_vector(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d real vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class JetPoint:
    """A configuration together with its first ``order`` time derivatives.

    ``q`` holds chart coordinates; ``derivs[j]`` is the (j+1)-th derivative,
    in units of position/time**(j+1).  All vectors share the dimension ``n``.
    """

    q: np.ndarray
    derivs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen_vector(self.q, "q"))
        ds = tuple(_frozen_vector(d, f"derivs[{i}]") for i, d in enumerate(self.derivs))
        for i, d in enumerate(ds):
            if d.shape != self.q.shape:
                raise ValueError(f"derivs[{i}] has dimension {d.size}, expected {self.q.size}")
        object.__setattr__(self, "derivs", ds)

    @property
    def order(self) -> int:
        return len(self.derivs)

    @property
    def dim(self) -> int:
        return self.q.size

    def deriv(self, j: int) -> np.ndarray:
        """j-th derivative; ``deriv(0)`` is the configuration itself."""
        return self.q if j == 0 else self.derivs[j - 1]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, *self.derivs]) if self.derivs else self.q.copy()

    @staticmethod
    def from_array(arr, order: int, n: int) -> "JetPoint":
        arr = np.asarray(arr, dtype=float)
        if arr.size != (order + 1) * n:
            raise ValueError(f"expected length {(order + 1) * n}, got {arr.size}")
        parts = arr.reshape(order + 1, n)
        return JetPoint(parts[0], tuple(parts[1:]))

    def __repr__(self):  # keep reprs short in failures
        parts = ", ".join(np.array2string(self.deriv(j), precision=6) for j in range(self.order + 1))
        return f"JetPoint({parts})"


@dataclass(frozen=True, eq=False, init=False)
class PairState:
    """Two jet points of equal order plus the step ``h`` separating them.

    With jets of order k-1 this is the discrete state of a k-th order scheme;
    for k = 2 it carries (q0, v0, q1, v1).  The state is stored only packed,
    as the read-only vector :func:`pack` returns; ``left`` and ``right`` are
    jets built from it on first access.  :func:`unpack` is the cheap constructor.

    A pair of a path sweep also knows the read-only pair array whose row it
    is: ``_sweep`` is (array, row, memo), with one ``memo`` dict shared by
    the array's pairs, where schemes keep what they evaluate for all rows
    at once.  Only ``flow._pairs_of`` sets it; every other pair has None.
    """

    _packed: np.ndarray
    k: int
    h: float
    _sweep = None

    def __init__(self, left: JetPoint, right: JetPoint, h: float):
        if left.order != right.order:
            raise ValueError("left and right jets must have equal order")
        if left.dim != right.dim:
            raise ValueError("left and right jets must have equal dimension")
        x = np.concatenate([left.q, *left.derivs, right.q, *right.derivs])
        _fill(self, x, left.order + 1, h)

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        object.__setattr__(self, "h", float(self.h))

    @property
    def n(self) -> int:
        return self._packed.size // (2 * self.k)

    @functools.cached_property
    def left(self) -> JetPoint:
        return JetPoint.from_array(self._packed[:self.k * self.n], self.k - 1, self.n)

    @functools.cached_property
    def right(self) -> JetPoint:
        return JetPoint.from_array(self._packed[self.k * self.n:], self.k - 1, self.n)


def _fill(s: PairState, x: np.ndarray, k: int, h: float) -> PairState:
    """Set a pair state's fields; both constructors end here, in ``__post_init__``."""
    x.setflags(write=False)
    object.__setattr__(s, "_packed", x)
    object.__setattr__(s, "k", k)
    object.__setattr__(s, "h", h)
    s.__post_init__()
    return s


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with nodes t0 + i*h for i = 0..N.

    ``times`` is the one node-time formula: the closed form, never an
    accumulation, so node i is ``t0 + i * h`` bit for bit.
    """

    t0: float
    h: float
    N: int

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "N", int(self.N))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.N + 1)


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """A grid, the (N+1, 2n) array of its nodes (q, v) and per-step
    diagnostic arrays.  A writable ``nodes`` array is copied; a read-only
    float array is kept as it is, and its memory must stay unchanged."""

    grid: Grid
    nodes: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.nodes, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.grid.N + 1 or X.shape[1] % 2 or not X.size:
            raise ValueError(f"nodes must have shape ({self.grid.N + 1}, 2n), "
                             f"got {X.shape}")
        if X.flags.writeable:
            X = X.copy()
            X.setflags(write=False)
        object.__setattr__(self, "nodes", X)

    @property
    def n(self) -> int:
        return self.nodes.shape[1] // 2

    @functools.cached_property
    def states(self) -> tuple:
        """The nodes as order-1 jet points, built on first access."""
        return tuple(JetPoint.from_array(x, 1, self.n) for x in self.nodes)

    def positions(self) -> np.ndarray:
        return self.nodes[:, :self.n]

    def velocities(self) -> np.ndarray:
        return self.nodes[:, self.n:]


def uniform_grid(t0: float, T: float, N: int) -> Grid:
    """Grid over [t0, T] with N steps of size (T - t0)/N."""
    if not T > t0:
        raise ValueError(f"need T > t0, got t0={t0}, T={T}")
    if int(N) != N or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return Grid(float(t0), (float(T) - float(t0)) / int(N), int(N))


def pack(state: PairState) -> np.ndarray:
    """The pair state as its read-only 2kn vector (left.q, left.derivs...,
    right...); the same array on every call."""
    return state._packed


def unpack(v, k: int, n: int, h: float = 1.0) -> PairState:
    """Inverse of :func:`pack`.  The step is not part of the flat vector and
    defaults to 1; pass the original ``h`` to get a strict inverse.

    The state keeps a read-only copy of ``v``, or ``v`` itself when it is
    already a read-only float vector, whose memory must then stay unchanged.
    """
    x = np.asarray(v, dtype=float)
    if x.size != 2 * k * n:
        raise ValueError(f"expected length {2 * k * n}, got {x.size}")
    if x.flags.writeable or x.ndim != 1:
        x = x.flatten()
    return _fill(object.__new__(PairState), x, k, h)
