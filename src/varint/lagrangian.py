"""Continuous Lagrangians and their pointwise calculus.

A model of jet order k is a Lagrangian L(q, qdot, ..., q^(k)) on n-vectors:
k = 2 for the second-order systems, k = 1 for mechanical Lagrangians
L(q, qdot).  Every model exposes the value, the k + 1 first-partial blocks
and the full symmetric second-partial matrix in jet layout.  Derivatives are
analytic callbacks when supplied (or generated symbolically via
``from_sympy``, each on its first call); otherwise central finite
differences on the value are used and the model is flagged as FD-backed.

Total time derivatives are always expanded by the chain rule on the supplied
partials, never by differencing along a trajectory, so identities involving
the momentum maps hold pointwise.

Internally every call takes one flat jet (the blocks concatenated); the
block-argument ``*_at`` methods are thin wrappers for callers at the API
edge.  Every call, the gradient included, has a stacked twin on jets, one
per row, with the pointwise results bit for bit; the spectral and shooting
solvers evaluate the model through these stacks.  A sympy model whose
acceleration Hessian W is constant and regular also generates its explicit
top derivative q4 = -W^-1 el4 at q4 = 0, which the shooting solver runs.
"""

from __future__ import annotations

import dis
import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .errors import SingularHessian
from .jets import JetPoint

_EPS = float(np.finfo(float).eps)
#: Central-difference step factor for first derivatives.
FD_STEP = _EPS ** (1.0 / 3.0)
#: Step factor for second differences of the value.
FD_STEP2 = _EPS ** 0.25


def _as_vec(x, n, name):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != n:
        raise ValueError(f"{name} must have length {n}, got {v.size}")
    return v


def _central_diff(f, x, step=FD_STEP):
    """Central differences of f at flat point x, one row per coordinate of x:
    the gradient of a scalar f, the transposed Jacobian of a vector f.

    ``f`` maps a stack of points (rows) to the stack of its values and is
    called once, on x + d_i e_i and x - d_i e_i for every coordinate i in
    turn, where d_i = ``step * (1 + |x_i|)``.
    """
    x = np.asarray(x, dtype=float)
    d = step * (1.0 + np.abs(x))
    i = np.arange(x.size)
    X = np.repeat(x[None], 2 * x.size, axis=0)
    X[2 * i, i] += d
    X[2 * i + 1, i] -= d
    F = np.asarray(f(X), dtype=float)
    return (F[0::2] - F[1::2]) / (2.0 * d).reshape((-1,) + (1,) * (F.ndim - 1))


def _fd_hess(f, x):
    """Second differences of scalar f; returns the full symmetric matrix."""
    x = np.asarray(x, dtype=float)
    m = x.size
    H = np.empty((m, m))
    f0 = f(x)
    steps = FD_STEP2 * (1.0 + np.abs(x))
    for i in range(m):
        di = steps[i]
        xp = x.copy(); xp[i] += di
        xm = x.copy(); xm[i] -= di
        H[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / di**2
        for j in range(i + 1, m):
            dj = steps[j]
            xpp = x.copy(); xpp[i] += di; xpp[j] += dj
            xpm = x.copy(); xpm[i] += di; xpm[j] -= dj
            xmp = x.copy(); xmp[i] -= di; xmp[j] += dj
            xmm = x.copy(); xmm[i] -= di; xmm[j] -= dj
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * di * dj)
    return H


class _PowPrinter(NumPyPrinter):
    """NumPy code that spells every power but a square root ``_pow(b, e)``.

    numpy squares a float array exactly but takes ``x ** 2`` of a float64
    scalar with the C ``pow``, and the two differ in the last bit now and
    then.  With the power named, one generated function runs on scalar
    arguments (``_pow`` is ``operator.pow``) and on argument columns
    (``_pow`` is the scalar power per element) with equal results.
    """

    _default_settings = dict(NumPyPrinter._default_settings, fully_qualified_modules=False,
                             inline=True, allow_unknown_functions=True)

    def _hprint_Pow(self, expr, rational=False, sqrt="numpy.sqrt"):
        if not rational and (expr.exp == sp.S.Half or expr.is_commutative and (
                -expr.exp is sp.S.Half or expr.exp is sp.S.NegativeOne)):
            return super()._hprint_Pow(expr, rational=rational, sqrt=sqrt)
        return f"_pow({self._print(expr.base)}, {self._print(expr.exp)})"


def _lambdify(args, expr):
    return sp.lambdify(args, expr, modules=[{"_pow": operator.pow}, "numpy"],
                       printer=_PowPrinter, cse=True)


def _flat(a, pairs):
    # a's entries broadcast to the shape of ``pairs``, as one flat list
    if isinstance(a, np.ndarray) and a.ndim:
        return (a if a.shape == pairs.shape else np.broadcast_to(a, pairs.shape)).ravel().tolist()
    return [a] * pairs.size


def _column_pow(b, e):
    # the C pow per element, as on numpy float64 scalars: math.pow on Python
    # floats, or numpy scalars for the whole call where math.pow raises or
    # gives a nan, so overflow and domain errors give numpy's results and
    # warnings, and a nan numpy's sign (math.pow hands back a nan base as it
    # is, where the C pow of a negative nan to an odd power is positive)
    pairs = np.broadcast(b, e)
    try:
        powers = list(map(math.pow, _flat(b, pairs), _flat(e, pairs)))
    except (ArithmeticError, ValueError):
        powers = None
    if powers is None or math.isnan(sum(powers)):
        powers = [x ** y for x, y in pairs]
    return np.array(powers, dtype=float).reshape(pairs.shape)


def _rebound(f, **names):
    """f's generated code with some of its global names bound anew."""
    own = {k: f.__globals__[k] for k in f.__code__.co_names if k in f.__globals__}
    return types.FunctionType(f.__code__, dict(own, **names))


def _float_pow(b, e):
    # math.pow where it gives no nan, whose sign numpy's C pow may not share
    r = math.pow(b, e)
    if r != r:
        raise ValueError("nan power")
    return r


#: Python-float twins of the numpy functions in generated code, for those
#: that agree with numpy on float64 scalars bit for bit (checked from 1e-3 to
#: 1e3; exp, log, tan, arctan, tanh and cosh do not, so they stay numpy's).
_SCALAR_MATH = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "_pow": _float_pow}


def _nested(rows):
    return rows


def _vector(r):
    return np.asarray(r, dtype=float).reshape(-1)


def _matrix(r):
    return np.asarray(r, dtype=float)


class _Generated:
    """One generated derivative: the lambdified code ``f``, which ``make``
    returns on first use, ``call`` on one flat jet and ``stack`` on a stack
    of them, bit for bit alike; ``shape`` is that of one result.  Nothing is
    derived or lambdified before the first call or stack."""

    def __init__(self, make, shape=()):
        self._make, self.shape = make, shape

    @functools.cached_property
    def f(self):
        return self._make()

    @functools.cached_property
    def floats(self):
        """f's generated code on Python float arguments, with the
        ``_SCALAR_MATH`` functions and ``array`` handing back its nested
        rows, which skips numpy's per-scalar overhead.  Where Python floats
        raise (a math domain error, ``math.pow`` overflow, a non-real or
        nan power, division by zero: ``ArithmeticError`` or ``ValueError``),
        numpy scalars give nan or inf and a warning instead."""
        return _rebound(self.f, array=_nested, **_SCALAR_MATH)

    @functools.cached_property
    def call(self):
        """A plain function (cheaper per call than a method) equal to
        ``f(*y)`` on numpy scalars bit for bit at a flat jet ``y``, carrying
        this evaluator as ``generated``.  It runs ``floats`` on
        ``y.tolist()``; where that raises, the point is evaluated again on
        numpy scalars, so its nan, inf and warnings are numpy's.
        """
        out = (float, _vector, _matrix)[len(self.shape)]

        def call(y):
            try:
                r = self.floats(*y.tolist())
            except (ArithmeticError, ValueError):
                r = self.f(*y)
            return out(r)

        call.generated = self
        return call

    @functools.cached_property
    def min_rows(self):
        # Below this many rows a loop of pointwise calls is faster.  On
        # columns each generated operation pays numpy's fixed cost once per
        # call (about 1 us), on rows a Python-float cost once per row.
        # Measured crossovers by operation count (operator and call
        # instructions in the generated bytecode): one row for a constant f
        # (one operation), 2-3 for the spline family's el4 and 1-3 for its
        # q4 (both 1-3), 5-6 and 12-15 for an 18-operation Hessian and a
        # 35-operation el4, 27-37 for the lifted two-link Hessian and el4
        # (284 and 444), 16-32 for spline-family values (2-3).
        # The rule 1 + floor(log2(ops)) fits the short code and sends long
        # code and values to columns early.  It stays: shootings of the
        # lifted model stack 1 or 2n = 4 rows, below either crossover, and
        # of the 12.4k stacked calls in an inline ``varint check`` (10.5k
        # of them q4 stacks of 6 to 16 rows) only the 0.2k spline-family
        # values of 9 to 15 rows, under 1 ms, fall in the gap.  Counting
        # bytecode builds no syntax tree of the source.
        ops = sum(i.opname.startswith(("BINARY_", "UNARY_", "CALL"))
                  for i in dis.get_instructions(self.f))
        return ops.bit_length()

    @functools.cached_property
    def _columns(self):
        return _rebound(self.f, array=_nested, _pow=_column_pow)

    def stack(self, X):
        """f at each row of an (M, m) stack, as a new (M, *shape) stack.

        f's generated code runs once on the argument columns, with ``array``
        handing back the nested entries and ``_pow`` taking the scalar power
        per element.  Each entry, a column or a number that does not depend
        on the arguments, fills its own output column.
        """
        vals = self._columns(*X.T)
        out = np.empty((len(X), math.prod(self.shape)))
        for k, e in enumerate(itertools.chain.from_iterable(vals if self.shape else [[vals]])):
            out[:, k] = e
        return out.reshape((len(X),) + self.shape)


def _stacked(call, X):
    """``call`` on each row of X: a generated call runs on the columns of a
    stack of at least ``min_rows`` rows, other calls loop over the rows."""
    generated = getattr(call, "generated", None)
    if generated is not None and len(X) >= generated.min_rows:
        return generated.stack(X)
    return np.array([call(x) for x in X])


def _from_sympy(cls, n, expr, blocks, **kw):
    """Fully analytic model of class ``cls`` from a sympy expression.

    ``blocks`` holds the jet variables, ``cls.order + 1`` sequences of n
    symbols each; ``kw`` goes to the constructor.  Each derivative (value,
    gradient, Hessian and, at order 2, ``el4`` and a constant W's ``q4``) is
    derived and lambdified on its first call, all from one cached list of
    the gradient's expressions.
    """
    blocks = [list(b) for b in blocks]
    args = [s for b in blocks for s in b]
    m = len(args)
    grads = functools.cache(lambda: [sp.diff(expr, s) for s in args])

    def generated(exprs, shape, args=args):
        return _Generated(lambda: _lambdify(args, exprs()), shape).call

    if cls.order == 2:
        jet = blocks + [list(sp.symbols(f"_d{k}q0:{n}", real=True)) for k in (3, 4)]
        kw["el4"] = generated(lambda: _el4_exprs(grads(), *jet), (n,),
                              [s for b in jet for s in b])
    model = cls._of_flat(n, generated(lambda: expr, ()),
                         grad=generated(lambda: sp.Matrix(grads()), (m,)),
                         hess=generated(lambda: sp.Matrix(grads()).jacobian(args), (m, m)),
                         **kw)
    model.sympy_data = (expr, *blocks)
    if cls.order == 2:
        # W does not depend on the jet: where it is regular, q4 is generated
        # as -W^-1 el4 at q4 = 0.  Its entries are read up to the first that
        # depends on the jet, and tested as the numbers the generated Hessian
        # code computes.
        W = list(itertools.takewhile(lambda d: not d.free_symbols, (
            sp.diff(g, s) for g in grads()[2 * n:] for s in blocks[2])))
        if len(W) == n * n:
            printer, names = _PowPrinter(), dict(vars(np), **_SCALAR_MATH)
            _, regular = _regular(np.reshape([eval(printer.doprint(d), names) for d in W],
                                             (1, n, n)))
            if regular[0]:
                model.q4 = generated(
                    lambda: -sp.Matrix(n, n, W).inv() * _el4_exprs(grads(), *jet[:4], [0] * n),
                    (n,), [s for b in jet[:4] for s in b])
    return model


def _el4_exprs(grads, *jet):
    """The equation-of-motion residual of a second-order Lagrangian with the
    first partials ``grads``, at the jet blocks (q, dq, ddq, d3q, d4q)."""
    n = len(jet[0])
    return sp.Matrix([grads[i] - _total_derivative(grads[n + i], jet)
                      + _total_derivative(_total_derivative(grads[2 * n + i], jet), jet)
                      for i in range(n)])


def _total_derivative(e, jet):
    """d/dt of the sympy expression ``e`` along the jet blocks (q, dq, ...):
    the sum over blocks of de/d(block) times the next block."""
    return sum(sp.diff(e, x) * y for a, b in zip(jet, jet[1:]) for x, y in zip(a, b))


class LagrangianModel:
    """A Lagrangian on jets (q, qdot, ..., q^(order)), all n-vectors.

    ``value``, ``grad``, ``hess`` and ``el4`` take one flat jet, the
    ``order + 1`` blocks concatenated (``el4`` five blocks); ``grad`` returns
    the flat first partials.  The ``*_at`` methods take the blocks as
    separate arguments.  ``q4`` maps the four blocks (q, dq, ddq, d3q) to
    the q4 solving the equation of motion where it is generated (a sympy
    model with a constant, regular W) and is None otherwise.

    Parameters
    ----------
    n : state dimension.
    value : callable (q, dq, ...) -> float.
    grad : optional callable returning the ``order + 1`` first-partial
        covectors (dL/dq, dL/dqdot, ...).  FD fallback when omitted.
    hess : optional callable returning the symmetric ((order+1) n, (order+1) n)
        matrix of second partials in jet layout.  FD fallback when omitted.
    el4 : optional callable (q, dq, ddq, d3q, d4q) -> n-vector evaluating the
        full equation-of-motion residual of a second-order model analytically.
    poly_degree : polynomial degree of L in the jet variables, if any; used
        only to size quadratures exactly.
    """

    order = 2

    def __init__(self, n, value, grad=None, hess=None, el4=None,
                 poly_degree=None, name=None):
        n, k = int(n), self.order + 1

        def flat_grad(y):
            g = grad(*y.reshape(k, n))
            return np.concatenate([_as_vec(g[i], n, "grad block") for i in range(k)])

        self._init(n, lambda y: float(value(*y.reshape(k, n))),
                   flat_grad if grad is not None else None,
                   None if hess is None else lambda y: hess(*y.reshape(k, n)),
                   None if el4 is None else
                   lambda y: _as_vec(el4(*y.reshape(5, n)), n, "el4"),
                   poly_degree, name)

    @classmethod
    def _of_flat(cls, n, value, grad=None, hess=None, el4=None,
                 poly_degree=None, name=None):
        """Model from calls that already take one flat jet."""
        model = cls.__new__(cls)
        model._init(n, value, grad, hess, el4, poly_degree, name)
        return model

    def _init(self, n, value, grad, hess, el4, poly_degree, name):
        self.n = n
        self.analytic_grad = grad is not None
        self.analytic_hess = hess is not None
        self.value = value
        self.grad = grad if grad is not None else lambda y: _central_diff(self.value_stack, y)
        if hess is None:
            hess = (self._fd_hess_of_grad if grad is not None
                    else lambda y: _fd_hess(self.value, y))
        self.hess = hess
        self.el4 = el4
        self.poly_degree = poly_degree
        self.name = name or "lagrangian"
        self.sympy_data = None
        self.q4 = None

    def _fd_hess_of_grad(self, y):
        J = _central_diff(lambda Y: [self.grad(z) for z in Y], y)
        return 0.5 * (J + J.T)

    def value_at(self, *x) -> float:
        return self.value(np.concatenate(x))

    def grad_at(self, *x):
        return tuple(self.grad(np.concatenate(x)).reshape(-1, self.n))

    def hess_at(self, *x) -> np.ndarray:
        return self.hess(np.concatenate(x))

    def el4_at(self, q, dq, ddq, d3q, d4q):
        if self.el4 is None:
            return None
        return self.el4(np.concatenate([q, dq, ddq, d3q, d4q]))

    # The same calls on stacks, one flat jet per row, with the same results
    # bit for bit.  Models built from sympy run their generated code once
    # on the columns of a stack of at least ``min_rows`` rows; other models
    # and shorter stacks loop over the rows.

    def value_stack(self, X) -> np.ndarray:
        """``value`` of each row of an (M, (order + 1) n) stack."""
        return _stacked(self.value, X)

    def grad_stack(self, X) -> np.ndarray:
        """``grad`` of each row of an (M, (order + 1) n) stack."""
        return _stacked(self.grad, X)

    def hess_stack(self, X) -> np.ndarray:
        """``hess`` of each row of an (M, (order + 1) n) stack."""
        return _stacked(self.hess, X)

    def el4_stack(self, X):
        """``el4`` of each row of an (M, 5n) stack; None without el4."""
        return None if self.el4 is None else _stacked(self.el4, X)

    @classmethod
    def from_sympy(cls, n, expr, q, dq, ddq, poly_degree=None, name=None):
        """Build a fully analytic second-order model from a sympy expression.

        ``q``, ``dq``, ``ddq`` are sequences of n symbols each.  Every
        derivative, the equation-of-motion residual ``el4`` included, is
        generated on its first call.
        """
        return _from_sympy(cls, n, expr, (q, dq, ddq), poly_degree=poly_degree, name=name)

    def with_position_term(self, f, df, d2f, name=None):
        """New model whose value gains a configuration-only term f(q).

        ``df`` returns the n-gradient and ``d2f`` the (n, n) Hessian of f.
        Each stack (the value, and the gradient, Hessian and el4 where this
        model has them analytically) is this model's stack of the same rows
        with each row's term added to the row's first n entries along each
        axis, and each call is the stack of its one row.
        """
        n = self.n

        def plus_term(stack, term):
            def plus(X):
                S = stack(X)
                T = np.array([term(x[:n]) for x in X], dtype=float)
                S[(slice(None),) + (slice(n),) * (T.ndim - 1)] += T
                return S
            return plus

        stacks = {kind: plus_term(getattr(self, f"{kind}_stack"), term)
                  for kind, term, analytic in [
                      ("value", f, True), ("grad", df, self.analytic_grad),
                      ("hess", d2f, self.analytic_hess), ("el4", df, self.el4 is not None)]
                  if analytic}
        calls = {kind: lambda y, stack=stack: stack(y[None])[0] for kind, stack in stacks.items()}
        calls["value"] = lambda y: float(stacks["value"](y[None])[0])
        model = type(self)._of_flat(n, **calls, name=name or f"{self.name}+penalty")
        vars(model).update({f"{kind}_stack": stack for kind, stack in stacks.items()})
        return model


class MechanicalModel(LagrangianModel):
    """A first-order Lagrangian L(q, qdot) for controlled mechanical systems."""

    order = 1

    @classmethod
    def from_sympy(cls, n, expr, q, dq, name=None):
        """Fully analytic model; ``q``, ``dq`` are sequences of n symbols."""
        return _from_sympy(cls, n, expr, (q, dq), name=name)


@dataclass(frozen=True, eq=False)
class MomentaState:
    """A point (q, v, p, pt) of the cotangent bundle over velocity phase space."""

    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    pt: np.ndarray

    def __post_init__(self):
        for name in ("q", "v", "p", "pt"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float).reshape(-1))
        if not (self.q.size == self.v.size == self.p.size == self.pt.size):
            raise ValueError("q, v, p, pt must share one dimension")

    @property
    def n(self) -> int:
        return self.q.size

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.v, self.p, self.pt])

    @staticmethod
    def from_array(arr, n: int) -> "MomentaState":
        arr = np.asarray(arr, dtype=float)
        return MomentaState(arr[:n], arr[n:2 * n], arr[2 * n:3 * n], arr[3 * n:])


def _momentum_rate(L: LagrangianModel, q, dq, ddq, d3q):
    """Total time derivative of dL/dqddot along the jet, from second partials."""
    n = L.n
    H = L.hess_at(q, dq, ddq)
    return H[:n, 2 * n:].T @ dq + H[n:2 * n, 2 * n:].T @ ddq + H[2 * n:, 2 * n:] @ d3q


def el_residual_raw(L: LagrangianModel, q, dq, ddq, d3q, d4q) -> np.ndarray:
    """Array-argument form of :func:`el_residual` (hot-loop entry point)."""
    ana = L.el4_at(q, dq, ddq, d3q, d4q)
    if ana is not None:
        return ana
    n = L.n
    Lq, Ldq, _ = L.grad_at(q, dq, ddq)
    H = L.hess_at(q, dq, ddq)
    p_rate = (H[:n, n:2 * n].T @ dq + H[n:2 * n, n:2 * n] @ ddq
              + H[n:2 * n, 2 * n:] @ d3q)

    # step balances truncation against the noise level of the inner second
    # partials: exact for analytic ones, difference noise otherwise
    if L.analytic_hess:
        factor = FD_STEP
    elif L.analytic_grad:
        factor = _EPS ** (2.0 / 9.0)
    else:
        factor = _EPS ** (1.0 / 6.0)
    scale = 1.0 + max(np.max(np.abs(np.concatenate([q, dq, ddq]))), 0.0)
    drive = 1.0 + np.max(np.abs(np.concatenate([dq, ddq, d3q])))
    d = factor * scale / drive
    Gp = _momentum_rate(L, q + d * dq, dq + d * ddq, ddq + d * d3q, d3q)
    Gm = _momentum_rate(L, q - d * dq, dq - d * ddq, ddq - d * d3q, d3q)
    g_rate = (Gp - Gm) / (2.0 * d) + H[2 * n:, 2 * n:] @ d4q
    return g_rate - p_rate + Lq


def el_residual(L: LagrangianModel, jet: JetPoint) -> np.ndarray:
    """Equation-of-motion residual d^2/dt^2 dL/dqddot - d/dt dL/dqdot + dL/dq.

    The jet must have order 4.  The outer total derivative is the directional
    derivative of the momentum-rate map along the jet; it is evaluated
    analytically when the model provides ``el4`` and by a central difference
    in the jet direction otherwise (exact whenever L is quadratic).
    """
    if jet.order < 4:
        raise ValueError("el_residual needs a jet of order 4")
    return el_residual_raw(L, *(jet.deriv(j) for j in range(5)))


def _acceleration_hessian(L: LagrangianModel, X):
    """Symmetrized W = d^2 L / dqddot dqddot at each row of an (M, 3n) stack
    of (q, dq, ddq), and whether each is regular, by :func:`_regular`."""
    n = L.n
    return _regular(L.hess_stack(X)[:, 2 * n:, 2 * n:])


def _regular(W):
    """The symmetrized (M, n, n) stack W and whether each is regular, by the
    scale-aware test |det W| > 1e-10 * max|W|**n."""
    n = W.shape[1]
    W = 0.5 * (W + W.transpose(0, 2, 1))
    scale = np.abs(W).reshape(len(W), -1).max(axis=1)
    return W, np.abs(np.linalg.det(W)) > 1e-10 * scale ** n


def hessian_W(L: LagrangianModel, jet: JetPoint):
    """Acceleration Hessian W = d^2 L / dqddot dqddot and a regularity flag.

    The flag uses a scale-aware threshold: |det W| > 1e-10 * max|W|**n.
    """
    W, regular = _acceleration_hessian(L, jet.as_array()[None, :3 * L.n])
    return W[0], bool(regular[0])


def fourth_order_rhs_raw(L: LagrangianModel, Y) -> np.ndarray:
    """Stacked form of :func:`fourth_order_rhs`: the q4 of each row of an
    (M, 4n) stack of (q, dq, ddq, d3q).  A model with a generated ``q4``
    (a constant, regular W) runs it on the stack; others take W at each
    row, one stacked determinant and one stacked solve."""
    if L.q4 is not None:
        return _stacked(L.q4, Y)
    n = L.n
    W, regular = _acceleration_hessian(L, Y[:, :3 * n])
    if not regular.all():
        raise SingularHessian(f"acceleration Hessian of {L.name} is singular at this jet")
    Z = np.concatenate([Y, np.zeros((len(Y), n))], axis=1)
    R = L.el4_stack(Z)
    if R is None:
        R = np.array([el_residual_raw(L, *z.reshape(5, n)) for z in Z])
    return np.linalg.solve(W, -R[:, :, None])[:, :, 0]


def fourth_order_rhs(L: LagrangianModel, jet: JetPoint) -> np.ndarray:
    """Explicit top derivative: the q4 making the equation of motion vanish.

    Requires a regular W at the (order-3) jet; the residual is linear in q4
    with coefficient W, so one linear solve inverts it exactly.
    """
    if jet.order < 3:
        raise ValueError("fourth_order_rhs needs a jet of order 3")
    return fourth_order_rhs_raw(L, jet.as_array()[None, :4 * L.n])[0]


def legendre(L: LagrangianModel, jet: JetPoint) -> MomentaState:
    """Continuous momentum map: (q, v, dL/dqdot - d/dt dL/dqddot, dL/dqddot)."""
    if jet.order < 3:
        raise ValueError("legendre needs a jet of order 3")
    q, dq, ddq, d3q = (jet.deriv(j) for j in range(4))
    _, Ldq, Lddq = L.grad_at(q, dq, ddq)
    p = Ldq - _momentum_rate(L, q, dq, ddq, d3q)
    return MomentaState(q, dq, p, Lddq)


def controlled_forces(M: MechanicalModel, jet: JetPoint) -> np.ndarray:
    """Generalized forces u = d/dt dL/dqdot - dL/dq for a fully actuated system."""
    if jet.order < 2:
        raise ValueError("controlled_forces needs a jet of order 2")
    q, dq, ddq = jet.q, jet.deriv(1), jet.deriv(2)
    n = M.n
    Lq, _ = M.grad_at(q, dq)
    H = M.hess_at(q, dq)
    return H[:n, n:].T @ dq + H[n:, n:] @ ddq - Lq


# -- common model builders ----------------------------------------------------

def spline_lagrangian(n: int = 1) -> LagrangianModel:
    """L = 1/2 |qddot|^2, whose trajectories are componentwise cubics."""
    return named_lagrangian("spline", n)


def named_lagrangian(name: str, n: int = 1) -> LagrangianModel:
    """Registry of simple built-in second-order Lagrangians."""
    q = sp.symbols(f"q0:{n}", real=True)
    dq = sp.symbols(f"dq0:{n}", real=True)
    ddq = sp.symbols(f"ddq0:{n}", real=True)
    acc = sum(a**2 for a in ddq) / 2
    table = {
        "spline": acc,
        "spline-potential": acc + sum(x**2 for x in q) / 2,
        "spline-velocity": acc + sum(v**2 for v in dq) / 2,
    }
    if name not in table:
        raise KeyError(f"unknown lagrangian {name!r}; known: {sorted(table)}")
    return LagrangianModel.from_sympy(n, table[name], q, dq, ddq, poly_degree=2, name=name)
