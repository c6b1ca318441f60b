"""Uniform-grid sampled functions with high-order calculus.

Everything downstream (solution pairs, phase fields, expansion coefficients)
lives on a shared uniform grid and is differentiated, integrated and
phase-unwrapped through this module.

Differentiation uses centered stencils of order 6 in the interior and
one-sided rows of order >= 4 at the edges, generated once per (width, order)
by the Fornberg weight recurrence.  The cumulative integral slides a 6-point
interpolatory rule across the grid, so ``antiderivative`` followed by
``derivative`` round-trips below 1e-8 on smooth data.

A field may carry sampled analytic derivatives (``derivs``).  ``derivative``
always takes stencils of the samples and never reads them; ``derivatives``
returns the attached arrays where present and stencils only beyond them,
which keeps residual checks at the accuracy of the underlying closed forms
rather than of the stencils.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, GridSizeError, SingularFieldError

# Relative floor below which a sample counts as a node / zero crossing.
NODE_TOL = 1e-10

_STENCIL_WIDTH = {1: 7, 2: 7, 3: 9}


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid x_i = x_min + i*h with h = (x_max - x_min)/(n - 1)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise GridSizeError(f"grid needs n >= 16 samples, got n={self.n}")
        if not self.x_min < self.x_max:
            raise DomainError(f"grid needs x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """The sample coordinates, computed once per grid; read-only, as every
        field on the grid shares them."""
        x = self.x_min + np.arange(self.n) * self.h
        x.flags.writeable = False
        return x

    def refined(self) -> "Grid":
        """Grid with halved spacing and the same endpoints (shares every old sample)."""
        return Grid(self.x_min, self.x_max, 2 * self.n - 1)

    def contains(self, x: float) -> bool:
        return self.x_min <= x <= self.x_max

    def index_of(self, x: float) -> int:
        """Index of the sample nearest to ``x`` (x must lie inside the grid)."""
        if not self.contains(x):
            raise DomainError(f"coordinate {x} outside grid [{self.x_min}, {self.x_max}]")
        return int(round((x - self.x_min) / self.h))

    def interior_slice(self, fraction: float = 0.8) -> slice:
        """Slice selecting the central ``fraction`` of the samples."""
        skip = int(round(self.n * (1.0 - fraction) / 2.0))
        return slice(skip, self.n - skip)


@dataclass(frozen=True)
class ScalarField:
    """Real- or complex-valued samples on a :class:`Grid`.

    Parameters
    ----------
    grid : Grid
        The carrier grid.
    values : array_like
        Samples, one per grid point.
    derivs : tuple of array_like, optional
        Sampled analytic derivatives of orders 1..len(derivs) (at most 3),
        read by :func:`derivatives` in place of stencils.

    The field takes ownership of each array it is handed: an ndarray of the
    grid's length that owns its data (``.base is None``) is kept and made
    read-only in place, so a later write to it raises ``ValueError``.
    Anything else (a view, a slice, ``.real`` of a complex array, a list) is
    copied first.  Either way the field's arrays are read-only.
    """

    grid: Grid
    values: np.ndarray
    derivs: tuple = dataclass_field(default=())

    def __post_init__(self):
        values = _owned(self.values)
        if values.shape != (self.grid.n,):
            raise GridSizeError(
                f"field has {values.shape} values for a grid of {self.grid.n} samples")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(self.derivs) > 3:
            raise ValueError("at most 3 analytic derivative arrays may be attached")
        checked = []
        for order, arr in enumerate(self.derivs, start=1):
            arr = _owned(arr)
            if arr.shape != (self.grid.n,):
                raise GridSizeError(f"derivative array of order {order} has wrong length")
            arr.setflags(write=False)
            checked.append(arr)
        object.__setattr__(self, "derivs", tuple(checked))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


def _owned(arr) -> np.ndarray:
    """``arr`` itself if it is an ndarray that owns its data, else a copy."""
    if type(arr) is np.ndarray and arr.base is None:
        return arr
    return np.array(arr, copy=True)


def _fornberg_weights(z, nodes: np.ndarray, max_order: int) -> np.ndarray:
    """Finite-difference weights at point ``z`` for derivatives 0..max_order.

    Classic recurrence; returns shape (len(nodes), max_order + 1) where column
    m holds the weights of the m-th derivative.  An array ``z`` adds its shape
    as trailing axes, each point going through the same scalar operations.
    """
    nodes = np.asarray(nodes, dtype=float)
    npts = len(nodes)
    w = np.zeros((npts, max_order + 1) + np.shape(z))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - z
    for i in range(1, npts):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    w[i, m] = c1 * (m * w[i - 1, m - 1] - c5 * w[i - 1, m]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                w[j, m] = (c4 * w[j, m] - m * w[j, m - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w


@lru_cache(maxsize=None)
def _stencil_rows(width: int, order: int) -> np.ndarray:
    """All shifted stencil rows for a window of ``width`` integer-spaced nodes.

    Row s holds the weights of the ``order``-th derivative evaluated at node s
    of the window; divide by h**order for a grid of spacing h.
    """
    nodes = np.arange(width, dtype=float)
    rows = np.empty((width, width))
    for s in range(width):
        rows[s] = _fornberg_weights(float(s), nodes, order)[:, order]
    rows.setflags(write=False)
    return rows


def derivative(f: ScalarField, k: int) -> ScalarField:
    """k-th derivative of ``f`` (k in 1..3) on the same grid, by stencils of its samples.

    Centered stencils of order 6 cover the interior and one-sided rows of
    order >= 4 cover the few points next to each boundary.  Attached
    derivatives are never read; :func:`derivatives` prefers them.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")
    n = f.grid.n
    if n < 2 * k + 6:
        raise GridSizeError(f"grid of {n} samples too small for derivative order {k}")

    width = _STENCIL_WIDTH[k]
    half = width // 2
    rows = _stencil_rows(width, k)
    values = f.values
    out = np.empty(n, dtype=values.dtype if f.is_complex else float)

    # Every derivative row sums to zero, so the window values can be centered
    # on the evaluation point first; that trims the cancellation error of the
    # dot product by the local value-to-increment ratio.
    windows = np.lib.stride_tricks.sliding_window_view(values, width)
    out[half:n - half] = (windows - windows[:, half][:, None]) @ rows[half]
    for i in range(half):
        out[i] = rows[i] @ (values[:width] - values[i])
        out[n - 1 - i] = rows[width - 1 - i] @ (values[-width:] - values[n - 1 - i])
    out /= f.grid.h ** k
    return ScalarField(f.grid, out)


def derivatives(f: ScalarField, k: int) -> tuple:
    """The arrays (f, f', ..., f^(k)) of ``f``: each derivative the attached
    array where ``f`` carries one, else the stencil of :func:`derivative`.

    These are plain derivatives, not the Taylor jets f^(r)/r! that
    :mod:`qhjlab.hierarchy` propagates.
    """
    return (f.values,) + tuple(f.derivs[j - 1] if j <= len(f.derivs) else derivative(f, j).values
                               for j in range(1, k + 1))


@lru_cache(maxsize=None)
def _interval_weights(shift: int) -> np.ndarray:
    """Weights w with sum_m w[m] p(m) = int_shift^{shift+1} p(t) dt for deg<=5 p."""
    powers = np.arange(6)
    vander = np.vander(np.arange(6.0), increasing=True).T  # vander[p, m] = m**p
    rhs = ((shift + 1.0) ** (powers + 1) - float(shift) ** (powers + 1)) / (powers + 1)
    w = np.linalg.solve(vander, rhs)
    w.setflags(write=False)
    return w


def interpolate(f: ScalarField, x):
    """Value of ``f`` at coordinate(s) ``x`` by 6-point Lagrange interpolation.

    An array ``x`` is evaluated in one pass; each point gets the same weights
    and the same summation order as it would alone.
    """
    grid = f.grid
    x = np.asarray(x, dtype=float)
    inside = (x >= grid.x_min) & (x <= grid.x_max)
    if not inside.all():
        raise DomainError(f"coordinate {x[~inside].flat[0]} outside grid "
                          f"[{grid.x_min}, {grid.x_max}]")
    s = (x - grid.x_min) / grid.h
    j0 = np.clip(np.floor(s).astype(int) - 2, 0, grid.n - 6)
    w = _fornberg_weights(s - j0, np.arange(6, dtype=float), 0)[:, 0]
    stencil = f.values[j0[..., None] + np.arange(6)]
    return (np.moveaxis(w, 0, -1) * stencil).sum(axis=-1)


def antiderivative(f: ScalarField, x_ref: float) -> ScalarField:
    """Cumulative integral F of ``f`` with F(x_ref) = 0.

    Each grid interval is integrated with the 6-point interpolatory rule
    (order 6 locally), then the running sum is shifted so that the value at
    ``x_ref`` (interpolated if off-sample) is exactly zero.
    """
    grid = f.grid
    if not grid.contains(x_ref):
        raise DomainError(f"x_ref={x_ref} outside grid [{grid.x_min}, {grid.x_max}]")
    n = grid.n
    values = f.values
    dtype = values.dtype if f.is_complex else float
    increments = np.empty(n - 1, dtype=dtype)

    windows = np.lib.stride_tricks.sliding_window_view(values, 6)
    # Interior intervals use the centered window (shift 2); the first/last two
    # use clamped windows with their own exact weights.
    increments[2:n - 3] = windows[:n - 5] @ _interval_weights(2)
    for i in (0, 1):
        increments[i] = _interval_weights(i) @ values[:6]
    for i in (n - 3, n - 2):
        shift = i - (n - 6)
        increments[i] = _interval_weights(shift) @ values[-6:]
    increments *= grid.h

    out = np.empty(n, dtype=dtype)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    result = ScalarField(grid, out)
    offset = interpolate(result, x_ref)
    return ScalarField(grid, out - offset, derivs=((values,) + f.derivs)[:3])


def unwrap_phase(f: ScalarField) -> ScalarField:
    """Continuous phase theta with f = |f| e^{i theta} and theta(x_min) in (-pi, pi].

    Adjacent samples of the result differ by less than pi.  Fails if the
    modulus dips below the node tolerance anywhere.
    """
    mod = np.abs(f.values)
    floor = NODE_TOL * float(np.max(mod))
    bad = np.flatnonzero(mod <= floor)
    if bad.size:
        x_bad = f.grid.x[bad[0]]
        raise SingularFieldError(
            f"modulus below tolerance at sample {bad[0]} (x={x_bad:.6g}); "
            f"cannot define a continuous phase", indices=bad)
    angle = np.angle(f.values)
    if angle[0] == -np.pi:  # e.g. -1 - 0j; the anchor lies in (-pi, pi]
        angle[0] = np.pi
    return ScalarField(f.grid, np.unwrap(angle))


def schwarzian(f: ScalarField) -> ScalarField:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2.

    Invariant under Moebius maps of f; requires f' to stay away from zero on
    the whole grid.  The derivatives come from :func:`derivatives`.
    """
    _, d1, d2, d3 = derivatives(f, 3)
    mod = np.abs(d1)
    floor = NODE_TOL * float(np.max(mod))
    bad = np.flatnonzero(mod <= floor)
    if bad.size:
        x_bad = f.grid.x[bad[0]]
        raise SingularFieldError(
            f"f' vanishes at sample {bad[0]} (x={x_bad:.6g}); "
            f"Schwarzian derivative undefined there", indices=bad)
    ratio = d2 / d1
    return ScalarField(f.grid, d3 / d1 - 1.5 * ratio * ratio)
