"""Order-by-order expansion of the phase derivative in the expansion scale eps.

Writing P = sum_j eps^j P_j for the logarithmic derivative scale of a
WKB-type solution, the master relation

    (sum eps^j P_j)^2 + eps * sum eps^j P_j' + 2 sum eps^j F_j'' = -E

with F_0'' = -V/2 and vanishing odd F's yields the triangular recursion

    P_0 = i sqrt(E - V)            (positive imaginary branch)
    P_1 = -P_0' / (2 P_0)
    P_n = -( sum_{0<i<n} P_i P_{n-i} + P_{n-1}' + 2 F_n'' ) / (2 P_0)

Each coefficient is an explicit algebraic expression in lower ones; no
integration constants enter.  Coefficients are propagated as truncated Taylor
jets (value plus scaled derivatives at every grid point), so the derivative
appearing at each order is exact given the derivatives of V, and rerunning on
a sub-grid reproduces the restriction of the full-grid output to rounding.
Row r of order n reads rows <= r + 1 of the lower orders, so K + 2 rows of V's
jet give every P_j with its first derivative, which is all the checks read.
No sample's recursion reads a neighbour, so it runs one column tile at a time,
while the jets of V and F'' are formed once on the whole grid because their
stencils must see all of it.  Memory is O(K^2 tile + K n), plus K n for each F''
correction given, and the output is bit for bit that of the whole-grid loop.
Where every sample's input jets are bitwise those of sample 0, as for the free
particle, the recursion runs on two copies of sample 0 (a one-column tile sums
in another order) and its rows are broadcast onto the grid, the same bits.

The input is one :class:`Potential` on a grid; V and each F'' enter as jets by
one route, the derivatives a field carries (closed forms for a built-in V)
and stencils beyond.  The solution holds its input, so every check takes the
solution alone.  ``master_residual`` collects the master relation by powers
of eps for the checks; ``master_remainder`` sums it at a given eps.

For real V and F'' each coefficient is one real jet R_j, with P_j = i R_j for
even j and P_j = R_j for odd j: the recursion keeps this parity (i*i = -1 in a
product of even coefficients, and dividing by 2 P_0 = 2i R_0 swaps real and
imaginary), so it holds by construction.  The products P_i P_{n-i} and
P_{n-i} P_i are one jet, so each pair is summed once and doubled, and each jet
row of the sum and of the division by 2 P_0 is one reduction.  Each real step
does the IEEE operations of complex arithmetic on the nonzero component, so the
coefficients equal a complex128 run of the same pair-symmetric recursion bit
for bit.  They and their first derivatives lie within 16 normwise ulp of a
complex recursion summed term by term, and within 32 of a 40-digit run of the
recursion from the same float64 jets of V and F''.  The antiderivatives S^j
(anchored at x_ref, formed on first read, carrying P_j and P_j') reconstruct
the squared modulus through |psi|^2 = omega * exp(2 sum_j eps^{2j} S^{2j+1}).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DomainError, TruncationError
from .fields import Grid, ScalarField, antiderivative, derivative, derivatives
from .schrodinger import Potential

# A sampled V enters through K + 1 chained first-derivative stencils (13 at K = 12),
# each of which scales its rounding noise by about 1/h; beyond this it dominates.
MAX_ORDER = 12

# Byte budget for the jets of one column tile of the recursion: about 5,760
# columns at K = 12, so n = 16385 runs as 3 tiles and n = 4097 at K = 4 as one.
# On a 2-vCPU Xeon, linear-report (K = 12, n = 16385) read the same peak RSS
# with 4 and 8 MiB tiles, but 4 MiB tiles doubled its page faults and made its
# run about 15% slower; each jet row also costs microseconds of Python per tile.
RECURSE_TILE_BYTES = 8 << 20


# ---------------------------------------------------------------------------
# Truncated Taylor jets: real arrays of shape (rows, n) holding f^(r)/r! per sample.

def _pair_sum(a, b, r):
    """Row r of sum_i a_i * b_i over stacks of jets, as one reduction over (i, s):
    sum of a[i, s] b[i, r - s] for s = 0..r, from +0.  Every sample is summed in
    the same order at any x-extent of 2 or more; at an extent of 1 einsum sums
    over (i, s) in another order, so a tile one column wide changes its bits."""
    return np.einsum("isx,isx->x", a[:, :r + 1], b[:, r::-1])


def _jet_sqrt(a):
    """Jet of sqrt(a) (a[0] > 0)."""
    out = np.empty_like(a)
    out[0] = np.sqrt(a[0])
    scl = 1.0 / (2.0 * out[0])
    for r in range(1, a.shape[0]):
        acc = a[r]
        for s in range(1, r):
            acc = acc - out[s] * out[r - s]
        out[r] = acc * scl
    return out


def _field_jet(f: ScalarField, rows: int) -> np.ndarray:
    """Jet of a sampled field's real part: attached derivatives first, stencils beyond."""
    out = np.zeros((rows, f.grid.n))
    out[0] = f.values.real
    tail = ScalarField(f.grid, f.derivs[-1]) if f.derivs else f
    for r in range(1, rows):
        if r <= len(f.derivs):
            out[r] = f.derivs[r - 1].real / math.factorial(r)
        elif tail.values.any():  # the rows stay +0 once a derivative vanishes
            tail = derivative(tail, 1)
            out[r] = tail.values.real / math.factorial(r)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyInput:
    """A potential on a grid, energy, truncation order and expansion bookkeeping.

    The domain must stay classically allowed: E - V >= gap > 0 everywhere
    (the leading coefficient i*sqrt(E - V) degenerates at a turning point).
    ``f_even`` holds the optional corrections F_2'', F_4'', ... as sampled
    fields; odd-index corrections vanish identically.  ``epsilon`` is the
    expansion parameter of :func:`master_remainder` and
    :func:`reconstruct_modulus`; its powers up to ``order`` must be floats.
    """

    potential: Potential
    grid: Grid
    energy: float
    order: int
    epsilon: float
    x_ref: float
    f_even: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "f_even", tuple(self.f_even))
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")
        if self.order > MAX_ORDER:
            raise TruncationError(
                f"order {self.order} exceeds the supported maximum {MAX_ORDER}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        try:
            self.epsilon ** self.order
        except OverflowError:
            raise ValueError(f"epsilon {self.epsilon} has no finite power {self.order}") from None
        # the real-jet recursion drops imaginary parts, so refuse them here
        for k, f in enumerate(self.f_even, start=1):
            name = f"F''_{2 * k}"
            if f.grid != self.grid:
                raise ContractError(f"{name} sampled on a different grid")
            if not np.all(np.isfinite(f.values)):
                raise ContractError(f"{name} has non-finite samples")
            if np.iscomplexobj(f.values) and float(np.max(np.abs(f.values.imag))) > 0:
                raise ContractError(f"{name} must be real")
        gap = float(self.energy - np.max(self.v_field.values))
        if gap <= 0.0:
            raise DomainError(
                f"turning point on the domain: need E > max V, gap = {gap:.3e}")
        if not self.grid.contains(self.x_ref):
            raise DomainError(f"x_ref={self.x_ref} outside the grid")

    @cached_property
    def v_field(self) -> ScalarField:
        """V on the grid with its first three derivatives attached, shared with
        every pair on the grid (``potential.field(grid)``)."""
        return self.potential.field(self.grid)

    def f_dd_jet(self, index: int, rows: int) -> np.ndarray | None:
        """Jet of F''_index (None when the correction vanishes identically)."""
        if index == 0:
            return -0.5 * _field_jet(self.v_field, rows)
        k = index // 2 - 1
        if index % 2 or k >= len(self.f_even):
            return None
        return _field_jet(self.f_even[k], rows)


@dataclass(frozen=True)
class HierarchySolution:
    """Coefficients P_0..P_K, the input they solve, and the parity audit (max
    real part of even coefficients, max imaginary part of odd ones; zero by
    construction of the real jets)."""

    p_coeffs: tuple
    input: HierarchyInput
    parity_report: tuple

    @property
    def order(self) -> int:
        return len(self.p_coeffs) - 1

    @cached_property
    def s_coeffs(self) -> tuple:
        """S^0..S^K, the antiderivatives of P_0..P_K anchored at the input's
        x_ref, formed on first read."""
        return tuple(antiderivative(f, self.input.x_ref) for f in self.p_coeffs)


def recurse(hierarchy_input: HierarchyInput) -> HierarchySolution:
    """Run the triangular recursion up to the requested order.

    Returns fields carrying their first derivative, obtained by jet propagation
    rather than stencils.  Samples are independent of each other, so the
    recursion runs one column tile of ``_tile_width`` columns or fewer at a
    time on slices of the V and F'' jets, which are formed once on the whole
    grid; where every sample's input is sample 0's it runs once on two columns.
    Memory is O(K^2 tile + K n), and the output equals that of one tile
    spanning the grid bit for bit.
    """
    inp = hierarchy_input
    K, n = inp.order, inp.grid.n
    rows = K + 2  # row r of order nn reads rows <= r + 1 below it, so P_K' needs K + 2

    e_minus_v = -_field_jet(inp.v_field, rows)
    e_minus_v[0] += inp.energy
    f_dd = {nn: inp.f_dd_jet(nn, rows - nn) for nn in range(1, K + 1)}
    flat = _is_flat(e_minus_v, *f_dd.values())
    if flat:  # two copies of sample 0, since one column sums in another order
        e_minus_v = e_minus_v[:, [0, 0]]
        f_dd = {nn: f if f is None else f[:, [0, 0]] for nn, f in f_dd.items()}
    m = e_minus_v.shape[1]
    # edges at m k // count: no tile is under half a tile wide, so none is 1 column
    count = -(-m // _tile_width(K))
    staged = np.empty((K + 1, 2, m))  # rows 0-1 of each R_j
    for k in range(count):
        cols = slice(m * k // count, m * (k + 1) // count)
        staged[:, :, cols] = _recurse_tile(e_minus_v[:, cols], f_dd, cols)[:, :2]

    p_fields = []
    for j in range(K + 1):
        # value and first derivative as two owned arrays, which the field keeps
        value, slope = np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128)
        for samples, row in zip((value, slope), staged[j]):
            (samples.imag if j % 2 == 0 else samples.real)[:] = row[0] if flat else row
        p_fields.append(ScalarField(inp.grid, value, derivs=(slope,)))

    parity = (np.max([np.max(np.abs(f.values.real)) for f in p_fields[0::2]]),
              np.max([np.max(np.abs(f.values.imag)) for f in p_fields[1::2]], initial=0.0))
    return HierarchySolution(tuple(p_fields), inp, tuple(map(float, parity)))


def _is_flat(*jets):
    """True if every row of every jet given (None skipped) holds sample 0's bit
    pattern at each sample, so +0 and -0 differ; stops at the first row that varies."""
    rows = (row for jet in jets if jet is not None for row in jet.view(np.int64))
    return all((row == row[0]).all() for row in rows)


def _tile_width(order: int) -> int:
    """Columns per tile of the recursion: its (K + 1) x (K + 2) float64 jet rows
    within RECURSE_TILE_BYTES."""
    return RECURSE_TILE_BYTES // (8 * (order + 1) * (order + 2))


def _recurse_tile(e_minus_v, f_dd, cols):
    """Jets R_0..R_K on the columns ``cols`` from the jet of E - V there and
    {nn: whole-grid jet of F_nn'' or None} for nn = 1..K."""
    K = len(f_dd)
    rows = e_minus_v.shape[0]
    # R_j in jets[j, :rows - j]: P_j = i R_j for even j, P_j = R_j for odd j.
    # Rows are formed in order and a row not formed yet reads +0.
    jets = np.zeros((K + 1, rows, e_minus_v.shape[1]))
    jets[0] = _jet_sqrt(e_minus_v)
    scl = 1.0 / (2.0 * jets[0, 0])
    neg_scl = -scl

    for nn in range(1, K + 1):
        # Row r of sum_{0<=i<=nn} P_i P_{nn-i} + P_{nn-1}' + 2 F_nn'' vanishes.
        # P_i P_{nn-i} and P_{nn-i} P_i are one jet, R_i R_{nn-i} with sign -1 when
        # i and nn are even, so each pair i < nn - i is summed once and doubled.
        # The pair i = 0 holds the unknown row R_nn[r], whose own term reads +0;
        # solving for it divides by 2 P_0 = 2i R_0, with sign -1 for odd nn.
        m = (nn - 1) // 2
        for r in range(rows - nn):
            if nn % 2:
                acc = 2.0 * _pair_sum(jets[0:m + 1], jets[nn:nn - m - 1:-1], r)
            else:  # the middle square i = nn/2 joins the pairs of its parity
                h = nn // 2
                odd = 2.0 * _pair_sum(jets[1:m + 1:2], jets[nn - 1:h:-2], r)
                even = 2.0 * _pair_sum(jets[0:m + 1:2], jets[nn:h:-2], r)
                middle = _pair_sum(jets[h:h + 1], jets[h:h + 1], r)
                odd, even = (odd + middle, even) if h % 2 else (odd, even + middle)
                acc = odd - even
            acc += (r + 1) * jets[nn - 1, r + 1]  # jet of R_{nn-1}'
            if f_dd[nn] is not None:
                acc += 2.0 * f_dd[nn][r, cols]
            np.multiply(acc, neg_scl if nn % 2 else scl, out=jets[nn, r])
    return jets


def master_residual(sol: HierarchySolution) -> tuple:
    """The master relation collected by powers of eps: one residual field per
    order 0..K.  Each restates the recursion, so each must vanish."""
    inp = sol.input
    p_vals = [f.values for f in sol.p_coeffs]
    per_order = []
    for nn in range(sol.order + 1):
        acc = np.zeros(inp.grid.n, dtype=np.complex128)
        for i in range(nn + 1):
            acc += p_vals[i] * p_vals[nn - i]
        if nn >= 1:
            acc += sol.p_coeffs[nn - 1].derivs[0]  # attached by recurse
        f_dd = inp.f_dd_jet(nn, 1)
        if f_dd is not None:
            acc += 2.0 * f_dd[0]
        if nn == 0:
            acc += inp.energy
        per_order.append(ScalarField(inp.grid, acc))
    return tuple(per_order)


def master_remainder(sol: HierarchySolution, epsilon: float | None = None) -> ScalarField:
    """(sum eps^j P_j)^2 + eps sum eps^j P_j' + 2 sum eps^j F_j'' + E at a given eps
    (default: the input's), which the truncation leaves at O(eps^{K+1})."""
    inp = sol.input
    eps = inp.epsilon if epsilon is None else float(epsilon)
    p_sum, dp_sum, f_sum = np.zeros((3, inp.grid.n), dtype=np.complex128)
    for j, p in enumerate(sol.p_coeffs):
        p_sum += eps ** j * p.values
        dp_sum += eps ** j * p.derivs[0]
        f_dd = inp.f_dd_jet(j, 1)
        if f_dd is not None:
            f_sum += eps ** j * f_dd[0]
    return ScalarField(inp.grid, p_sum * p_sum + eps * dp_sum + 2.0 * f_sum + inp.energy)


def p2_schwarzian_check(sol: HierarchySolution) -> float:
    """Max discrepancy between the recursion P_2 and {S^0; x} / (4 P_0).

    With F_2'' = 0 and P_1 = -P_0'/(2 P_0) the recursion gives

        P_1^2 + P_1' = (3/4) (P_0'/P_0)^2 - P_0''/(2 P_0),
        P_2 = -(P_1^2 + P_1') / (2 P_0) = [P_0''/P_0 - (3/2) (P_0'/P_0)^2] / (4 P_0),

    and as S^0' = P_0 the bracket is the Schwarzian {S^0; x} of
    f''' / f' - (3/2) (f'' / f')^2 with f = S^0.  The comparison takes P_0' and
    P_0'' with stencils on the P_0 samples, where the recursion
    differentiates jets, so the two routes share no derivative machinery and
    no quadrature of P_0 enters.  P_0 = i sqrt(E - V) does not vanish on the
    classically allowed domain.  Only valid when the first correction F_2''
    vanishes.
    """
    if sol.order < 2:
        raise ValueError("need the expansion at least to order 2")
    if not _f2_vanishes(sol.input):
        raise ContractError("the Schwarzian form of P_2 requires F_2'' = 0")

    p0 = sol.p_coeffs[0]
    ratio1 = derivative(p0, 1).values / p0.values
    ratio2 = derivative(p0, 2).values / p0.values
    alt = (ratio2 - 1.5 * ratio1 * ratio1) / (4.0 * p0.values)
    return float(np.max(np.abs(sol.p_coeffs[2].values - alt)))


def _f2_vanishes(hierarchy_input: HierarchyInput) -> bool:
    f2 = hierarchy_input.f_dd_jet(2, 1)
    return f2 is None or float(np.max(np.abs(f2[0]))) == 0.0


def hierarchy_checks(sol: HierarchySolution) -> dict:
    """{check name: (residual, bound)}: parity, P_1 = -P_0'/(2 P_0) over
    max(max|P_1|, 1), the per-order master residual over |E| + max|V|, and the
    Schwarzian route to P_2 where it applies (order >= 2, F_2'' = 0)."""
    inp = sol.input
    checks = {"hierarchy_parity": (float(np.max(sol.parity_report)), 1e-12)}
    if sol.order >= 1:
        p0, p1 = sol.p_coeffs[0], sol.p_coeffs[1]
        identity = np.abs(p1.values + derivatives(p0, 1)[1] / (2.0 * p0.values))
        p1_scale = max(float(np.max(np.abs(p1.values))), 1.0)
        checks["hierarchy_p1_identity"] = (float(np.max(identity)) / p1_scale, 1e-10)
    scale = abs(inp.energy) + float(np.max(np.abs(inp.v_field.values)))
    worst = np.max([np.max(np.abs(f.values)) for f in master_residual(sol)])
    checks["hierarchy_per_order"] = (float(worst) / scale, 1e-9)  # NaN if any order has one
    if sol.order >= 2 and _f2_vanishes(inp):
        checks["hierarchy_p2_schwarzian"] = (p2_schwarzian_check(sol), 1e-5)
    return checks


def reconstruct_modulus(sol: HierarchySolution, omega: float) -> ScalarField:
    """|psi|^2 = omega * exp(2 sum_j eps^{2j} S^{2j+1}) from the odd, real terms."""
    eps = sol.input.epsilon
    grid = sol.input.grid
    if sol.order < 1:
        warnings.warn("expansion order 0 carries no modulus information; "
                      "returning the constant omega")
        return ScalarField(grid, np.full(grid.n, float(omega)))
    expo = np.zeros(grid.n)
    for j in range(0, (sol.order - 1) // 2 + 1):
        expo += eps ** (2 * j) * sol.s_coeffs[2 * j + 1].values.real
    return ScalarField(grid, float(omega) * np.exp(2.0 * expo))
