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

For real V and F'' each coefficient is one real jet R_j, with P_j = i R_j for
even j and P_j = R_j for odd j: the recursion keeps this parity (i*i = -1 in a
product of even coefficients, and dividing by 2 P_0 = 2i R_0 swaps real and
imaginary), so it holds by construction.  Each real step does the IEEE
operations of complex arithmetic on the nonzero component, in the same order;
divisions multiply by the divisor's reciprocal, as numpy's complex divide
(Smith's algorithm) does, so the coefficients equal a complex recursion's bit
for bit.  The antiderivatives S^j (anchored at x_ref) reconstruct the squared
modulus through |psi|^2 = omega * exp(2 sum_j eps^{2j} S^{2j+1}).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, TruncationError
from .fields import Grid, ScalarField, antiderivative, derivative
from .schrodinger import Potential

MAX_ORDER = 12  # third-derivative noise of sampled inputs dominates beyond this
_FACTORIALS = np.array([[1.0], [1.0], [2.0], [6.0]])  # r! for jet rows 0..3


# ---------------------------------------------------------------------------
# Truncated Taylor jets: real arrays of shape (rows, n) holding f^(r)/r! per sample.

def _jet_mul(a, b, rows):
    """First ``rows`` rows of the jet of a*b, row r summed over s = 0..r in order
    (from a[0] b[r], not 0 + a[0] b[r]; recurse adds it to a +0, which erases the
    only difference, the sign of an exact zero)."""
    out = np.empty((rows, a.shape[1]))
    for r in range(rows):
        row = out[r]
        np.multiply(a[0], b[r], out=row)
        for s in range(1, r + 1):
            row += a[s] * b[r - s]
    return out


def _jet_div(a, b):
    """Jet of a/b, each row scaled by the reciprocal 1/b[0] (b[0] must not vanish)."""
    scl = 1.0 / b[0]
    out = np.empty_like(a)
    np.multiply(a[0], scl, out=out[0])
    for r in range(1, a.shape[0]):
        acc = a[r] - b[1] * out[r - 1]
        for s in range(2, r + 1):
            acc -= b[s] * out[r - s]
        np.multiply(acc, scl, out=out[r])
    return out


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
        else:
            tail = derivative(tail, 1)
            out[r] = tail.values.real / math.factorial(r)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyInput:
    """Potential samples, energy, truncation order and expansion bookkeeping.

    The domain must stay classically allowed: E - V >= gap > 0 everywhere
    (the leading coefficient i*sqrt(E - V) degenerates at a turning point).
    ``f_even`` holds the optional corrections F_2'', F_4'', ... as sampled
    fields; odd-index corrections vanish identically.  When ``potential`` is
    given, high-order derivatives of V come from its closed form instead of
    repeated stencils.
    """

    v_field: ScalarField
    energy: float
    order: int
    epsilon: float
    x_ref: float
    f_even: tuple = ()
    potential: Potential | None = None

    def __post_init__(self):
        object.__setattr__(self, "f_even", tuple(self.f_even))
        if self.order < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.order}")
        if self.order > MAX_ORDER:
            raise TruncationError(
                f"order {self.order} exceeds the supported maximum {MAX_ORDER}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        # the real-jet recursion drops imaginary parts, so refuse them here
        inputs = {"V": self.v_field}
        inputs.update((f"F''_{2 * k}", f) for k, f in enumerate(self.f_even, start=1))
        for name, f in inputs.items():
            if f.grid != self.v_field.grid:
                raise ContractError(f"{name} sampled on a different grid")
            if not np.all(np.isfinite(f.values)):
                raise ContractError(f"{name} has non-finite samples")
            if np.iscomplexobj(f.values) and float(np.max(np.abs(f.values.imag))) > 0:
                raise ContractError(f"{name} must be real")
        gap = float(self.energy - np.max(self.v_field.values.real))
        if gap <= 0.0:
            raise DomainError(
                f"turning point on the domain: need E > max V, gap = {gap:.3e}")
        if not self.v_field.grid.contains(self.x_ref):
            raise DomainError(f"x_ref={self.x_ref} outside the grid")

    @property
    def grid(self) -> Grid:
        return self.v_field.grid

    @classmethod
    def from_potential(cls, potential: Potential, grid: Grid, energy: float,
                       order: int, epsilon: float, x_ref: float,
                       f_even=()) -> "HierarchyInput":
        return cls(v_field=potential.field(grid), energy=energy, order=order,
                   epsilon=epsilon, x_ref=x_ref, f_even=tuple(f_even),
                   potential=potential)

    def v_jet(self, rows: int) -> np.ndarray:
        if self.potential is not None:
            return np.array([self.potential.derivative_samples(self.grid, r) / math.factorial(r)
                             for r in range(rows)])
        return _field_jet(self.v_field, rows)

    def f_dd_jet(self, index: int, rows: int) -> np.ndarray | None:
        """Jet of F''_index (None when the correction vanishes identically)."""
        if index == 0:
            return -0.5 * self.v_jet(rows)
        if index % 2 == 1:
            return None
        k = index // 2 - 1
        if k >= len(self.f_even):
            return None
        return _field_jet(self.f_even[k], rows)


@dataclass(frozen=True)
class HierarchySolution:
    """Coefficients P_0..P_K, their anchored antiderivatives S^0..S^K, and the
    parity audit (max real part of even coefficients, max imaginary part of
    odd ones; zero by construction of the real jets)."""

    p_coeffs: tuple
    s_coeffs: tuple
    parity_report: tuple

    @property
    def order(self) -> int:
        return len(self.p_coeffs) - 1


def recurse(hierarchy_input: HierarchyInput) -> HierarchySolution:
    """Run the triangular recursion up to the requested order.

    Returns fields carrying three exact derivative samples each, obtained by
    jet propagation rather than stencils.
    """
    inp = hierarchy_input
    K = inp.order
    rows = K + 4
    n = inp.grid.n

    e_minus_v = -inp.v_jet(rows)
    e_minus_v[0] += inp.energy
    jets = [_jet_sqrt(e_minus_v)]  # R_j: P_j = i R_j for even j, P_j = R_j for odd j
    two_r0 = 2.0 * jets[0]

    for nn in range(1, K + 1):
        avail = rows - nn
        # numerator of the recursion: acc for even nn, i * acc for odd nn
        acc = np.zeros((avail, n))
        for i in range(1, nn):
            term = _jet_mul(jets[i], jets[nn - i], avail)
            if nn % 2 == 0 and i % 2 == 0:  # (i R_i)(i R_{nn-i}) = -R_i R_{nn-i}
                acc -= term
            else:
                acc += term
        acc += np.arange(1, avail + 1)[:, None] * jets[nn - 1][1:]  # jet of R_{nn-1}'
        f_dd = inp.f_dd_jet(nn, avail)
        if f_dd is not None:
            acc += 2.0 * f_dd
        # P_nn = -numerator / (2i R_0): i acc / (2 R_0) for even nn, -acc / (2 R_0) for odd
        jets.append(_jet_div(-acc if nn % 2 else acc, two_r0[:avail]))

    p_fields = []
    for j, jet in enumerate(jets):
        samples = np.zeros((4, n), dtype=np.complex128)  # values and three derivatives
        (samples.imag if j % 2 == 0 else samples.real)[:] = jet[:4] * _FACTORIALS
        p_fields.append(ScalarField(inp.grid, samples[0], derivs=tuple(samples[1:])))

    s_fields = [antiderivative(f, inp.x_ref) for f in p_fields]

    parity = (np.max([np.max(np.abs(f.values.real)) for f in p_fields[0::2]]),
              np.max([np.max(np.abs(f.values.imag)) for f in p_fields[1::2]], initial=0.0))
    return HierarchySolution(tuple(p_fields), tuple(s_fields), tuple(map(float, parity)))


@dataclass(frozen=True)
class MasterReport:
    """Per-order residual fields of the master relation plus the numeric
    remainder of the truncated sum at a concrete epsilon."""

    per_order: tuple
    remainder: ScalarField
    epsilon: float

    def max_per_order(self) -> float:
        """Largest |residual| over all orders; NaN if any order has one."""
        return float(np.max([np.max(np.abs(f.values)) for f in self.per_order]))


def master_residual(sol: HierarchySolution, hierarchy_input: HierarchyInput,
                    epsilon: float | None = None) -> MasterReport:
    """Collect the master relation by powers of eps and evaluate the remainder.

    Orders 0..K must vanish identically (they restate the recursion); the
    full numeric sum at the given eps is left with an O(eps^{K+1}) remainder.
    """
    inp = hierarchy_input
    eps = inp.epsilon if epsilon is None else float(epsilon)
    K = sol.order
    grid = inp.grid
    p_vals = [f.values for f in sol.p_coeffs]
    dp_vals = [derivative(f, 1).values for f in sol.p_coeffs]

    per_order = []
    for nn in range(K + 1):
        acc = np.zeros(grid.n, dtype=np.complex128)
        for i in range(max(0, nn - K), min(nn, K) + 1):
            acc += p_vals[i] * p_vals[nn - i]
        if nn >= 1:
            acc += dp_vals[nn - 1]
        f_dd = inp.f_dd_jet(nn, 1)
        if f_dd is not None:
            acc += 2.0 * f_dd[0]
        if nn == 0:
            acc += inp.energy
        per_order.append(ScalarField(grid, acc))

    p_sum = np.zeros(grid.n, dtype=np.complex128)
    dp_sum = np.zeros(grid.n, dtype=np.complex128)
    f_sum = np.zeros(grid.n, dtype=np.complex128)
    for j in range(K + 1):
        p_sum += eps ** j * p_vals[j]
        dp_sum += eps ** j * dp_vals[j]
        f_dd = inp.f_dd_jet(j, 1)
        if f_dd is not None:
            f_sum += eps ** j * f_dd[0]
    remainder = p_sum * p_sum + eps * dp_sum + 2.0 * f_sum + inp.energy
    return MasterReport(tuple(per_order), ScalarField(grid, remainder), eps)


def p2_schwarzian_check(sol: HierarchySolution, hierarchy_input: HierarchyInput) -> float:
    """Max discrepancy between the recursion P_2 and {S^0; x} / (4 P_0).

    With F_2'' = 0 and P_1 = -P_0'/(2 P_0) the recursion gives

        P_1^2 + P_1' = (3/4) (P_0'/P_0)^2 - P_0''/(2 P_0),
        P_2 = -(P_1^2 + P_1') / (2 P_0) = [P_0''/P_0 - (3/2) (P_0'/P_0)^2] / (4 P_0),

    and as S^0' = P_0 the bracket is the Schwarzian {S^0; x} of
    f''' / f' - (3/2) (f'' / f')^2 with f = S^0.  The comparison takes P_0' and
    P_0'' with stencils on the bare P_0 samples, where the recursion
    differentiates jets, so the two routes share no derivative machinery and
    no quadrature of P_0 enters.  P_0 = i sqrt(E - V) does not vanish on the
    classically allowed domain.  Only valid when the first correction F_2''
    vanishes.
    """
    if sol.order < 2:
        raise ValueError("need the expansion at least to order 2")
    if not _f2_vanishes(hierarchy_input):
        raise ContractError("the Schwarzian form of P_2 requires F_2'' = 0")

    p0 = sol.p_coeffs[0]
    bare = p0.bare()
    ratio1 = derivative(bare, 1).values / p0.values
    ratio2 = derivative(bare, 2).values / p0.values
    alt = (ratio2 - 1.5 * ratio1 * ratio1) / (4.0 * p0.values)
    return float(np.max(np.abs(sol.p_coeffs[2].values - alt)))


def _f2_vanishes(hierarchy_input: HierarchyInput) -> bool:
    f2 = hierarchy_input.f_dd_jet(2, 1)
    return f2 is None or float(np.max(np.abs(f2[0]))) == 0.0


def hierarchy_checks(sol: HierarchySolution, hierarchy_input: HierarchyInput) -> dict:
    """{check name: residual}: parity, P_1 = -P_0'/(2 P_0) over max(max|P_1|, 1),
    the per-order master residual over |E| + max|V|, and the Schwarzian route
    to P_2 where it applies (order >= 2, F_2'' = 0)."""
    inp = hierarchy_input
    checks = {"hierarchy_parity": float(np.max(sol.parity_report))}
    if sol.order >= 1:
        p0, p1 = sol.p_coeffs[0], sol.p_coeffs[1]
        identity = np.abs(p1.values + derivative(p0, 1).values / (2.0 * p0.values))
        p1_scale = max(float(np.max(np.abs(p1.values))), 1.0)
        checks["hierarchy_p1_identity"] = float(np.max(identity)) / p1_scale
    scale = abs(inp.energy) + float(np.max(np.abs(inp.v_field.values)))
    checks["hierarchy_per_order"] = master_residual(sol, inp).max_per_order() / scale
    if sol.order >= 2 and _f2_vanishes(inp):
        checks["hierarchy_p2_schwarzian"] = p2_schwarzian_check(sol, inp)
    return checks


def reconstruct_modulus(sol: HierarchySolution, hierarchy_input: HierarchyInput,
                        omega: float) -> ScalarField:
    """|psi|^2 = omega * exp(2 sum_j eps^{2j} S^{2j+1}) from the odd, real terms."""
    eps = hierarchy_input.epsilon
    grid = hierarchy_input.grid
    if sol.order < 1:
        warnings.warn("expansion order 0 carries no modulus information; "
                      "returning the constant omega")
        return ScalarField(grid, np.full(grid.n, float(omega)))
    expo = np.zeros(grid.n)
    for j in range(0, (sol.order - 1) // 2 + 1):
        expo += eps ** (2 * j) * sol.s_coeffs[2 * j + 1].values.real
    return ScalarField(grid, float(omega) * np.exp(2.0 * expo))
