"""Pairs of linearly independent stationary-state solutions.

Works with the scaled form of the stationary equation,

    -eps^2 u'' + V(x) u = E u,        eps = hbar / sqrt(2 m),

so the default units hbar = 1, m = 1/2 give eps = 1 and integer-clean desk
examples.  Closed forms cover the free, linear (Airy) and harmonic
ground-state cases; everything else integrates both members with a
fixed-step RK4 sweep from energy-independent initial data at x_min.

A scenario's own pair is swept one step at a time on Python floats (bitwise
the numpy vector update, at a tenth of its cost), so that each sample stays
one rounded step from its neighbour: its stencil-based schrodinger_residual is
reported and amplifies uncorrelated rounding between neighbours by 1/h^2.
The pairs the hbar scan adds feed only the uncertainty products; they compose
the steps' 2x2 matrices in blocks of about sqrt(n) steps, which agrees to
1e-13 or better at a fifth of the cost and passes the same construction bounds.

Every pair except the harmonic ground pair also carries its energy
derivative.  Differentiating the equation in E gives the variational equation

    -eps^2 u_E'' + (V - E) u_E = u,   i.e.   u_E'' = g u_E - u / eps^2,

with g = (V - E)/eps^2.  Closed forms differentiate through k(E) (free) or
z(E) (Airy).  A numeric pair's initial data do not depend on E, so its u_E
has zero data at x_min, and variation of parameters over the pair itself
gives it.  With w0 = psi' psiD - psi psiD' (the sign of ``wronskian``) and
A = int psi u, B = int psiD u from x_min, y = (psiD A - psi B)/(eps^2 w0) has
y' = (psiD' A - psi' B)/(eps^2 w0), since the terms from the moving limit
cancel, and y'' = g y + (psi psiD' - psi' psiD) u/(eps^2 w0) = g y - u/eps^2;
A = B = 0 at x_min, so y = u_E.

All constructed fields carry sampled analytic derivatives: closed-form ones
for analytic pairs, and model-consistent ones (u'' = (V - E) u / eps^2) for
numeric pairs, so downstream residuals are limited by solution accuracy
rather than by stencils.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import special

from .errors import (
    AccuracyError,
    CapabilityError,
    ContractError,
    DegeneracyError,
    DomainError,
)
from .fields import Grid, ScalarField, antiderivative, derivative, derivatives, interpolate

POTENTIAL_KINDS = ("free", "linear", "harmonic", "custom")

# Construction-time tolerances on the relative Schrodinger residual and on
# the relative Wronskian drift, keyed by provenance; the reported
# wronskian_drift check has the same bound.
RESIDUAL_TOL = {"analytic": 1e-9, "numeric": 1e-5}
WRONSKIAN_TOL = {"analytic": 1e-9, "numeric": 1e-6}


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and mass; the derived scale eps = hbar/sqrt(2 m) drives everything."""

    hbar: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        if not (self.hbar > 0 and self.mass > 0):
            raise ValueError(f"hbar and mass must be positive, got {self.hbar}, {self.mass}")
        eps2 = self.epsilon * self.epsilon  # pairs divide by it
        if not sys.float_info.min <= eps2 <= sys.float_info.max:
            raise ValueError(f"eps^2 = hbar^2/(2 mass) = {eps2:.3e} is not a positive normal float")

    @property
    def epsilon(self) -> float:
        return self.hbar / math.sqrt(2.0 * self.mass)


@dataclass(frozen=True)
class Potential:
    """Built-in potential shapes plus a sampled fallback.

    kind:
        "free"     -> V = 0
        "linear"   -> V = slope * x
        "harmonic" -> V = stiffness * x^2
        "custom"   -> samples on the working grid
    """

    kind: str
    slope: float = 1.0
    stiffness: float = 1.0
    samples: ScalarField | None = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {POTENTIAL_KINDS}")
        if self.kind == "custom":
            if self.samples is None:
                raise ValueError("custom potential needs a sampled field")
            values = self.samples.values  # every consumer reads V as real floats
            if not np.all(np.isfinite(values)):
                raise ContractError("V has non-finite samples")
            if np.iscomplexobj(values):
                raise ContractError("V must be real")
        if self.kind == "harmonic" and self.stiffness <= 0:
            raise ValueError("harmonic potential needs stiffness > 0")
        if self.kind == "linear" and self.slope == 0:
            raise ValueError("linear potential needs a nonzero slope (use kind='free')")

    def ground_level(self, constants: PhysicalConstants) -> float:
        """Harmonic ground level eps*sqrt(stiffness)."""
        if self.kind != "harmonic":
            raise CapabilityError(f"no closed-form ground level for potential kind {self.kind!r}")
        return constants.epsilon * math.sqrt(self.stiffness)

    def is_ground_level(self, E: float, constants: PhysicalConstants) -> bool:
        """Whether E is the harmonic ground level, to 1e-9 relative."""
        e0 = self.ground_level(constants)
        return abs(E - e0) <= 1e-9 * max(1.0, abs(e0))

    def value(self, x):
        """V at arbitrary coordinates (vectorised)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "linear":
            return self.slope * x
        if self.kind == "harmonic":
            return self.stiffness * x * x
        return interpolate(self.samples, x)

    def derivative_samples(self, grid: Grid, order: int) -> np.ndarray:
        """d^order V / dx^order sampled on ``grid`` (closed form where known)."""
        x = grid.x
        if self.kind == "free":
            return np.zeros(grid.n)
        if self.kind == "linear":
            if order == 0:
                return self.slope * x
            return np.full(grid.n, self.slope) if order == 1 else np.zeros(grid.n)
        if self.kind == "harmonic":
            if order == 0:
                return self.stiffness * x * x
            if order == 1:
                return 2.0 * self.stiffness * x
            return np.full(grid.n, 2.0 * self.stiffness) if order == 2 else np.zeros(grid.n)
        # custom: attached derivatives first, chained first-derivative stencils beyond
        if self.samples.grid != grid:
            raise ContractError("custom potential sampled on a different grid")
        jet = derivatives(self.samples, min(order, len(self.samples.derivs)))
        tail = jet[-1]
        for _ in range(order + 1 - len(jet)):
            tail = derivative(ScalarField(grid, tail), 1).values
        return tail

    def field(self, grid: Grid) -> ScalarField:
        """V on ``grid`` with derivative samples of orders 1..3 attached, formed
        once per grid: every pair and hierarchy input on it shares the field."""
        formed = self.__dict__.setdefault("_fields", {})
        if grid not in formed:
            derivs = tuple(self.derivative_samples(grid, k) for k in (1, 2, 3))
            formed[grid] = ScalarField(grid, self.derivative_samples(grid, 0), derivs=derivs)
        return formed[grid]


@dataclass(frozen=True)
class SolutionPair:
    """Two linearly independent solutions (psi, psi_dual) at a common energy.

    ``kind`` is "real" for pairs that feed the microstate formulas
    (psi_dual/psi real) and "conjugate" for pairs (psi_dual = conj(psi)) that
    feed the duality checks.  ``wronskian`` is psi' psi_dual - psi psi_dual',
    constant for genuine solutions.  Both members carry their x-derivatives
    of orders 1..3, and ``potential`` is the V they solve with.

    ``psi_e`` and ``psi_dual_e`` are the members' energy derivatives, each
    with its first two x-derivatives attached, or None where the pair has no
    energy derivative; ``omega_e`` is the energy derivative of the Wronskian.
    """

    psi: ScalarField
    psi_dual: ScalarField
    energy: float
    constants: PhysicalConstants
    wronskian: complex
    potential: Potential
    kind: str = "real"
    provenance: str = "analytic"
    psi_e: ScalarField | None = None
    psi_dual_e: ScalarField | None = None
    omega_e: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    @cached_property
    def v_field(self) -> ScalarField:
        """``potential.field(grid)``, read on first use; every pair on the grid
        shares it."""
        return self.potential.field(self.grid)

    @property
    def omega(self) -> float:
        """The real Wronskian constant of a real pair."""
        if self.kind != "real":
            raise ContractError("omega is defined for real pairs only")
        return float(np.real(self.wronskian))

    def wronskian_samples(self) -> np.ndarray:
        """psi' psi_dual - psi psi_dual' at every sample, from attached derivatives."""
        return (self.psi.derivs[0] * self.psi_dual.values
                - self.psi.values * self.psi_dual.derivs[0])

    def wronskian_drift(self) -> float:
        """Max relative deviation of the samplewise Wronskian from its constant."""
        w = self.wronskian_samples()
        return float(np.max(np.abs(w - self.wronskian)) / abs(self.wronskian))

    def relative_residual(self, stencil: bool = False, fraction: float = 1.0) -> float:
        """Max |-eps^2 u'' + (V - E) u| of both members u over the central
        ``fraction`` of the grid, relative to max |(V - E) u| over the whole grid
        and both members (1 where that is 0); u'' is the attached one or, for
        ``stencil``, the stencil of the samples."""
        inner = self.grid.interior_slice(fraction)
        eps = self.constants.epsilon
        v = self.v_field.values
        worst, scale = [], 0.0
        for u in (self.psi, self.psi_dual):
            d2 = derivative(u, 2).values if stencil else derivatives(u, 2)[2]
            vu = (v - self.energy) * u.values
            worst.append(float(np.max(np.abs((-eps * eps * d2 + vu)[inner]))))
            scale = max(scale, float(np.max(np.abs(vu))))
        return max(worst) / (scale if scale > 0 else 1.0)

    def checks(self) -> dict:
        """{check name: (relative residual, bound)}, the bounds by provenance; the
        Schrodinger residual uses stencils on the central 80%, independent of
        the attached derivatives."""
        return {"schrodinger_residual": (self.relative_residual(stencil=True, fraction=0.8),
                                         {"analytic": 1e-8, "numeric": 1e-5}[self.provenance]),
                "wronskian_drift": (self.wronskian_drift(), WRONSKIAN_TOL[self.provenance])}


def _validate_pair(pair: SolutionPair) -> SolutionPair:
    if abs(pair.wronskian) == 0:
        raise DegeneracyError("pair has zero Wronskian: members are linearly dependent")
    both = np.abs(pair.psi.values) ** 2 + np.abs(pair.psi_dual.values) ** 2
    if float(np.min(both)) <= 0.0:
        raise DegeneracyError("psi and psi_dual vanish simultaneously at some sample")

    diagnostics = {"schrodinger_residual": pair.relative_residual(pair.provenance != "analytic"),
                   "wronskian_drift": pair.wronskian_drift()}
    for name, label, tol in (("schrodinger_residual", "Schrodinger residual", RESIDUAL_TOL),
                             ("wronskian_drift", "Wronskian drift", WRONSKIAN_TOL)):
        value, tol = diagnostics[name], tol[pair.provenance]
        if math.isnan(value):  # overflowed samples; NaN compares false with any bound
            raise AccuracyError(f"{label} is NaN: the pair has non-finite samples",
                                diagnostics=diagnostics)
        if value > tol:
            raise AccuracyError(f"{label} {value:.3e} exceeds tolerance {tol:.1e}",
                                diagnostics=diagnostics)
    return pair


def _free_pair(E, constants, grid):
    if E <= 0:
        raise CapabilityError(f"free analytic pair needs E > 0, got E={E}")
    k = math.sqrt(E) / constants.epsilon
    try:
        k3 = k ** 3
    except OverflowError:
        raise CapabilityError(f"free pair wavenumber k = {k:.3e} has no finite cube") from None
    x = grid.x
    c, s = np.cos(k * x), np.sin(k * x)
    psi = ScalarField(grid, c, derivs=(-k * s, -k * k * c, k3 * s))
    psi_dual = ScalarField(grid, s, derivs=(k * c, -k * k * s, -k3 * c))
    # through k(E): dk/dE = k/(2E), and the Wronskian -k moves with it
    k_e = 0.5 * k / E
    kx = k * x
    psi_e = ScalarField(grid, -k_e * x * s,
                        derivs=(-k_e * (s + kx * c), -k_e * k * (2.0 * c - kx * s)))
    psi_dual_e = ScalarField(grid, k_e * x * c,
                             derivs=(k_e * (c - kx * s), -k_e * k * (2.0 * s + kx * c)))
    return psi, psi_dual, complex(-k), (psi_e, psi_dual_e, -k_e)


def _harmonic_ground_pair(potential, E, constants, grid):
    if not potential.is_ground_level(E, constants):
        raise CapabilityError(
            "harmonic analytic pair covers the ground state only "
            f"(E = {potential.ground_level(constants):.6g}); got E = {E}")
    a = math.sqrt(potential.stiffness) / constants.epsilon
    x = grid.x
    u = np.exp(-0.5 * a * x * x)
    du = -a * x * u
    d2u = (a * a * x * x - a) * u
    d3u = (3 * a * a * x - a ** 3 * x ** 3) * u
    psi = ScalarField(grid, u, derivs=(du, d2u, d3u))

    # Reduction of order: partner -u * int u^-2, anchored at the sample nearest
    # the well minimum; the sign makes the pair Wronskian +1 exactly.
    x0 = grid.x[grid.index_of(0.0)] if grid.contains(0.0) else grid.x[grid.n // 2]
    inv_sq = ScalarField(grid, np.exp(a * x * x))
    integral = antiderivative(inv_sq, x0).values
    v = -u * integral
    dv = -(du * integral + 1.0 / u)
    d2v = -d2u * integral
    d3v = -(d3u * integral + d2u / (u * u))
    psi_dual = ScalarField(grid, v, derivs=(dv, d2v, d3v))
    return psi, psi_dual, complex(1.0), (None, None, 0.0)


def _airy_pair(potential, E, constants, grid):
    g = potential.slope
    eps = constants.epsilon
    c = np.cbrt(g / (eps * eps))
    z = c * (grid.x - E / g)
    ai, aip, bi, bip = special.airy(z)
    if not (np.all(np.isfinite(bi)) and np.all(np.isfinite(ai))):
        raise CapabilityError(
            "Airy pair overflows on this grid; shrink the classically forbidden side")
    psi = ScalarField(grid, ai, derivs=(c * aip, c * c * z * ai, c ** 3 * (ai + z * aip)))
    psi_dual = ScalarField(grid, bi, derivs=(c * bip, c * c * z * bi, c ** 3 * (bi + z * bip)))
    # through z(E): dz/dE = -c/g; the Wronskian -c/pi does not depend on E
    z_e = -c / g
    psi_e = ScalarField(grid, z_e * aip,
                        derivs=(z_e * c * z * ai, z_e * c * c * (ai + z * aip)))
    psi_dual_e = ScalarField(grid, z_e * bip,
                             derivs=(z_e * c * z * bi, z_e * c * c * (bi + z * bip)))
    return psi, psi_dual, complex(-c / math.pi), (psi_e, psi_dual_e, 0.0)


def analytic_pair(potential: Potential, E: float, constants: PhysicalConstants,
                  grid: Grid) -> SolutionPair:
    """Closed-form solution pair for the built-in potentials.

    free      -> (cos(kx), sin(kx)) with k = sqrt(E)/eps
    harmonic  -> ground state and its reduction-of-order partner (E = eps*sqrt(kappa));
                 it exists at one energy only, so it carries no energy derivative
    linear    -> Airy pair (Ai, Bi) of the shifted/scaled argument

    Raises :class:`CapabilityError` for unsupported (kind, E) combinations.
    """
    if potential.kind == "free":
        psi, psi_dual, w, energy_derivs = _free_pair(E, constants, grid)
    elif potential.kind == "harmonic":
        psi, psi_dual, w, energy_derivs = _harmonic_ground_pair(potential, E, constants, grid)
    elif potential.kind == "linear":
        psi, psi_dual, w, energy_derivs = _airy_pair(potential, E, constants, grid)
    else:
        raise CapabilityError(f"no analytic pair for potential kind {potential.kind!r}")
    psi_e, psi_dual_e, omega_e = energy_derivs
    pair = SolutionPair(psi, psi_dual, float(E), constants, w,
                        kind="real", potential=potential, provenance="analytic",
                        psi_e=psi_e, psi_dual_e=psi_dual_e, omega_e=omega_e)
    return _validate_pair(pair)


def _stepwise_sweep(g_nodes, g_mid, h, ics) -> np.ndarray:
    """(psi, psi', psiD, psiD') at every sample, one RK4 step at a time."""
    # y + (h/6)(k1 + 2 k2 + 2 k3 + k4) per component of y = (psi, psi', psiD, psiD')
    half, sixth = 0.5 * h, h / 6.0
    u, du, w, dw = ics
    state = [u, du, w, dw]
    extend = state.extend
    g_list = g_nodes.tolist()
    for g0, gm, g1 in zip(g_list, g_mid.tolist(), g_list[1:]):
        a1, b1, c1, d1 = du, g0 * u, dw, g0 * w
        u2, w2 = u + half * a1, w + half * c1
        a2, b2, c2, d2 = du + half * b1, gm * u2, dw + half * d1, gm * w2
        u3, w3 = u + half * a2, w + half * c2
        a3, b3, c3, d3 = du + half * b2, gm * u3, dw + half * d2, gm * w3
        u4, w4 = u + h * a3, w + h * c3
        a4, b4, c4, d4 = du + h * b3, g1 * u4, dw + h * d3, g1 * w4
        u, du, w, dw = (u + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                        du + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
                        w + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
                        dw + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
        extend((u, du, w, dw))

    # one flat list to one array: converting a list of tuples costs far more
    return np.array(state).reshape(-1, 4).T


def _composed_sweep(g_nodes, g_mid, h, ics) -> np.ndarray:
    """:func:`_stepwise_sweep` by step matrices T, whose rows are the stage
    formulas applied to (1, 0) and (0, 1): prefix products of T within blocks
    of about sqrt(steps) steps, times each block's start state."""
    steps = len(g_mid)
    width = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps))
    half, sixth = 0.5 * h, h / 6.0
    g0, gm, g1 = g_nodes[:-1], g_mid, g_nodes[1:]

    def step(u, du):  # the stage formulas of _stepwise_sweep, over every step at once
        a1, b1 = du, g0 * u
        u2 = u + half * a1
        a2, b2 = du + half * b1, gm * u2
        u3 = u + half * a2
        a3, b3 = du + half * b2, gm * u3
        u4 = u + h * a3
        a4, b4 = du + h * b3, g1 * u4
        return (u + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                du + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

    with np.errstate(all="ignore"):  # overflow shows as non-finite samples
        prefix = np.empty((-(-steps // width), width, 2, 2))
        flat = prefix.reshape(-1, 2, 2)
        flat[steps:] = np.eye(2)
        for row, basis in enumerate(((1.0, 0.0), (0.0, 1.0))):
            flat[:steps, row, 0], flat[:steps, row, 1] = step(*basis)
        for j in range(1, width):
            prefix[:, j] = prefix[:, j - 1] @ prefix[:, j]
        starts = [np.reshape(ics, (2, 2))]  # rows (psi, psi'), (psiD, psiD')
        for last in prefix[:-1, -1]:
            starts.append(starts[-1] @ last)
        samples = (np.array(starts)[:, None] @ prefix).reshape(-1, 4)[:steps]
    return np.vstack((ics, samples)).T


def solve_pair(potential: Potential, E: float, constants: PhysicalConstants, grid: Grid,
               ics, stepwise: bool = True) -> SolutionPair:
    """Numeric pair from four real initial values (psi, psi', psiD, psiD') at x_min.

    Both members are integrated together with classic fixed-step RK4 on the
    grid.  Each step runs on Python floats; the four components keep the
    operation order of the vector update, which is bitwise the numpy result
    at a tenth of its cost.  ``stepwise=False`` composes the steps instead
    (:func:`_composed_sweep`; the module docstring says which pairs may).

    The energy derivatives come from the Green's function (module docstring),
    with w0 = psi' psiD - psi psiD' at x_min and integrals from x_min by
    :func:`fields.antiderivative` over psi^2, psi psiD and psiD^2:

        psi_E  = (psiD int psi^2   - psi int psi psiD) / (eps^2 w0),
        psiD_E = (psiD int psi psiD - psi int psiD^2)  / (eps^2 w0),

    the same with psi', psiD' in front for their x-derivatives, and
    u_E'' = g u_E - u/eps^2.  Swapping the members flips w0 and both
    numerators exactly, so it swaps the energy derivatives.  The products
    grow as |psi|^3 and overflow once |psi| passes about 1e103 (psi^2 past
    1.3e154); they cancel to the size of psi_E, losing about
    log10(psi^2/|w0|) digits, a loss the Wronskian drift bound caps, as its
    own products cancel the same way.  Non-finite swept samples or energy
    derivatives raise :class:`AccuracyError` before any field is built.
    """
    ics = tuple(float(v) for v in ics)
    if len(ics) != 4:
        raise ValueError(f"ics must be (psi, psi', psiD, psiD') at x_min, got {len(ics)} values")
    w0 = ics[1] * ics[2] - ics[0] * ics[3]
    if w0 == 0.0:
        raise DegeneracyError("initial values have zero Wronskian")

    eps2 = constants.epsilon ** 2
    x = grid.x
    h = grid.h
    g_nodes = (potential.value(x) - E) / eps2
    g_mid = (potential.value(x[:-1] + 0.5 * h) - E) / eps2

    swept = (_stepwise_sweep if stepwise else _composed_sweep)(g_nodes, g_mid, h, ics)
    if not np.isfinite(swept).all():
        diagnostics = {"schrodinger_residual": math.nan, "wronskian_drift": math.nan}
        raise AccuracyError("Schrodinger residual is NaN: the pair has non-finite samples",
                            diagnostics=diagnostics)
    psi_v, dpsi, chi_v, dchi = swept
    with np.errstate(all="ignore"):
        i_pp, i_pc, i_cc = (antiderivative(ScalarField(grid, a * b), grid.x_min).values
                            for a, b in ((psi_v, psi_v), (psi_v, chi_v), (chi_v, chi_v)))
        scale = eps2 * w0
        e_lanes = ((chi_v * i_pp - psi_v * i_pc) / scale,
                   (dchi * i_pp - dpsi * i_pc) / scale,
                   (chi_v * i_pc - psi_v * i_cc) / scale,
                   (dchi * i_pc - dpsi * i_cc) / scale)
    if not all(np.isfinite(lane).all() for lane in e_lanes):
        big = max(np.max(np.abs(psi_v)), np.max(np.abs(chi_v)))
        raise AccuracyError(f"energy derivative overflows: max |psi|, |psiD| = {big:.3e}")
    psi_ev, dpsi_e, chi_ev, dchi_e = e_lanes

    dv = potential.field(grid).derivs[0]
    src = 1.0 / eps2
    psi = ScalarField(grid, psi_v,
                      derivs=(dpsi, g_nodes * psi_v, (dv / eps2) * psi_v + g_nodes * dpsi))
    psi_dual = ScalarField(grid, chi_v,
                           derivs=(dchi, g_nodes * chi_v, (dv / eps2) * chi_v + g_nodes * dchi))
    psi_e = ScalarField(grid, psi_ev, derivs=(dpsi_e, g_nodes * psi_ev - src * psi_v))
    psi_dual_e = ScalarField(grid, chi_ev, derivs=(dchi_e, g_nodes * chi_ev - src * chi_v))
    pair = SolutionPair(psi, psi_dual, float(E), constants, complex(w0),
                        kind="real", potential=potential, provenance="numeric",
                        psi_e=psi_e, psi_dual_e=psi_dual_e)
    return _validate_pair(pair)


def _scaled_field(f: ScalarField, s: float) -> ScalarField:
    return ScalarField(f.grid, s * f.values, derivs=tuple(s * d for d in f.derivs))


def make_conjugate(pair: SolutionPair) -> SolutionPair:
    """Combine a real pair into the conjugate pair (psi + i psiD, psi - i psiD)."""
    if pair.kind != "real":
        raise ContractError("make_conjugate expects a real pair")
    u, v = pair.psi, pair.psi_dual
    vals = u.values + 1j * v.values
    derivs = tuple(du + 1j * dv for du, dv in zip(u.derivs, v.derivs))
    psi = ScalarField(pair.grid, vals, derivs=derivs)
    psi_dual = ScalarField(pair.grid, np.conj(vals), derivs=tuple(np.conj(d) for d in derivs))
    w = -2j * pair.wronskian
    return SolutionPair(psi, psi_dual, pair.energy, pair.constants, w,
                        kind="conjugate", potential=pair.potential, provenance=pair.provenance)


def normalize_wronskian(pair: SolutionPair, target: complex | None = None) -> SolutionPair:
    """Rescale (and possibly swap) the members so the Wronskian equals ``target``.

    ``target=None`` means 2i/eps, the convention the duality checks assume for
    conjugate pairs.  Scaling both members by the same square root s, their
    energy derivatives by s and ``omega_e`` by s^2, leaves every derived
    microstate untouched; for conjugate pairs, which carry no energy
    derivatives, a negative real ratio is absorbed by swapping the members so
    conjugacy survives.  A target that needs a non-real scale factor would
    break the pair's kind and raises :class:`ContractError`.
    """
    if abs(pair.wronskian) == 0:
        raise DegeneracyError("cannot normalize a zero Wronskian")
    if target is None:
        target = 2j / pair.constants.epsilon
    target = complex(target)
    if target == pair.wronskian:
        return pair

    psi, psi_dual, w = pair.psi, pair.psi_dual, pair.wronskian
    ratio = target / w
    if pair.kind == "conjugate" and abs(ratio.imag) <= 1e-14 * abs(ratio) and ratio.real < 0:
        psi, psi_dual = psi_dual, psi
        w = -w
        ratio = -ratio

    s = np.sqrt(complex(ratio))
    if abs(s.imag) > 1e-14 * abs(s):
        raise ContractError(
            f"rescaling a {pair.kind} pair from Wronskian {w} to {target} needs the "
            f"non-real factor {s}")
    s = s.real
    psi_e, psi_dual_e = (None if f is None else _scaled_field(f, s)
                         for f in (pair.psi_e, pair.psi_dual_e))
    return SolutionPair(_scaled_field(psi, s), _scaled_field(psi_dual, s),
                        pair.energy, pair.constants, target,
                        kind=pair.kind, potential=pair.potential, provenance=pair.provenance,
                        psi_e=psi_e, psi_dual_e=psi_dual_e, omega_e=s * s * pair.omega_e)


def default_ics(potential: Potential, constants: PhysicalConstants, x_min: float) -> tuple:
    """Initial values (psi, psi', psiD, psiD') at x_min of a numeric pair given none.

    Harmonic: the ground state and its partner, anchored at the well center
    rather than at x_min, since anchoring at the boundary would make the
    denominator field swing over ~e^{2 a x^2} and starve the momentum of
    dynamic range at small hbar; the orientation gives Wronskian +1, as the
    analytic pair; data that are not finite floats raise :class:`DomainError`.
    Otherwise (1, 0, 0, 1).
    """
    if potential.kind != "harmonic":
        return (1.0, 0.0, 0.0, 1.0)
    a = math.sqrt(potential.stiffness) / constants.epsilon
    u0 = math.exp(-0.5 * a * x_min * x_min)
    du0 = -a * x_min * u0
    i0 = 0.5 * math.sqrt(math.pi / a) * float(special.erfi(math.sqrt(a) * x_min))
    ics = (u0, du0, -u0 * i0, -du0 * i0 - 1.0 / u0) if u0 > 0.0 else (u0, math.inf)
    if not all(map(math.isfinite, ics)):
        raise DomainError(f"harmonic initial data at x_min = {x_min} are not finite: "
                          f"exp(-a x_min^2/2) = {u0:.3e} with a = {a:.3e}")
    return ics


@dataclass(frozen=True)
class Scenario:
    """A pair factory bound to (potential, constants, grid).

    Numeric pairs start from the same energy-independent initial data at every
    energy, which is what gives their energy derivatives zero initial data;
    ``ics=None`` means :func:`default_ics` at the scenario's constants.
    ``stepwise=False`` lets numeric pairs compose their RK4 steps, for pairs
    whose samples are never reported (the hbar scan's added ones).
    """

    potential: Potential
    constants: PhysicalConstants
    grid: Grid
    energy: float
    method: str = "analytic"
    ics: tuple | None = None
    stepwise: bool = True

    def __post_init__(self):
        if self.method not in ("analytic", "numeric"):
            raise ValueError(f"unknown scenario method {self.method!r}")

    def pair(self, energy: float | None = None) -> SolutionPair:
        E = self.energy if energy is None else energy
        if self.method == "analytic":
            return analytic_pair(self.potential, E, self.constants, self.grid)
        ics = self.ics
        if ics is None:
            ics = default_ics(self.potential, self.constants, self.grid.x_min)
        return solve_pair(self.potential, E, self.constants, self.grid, ics,
                          stepwise=self.stepwise)

    def at_hbar(self, hbar: float) -> "Scenario":
        """This scenario at another hbar with the same mass; a harmonic one
        moves to its ground level there."""
        constants = PhysicalConstants(hbar=hbar, mass=self.constants.mass)
        energy = self.energy
        if self.potential.kind == "harmonic":
            energy = self.potential.ground_level(constants)
        return replace(self, constants=constants, energy=energy)
