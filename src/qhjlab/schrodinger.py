"""Pairs of linearly independent stationary-state solutions.

Works with the scaled form of the stationary equation,

    -eps^2 u'' + V(x) u = E u,        eps = hbar / sqrt(2 m),

so the default units hbar = 1, m = 1/2 give eps = 1 and integer-clean desk
examples.  Closed forms cover the free, linear (Airy) and harmonic
ground-state cases; everything else integrates both members with a
fixed-step RK4 sweep from energy-independent initial data at x_min.

All constructed fields carry sampled analytic derivatives: closed-form ones
for analytic pairs, and model-consistent ones (u'' = (V - E) u / eps^2) for
numeric pairs, so downstream residuals are limited by solution accuracy
rather than by stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    AccuracyError,
    CapabilityError,
    ContractError,
    DegeneracyError,
)
from .fields import Grid, ScalarField, antiderivative

POTENTIAL_KINDS = ("free", "linear", "harmonic", "custom")

# Construction-time tolerances on the relative Schrodinger residual and on
# the relative Wronskian drift, keyed by provenance.
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
        if self.kind == "custom" and self.samples is None:
            raise ValueError("custom potential needs a sampled field")
        if self.kind == "harmonic" and self.stiffness <= 0:
            raise ValueError("harmonic potential needs stiffness > 0")
        if self.kind == "linear" and self.slope == 0:
            raise ValueError("linear potential needs a nonzero slope (use kind='free')")

    def ground_level(self, constants: PhysicalConstants) -> float:
        """Harmonic ground level eps*sqrt(stiffness)."""
        if self.kind != "harmonic":
            raise CapabilityError(f"no closed-form ground level for potential kind {self.kind!r}")
        return constants.epsilon * math.sqrt(self.stiffness)

    def value(self, x):
        """V at arbitrary coordinates (vectorised)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "linear":
            return self.slope * x
        if self.kind == "harmonic":
            return self.stiffness * x * x
        from .fields import interpolate  # local import to avoid cycle at module load

        flat = np.atleast_1d(x)
        out = np.array([interpolate(self.samples, float(xi)) for xi in flat])
        return out.reshape(x.shape) if x.shape else out[0]

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
        # custom: attached derivatives first, finite differences beyond
        from .fields import derivative

        if self.samples.grid != grid:
            raise ContractError("custom potential sampled on a different grid")
        f = self.samples
        if order == 0:
            return np.asarray(f.values, dtype=float)
        for _ in range(order):
            f = derivative(f, 1)
        return np.asarray(f.values, dtype=float)

    def field(self, grid: Grid, n_derivs: int = 3) -> ScalarField:
        """V on ``grid`` with derivative samples of orders 1..n_derivs attached."""
        derivs = tuple(self.derivative_samples(grid, k) for k in range(1, n_derivs + 1))
        return ScalarField(grid, self.derivative_samples(grid, 0), derivs=derivs)


@dataclass(frozen=True)
class SolutionPair:
    """Two linearly independent solutions (psi, psi_dual) at a common energy.

    ``kind`` distinguishes the variants the checks rely on: "real" pairs feed
    the microstate formulas (psi_dual/psi real), "conjugate" pairs
    (psi_dual = conj(psi)) feed the duality checks, anything else is
    "general".  ``wronskian`` is psi' psi_dual - psi psi_dual', constant for
    genuine solutions.
    """

    psi: ScalarField
    psi_dual: ScalarField
    energy: float
    constants: PhysicalConstants
    wronskian: complex
    kind: str = "real"
    potential: Potential | None = None
    provenance: str = "analytic"

    @property
    def grid(self) -> Grid:
        return self.psi.grid

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

    def schrodinger_residual(self, member: str = "psi", use_attached: bool = True) -> ScalarField:
        """-eps^2 u'' + (V - E) u for the requested member."""
        from .fields import derivative

        u = self.psi if member == "psi" else self.psi_dual
        eps = self.constants.epsilon
        v = self.potential.derivative_samples(self.grid, 0) if self.potential else 0.0
        d2 = derivative(u, 2, use_attached=use_attached).values
        return ScalarField(self.grid, -eps * eps * d2 + (v - self.energy) * u.values)

    def residual_scale(self) -> float:
        """Reference magnitude for relative residual checks."""
        v = self.potential.derivative_samples(self.grid, 0) if self.potential else 0.0
        scale = 0.0
        for u in (self.psi, self.psi_dual):
            scale = max(scale, float(np.max(np.abs((v - self.energy) * u.values))))
        return scale if scale > 0 else 1.0


def _validate_pair(pair: SolutionPair, residual_tol=None, wronskian_tol=None) -> SolutionPair:
    if abs(pair.wronskian) == 0:
        raise DegeneracyError("pair has zero Wronskian: members are linearly dependent")
    both = np.abs(pair.psi.values) ** 2 + np.abs(pair.psi_dual.values) ** 2
    if float(np.min(both)) <= 0.0:
        raise DegeneracyError("psi and psi_dual vanish simultaneously at some sample")

    residual_tol = RESIDUAL_TOL[pair.provenance] if residual_tol is None else residual_tol
    wronskian_tol = WRONSKIAN_TOL[pair.provenance] if wronskian_tol is None else wronskian_tol
    scale = pair.residual_scale()
    diagnostics = {}
    for member in ("psi", "psi_dual"):
        use_attached = pair.provenance == "analytic"
        res = pair.schrodinger_residual(member, use_attached=use_attached)
        diagnostics[member] = float(np.max(np.abs(res.values))) / scale
    diagnostics["wronskian_drift"] = pair.wronskian_drift()
    if max(diagnostics["psi"], diagnostics["psi_dual"]) > residual_tol:
        raise AccuracyError(
            f"Schrodinger residual {max(diagnostics['psi'], diagnostics['psi_dual']):.3e} "
            f"exceeds tolerance {residual_tol:.1e}", diagnostics=diagnostics)
    if diagnostics["wronskian_drift"] > wronskian_tol:
        raise AccuracyError(
            f"Wronskian drift {diagnostics['wronskian_drift']:.3e} exceeds "
            f"tolerance {wronskian_tol:.1e}", diagnostics=diagnostics)
    return pair


def _free_pair(E, constants, grid):
    if E <= 0:
        raise CapabilityError(f"free analytic pair needs E > 0, got E={E}")
    k = math.sqrt(E) / constants.epsilon
    x = grid.x
    c, s = np.cos(k * x), np.sin(k * x)
    psi = ScalarField(grid, c, derivs=(-k * s, -k * k * c, k ** 3 * s))
    psi_dual = ScalarField(grid, s, derivs=(k * c, -k * k * s, -k ** 3 * c))
    return psi, psi_dual, complex(-k)


def _harmonic_ground_pair(potential, E, constants, grid):
    e0 = potential.ground_level(constants)
    if abs(E - e0) > 1e-9 * max(1.0, abs(e0)):
        raise CapabilityError(
            f"harmonic analytic pair covers the ground state only (E = {e0:.6g}); "
            f"got E = {E}")
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
    return psi, psi_dual, complex(1.0)


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
    return psi, psi_dual, complex(-c / math.pi)


def analytic_pair(potential: Potential, E: float, constants: PhysicalConstants,
                  grid: Grid) -> SolutionPair:
    """Closed-form solution pair for the built-in potentials.

    free      -> (cos(kx), sin(kx)) with k = sqrt(E)/eps
    harmonic  -> ground state and its reduction-of-order partner (E = eps*sqrt(kappa))
    linear    -> Airy pair (Ai, Bi) of the shifted/scaled argument

    Raises :class:`CapabilityError` for unsupported (kind, E) combinations.
    """
    if potential.kind == "free":
        psi, psi_dual, w = _free_pair(E, constants, grid)
    elif potential.kind == "harmonic":
        psi, psi_dual, w = _harmonic_ground_pair(potential, E, constants, grid)
    elif potential.kind == "linear":
        psi, psi_dual, w = _airy_pair(potential, E, constants, grid)
    else:
        raise CapabilityError(f"no analytic pair for potential kind {potential.kind!r}")
    pair = SolutionPair(psi, psi_dual, float(E), constants, w,
                        kind="real", potential=potential, provenance="analytic")
    return _validate_pair(pair)


def solve_pair(potential: Potential, E: float, constants: PhysicalConstants, grid: Grid,
               ics, residual_tol=None) -> SolutionPair:
    """Numeric pair from four real initial values (psi, psi', psiD, psiD') at x_min.

    Both members are integrated together with classic fixed-step RK4 on the
    grid; the initial data carries no energy dependence, which is what the
    energy differencing in the microstate module relies on.
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

    n = grid.n
    state = np.empty((n, 4))
    state[0] = ics
    y = np.array(ics)
    for i in range(n - 1):
        g0, gm, g1 = g_nodes[i], g_mid[i], g_nodes[i + 1]
        k1 = np.array([y[1], g0 * y[0], y[3], g0 * y[2]])
        y2 = y + 0.5 * h * k1
        k2 = np.array([y2[1], gm * y2[0], y2[3], gm * y2[2]])
        y3 = y + 0.5 * h * k2
        k3 = np.array([y3[1], gm * y3[0], y3[3], gm * y3[2]])
        y4 = y + h * k3
        k4 = np.array([y4[1], g1 * y4[0], y4[3], g1 * y4[2]])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        state[i + 1] = y

    dv = potential.derivative_samples(grid, 1)
    psi_v, dpsi, chi_v, dchi = state.T
    psi = ScalarField(grid, psi_v,
                      derivs=(dpsi, g_nodes * psi_v, (dv / eps2) * psi_v + g_nodes * dpsi))
    psi_dual = ScalarField(grid, chi_v,
                           derivs=(dchi, g_nodes * chi_v, (dv / eps2) * chi_v + g_nodes * dchi))
    pair = SolutionPair(psi, psi_dual, float(E), constants, complex(w0),
                        kind="real", potential=potential, provenance="numeric")
    return _validate_pair(pair, residual_tol=residual_tol)


def _scaled_field(f: ScalarField, s: complex) -> ScalarField:
    if s.imag == 0.0:
        s = s.real
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
    conjugate pairs.  Scaling both members by the same square root leaves every
    derived microstate untouched; for conjugate pairs a negative real ratio is
    absorbed by swapping the members so conjugacy survives.
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
    kind = pair.kind
    if abs(s.imag) > 1e-14 * abs(s):
        if pair.kind in ("real", "conjugate"):
            kind = "general"
    else:
        s = complex(s.real)
    return SolutionPair(_scaled_field(psi, s), _scaled_field(psi_dual, s),
                        pair.energy, pair.constants, target,
                        kind=kind, potential=pair.potential, provenance=pair.provenance)


@dataclass(frozen=True)
class Scenario:
    """A pair factory bound to (potential, constants, grid) that can re-solve
    at shifted energies from identical, energy-independent initial data."""

    potential: Potential
    constants: PhysicalConstants
    grid: Grid
    energy: float
    method: str = "analytic"
    ics: tuple | None = None

    def __post_init__(self):
        if self.method not in ("analytic", "numeric"):
            raise ValueError(f"unknown scenario method {self.method!r}")
        if self.method == "numeric" and self.ics is None:
            raise ValueError("numeric scenario needs initial values at x_min")

    def pair(self, energy: float | None = None) -> SolutionPair:
        E = self.energy if energy is None else energy
        if self.method == "analytic":
            return analytic_pair(self.potential, E, self.constants, self.grid)
        return solve_pair(self.potential, E, self.constants, self.grid, self.ics)

    def delta_e(self) -> float:
        """Default central-difference step in energy: relative with an absolute floor."""
        return max(1e-5, 1e-5 * abs(self.energy))
