"""Trajectory microstates built on top of a real solution pair.

A microstate adds three constants (alpha, l1, l2) to the two already fixed by
the pair.  With w = psi_dual/psi and l = l1 + i*l2 the phase factor

    beta = (w + i conj(l)) / (w - i l)

has unit modulus for real pairs, so the principal function

    S0 = (hbar/2) * (alpha + unwrap_phase(beta))

is real and the momentum takes the node-free closed form

    p = S0' = hbar * l1 * Omega / |psi_dual - i l psi|^2,

with Omega the pair Wronskian.  All formulas are evaluated in combined forms
whose denominator (psi_dual + l2 psi)^2 + (l1 psi)^2 stays strictly positive
when l1 != 0, so nodes of psi are harmless.

The quantum potential is computed two ways (Schwarzian of S0, and the
curvature -hbar^2 R''/2mR of the polar amplitude R = |S0'|^{-1/2}) and the
stationary Hamilton-Jacobi residual is reported with the potential term
obtained both from V - E and from the Schwarzian of exp(2i S0/hbar).

Time enters as the energy derivative of S0, differenced across the pairs at
E +/- dE of one :class:`EnergyFamily` (solved once, from identical initial
data); trajectories invert t(q) on monotone windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, UnwrapError
from .fields import ScalarField, derivative, schwarzian, unwrap_phase, NODE_TOL
from .schrodinger import Scenario, SolutionPair

# dS0/dalpha in units of hbar.  The underlying phase formula fixes the sign
# only up to the orientation of the pair; this package uses +1/2 throughout
# and exposes the choice as data rather than burying it in formulas.
ALPHA_SLOPE = 0.5


@dataclass(frozen=True)
class MicrostateParams:
    """The extra constants (alpha, l) a microstate adds to a solution pair."""

    alpha: float = 0.0
    ell: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "ell", complex(self.ell))
        if self.ell.real == 0.0:
            raise ValueError("ell must have a nonzero real part (l1 != 0)")

    @property
    def ell1(self) -> float:
        return self.ell.real

    @property
    def ell2(self) -> float:
        return self.ell.imag


def _require_real_pair(pair: SolutionPair):
    if pair.kind != "real":
        raise ContractError(f"microstate formulas need a real pair, got kind={pair.kind!r}")


def _denominator(pair: SolutionPair, params: MicrostateParams):
    """|psi_dual - i l psi|^2 with first/second derivatives when available."""
    psi, chi = pair.psi, pair.psi_dual
    a = chi.values + params.ell2 * psi.values
    b = params.ell1 * psi.values
    d = a * a + b * b
    if len(psi.derivs) >= 2 and len(chi.derivs) >= 2:
        da = chi.derivs[0] + params.ell2 * psi.derivs[0]
        db = params.ell1 * psi.derivs[0]
        d2a = chi.derivs[1] + params.ell2 * psi.derivs[1]
        d2b = params.ell1 * psi.derivs[1]
        d1 = 2.0 * (a * da + b * db)
        d2 = 2.0 * (da * da + a * d2a + db * db + b * d2b)
        return d, d1, d2
    return d, None, None


def beta_field(pair: SolutionPair, params: MicrostateParams) -> ScalarField:
    """Unimodular phase factor beta = (psi_dual + i conj(l) psi)/(psi_dual - i l psi)."""
    _require_real_pair(pair)
    psi, chi = pair.psi.values, pair.psi_dual.values
    num = chi + 1j * np.conj(params.ell) * psi
    den = chi - 1j * params.ell * psi
    return ScalarField(pair.grid, num / den)


def momentum(pair: SolutionPair, params: MicrostateParams) -> ScalarField:
    """Closed-form momentum p = hbar l1 Omega / |psi_dual - i l psi|^2.

    Sign convention: p equals the derivative of the unwrapped principal
    function, so its direction follows the orientation of the pair.
    """
    _require_real_pair(pair)
    hbar = pair.constants.hbar
    c = hbar * params.ell1 * pair.omega
    d, d1, d2 = _denominator(pair, params)
    p = c / d
    if d1 is None:
        return ScalarField(pair.grid, p)
    dp = -c * d1 / (d * d)
    d2p = c * (2.0 * d1 * d1 - d * d2) / (d * d * d)
    return ScalarField(pair.grid, p, derivs=(dp, d2p))


def hamilton_principal(pair: SolutionPair, params: MicrostateParams) -> ScalarField:
    """Principal function S0 = (hbar/2)(alpha + theta) with theta the unwrapped
    phase of beta; carries (p, p', p'') as attached derivatives."""
    hbar = pair.constants.hbar
    theta = unwrap_phase(beta_field(pair, params))
    values = hbar * (ALPHA_SLOPE * params.alpha + 0.5 * theta.values)
    p = momentum(pair, params)
    return ScalarField(pair.grid, values, derivs=(p.values,) + p.derivs)


@dataclass(frozen=True)
class QuantumPotentialReport:
    """Both routes to Q and how far apart they land."""

    from_schwarzian: ScalarField
    from_amplitude: ScalarField
    max_discrepancy: float


def quantum_potential(ms: "Microstate") -> QuantumPotentialReport:
    """Q via (hbar^2/4m){S0; x} and via -hbar^2 R''/2mR with R = |S0'|^{-1/2}."""
    hbar = ms.pair.constants.hbar
    mass = ms.pair.constants.mass
    q_schw = 0.25 * hbar * hbar / mass * schwarzian(ms.S0).values

    r = ScalarField(ms.pair.grid, np.abs(ms.p.values) ** -0.5)
    r2 = derivative(r, 2).values
    q_amp = -0.5 * hbar * hbar / mass * r2 / r.values
    disc = float(np.max(np.abs(q_schw - q_amp)))
    return QuantumPotentialReport(ScalarField(ms.pair.grid, q_schw),
                                  ScalarField(ms.pair.grid, q_amp), disc)


@dataclass(frozen=True)
class Microstate:
    """A solution pair dressed with the three microstate constants and the
    fields derived from them."""

    params: MicrostateParams
    pair: SolutionPair
    w: ScalarField            # psi_dual/psi, NaN-masked at nodes of psi
    beta: ScalarField
    S0: ScalarField
    p: ScalarField
    Q: ScalarField
    mfW: ScalarField          # V - E

    @property
    def direction(self) -> int:
        """Sign of the momentum (uniform across the grid)."""
        return int(np.sign(self.p.values[self.p.grid.n // 2]))


def build_microstate(pair: SolutionPair, params: MicrostateParams) -> Microstate:
    """Assemble every microstate field for (pair, params)."""
    _require_real_pair(pair)
    if pair.potential is None:
        raise ContractError("pair must carry its potential to form the residual fields")

    psi = pair.psi.values
    mask = np.abs(psi) > NODE_TOL * float(np.max(np.abs(psi)))
    w_vals = np.where(mask, pair.psi_dual.values / np.where(mask, psi, 1.0), np.nan)
    w = ScalarField(pair.grid, w_vals)

    beta = beta_field(pair, params)
    s0 = hamilton_principal(pair, params)
    p = momentum(pair, params)
    hbar, mass = pair.constants.hbar, pair.constants.mass
    q = 0.25 * hbar * hbar / mass * schwarzian(s0).values
    v = pair.potential.derivative_samples(pair.grid, 0)
    mfw = ScalarField(pair.grid, v - pair.energy)
    return Microstate(params, pair, w, beta, s0, p, ScalarField(pair.grid, q), mfw)


@dataclass(frozen=True)
class QshjeReport:
    """Stationary Hamilton-Jacobi residual with the potential term computed
    both directly (V - E) and from the Schwarzian of exp(2i S0/hbar)."""

    from_potential: ScalarField
    from_schwarzian: ScalarField
    w_mismatch: float


def qshje_residual(ms: Microstate) -> QshjeReport:
    """(1/2m)(S0')^2 + W + Q with both determinations of W."""
    hbar = ms.pair.constants.hbar
    mass = ms.pair.constants.mass
    kinetic = 0.5 / mass * ms.p.values ** 2
    res_pot = kinetic + ms.mfW.values + ms.Q.values

    g_vals = np.exp(2j / hbar * ms.S0.values)
    if ms.S0.derivs:
        c = 2j / hbar
        p, dp, d2p = ms.S0.derivs[0], None, None
        if len(ms.S0.derivs) >= 3:
            dp, d2p = ms.S0.derivs[1], ms.S0.derivs[2]
        g1 = c * p * g_vals
        if dp is not None:
            g2 = c * (dp * g_vals + p * g1)
            g3 = c * (d2p * g_vals + 2.0 * dp * g1 + p * g2)
            g = ScalarField(ms.pair.grid, g_vals, derivs=(g1, g2, g3))
        else:
            g = ScalarField(ms.pair.grid, g_vals, derivs=(g1,))
    else:
        g = ScalarField(ms.pair.grid, g_vals)
    w_schw = np.real(-0.25 * hbar * hbar / mass * schwarzian(g).values)
    res_schw = kinetic + w_schw + ms.Q.values
    mismatch = float(np.max(np.abs(w_schw - ms.mfW.values)))
    return QshjeReport(ScalarField(ms.pair.grid, res_pot),
                       ScalarField(ms.pair.grid, res_schw), mismatch)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    q: float
    q_dot_from_energy: float   # (dp/dE)^{-1}
    q_dot_from_mass: float     # p / m_Q
    p: float
    m_q: float


@dataclass(frozen=True)
class TrajectoryResult:
    monotone: bool
    segments: tuple


def _monotone_segments(t: np.ndarray):
    """Maximal index ranges on which t is strictly monotone."""
    dt = np.diff(t)
    segments = []
    start = 0
    sign = 0.0
    for i, d in enumerate(dt):
        s = np.sign(d)
        if s == 0.0:
            if i > start:
                segments.append((start, i + 1))
            start, sign = i + 1, 0.0
            continue
        if sign == 0.0:
            sign = s
        elif s != sign:
            segments.append((start, i + 1))
            start, sign = i, s
    if start < len(t) - 1:
        segments.append((start, len(t)))
    return segments


@dataclass(frozen=True)
class EnergyFamily:
    """One scenario's pairs at E and E +/- dE, each solved lazily and at most once.

    Keeps the pair and microstate at E, but of the pairs at E +/- dE only the
    central differences of their microstates (dp/dE, dQ/dE, S0).  ``params``
    may be None when only :attr:`pair` is used.
    """

    scenario: Scenario
    params: MicrostateParams | None = None
    delta_e: float | None = None

    def __post_init__(self):
        if self.delta_e is None:
            object.__setattr__(self, "delta_e", self.scenario.delta_e())

    @cached_property
    def pair(self) -> SolutionPair:
        return self.scenario.pair()

    @cached_property
    def microstate(self) -> Microstate:
        return build_microstate(self.pair, self.params)

    @cached_property
    def _differences(self):
        """(dp/dE field, dQ/dE samples, S0(E + dE) - S0(E - dE) samples)."""
        energy, de = self.scenario.energy, self.delta_e
        ms_plus, ms_minus = (build_microstate(self.scenario.pair(e), self.params)
                             for e in (energy + de, energy - de))
        p_plus, p_minus = ms_plus.p, ms_minus.p
        de_p = ScalarField(self.scenario.grid, (p_plus.values - p_minus.values) / (2.0 * de),
                           derivs=tuple((dp - dm) / (2.0 * de)
                                        for dp, dm in zip(p_plus.derivs, p_minus.derivs)))
        de_q = (ms_plus.Q.values - ms_minus.Q.values) / (2.0 * de)
        return de_p, de_q, ms_plus.S0.values - ms_minus.S0.values

    @property
    def de_momentum(self) -> ScalarField:
        """Central difference of the momentum field with respect to energy."""
        return self._differences[0]

    def time_of_q(self, x_ref: float | None = None) -> ScalarField:
        """t(q) = dS0/dE gauged to t(x_ref) = 0; see :func:`time_of_q`."""
        grid = self.scenario.grid
        ref = grid.index_of(grid.x_min if x_ref is None else x_ref)
        de_p, _, diff = self._differences
        # align the unwrap branches; offsets come in steps of (hbar/2) * 2 pi
        quantum = math.pi * self.scenario.constants.hbar
        diff = diff - quantum * round(float(diff[ref]) / quantum)
        if float(np.max(np.abs(diff))) >= 0.5 * quantum:
            raise UnwrapError("unwrap branches of S0 at E +/- dE cannot be aligned; "
                              "reduce delta_e or refine the grid")
        t = diff / (2.0 * self.delta_e)
        t = t - t[ref]
        return ScalarField(grid, t, derivs=(de_p.values,) + de_p.derivs)

    def trajectory(self, t_samples, x_ref: float | None = None) -> TrajectoryResult:
        """The motion sampled at ``t_samples``; see :func:`trajectory`."""
        ms = self.microstate
        t = self.time_of_q(x_ref).values
        de_p, de_q, _ = self._differences
        m_q = self.scenario.constants.mass * (1.0 - de_q)
        # dp/dE may cross zero (stationary trajectory time); the reciprocal
        # velocity is genuinely infinite there
        with np.errstate(divide="ignore"):
            qdot_energy = 1.0 / de_p.values
            qdot_mass = ms.p.values / m_q

        x = self.scenario.grid.x
        t_samples = np.sort(np.asarray(t_samples, dtype=float))
        segments = _monotone_segments(t)
        monotone = len(segments) == 1 and segments[0] == (0, len(t))

        out_segments = []
        for lo, hi in segments:
            ts = t[lo:hi]
            order = slice(None) if ts[0] < ts[-1] else slice(None, None, -1)
            ts_a = ts[order]
            inside = (t_samples >= ts_a[0]) & (t_samples <= ts_a[-1])
            points = []
            for tv in t_samples[inside]:
                def at(vals):
                    return float(np.interp(tv, ts_a, vals[lo:hi][order]))
                points.append(TrajectoryPoint(
                    t=float(tv), q=at(x), q_dot_from_energy=at(qdot_energy),
                    q_dot_from_mass=at(qdot_mass), p=at(ms.p.values), m_q=at(m_q)))
            out_segments.append(tuple(points))
        return TrajectoryResult(monotone=monotone, segments=tuple(out_segments))


def energy_derivative_of_momentum(scenario: Scenario, params: MicrostateParams,
                                  delta_e: float | None = None) -> ScalarField:
    """Central difference of the momentum field with respect to energy."""
    return EnergyFamily(scenario, params, delta_e).de_momentum


def time_of_q(scenario: Scenario, params: MicrostateParams,
              delta_e: float | None = None, x_ref: float | None = None) -> ScalarField:
    """Trajectory time t(q) = dS0/dE by central differencing, gauged to t(x_ref) = 0.

    The pair is re-solved at E +/- dE from identical energy-independent
    initial data; unwrap branches of the two phases are aligned before
    differencing (a mismatch that alignment cannot absorb raises
    :class:`UnwrapError`).  Carries dp/dE as its attached first derivative.
    """
    return EnergyFamily(scenario, params, delta_e).time_of_q(x_ref)


def trajectory(scenario: Scenario, params: MicrostateParams, t_samples,
               delta_e: float | None = None, x_ref: float | None = None) -> TrajectoryResult:
    """Invert t(q) on monotone windows and sample the motion at ``t_samples``.

    Reports the velocity through both exact routes, (dp/dE)^{-1} and p/m_Q
    with m_Q = m(1 - dQ/dE).  A non-monotone t(q) yields one entry per
    monotone segment and ``monotone=False``.
    """
    return EnergyFamily(scenario, params, delta_e).trajectory(t_samples, x_ref)
