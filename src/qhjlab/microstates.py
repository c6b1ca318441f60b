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

Time enters as the energy derivative t = dS0/dE, taken exactly from the
pair's energy derivatives (psi_E, psi_dual_E), which solve the variational
equation -eps^2 u_E'' + (V - E) u_E = u from zero initial data (see
:mod:`qhjlab.schrodinger`).  So does dp/dE, and dQ/dE through the Schwarzian
formula.  The :class:`Microstate` owns all of them, with t(q) and the
trajectory, which inverts t(q) on monotone windows; :class:`EnergyFamily`
holds one pair per scenario, solved once, and its microstate.

Every microstate field and energy derivative is formed on first read.  The
jets of the components a = psi_dual + l2 psi, b = l1 psi and of the
denominator d = a^2 + b^2 are formed once per microstate and read by both p
and dp/dE, so the hbar scan, which reads only p and dp/dE, forms neither S0
nor Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapabilityError, ContractError, DomainError
from .fields import ScalarField, derivative, derivatives, schwarzian, unwrap_phase, NODE_TOL
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


def _require_attached_derivatives(pair: SolutionPair):
    if min(len(pair.psi.derivs), len(pair.psi_dual.derivs)) < 2:
        raise ContractError("microstate formulas need psi' and psi'' attached to both members")


def _components(psi: ScalarField, chi: ScalarField, params: MicrostateParams):
    """Jets of a = chi + l2 psi and b = l1 psi, with |chi - i l psi|^2 = a^2 + b^2."""
    a = [c + params.ell2 * s for c, s in zip(derivatives(chi, 2), derivatives(psi, 2))]
    b = [params.ell1 * s for s in derivatives(psi, 2)]
    return a, b


def _denominator(a, b):
    """d = |psi_dual - i l psi|^2 = a^2 + b^2 with its first and second
    derivatives, from the jets of :func:`_components`; where one of them
    overflows (l or the pair too large), :class:`DomainError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = a[0] * a[0] + b[0] * b[0]
        d1 = 2.0 * (a[0] * a[1] + b[0] * b[1])
        d2 = 2.0 * (a[1] * a[1] + a[0] * a[2] + b[1] * b[1] + b[0] * b[2])
    finite = np.isfinite(d) & np.isfinite(d1) & np.isfinite(d2)
    if not finite.all():
        raise DomainError(f"|psi_dual - i l psi|^2 or its derivatives overflow at sample "
                          f"{int(np.argmin(finite))}: l is too large for this pair")
    return d, d1, d2


def beta_field(pair: SolutionPair, params: MicrostateParams) -> ScalarField:
    """Unimodular phase factor beta = (psi_dual + i conj(l) psi)/(psi_dual - i l psi)."""
    psi, chi = pair.psi.values, pair.psi_dual.values
    num = chi + 1j * np.conj(params.ell) * psi
    den = chi - 1j * params.ell * psi
    return ScalarField(pair.grid, num / den)


@dataclass(frozen=True)
class QuantumPotentialReport:
    """Both routes to Q and how far apart they land."""

    from_schwarzian: ScalarField
    from_amplitude: ScalarField
    max_discrepancy: float


def quantum_potential(ms: "Microstate") -> QuantumPotentialReport:
    """Q via (hbar^2/4m){S0; x}, as :attr:`Microstate.Q` forms it, and via
    -hbar^2 R''/2mR with R = |S0'|^{-1/2}."""
    eps = ms.pair.constants.epsilon
    r = ScalarField(ms.pair.grid, np.abs(ms.p.values) ** -0.5)
    r2 = derivative(r, 2).values
    q_amp = -eps * eps * r2 / r.values
    disc = float(np.max(np.abs(ms.Q.values - q_amp)))
    return QuantumPotentialReport(ms.Q, ScalarField(ms.pair.grid, q_amp), disc)


@dataclass(frozen=True)
class QshjeReport:
    """Stationary Hamilton-Jacobi residual with the potential term computed
    both directly (V - E) and from the Schwarzian of exp(2i S0/hbar)."""

    from_potential: ScalarField
    from_schwarzian: ScalarField
    w_mismatch: float


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
    """Maximal index ranges on which t is strictly monotone.

    Each run of equal nonzero signs of diff(t) over differences lo..hi-1
    spans the samples lo..hi; a reversal sample ends one range and starts the
    next, and a zero step belongs to no range.
    """
    s = np.sign(np.diff(t))
    if s.size == 0:
        return []
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], s.size)
    keep = s[starts] != 0.0
    return list(zip(starts[keep].tolist(), (ends[keep] + 1).tolist()))


@dataclass(frozen=True)
class Microstate:
    """A real solution pair dressed with the three microstate constants.

    Each field and energy derivative is formed on first read; a pair that
    lacks psi' or psi'' on either member is refused at construction.
    """

    params: MicrostateParams
    pair: SolutionPair

    def __post_init__(self):
        _require_attached_derivatives(self.pair)

    @cached_property
    def _jets(self):
        """(a, b, (d, d', d'')): the jets of :func:`_components` and :func:`_denominator`."""
        a, b = _components(self.pair.psi, self.pair.psi_dual, self.params)
        return a, b, _denominator(a, b)

    @cached_property
    def w(self) -> ScalarField:
        """psi_dual/psi, NaN-masked at nodes of psi."""
        psi = self.pair.psi.values
        mask = np.abs(psi) > NODE_TOL * float(np.max(np.abs(psi)))
        w_vals = np.where(mask, self.pair.psi_dual.values / np.where(mask, psi, 1.0), np.nan)
        return ScalarField(self.pair.grid, w_vals)

    @cached_property
    def p(self) -> ScalarField:
        """Closed-form momentum p = hbar l1 Omega / |psi_dual - i l psi|^2 with p', p''.

        Sign convention: p equals the derivative of the unwrapped principal
        function, so its direction follows the orientation of the pair.
        """
        pair = self.pair
        c = pair.constants.hbar * self.params.ell1 * pair.wronskian
        d, d1, d2 = self._jets[2]
        p = c / d
        dp = -c * d1 / (d * d)
        d2p = c * (2.0 * d1 * d1 - d * d2) / (d * d * d)
        return ScalarField(pair.grid, p, derivs=(dp, d2p))

    @cached_property
    def S0(self) -> ScalarField:
        """(hbar/2)(alpha + theta), theta the unwrapped phase of beta, with (p, p', p'')."""
        pair, p = self.pair, self.p
        theta = unwrap_phase(beta_field(pair, self.params))
        s0_vals = pair.constants.hbar * (ALPHA_SLOPE * self.params.alpha + 0.5 * theta.values)
        return ScalarField(pair.grid, s0_vals, derivs=(p.values,) + p.derivs)

    @cached_property
    def Q(self) -> ScalarField:
        """The quantum potential (hbar^2/4m){S0; x}."""
        eps = self.pair.constants.epsilon
        return ScalarField(self.pair.grid, 0.5 * eps * eps * schwarzian(self.S0).values)

    @cached_property
    def mfW(self) -> ScalarField:
        """V - E."""
        return ScalarField(self.pair.grid, self.pair.v_field.values - self.pair.energy)

    @cached_property
    def qshje(self) -> QshjeReport:
        """(1/2m)(S0')^2 + W + Q with both determinations of W."""
        grid, constants = self.pair.grid, self.pair.constants
        hbar, mass, eps = constants.hbar, constants.mass, constants.epsilon
        kinetic = 0.5 / mass * self.p.values ** 2
        res_pot = kinetic + self.mfW.values + self.Q.values

        g_vals = np.exp(2j / hbar * self.S0.values)
        c = 2j / hbar
        p, dp, d2p = self.S0.derivs
        g1 = c * p * g_vals
        g2 = c * (dp * g_vals + p * g1)
        g3 = c * (d2p * g_vals + 2.0 * dp * g1 + p * g2)
        g = ScalarField(grid, g_vals, derivs=(g1, g2, g3))
        w_schw = np.real(-0.5 * eps * eps * schwarzian(g).values)
        res_schw = kinetic + w_schw + self.Q.values
        mismatch = float(np.max(np.abs(w_schw - self.mfW.values)))
        return QshjeReport(ScalarField(grid, res_pot), ScalarField(grid, res_schw), mismatch)

    @cached_property
    def de_momentum(self) -> ScalarField:
        """dp/dE with dp'/dE and dp''/dE attached, exact in E.

        With a = psi_dual + l2 psi and b = l1 psi the momentum is p = c/d, with
        c = hbar l1 Omega and d = a^2 + b^2.  The pair's energy derivatives give
        a_E, b_E and so d_E, d'_E, d''_E; differentiating p d = c, (p d)' = 0 and
        (p d)'' = 0 in E then gives

            p_E   = (c_E - p d_E) / d
            p_E'  = -(p' d_E + p_E d' + p d'_E) / d
            p_E'' = -(p'' d_E + 2 (p_E' d' + p' d'_E) + p_E d'' + p d''_E) / d.

        A pair without energy derivatives, such as the harmonic closed form,
        raises :class:`CapabilityError` on the first read.
        """
        pair, params = self.pair, self.params
        if pair.psi_e is None:
            raise CapabilityError("this pair carries no energy derivative (the harmonic closed "
                                  "form exists at its ground level only); use method 'numeric'")
        a, b, (d, d1, d2) = self._jets
        a_e, b_e = _components(pair.psi_e, pair.psi_dual_e, params)
        dd = 2.0 * (a[0] * a_e[0] + b[0] * b_e[0])
        dd1 = 2.0 * (a_e[0] * a[1] + a[0] * a_e[1] + b_e[0] * b[1] + b[0] * b_e[1])
        dd2 = 2.0 * (2.0 * (a[1] * a_e[1] + b[1] * b_e[1])
                     + a_e[0] * a[2] + a[0] * a_e[2] + b_e[0] * b[2] + b[0] * b_e[2])

        hbar, l1 = pair.constants.hbar, params.ell1
        p, (p1, p2) = self.p.values, self.p.derivs
        pe = (hbar * l1 * pair.wronskian_e - p * dd) / d
        pe1 = -(p1 * dd + pe * d1 + p * dd1) / d
        pe2 = -(p2 * dd + 2.0 * (pe1 * d1 + p1 * dd1) + pe * d2 + p * dd2) / d
        return ScalarField(pair.grid, pe, derivs=(pe1, pe2))

    @cached_property
    def _de_s0_q(self):
        """(dS0/dE, dQ/dE), exact in E.

        Since S0 = hbar arg(a + i b) up to constants, dS0/dE = hbar (a b_E - b a_E)/d
        = hbar l1 (psi_dual psi_E - psi psi_dual_E)/d.  dQ/dE is the E-derivative
        of the Schwarzian formula Q = (hbar^2/4m)(p''/p - (3/2)(p'/p)^2), not of the
        Hamilton-Jacobi identity, so that the two velocities of :meth:`trajectory`
        remain independent routes.
        """
        pair = self.pair
        hbar, eps, l1 = pair.constants.hbar, pair.constants.epsilon, self.params.ell1
        d = self._jets[2][0]
        p, (p1, p2) = self.p.values, self.p.derivs
        pe, (pe1, pe2) = self.de_momentum.values, self.de_momentum.derivs

        psi, chi = pair.psi.values, pair.psi_dual.values
        s0_e = hbar * l1 * (chi * pair.psi_e.values - psi * pair.psi_dual_e.values) / d
        r = pe / p
        q_e = 0.5 * eps * eps * ((pe2 - p2 * r) - 3.0 * (p1 / p) * (pe1 - p1 * r)) / p
        return s0_e, q_e

    def time_of_q(self, x_ref: float | None = None) -> ScalarField:
        """Trajectory time t(q) = dS0/dE, gauged to t(x_ref) = 0 (x_ref defaults to x_min).

        Exact in E: built from the pair's energy derivatives, which solve the
        variational equation -eps^2 u_E'' + (V - E) u_E = u from zero initial
        data.  Carries dp/dE, dp'/dE and dp''/dE as its attached derivatives.
        """
        grid = self.pair.grid
        ref = grid.index_of(grid.x_min if x_ref is None else x_ref)
        de_p, s0_e = self.de_momentum, self._de_s0_q[0]
        return ScalarField(grid, s0_e - s0_e[ref], derivs=(de_p.values,) + de_p.derivs)

    def trajectory(self, t_samples, x_ref: float | None = None) -> TrajectoryResult:
        """Invert t(q) on monotone windows and sample the motion at ``t_samples``.

        Reports the velocity through both exact routes, (dp/dE)^{-1} and p/m_Q
        with m_Q = m(1 - dQ/dE).  A non-monotone t(q) yields one entry per
        monotone segment and ``monotone=False``.
        """
        t = self.time_of_q(x_ref).values
        de_p, de_q = self.de_momentum, self._de_s0_q[1]
        m_q = self.pair.constants.mass * (1.0 - de_q)
        # dp/dE may cross zero (stationary trajectory time); the reciprocal
        # velocity is genuinely infinite there
        with np.errstate(divide="ignore"):
            qdot_energy = 1.0 / de_p.values
            qdot_mass = self.p.values / m_q

        x = self.pair.grid.x
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
                    q_dot_from_mass=at(qdot_mass), p=at(self.p.values), m_q=at(m_q)))
            out_segments.append(tuple(points))
        return TrajectoryResult(monotone=monotone, segments=tuple(out_segments))


def build_microstate(pair: SolutionPair, params: MicrostateParams) -> Microstate:
    """The microstate of (pair, params); its fields are formed on first read."""
    return Microstate(params, pair)


def microstate_checks(ms: Microstate) -> dict:
    """{check name: (relative residual, bound)}: the HJ residuals of ``ms.qshje``
    over max(|E|, max|V - E|), and p against the stencil derivative of S0 over
    max|p|, each on the central 80%."""
    report = ms.qshje
    inner = ms.pair.grid.interior_slice(0.8)
    scale = max(abs(ms.pair.energy), float(np.max(np.abs(ms.mfW.values))))
    p = ms.p.values
    fd_error = derivative(ms.S0, 1).values - p

    def worst(values):
        return float(np.max(np.abs(values[inner])))
    return {
        "qshje_potential": (worst(report.from_potential.values) / scale, 1e-6),
        "qshje_schwarzian": (worst(report.from_schwarzian.values) / scale, 1e-6),
        "qshje_w_mismatch": (report.w_mismatch / scale, 1e-6),
        "momentum_cross_check": (worst(fd_error) / float(np.max(np.abs(p))), 1e-8),
    }


@dataclass(frozen=True)
class EnergyFamily:
    """One scenario's pair at E, solved lazily and at most once, with its
    microstate; ``params`` may be None when only :attr:`pair` is used."""

    scenario: Scenario
    params: MicrostateParams | None = None

    @cached_property
    def pair(self) -> SolutionPair:
        return self.scenario.pair()

    @cached_property
    def microstate(self) -> Microstate:
        return build_microstate(self.pair, self.params)


def energy_derivative_of_momentum(scenario: Scenario, params: MicrostateParams) -> ScalarField:
    """:attr:`Microstate.de_momentum` of the scenario's microstate."""
    return EnergyFamily(scenario, params).microstate.de_momentum


def time_of_q(scenario: Scenario, params: MicrostateParams,
              x_ref: float | None = None) -> ScalarField:
    """:meth:`Microstate.time_of_q` of the scenario's microstate."""
    return EnergyFamily(scenario, params).microstate.time_of_q(x_ref)


def trajectory(scenario: Scenario, params: MicrostateParams, t_samples,
               x_ref: float | None = None) -> TrajectoryResult:
    """:meth:`Microstate.trajectory` of the scenario's microstate."""
    return EnergyFamily(scenario, params).microstate.trajectory(t_samples, x_ref)
