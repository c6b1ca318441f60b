"""Wave/coordinate duality: prepotential, resolvent checks and norm scaling.

The duality reads the conjugate pair of a real pair (u, v) with Wronskian
W = u' v - u v': psi = s (u + i v) and its partner conj(psi), the two
swapped where W > 0, so that psi' conj(psi) - psi conj(psi)' is 2 s^2 |W| i;
the scale s > 0 sets it to 2i/eps.  :func:`build_prepotential` forms that
pair and, on it, the prepotential

    F = (1/2) |psi|^2 + i X / eps,

which generates the dual solution through dF/dpsi = F_X / psi_X = conj(psi)
and satisfies a third-order ODE in psi.  The square eigenfunctions
Xi in {psi conj(psi), psi^2, conj(psi)^2} all satisfy the third-order
resolvent equation

    eps^2 Xi''' - 2 V' Xi + 4 (E - V) Xi' = 0,

which is also what the prepotential form and the free-energy (AKQ-type) form
reduce to.  Each residual takes the prepotential, or one Xi with the real
pair, and reads V, E and eps from the real pair, whose V is formed once.  The
remaining entry points cover the modulus-momentum and Legendre identities and
the norm-fixing scale factor omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularFieldError
from .fields import NODE_TOL, ScalarField, derivatives
from .schrodinger import SolutionPair


@dataclass(frozen=True)
class Prepotential:
    """Prepotential F, the ratio phi = conj(psi)/2psi, and the Xi variants.

    ``psi`` and ``psibar`` are the conjugate pair scaled to Wronskian 2i/eps,
    formed from the real ``pair``, which gives V, E, eps and the provenance.
    """

    pair: SolutionPair
    psi: ScalarField
    psibar: ScalarField
    F: ScalarField
    phi: ScalarField
    xi: dict

    @property
    def epsilon(self) -> float:
        return self.pair.constants.epsilon


def _conjugate(pair: SolutionPair):
    """(psi, conj(psi)) of the real ``pair``, oriented and scaled as the module
    docstring says.  A pair whose Wronskian already gives 2i/eps is not
    rescaled, not even by s = 1, which would turn a -0 imaginary part into +0."""
    u, v = pair.psi, pair.psi_dual
    vals = u.values + 1j * v.values
    derivs = tuple(du + 1j * dv for du, dv in zip(u.derivs, v.derivs))
    members = [(vals, derivs), (np.conj(vals), tuple(np.conj(d) for d in derivs))]
    eps, w = pair.constants.epsilon, pair.wronskian
    if 2.0 / eps != -2.0 * w:
        if w > 0:
            members.reverse()
        s = math.sqrt((2.0 / eps) / (2.0 * abs(w)))
        members = [(s * f, tuple(s * d for d in ds)) for f, ds in members]
    return tuple(ScalarField(pair.grid, f, derivs=ds) for f, ds in members)


def _leibniz_product(f: ScalarField, g: ScalarField):
    """(fg, (fg)', (fg)'', (fg)''') from two fields with attached derivatives."""
    f0, f1, f2, f3 = f.values, *f.derivs
    g0, g1, g2, g3 = g.values, *g.derivs
    return (f0 * g0,
            f1 * g0 + f0 * g1,
            f2 * g0 + 2.0 * f1 * g1 + f0 * g2,
            f3 * g0 + 3.0 * f2 * g1 + 3.0 * f1 * g2 + f0 * g3)


def build_prepotential(pair: SolutionPair) -> Prepotential:
    """Form the conjugate pair of the real ``pair`` and assemble F, phi and
    all three Xi variants on it."""
    grid = pair.grid
    eps = pair.constants.epsilon
    psi, psibar = _conjugate(pair)

    prod, dprod, d2prod, d3prod = _leibniz_product(psi, psibar)
    w = 2j / eps
    f_vals = 0.5 * np.abs(psi.values) ** 2 + 1j * grid.x / eps
    f = ScalarField(grid, f_vals,
                    derivs=(0.5 * dprod + 0.5 * w, 0.5 * d2prod, 0.5 * d3prod))

    mod = np.abs(psi.values)
    if float(np.min(mod)) <= NODE_TOL * float(np.max(mod)):
        raise SingularFieldError("psi has a node; phi = conj(psi)/2psi undefined")
    phi = ScalarField(grid, psibar.values / (2.0 * psi.values))

    def squared(u: ScalarField) -> ScalarField:
        vals, d1, d2, d3 = _leibniz_product(u, u)
        return ScalarField(grid, vals, derivs=(d1, d2, d3))

    xi = {
        "psi_psibar": ScalarField(grid, prod, derivs=(dprod, d2prod, d3prod)),
        "psi_sq": squared(psi),
        "psibar_sq": squared(psibar),
    }
    return Prepotential(pair=pair, psi=psi, psibar=psibar, F=f, phi=phi, xi=xi)


def _chain_derivatives(prep: Prepotential):
    """F', F'', F''' and psi', psi'', psi''' as arrays, preferring attachments."""
    f, psi = prep.F, prep.psi
    fd = derivatives(f, 3)[1:]
    pd = derivatives(psi, 3)[1:]
    mod = np.abs(pd[0])
    bad = np.flatnonzero(mod <= NODE_TOL * float(np.max(mod)))
    if bad.size:
        raise SingularFieldError(
            f"psi' vanishes at sample {bad[0]}; cannot change variables to psi",
            indices=bad)
    return fd, pd


def dual_derivative_residual(prep: Prepotential) -> ScalarField:
    """|dF/dpsi - conj(psi)|, with the psi-derivative realized on the
    coordinate grid through the chain rule dF/dpsi = F_X / psi_X."""
    (f1, _, _), (p1, _, _) = _chain_derivatives(prep)
    return ScalarField(prep.pair.grid, np.abs(f1 / p1 - prep.psibar.values))


def prepotential_ode_residual(prep: Prepotential) -> ScalarField:
    """Residual of the third-order prepotential ODE

        F_ppp = ((E - V)/4) (F_p - psi F_pp)^3,

    with psi-derivatives taken by the chain rule on the coordinate grid.
    """
    (f1, f2, f3), (p1, p2, p3) = _chain_derivatives(prep)
    psi = prep.psi.values
    f_p = f1 / p1
    num = f2 * p1 - f1 * p2
    f_pp = num / p1 ** 3
    num_x = f3 * p1 - f1 * p3
    f_ppp = (num_x * p1 - 3.0 * num * p2) / p1 ** 5
    rhs = 0.25 * (prep.pair.energy - prep.pair.v_field.values) * (f_p - psi * f_pp) ** 3
    return ScalarField(prep.pair.grid, f_ppp - rhs)


def gd_terms(xi: ScalarField, pair: SolutionPair):
    """(residual samples, scale) of the square-eigenfunction resolvent equation

        eps^2 Xi''' - 2 V' Xi + 4 (E - V) Xi' = 0

    for one Xi of ``pair``, from its three terms, each formed once.  The scale
    is the max term size over the grid, floored by the size the derivative
    terms would have at the classical wavenumber (so a constant Xi still gets
    a sensible scale).
    """
    v_field, energy, epsilon = pair.v_field, pair.energy, pair.constants.epsilon
    xi0, xi1, _, xi3 = derivatives(xi, 3)
    dv = derivatives(v_field, 1)[1]
    third = epsilon ** 2 * xi3
    force = 2.0 * dv * xi0
    energy_term = 4.0 * (energy - v_field.values) * xi1
    e_scale = abs(energy) + float(np.max(np.abs(v_field.values)))
    terms = np.abs(third) + np.abs(force) + np.abs(energy_term)
    floor = 4.0 * e_scale * float(np.max(np.abs(xi0))) * math.sqrt(e_scale) / epsilon
    return third - force + energy_term, max(float(np.max(terms)), floor)


def prepotential_gd_residual(prep: Prepotential) -> ScalarField:
    """The resolvent equation written in terms of the prepotential,

        eps^2 F''' - 2 V' (F + X/(i eps)) + 4 (E - V) (F' + 1/(i eps)) = 0,

    half the psi*conj(psi) resolvent residual.  The variant with F in place
    of F' in the last factor is not solved by genuine pairs.
    """
    eps, energy, v_field = prep.epsilon, prep.pair.energy, prep.pair.v_field
    grid = prep.pair.grid
    f, f1, _, f3 = derivatives(prep.F, 3)
    v = v_field.values
    dv = derivatives(v_field, 1)[1]
    shifted = f + grid.x / (1j * eps)
    resid = eps ** 2 * f3 - 2.0 * dv * shifted + 4.0 * (energy - v) * (f1 + 1.0 / (1j * eps))
    return ScalarField(grid, resid)


def akq_residual(prep: Prepotential) -> ScalarField:
    """Residual of the free-energy form of the resolvent equation

        eps^2 F''' + (F' + 1/(i eps)) (8 F0'' + 4 E) + 4 F0''' (F + X/(i eps)) = 0,

    with the free energy's F0'' = -V/2 and F0''' = -V'/2 formed here from the
    pair's V, so that it reduces algebraically to the direct form.
    """
    eps, energy = prep.epsilon, prep.pair.energy
    grid = prep.pair.grid
    v, dv = derivatives(prep.pair.v_field, 1)
    f0dd, f0ddd = -0.5 * v, -0.5 * dv
    f, f1, _, f3 = derivatives(prep.F, 3)
    resid = (eps ** 2 * f3
             + (f1 + 1.0 / (1j * eps)) * (8.0 * f0dd + 4.0 * energy)
             + 4.0 * f0ddd * (f + grid.x / (1j * eps)))
    return ScalarField(grid, resid)


def omega_for_norm(modulus_sq: ScalarField) -> float:
    """Largest omega with omega * |psi|^2 <= 1 on the whole grid.

    Equality is attained at the maximizing sample; any larger omega violates
    the bound there.
    """
    m2 = np.real(modulus_sq.values)
    if float(np.min(m2)) <= 0.0:
        raise DomainError("modulus squared must be strictly positive")
    return float(1.0 / np.max(m2))


def modulus_momentum_residual(prep: Prepotential) -> ScalarField:
    """|psi|^2 Im(eps psi'/psi) - 1 on the conjugate pair; zero at W = 2i/eps."""
    eps = prep.epsilon
    psi = prep.psi
    d1 = derivatives(psi, 1)[1]
    mod2 = np.abs(psi.values) ** 2
    im_p = np.imag(eps * d1 / psi.values)
    return ScalarField(psi.grid, mod2 * im_p - 1.0)


def legendre_residual(prep: Prepotential) -> ScalarField:
    """Residual of the Legendre pairing: psi^2 dF/d(psi^2) - F - X/(i eps).

    With Im F = +X/eps the transform of F in the variable psi^2 is +X/(i eps)
    (the opposite-sign variant belongs to the opposite Wronskian convention).
    """
    eps = prep.epsilon
    grid = prep.pair.grid
    f, f1 = derivatives(prep.F, 1)
    psi_sq, xi1 = derivatives(prep.xi["psi_sq"], 1)
    resid = psi_sq * (f1 / xi1) - f - grid.x / (1j * eps)
    return ScalarField(grid, resid)


def duality_checks(prep: Prepotential) -> dict:
    """{check name: (residual, bound)} for ``prep``: the resolvent forms over
    the scale of :func:`gd_terms`, the O(1) construction identities absolute;
    the bounds of the stencil-limited checks follow the pair's provenance."""
    pair, eps, grid = prep.pair, prep.epsilon, prep.pair.grid
    method = pair.provenance
    checks = {
        # Im F = X/eps holds by construction
        "duality_im_f": (float(np.max(np.abs(prep.F.values.imag - grid.x / eps))), 0.0),
        "dual_derivative": (float(np.max(dual_derivative_residual(prep).values)),
                            {"analytic": 1e-10, "numeric": 1e-5}[method]),
        "modulus_momentum": (float(np.max(np.abs(modulus_momentum_residual(prep).values))),
                             {"analytic": 1e-8, "numeric": 1e-5}[method]),
        "legendre": (float(np.max(np.abs(legendre_residual(prep).values))), 1e-6),
    }
    scales = {}
    for variant, xi in prep.xi.items():
        resid, scales[variant] = gd_terms(xi, pair)
        checks[f"gd_{variant}"] = (float(np.max(np.abs(resid))) / scales[variant],
                                   {"analytic": 1e-6, "numeric": 1e-4}[method])
    akq = akq_residual(prep)
    direct = prepotential_gd_residual(prep)
    checks["akq_matches_direct"] = (float(np.max(np.abs(akq.values - direct.values)))
                                    / scales["psi_psibar"], 1e-12)
    return checks
