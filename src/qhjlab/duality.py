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

A :class:`Prepotential` stores psi, F and phi.  conj(psi) and each Xi are
formed from psi when read and are not kept, and :func:`duality_checks` forms
one Xi at a time, so the three Xi are never held together.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularFieldError
from .fields import NODE_TOL, ScalarField, derivatives
from .schrodinger import SolutionPair


# The square eigenfunctions Xi = f g that ``Prepotential.xi`` reads by name,
# each with whether f and g are conj(psi) rather than psi.
XI_VARIANTS = {"psi_psibar": (False, True), "psi_sq": (False, False),
               "psibar_sq": (True, True)}


@dataclass(frozen=True)
class Prepotential:
    """Prepotential F and the ratio phi = conj(psi)/2psi of the conjugate pair.

    Stored: the real ``pair`` (which gives V, E, eps and the provenance),
    ``psi`` of the conjugate pair scaled to Wronskian 2i/eps, ``F`` and
    ``phi``.  Formed from ``psi`` on each read and not kept: ``psibar`` and
    each Xi of ``xi``, so that a reader holds one Xi at a time.

    F and phi are built from the partner that :func:`_conjugate` forms,
    s conj(u + i v), not from conj(psi) = conj(s (u + i v)): where the pair is
    rescaled, the two may differ in the sign of a zero part, which fields.csv
    prints as -0 or 0.  The checks read only magnitudes, so conj(psi) serves
    them.
    """

    pair: SolutionPair
    psi: ScalarField
    F: ScalarField
    phi: ScalarField

    @property
    def epsilon(self) -> float:
        return self.pair.constants.epsilon

    @property
    def psibar(self) -> ScalarField:
        """conj(psi), with its derivatives."""
        psi = self.psi
        return ScalarField(psi.grid, np.conj(psi.values),
                           derivs=tuple(np.conj(d) for d in psi.derivs))

    @property
    def xi(self) -> Resolvents:
        return Resolvents(self.psi)


class Resolvents(Mapping):
    """{variant: Xi} over :data:`XI_VARIANTS` for one conjugate-pair ``psi``.
    Each read forms Xi from psi, with as many derivatives attached as psi
    carries, and nothing is cached; a conj(psi) factor is formed one array
    per term."""

    def __init__(self, psi: ScalarField):
        self._psi = psi

    def __getitem__(self, variant: str) -> ScalarField:
        psi = self._psi
        vals, *derivs = _leibniz_product(psi, psi, range(len(psi.derivs) + 1),
                                         XI_VARIANTS[variant])
        return ScalarField(psi.grid, vals, derivs=tuple(derivs))

    def __iter__(self):
        return iter(XI_VARIANTS)

    def __len__(self) -> int:
        return len(XI_VARIANTS)


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


def _leibniz_product(f: ScalarField, g: ScalarField, orders=(0, 1, 2, 3),
                     conjugate=(False, False)):
    """((fg)^(k) for k in ``orders``, each in 0..3) from two fields with
    attached derivatives, each summed in place over its Leibniz terms
    f^(k) g, ..., f g^(k) in that order.  ``conjugate`` marks a factor read as
    its complex conjugate, formed one array per term rather than held whole."""
    fs, gs = (f.values, *f.derivs), (g.values, *g.derivs)
    conj_f, conj_g = conjugate
    out = []
    for k in orders:
        total = None
        for j in range(k, -1, -1):
            a = np.conj(fs[j]) if conj_f else fs[j]
            b = np.conj(gs[k - j]) if conj_g else gs[k - j]
            weight = math.comb(k, j)
            if weight > 1:
                a = np.multiply(float(weight), a, out=a if conj_f else None)
            # the term goes into an operand that is a temporary, where one is
            fresh_a = conj_f or weight > 1
            term = np.multiply(a, b, out=a if fresh_a else b if conj_g else None)
            del a, b
            if total is None:
                total = term
            else:
                total += term
            del term
        out.append(total)
    return tuple(out)


def build_prepotential(pair: SolutionPair) -> Prepotential:
    """Form the conjugate pair of the real ``pair`` and assemble F and phi on it."""
    grid = pair.grid
    eps = pair.constants.epsilon
    psi, psibar = _conjugate(pair)

    dprod, d2prod, d3prod = _leibniz_product(psi, psibar, orders=(1, 2, 3))
    dprod *= 0.5
    dprod += 0.5 * (2j / eps)
    d2prod *= 0.5
    d3prod *= 0.5
    f_vals = 0.5 * np.abs(psi.values) ** 2 + 1j * grid.x / eps
    f = ScalarField(grid, f_vals, derivs=(dprod, d2prod, d3prod))

    mod = np.abs(psi.values)
    if float(np.min(mod)) <= NODE_TOL * float(np.max(mod)):
        raise SingularFieldError("psi has a node; phi = conj(psi)/2psi undefined")
    phi = ScalarField(grid, psibar.values / (2.0 * psi.values))
    return Prepotential(pair=pair, psi=psi, F=f, phi=phi)


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
    return ScalarField(prep.pair.grid, np.abs(f1 / p1 - np.conj(prep.psi.values)))


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
    # the residual and the term sizes accumulate in place, one term at a time
    resid = epsilon ** 2 * xi3
    terms = np.abs(resid)
    term = 2.0 * dv * xi0
    terms += np.abs(term)
    resid -= term
    del term
    term = 4.0 * (energy - v_field.values) * xi1
    terms += np.abs(term)
    resid += term
    e_scale = abs(energy) + float(np.max(np.abs(v_field.values)))
    floor = 4.0 * e_scale * float(np.max(np.abs(xi0))) * math.sqrt(e_scale) / epsilon
    return resid, max(float(np.max(terms)), floor)


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


def legendre_residual(prep: Prepotential, psi_sq: ScalarField | None = None) -> ScalarField:
    """Residual of the Legendre pairing: psi^2 dF/d(psi^2) - F - X/(i eps).

    With Im F = +X/eps the transform of F in the variable psi^2 is +X/(i eps)
    (the opposite-sign variant belongs to the opposite Wronskian convention).
    ``psi_sq`` is ``prep.xi["psi_sq"]``, formed here if not given.
    """
    eps = prep.epsilon
    grid = prep.pair.grid
    f, f1 = derivatives(prep.F, 1)
    psi_sq, xi1 = derivatives(prep.xi["psi_sq"] if psi_sq is None else psi_sq, 1)
    resid = psi_sq * (f1 / xi1) - f - grid.x / (1j * eps)
    return ScalarField(grid, resid)


def duality_checks(prep: Prepotential) -> dict:
    """{check name: (residual, bound)} for ``prep``: the resolvent forms over
    the scale of :func:`gd_terms`, the O(1) construction identities absolute;
    the bounds of the stencil-limited checks follow the pair's provenance.
    Each Xi is formed once, read by every check on it and dropped before the
    next is formed."""
    pair, eps, grid = prep.pair, prep.epsilon, prep.pair.grid
    method = pair.provenance
    checks = {
        # Im F = X/eps holds by construction
        "duality_im_f": (float(np.max(np.abs(prep.F.values.imag - grid.x / eps))), 0.0),
        "dual_derivative": (float(np.max(dual_derivative_residual(prep).values)),
                            {"analytic": 1e-10, "numeric": 1e-5}[method]),
        "modulus_momentum": (float(np.max(np.abs(modulus_momentum_residual(prep).values))),
                             {"analytic": 1e-8, "numeric": 1e-5}[method]),
    }
    scales = {}
    # gd_psibar_sq repeats gd_psi_sq: Xi_psibar^2 is conj(Xi_psi^2), so are
    # its residual and scale.  Dropping it changes the reported checks, which
    # is benchmark work (D9).
    for variant, xi in prep.xi.items():
        resid, scales[variant] = gd_terms(xi, pair)
        checks[f"gd_{variant}"] = (float(np.max(np.abs(resid))) / scales[variant],
                                   {"analytic": 1e-6, "numeric": 1e-4}[method])
        del resid
        if variant == "psi_sq":
            checks["legendre"] = (float(np.max(np.abs(legendre_residual(prep, xi).values))),
                                  1e-6)
        del xi
    akq = akq_residual(prep)
    direct = prepotential_gd_residual(prep)
    checks["akq_matches_direct"] = (float(np.max(np.abs(akq.values - direct.values)))
                                    / scales["psi_psibar"], 1e-12)
    return checks
