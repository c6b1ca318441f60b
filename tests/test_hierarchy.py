"""Expansion recursion: symbolic oracle, parity, residuals, reconstruction."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy as sp

from qhjlab import hierarchy
from qhjlab.duality import omega_for_norm
from qhjlab.errors import ContractError, DomainError, TruncationError
from qhjlab.fields import Grid, ScalarField, antiderivative, derivative
from qhjlab.hierarchy import (
    HierarchyInput,
    HierarchySolution,
    hierarchy_checks,
    master_remainder,
    master_residual,
    p2_schwarzian_check,
    reconstruct_modulus,
    recurse,
)
from qhjlab.schrodinger import Potential


def symbolic_coefficients(v_expr, x, energy, order):
    """Independent oracle: run the recursion in exact symbolic arithmetic.

    Solves (sum eps^j P_j)^2 + eps sum eps^j P_j' - V = -E order by order with
    sympy, without reusing any package code.
    """
    p = [sp.I * sp.sqrt(energy - v_expr)]
    for n in range(1, order + 1):
        acc = sum(p[i] * p[n - i] for i in range(1, n))
        acc += sp.diff(p[n - 1], x)
        p.append(sp.simplify(-acc / (2 * p[0])))
    return p


# The former complex recursion, kept verbatim as the reference for the real
# jets: complex128 jets of V and F'', products, divides and square roots.

def _complex_jet_mul(a, b):
    rows = min(a.shape[0], b.shape[0])
    out = np.zeros((rows, a.shape[1]), dtype=np.complex128)
    for r in range(rows):
        for s in range(r + 1):
            out[r] += a[s] * b[r - s]
    return out


def _complex_jet_div(a, b):
    rows = min(a.shape[0], b.shape[0])
    out = np.empty((rows, a.shape[1]), dtype=np.complex128)
    out[0] = a[0] / b[0]
    for r in range(1, rows):
        acc = a[r].astype(np.complex128)
        for s in range(1, r + 1):
            acc = acc - b[s] * out[r - s]
        out[r] = acc / b[0]
    return out


def _complex_jet_sqrt(a):
    rows = a.shape[0]
    out = np.empty((rows, a.shape[1]), dtype=np.complex128)
    out[0] = np.sqrt(a[0])
    for r in range(1, rows):
        acc = a[r].astype(np.complex128)
        for s in range(1, r):
            acc = acc - out[s] * out[r - s]
        out[r] = acc / (2.0 * out[0])
    return out


def _complex_jet_shift(a):
    rows = a.shape[0] - 1
    out = np.empty((rows, a.shape[1]), dtype=np.complex128)
    for r in range(rows):
        out[r] = (r + 1) * a[r + 1]
    return out


def _complex_field_jet(f, rows):
    out = np.zeros((rows, f.grid.n), dtype=np.complex128)
    out[0] = f.values
    available = list(f.derivs)
    factorial = 1.0
    tail = ScalarField(f.grid, f.derivs[-1]) if f.derivs else f
    for r in range(1, rows):
        factorial *= r
        if r <= len(available):
            out[r] = available[r - 1] / factorial
        else:
            tail = derivative(tail, 1)
            out[r] = tail.values / factorial
    return out


def _complex_v_jet(inp, rows):
    # V's jets from the potential's own derivatives (closed forms for the
    # built-ins), a route of their own next to the one recurse reads V by
    out = np.zeros((rows, inp.grid.n), dtype=np.complex128)
    factorial = 1.0
    for r in range(rows):
        if r:
            factorial *= r
        out[r] = inp.potential.derivative_samples(inp.grid, r) / factorial
    return out


def _complex_f_dd_jet(inp, index, rows):
    if index % 2 == 1:
        return None
    k = index // 2 - 1
    if k >= len(inp.f_even):
        return None
    return _complex_field_jet(inp.f_even[k], rows)


def complex_recurse(inp):
    """(P fields, S fields) of the former complex128 recursion."""
    K = inp.order
    rows = K + 4
    n = inp.grid.n

    e_minus_v = -_complex_v_jet(inp, rows)
    e_minus_v[0] += inp.energy
    p = [1j * _complex_jet_sqrt(e_minus_v)]

    for nn in range(1, K + 1):
        avail = rows - nn
        acc = np.zeros((avail, n), dtype=np.complex128)
        for i in range(1, nn):
            term = _complex_jet_mul(p[i], p[nn - i])
            acc += term[:avail]
        acc += _complex_jet_shift(p[nn - 1])[:avail]
        f_dd = _complex_f_dd_jet(inp, nn, avail)
        if f_dd is not None:
            acc += 2.0 * f_dd
        p.append(_complex_jet_div(-acc, 2.0 * p[0][:avail]))

    p_fields = []
    for j, jet in enumerate(p):
        derivs = []
        factorial = 1.0
        for r in range(1, min(4, jet.shape[0])):
            factorial *= r
            derivs.append(jet[r] * factorial)
        p_fields.append(ScalarField(inp.grid, jet[0], derivs=tuple(derivs)))
    return p_fields, [antiderivative(f, inp.x_ref) for f in p_fields]


# The pair-symmetric recursion in complex128, summed term by term: each pair
# P_i P_{nn-i}, i < nn - i, once and doubled, the pair i = 0 holding the unknown
# row (which reads 0 until formed), and for even nn the pairs of odd and even i
# summed apart with the middle square in its own group; then a multiply by
# 1 / (2 P_0).  The real jets do the same IEEE operations on the nonzero
# component, so the two agree bit for bit.

def _complex_pair_sum(a, b, r):
    out = np.zeros(a.shape[2], dtype=np.complex128)
    for i in range(a.shape[0]):
        for s in range(r + 1):
            out += a[i, s] * b[i, r - s]
    return out


def complex_pair_recurse(inp):
    """(P fields, S fields) of the pair-symmetric recursion in complex128."""
    K = inp.order
    rows = K + 4

    e_minus_v = -_complex_v_jet(inp, rows)
    e_minus_v[0] += inp.energy
    p = np.zeros((K + 1, rows, inp.grid.n), dtype=np.complex128)
    p[0] = 1j * _complex_jet_sqrt(e_minus_v)
    inv = 1.0 / (2.0 * p[0, 0])

    for nn in range(1, K + 1):
        m = (nn - 1) // 2
        f_dd = _complex_f_dd_jet(inp, nn, rows - nn)
        for r in range(rows - nn):
            if nn % 2:
                acc = 2.0 * _complex_pair_sum(p[0:m + 1], p[nn:nn - m - 1:-1], r)
            else:
                h = nn // 2
                odd = 2.0 * _complex_pair_sum(p[1:m + 1:2], p[nn - 1:h:-2], r)
                even = 2.0 * _complex_pair_sum(p[0:m + 1:2], p[nn:h:-2], r)
                middle = _complex_pair_sum(p[h:h + 1], p[h:h + 1], r)
                odd, even = (odd + middle, even) if h % 2 else (odd, even + middle)
                acc = odd + even
            acc += (r + 1) * p[nn - 1, r + 1]
            if f_dd is not None:
                acc += 2.0 * f_dd[r]
            p[nn, r] = -acc * inv

    factorials = np.array([[1.0], [1.0], [2.0], [6.0]])
    p_fields = [ScalarField(inp.grid, jet[0], derivs=tuple(jet[1:]))
                for jet in p[:, :4] * factorials]
    return p_fields, [antiderivative(f, inp.x_ref) for f in p_fields]


def _oracle_inputs():
    cases = []
    builtins = [("linear", Potential("linear"), Grid(-4.0, 1.5, 2049), 2.0, -1.0),
                ("harmonic", Potential("harmonic"), Grid(-0.5, 0.5, 1025), 1.0, 0.1),
                ("free", Potential("free"), Grid(0.0, 2.0 * np.pi, 1025), 1.0, 2.0)]
    for name, potential, grid, energy, x_ref in builtins:
        for order in (0, 1, 4, 8, 12):
            cases.append(pytest.param(
                HierarchyInput(potential, grid, energy, order, 0.1, x_ref),
                id=f"{name}-K{order}"))
    grid = Grid(-2.0, 2.0, 1025)
    cases.append(pytest.param(
        HierarchyInput(Potential("custom", samples=ScalarField(grid, 0.3 * np.cos(grid.x))),
                       grid, 1.4, 8, 0.1, 0.3), id="sampled-V-K8"))
    f_even = (ScalarField(grid, 0.3 * np.cos(grid.x)),
              ScalarField(grid, 0.05 * np.sin(2.0 * grid.x) * np.exp(-grid.x ** 2)))
    cases.append(pytest.param(
        HierarchyInput(Potential("linear"), grid, 2.5, 6, 0.1, -0.5, f_even=f_even),
        id="f_even-K6"))
    return cases


EPS = np.finfo(float).eps


def normwise_ulp(values, reference):
    """max |values - reference| in units of eps * max |reference| (0 when both
    vanish identically, inf when only the reference does)."""
    err = float(np.max(np.abs(values - reference)))
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0:
        return 0.0 if err == 0.0 else np.inf
    return err / (EPS * scale)


def real_rows(field, j):
    """Samples of P_j and its attached derivatives as the real jet R_j's scaled rows."""
    part = (lambda z: z.imag) if j % 2 == 0 else (lambda z: z.real)
    return [part(field.values)] + [part(d) for d in field.derivs]


@pytest.mark.parametrize("inp", _oracle_inputs())
def test_real_jets_equal_the_complex_recursion(inp):
    # the reference forms K + 4 rows and recurse K + 2, so equal P_j and P_j'
    # also show that the two rows recurse leaves out change no row it keeps
    p_ref, s_ref = complex_pair_recurse(inp)
    sol = recurse(inp)
    assert len(sol.p_coeffs) == len(p_ref) == inp.order + 1
    for j, (p, ref) in enumerate(zip(sol.p_coeffs, p_ref)):
        assert np.array_equal(p.values, ref.values), f"P_{j}"
        assert len(p.derivs) == 1
        assert np.array_equal(p.derivs[0], ref.derivs[0]), f"P_{j}'"
    for j, (s, ref) in enumerate(zip(sol.s_coeffs, s_ref)):
        assert np.array_equal(s.values, ref.values), f"S_{j}"


@pytest.mark.parametrize("columns", [61, 256])
@pytest.mark.parametrize("inp", _oracle_inputs())
def test_real_jets_equal_the_complex_recursion_across_tile_seams(inp, columns, monkeypatch):
    # every oracle grid is one tile at the default width; 61 and 256 columns
    # split 1025 = 4 * 256 + 1 and 2049 samples unevenly, and sampled-V-K8 and
    # f_even-K6 fail if a stencil of V or F'' is taken per tile
    monkeypatch.setattr(hierarchy, "_tile_width", lambda order: columns)
    test_real_jets_equal_the_complex_recursion(inp)


@pytest.fixture(scope="module")
def linear_report_input():
    # linear-report's hierarchy: K = 12 on n = 16385, three tiles at the default width
    return HierarchyInput(Potential("linear"), Grid(-4.0, 1.5, 16385), 2.0, 12, 0.1, 0.0)


def test_default_tiles_equal_one_tile(linear_report_input, monkeypatch):
    assert hierarchy._tile_width(12) < linear_report_input.grid.n
    tiled = recurse(linear_report_input)
    monkeypatch.setattr(hierarchy, "_tile_width", lambda order: linear_report_input.grid.n)
    whole = recurse(linear_report_input)
    for j, (p, ref) in enumerate(zip(tiled.p_coeffs, whole.p_coeffs)):
        assert np.array_equal(p.values, ref.values), f"P_{j}"
        assert np.array_equal(p.derivs[0], ref.derivs[0]), f"P_{j}'"


def whole_grid_jets(inp):
    """(E - V jet, {nn: F_nn'' jet or None}) as ``recurse`` forms them."""
    rows = inp.order + 2
    e_minus_v = -hierarchy._field_jet(inp.v_field, rows)
    e_minus_v[0] += inp.energy
    return e_minus_v, {nn: inp.f_dd_jet(nn, rows - nn) for nn in range(1, inp.order + 1)}


def whole_grid_tile(inp):
    """(values, slopes) of P_0..P_K from one ``_recurse_tile`` call spanning the
    grid, with no runs merged."""
    jets = hierarchy._recurse_tile(*whole_grid_jets(inp), slice(0, inp.grid.n))
    out = np.zeros((inp.order + 1, 2, inp.grid.n), dtype=np.complex128)
    out.imag[0::2] = jets[0::2, :2]
    out.real[1::2] = jets[1::2, :2]
    return out


def assert_bits_equal_whole_grid_tile(sol):
    reference = whole_grid_tile(sol.input)
    for j, (p, ref) in enumerate(zip(sol.p_coeffs, reference)):
        # bit patterns, so that +0 and -0 count as different
        assert np.array_equal(p.values.view(np.int64), ref[0].view(np.int64)), f"P_{j}"
        assert np.array_equal(p.derivs[0].view(np.int64), ref[1].view(np.int64)), f"P_{j}'"


def input_bits(inp):
    """Every row of E - V and of each F'' jet as int64 bit patterns, one row each."""
    e_minus_v, f_dd = whole_grid_jets(inp)
    return np.concatenate([e_minus_v, *(f for f in f_dd.values() if f is not None)]).view(np.int64)


@pytest.mark.parametrize("order", [8, 12])
def test_flat_input_runs_on_two_columns(order, tile_columns):
    # free-write's grid: every sample's jet is the same, so the recursion runs
    # once on two copies of sample 0 and matches the whole grid bit for bit
    inp = HierarchyInput(Potential("free"), Grid(0.0, 2.0 * np.pi, 16385), 1.0, order, 0.1, 1.0)
    bits = input_bits(inp)
    assert np.all(bits == bits[:, :1])
    sol = recurse(inp)
    assert tile_columns == [2]
    assert_bits_equal_whole_grid_tile(sol)
    assert any(np.signbit(p.values.real).any() or np.signbit(p.derivs[0].imag).any()
               for p in sol.p_coeffs)  # the zeros compared include some -0


def free_with_correction(f2):
    """The free particle at K = 6 on 1025 samples with F_2'' sampled from ``f2(x)``."""
    grid = Grid(0.0, 2.0 * np.pi, 1025)
    return HierarchyInput(Potential("free"), grid, 1.0, 6, 0.1, 1.0,
                          f_even=(ScalarField(grid, f2(grid.x)),))


def zeros_but_one_negative(x):
    f2 = np.zeros_like(x)
    f2[100] = -0.0
    return f2


@pytest.mark.parametrize("f2, flat", [
    (np.zeros_like, True),
    (zeros_but_one_negative, False),  # -0 is not sample 0's +0
    (lambda x: np.where(x > np.pi, 0.01 + 0.02 * (x - np.pi) ** 3, 0.01), False),
], ids=["zero", "one-signed-zero", "flat-then-varying"])
@pytest.mark.parametrize("columns", [None, 16])
def test_corrections_join_the_flatness_test(f2, flat, columns, tile_columns, monkeypatch):
    # E - V is flat for the free particle, so F_2'' decides: the recursion runs
    # on two columns only if its every jet row is sample 0's, else on every
    # sample, across tile seams when tiles are 16 columns wide
    inp = free_with_correction(f2)
    bits = input_bits(inp)
    assert np.all(bits[:inp.order + 2] == bits[:inp.order + 2, :1])
    assert np.all(bits == bits[:, :1]) == flat
    if columns:
        monkeypatch.setattr(hierarchy, "_tile_width", lambda order: columns)
    sol = recurse(inp)
    assert sum(tile_columns) == (2 if flat else inp.grid.n)
    assert_bits_equal_whole_grid_tile(sol)


def test_recursion_peak_memory(linear_report_input):
    # the whole-grid loop held a 23.9 MB (K + 1) x (K + 2) x n jet array and
    # peaked at 32.4 MiB; tiled it reads 13.3 MiB
    tracemalloc.start()
    try:
        recurse(linear_report_input)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("inp", _oracle_inputs())
def test_real_jets_within_ulp_of_the_complex_recursion(inp):
    # the pair-symmetric recursion sums in another order than the reference
    p_ref, s_ref = complex_recurse(inp)
    sol = recurse(inp)
    assert len(sol.p_coeffs) == len(p_ref) == inp.order + 1
    for j, (p, ref) in enumerate(zip(sol.p_coeffs, p_ref)):
        assert len(p.derivs) == 1
        for k, (d, d_ref) in enumerate(zip([p.values, p.derivs[0]], [ref.values, ref.derivs[0]])):
            assert normwise_ulp(d, d_ref) <= 16, f"P_{j} derivative {k}"
    for j, (s, ref) in enumerate(zip(sol.s_coeffs, s_ref)):
        assert normwise_ulp(s.values, ref.values) <= 32, f"S_{j}"


def mp_jets(inp, index):
    """Rows 0 and 1 of R_0..R_K, as P_j and P_j', at sample ``index`` in 40-digit
    arithmetic: the full signed Cauchy sum and the jet division of the recursion
    over K + 4 rows, from the float64 jets of V and F''."""
    K, rows = inp.order, inp.order + 4
    with mpmath.workdps(40):
        e_minus_v = [-mpmath.mpf(float(v)) for v in _complex_v_jet(inp, rows)[:, index].real]
        e_minus_v[0] += inp.energy
        r0 = [mpmath.sqrt(e_minus_v[0])]
        for r in range(1, rows):
            r0.append((e_minus_v[r] - mpmath.fsum(r0[s] * r0[r - s] for s in range(1, r)))
                      / (2 * r0[0]))
        jets = [r0]
        for nn in range(1, K + 1):
            f_dd = inp.f_dd_jet(nn, rows - nn)
            out = []
            for r in range(rows - nn):
                acc = mpmath.fsum(
                    (-1 if nn % 2 == 0 and i % 2 == 0 else 1) * jets[i][s] * jets[nn - i][r - s]
                    for i in range(1, nn) for s in range(r + 1))
                acc += (r + 1) * jets[nn - 1][r + 1]
                if f_dd is not None:
                    acc += 2 * mpmath.mpf(float(f_dd[r, index]))
                division = mpmath.fsum(2 * r0[s] * out[r - s] for s in range(1, r + 1))
                out.append(((-acc if nn % 2 else acc) - division) / (2 * r0[0]))
            jets.append(out)
        return [[float(row * math.factorial(r)) for r, row in enumerate(jet[:2])] for jet in jets]


@pytest.mark.parametrize("inp", _oracle_inputs())
def test_jet_rows_within_ulp_of_a_40_digit_recursion(inp):
    # output rows 0..1 (P_j and P_j', all recurse attaches) at 9 samples; the
    # 40-digit run forms K + 4 rows like the complex reference, which meets
    # the same bound on the rows compared
    samples = np.linspace(0, inp.grid.n - 1, 9).astype(int)
    exact = np.array([mp_jets(inp, index) for index in samples])  # (sample, j, row)
    p_ref, _ = complex_recurse(inp)
    for name, fields in (("real", recurse(inp).p_coeffs), ("complex", p_ref)):
        for j, field in enumerate(fields):
            for r, row in enumerate(real_rows(field, j)[:2]):
                assert normwise_ulp(row[samples], exact[:, j, r]) <= 32, \
                    f"{name} P_{j} derivative {r}"


@pytest.fixture(scope="module")
def linear_input():
    grid = Grid(-2.0, 1.5, 1025)
    return HierarchyInput(Potential("linear"), grid, 2.0, 4, 0.1, 0.0)


@pytest.fixture(scope="module")
def linear_solution(linear_input):
    return recurse(linear_input)


class TestRecursion:
    def test_flat_potential_collapses(self):
        grid = Grid(0.0, 2.0, 257)
        inp = HierarchyInput(Potential("free"), grid, 1.0, 4, 0.1, 0.0)
        sol = recurse(inp)
        assert np.max(np.abs(sol.p_coeffs[0].values - 1j)) < 1e-15
        for j in range(1, 5):
            assert np.max(np.abs(sol.p_coeffs[j].values)) == 0.0

    def test_linear_hand_values(self, linear_solution, linear_input):
        x = linear_input.grid.x
        assert np.max(np.abs(linear_solution.p_coeffs[0].values
                             - 1j * np.sqrt(2.0 - x))) < 1e-12
        assert np.max(np.abs(linear_solution.p_coeffs[1].values
                             - 1.0 / (4.0 * (2.0 - x)))) < 1e-12
        assert np.max(np.abs(linear_solution.p_coeffs[2].values
                             - 5j / 32.0 * (2.0 - x) ** -2.5)) < 1e-12

    @pytest.mark.parametrize("potential, energy", [
        (Potential("linear"), 2.0),
        (Potential("harmonic"), 5.0),
    ])
    def test_against_symbolic_oracle(self, potential, energy):
        xs = sp.symbols("x", real=True)
        v_expr = {"linear": xs, "harmonic": xs ** 2}[potential.kind]
        symbolic = symbolic_coefficients(v_expr, xs, energy, 4)

        grid = Grid(-1.0, 1.0, 513)
        inp = HierarchyInput(potential, grid, energy, 4, 0.1, 0.0)
        sol = recurse(inp)
        for j, expr in enumerate(symbolic):
            oracle = sp.lambdify(xs, expr, "numpy")(grid.x).astype(complex)
            assert np.max(np.abs(sol.p_coeffs[j].values - oracle)) < 1e-6, f"P_{j}"

    def test_parity_exact(self, linear_solution):
        # hierarchy.csv writes these structural zeros as constant +0 columns
        solutions = [("linear K=4", linear_solution)] + [
            (f"{kind} K=8",
             recurse(HierarchyInput(Potential(kind), grid, 1.0, 8, 0.1, grid.x_min)))
            for kind, grid in (("linear", Grid(-2.0, 0.5, 1025)),
                               ("harmonic", Grid(-0.5, 0.5, 1025)),
                               ("free", Grid(0.0, 2.0 * np.pi, 1025)))]
        for case, sol in solutions:
            assert sol.parity_report == (0.0, 0.0), case
            for j, (p, s) in enumerate(zip(sol.p_coeffs, sol.s_coeffs)):
                for name, samples in [("P", p.values), ("S", s.values)] + [
                        ("P", d) for d in p.derivs]:
                    zero = samples.real if j % 2 == 0 else samples.imag
                    assert np.all(zero == 0.0) and not np.any(np.signbit(zero)), \
                        f"{case}: {name}_{j}"

    def test_antiderivatives_anchored(self, linear_solution, linear_input):
        from qhjlab.fields import interpolate
        for s in linear_solution.s_coeffs:
            assert abs(interpolate(s, linear_input.x_ref)) < 1e-12

    def test_s_slopes_match_p(self, linear_solution, linear_input):
        from qhjlab.fields import derivative
        for p, s in zip(linear_solution.p_coeffs, linear_solution.s_coeffs):
            back = derivative(ScalarField(linear_input.grid, s.values), 1).values
            assert np.max(np.abs(back[4:-4] - p.values[4:-4])) < 1e-7

    def test_triangularity(self, linear_input):
        # extending the order never rewrites the earlier coefficients
        low = recurse(linear_input)
        high = recurse(HierarchyInput(
            Potential("linear"), linear_input.grid, 2.0, 6, 0.1, 0.0))
        for j in range(5):
            assert np.array_equal(low.p_coeffs[j].values, high.p_coeffs[j].values)

    def test_subgrid_reproduction(self, linear_solution, linear_input):
        # no integration constants: the coefficients are pointwise functions
        g = linear_input.grid
        sub = Grid(g.x[256], g.x[768], 513)
        sol_sub = recurse(HierarchyInput(
            Potential("linear"), sub, 2.0, 4, 0.1, 0.0))
        for j in range(5):
            dev = np.max(np.abs(sol_sub.p_coeffs[j].values
                                - linear_solution.p_coeffs[j].values[256:769]))
            assert dev < 1e-12

    def test_turning_point_rejected(self):
        grid = Grid(-2.0, 3.0, 257)  # E = V at x = 2 inside the domain
        with pytest.raises(DomainError):
            HierarchyInput(Potential("linear"), grid, 2.0, 2, 0.1, 0.0)

    def test_order_cap(self):
        grid = Grid(0.0, 1.0, 257)
        with pytest.raises(TruncationError):
            HierarchyInput(Potential("free"), grid, 1.0, 13, 0.1, 0.5)

    def test_user_correction_enters_relation(self):
        # with a sampled F_2'' the order-2 relation picks up the 2 F_2'' term
        grid = Grid(-1.0, 1.0, 513)
        f2 = ScalarField(grid, 0.3 * np.cos(grid.x))
        inp = HierarchyInput(Potential("linear"), grid, 2.0, 2, 0.1, 0.0, f_even=(f2,))
        sol = recurse(inp)
        p0, p1, p2 = (f.values for f in sol.p_coeffs)
        from qhjlab.fields import derivatives
        dp1 = derivatives(sol.p_coeffs[1], 1)[1]
        relation = p1 ** 2 + 2.0 * p0 * p2 + dp1 + 2.0 * f2.values
        assert np.max(np.abs(relation)) < 1e-12

    def test_sampled_potential_input(self):
        # without closed-form derivatives the jets chain stencils; the
        # relations still close because both sides share them
        grid = Grid(-2.0, 2.0, 1025)
        v = Potential("custom", samples=ScalarField(grid, 0.3 * np.cos(grid.x)))
        inp = HierarchyInput(v, grid, 1.4, 4, 0.1, 0.0)
        sol = recurse(inp)
        assert max(sol.parity_report) < 1e-12
        assert max(np.max(np.abs(f.values)) for f in master_residual(sol)) < 1e-9
        assert p2_schwarzian_check(sol) < 1e-5

    @pytest.mark.parametrize("v_imag, f2_value, message", [
        (1e-3, 0.0, "V must be real"),
        (0.0, np.nan, "F''_2 has non-finite samples"),
        (0.0, np.inf, "F''_2 has non-finite samples"),
    ])
    def test_complex_or_non_finite_input_rejected(self, v_imag, f2_value, message):
        # a complex V is refused by the potential itself, before the hierarchy
        grid = Grid(-1.0, 1.0, 257)
        v = grid.x + 1j * v_imag * np.sin(grid.x) if v_imag else grid.x
        f2 = np.zeros(grid.n)
        f2[100] = f2_value
        with pytest.raises(ContractError, match=message):
            HierarchyInput(Potential("custom", samples=ScalarField(grid, v)), grid, 2.0, 2, 0.1,
                           0.0, f_even=(ScalarField(grid, f2),))

    def test_f_even_grid_mismatch(self):
        grid = Grid(-1.0, 1.0, 513)
        other = Grid(-1.0, 1.0, 257)
        with pytest.raises(ContractError):
            HierarchyInput(
                Potential("linear"), grid, 2.0, 2, 0.1, 0.0,
                f_even=(ScalarField(other, np.zeros(257)),))


class TestMasterResidual:
    def test_per_order_vanishes(self, linear_solution, linear_input):
        per_order = master_residual(linear_solution)
        assert len(per_order) == linear_solution.order + 1
        scale = abs(linear_input.energy) + np.max(np.abs(linear_input.v_field.values))
        assert max(np.max(np.abs(f.values)) for f in per_order) / scale < 1e-9

    def test_nan_in_one_coefficient_fails_the_checks(self, linear_solution, linear_input):
        p = list(linear_solution.p_coeffs)
        values = p[3].values.copy()
        values[500] = np.nan
        p[3] = ScalarField(p[3].grid, values, derivs=p[3].derivs)
        planted = HierarchySolution(tuple(p), linear_input, (0.0, np.nan))
        checks = hierarchy_checks(planted)
        assert np.isnan(checks["hierarchy_per_order"][0])
        assert np.isnan(checks["hierarchy_parity"][0])

    @pytest.mark.parametrize("order", [2, 4])
    def test_remainder_scales_at_next_order(self, linear_input, order):
        inp = HierarchyInput(
            Potential("linear"), linear_input.grid, 2.0, order, 0.1, 0.0)
        sol = recurse(inp)
        eps_values = (0.1, 0.05, 0.025)
        remainders = [np.max(np.abs(master_remainder(sol, e).values))
                      for e in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(remainders), 1)[0]
        assert abs(slope - (order + 1)) < 0.3, f"slope {slope}"

    def test_leading_order_remainder(self, linear_input):
        # K = 0: the remainder is eps * P0' + O(eps^2)
        inp = HierarchyInput(
            Potential("linear"), linear_input.grid, 2.0, 0, 0.1, 0.0)
        sol = recurse(inp)
        eps_values = (0.1, 0.05, 0.025)
        remainders = [np.max(np.abs(master_remainder(sol, e).values))
                      for e in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(remainders), 1)[0]
        assert abs(slope - 1.0) < 0.3


class TestSchwarzianCorrection:
    def test_linear(self, linear_solution):
        assert p2_schwarzian_check(linear_solution) < 1e-6

    def test_flat_potential_both_zero(self):
        grid = Grid(0.0, 2.0, 257)
        inp = HierarchyInput(Potential("free"), grid, 1.0, 2, 0.1, 1.0)
        assert p2_schwarzian_check(recurse(inp)) < 1e-9

    def test_harmonic(self):
        grid = Grid(-1.0, 1.0, 1025)
        inp = HierarchyInput(Potential("harmonic"), grid, 5.0, 2, 0.1, 0.0)
        assert p2_schwarzian_check(recurse(inp)) < 1e-5

    @pytest.mark.parametrize("defect", ["shifted", "without_three_halves"])
    def test_planted_defect_fails(self, linear_solution, linear_input, defect):
        p = list(linear_solution.p_coeffs)
        p0 = p[0]
        if defect == "shifted":
            planted = p[2].values + 1e-4
        else:  # P_0''/(4 P_0^2): the Schwarzian route without its -(3/2)(P_0'/P_0)^2
            planted = derivative(p0, 2).values / (4.0 * p0.values ** 2)
        p[2] = ScalarField(p[2].grid, planted)
        sol = HierarchySolution(tuple(p), linear_input, linear_solution.parity_report)
        assert p2_schwarzian_check(sol) > 1e-5

    def test_workload_grids(self):
        # K = 4 on 4097 and K = 12 on 16385 samples, as perfbench runs them
        for potential, energy, grid, order, bound in (
                (Potential("harmonic"), 1.0, Grid(-0.5, 0.5, 4097), 4, 1e-7),
                (Potential("linear"), 2.0, Grid(-4.0, 1.5, 16385), 12, 1e-7),
                (Potential("free"), 1.0, Grid(0.0, 2.0 * np.pi, 16385), 8, 0.0)):
            inp = HierarchyInput(potential, grid, energy, order, 0.1, grid.x_min)
            assert p2_schwarzian_check(recurse(inp)) <= bound

    def test_requires_vanishing_first_correction(self):
        grid = Grid(-1.0, 1.0, 513)
        f2 = ScalarField(grid, np.full(grid.n, 0.1))
        inp = HierarchyInput(Potential("linear"), grid, 2.0, 2, 0.1, 0.0, f_even=(f2,))
        sol = recurse(inp)
        with pytest.raises(ContractError):
            p2_schwarzian_check(sol)


class TestReconstructModulus:
    def test_flat_potential_constant(self):
        grid = Grid(0.0, 2.0, 257)
        inp = HierarchyInput(Potential("free"), grid, 1.0, 2, 0.1, 1.0)
        m2 = reconstruct_modulus(recurse(inp), 0.7)
        assert np.max(np.abs(m2.values - 0.7)) < 1e-15

    def test_linear_leading_shape(self, linear_input):
        # exp(2 S^1) tracks (E - x)^(-1/2), the reciprocal of Im P0
        inp = HierarchyInput(
            Potential("linear"), linear_input.grid, 2.0, 1, 0.1, 0.0)
        sol = recurse(inp)
        m2 = reconstruct_modulus(sol, 1.0)
        product = m2.values * sol.p_coeffs[0].values.imag
        assert np.max(np.abs(product - product[0])) / abs(product[0]) < 1e-6

    def test_omega_caps_at_one(self, linear_solution):
        raw = reconstruct_modulus(linear_solution, 1.0)
        omega = omega_for_norm(raw)
        capped = reconstruct_modulus(linear_solution, omega)
        assert np.max(capped.values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(capped.values <= 1.0 + 1e-12)

    def test_order_zero_warns(self):
        grid = Grid(0.0, 2.0, 257)
        inp = HierarchyInput(Potential("free"), grid, 1.0, 0, 0.1, 1.0)
        sol = recurse(inp)
        with pytest.warns(UserWarning):
            m2 = reconstruct_modulus(sol, 0.5)
        assert np.all(m2.values == 0.5)
