"""Scenario-driven command line front end.

Reads a single JSON config describing the scenario (constants, potential,
energy, grid and the optional microstate / uncertainty / hierarchy sections),
runs the selected pipelines, and writes CSV tables plus a JSON report into
the output directory.  Files are written atomically (temp file + rename) and
reruns of the same config are byte-identical.  Every CSV number is written
as ``%.17g`` (17 significant digits, so it reads back exactly); the format is
fixed so that CSV bytes stay stable across versions.  A column whose samples
are bitwise equal is formatted once, with unchanged bytes; by the hierarchy's
parity, half of the hierarchy.csv columns are +0 on every potential.  The
other cells get their digits exactly in numpy (``_cell_words``); the values
it cannot decide, such as exact ties at the 18th digit, go to Python's
formatter, so the bytes are still those of ``"%.17g" % v``.

    qhjlab <subcommand> --config scenario.json [--out DIR] [--tol key=value]...

Subcommands: solve, microstate, uncertainty, duality, hierarchy, all, report
(report runs every enabled check but writes only report.json).  Exit code 0
means every check passed, 1 a config/validation problem, 2 at least one
failing check.

Each check (what its residual is, what it is divided by, where it is
measured and the bound it must stay below) is defined next to its physics:
``SolutionPair.checks``, ``microstate_checks``, ``ScanReport.checks``,
``duality_checks`` and ``hierarchy_checks`` each take only the object they
check and return {check name: (residual, bound)}.  This module only
validates the config, picks the stages, applies the ``--tol`` and
``tolerances`` overrides and writes the files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import duality, hierarchy, microstates, uncertainty
from .errors import QhjLabError, ConfigError
from .fields import Grid, ScalarField
from .schrodinger import PhysicalConstants, Potential, Scenario, make_conjugate, \
    normalize_wronskian

SCHEMA_VERSION = "qhjlab.report/1"

# The keys an override may name: a reported check, or gd_residual, which sets
# the three gd_* checks.  duality_im_f holds by construction and has no key.
TOLERANCE_KEYS = frozenset({
    "schrodinger_residual", "wronskian_drift", "qshje_potential", "qshje_schwarzian",
    "qshje_w_mismatch", "momentum_cross_check", "uncertainty_pq_slope",
    "uncertainty_et_slope", "dual_derivative", "modulus_momentum", "legendre",
    "gd_residual", "akq_matches_direct", "hierarchy_parity", "hierarchy_p1_identity",
    "hierarchy_per_order", "hierarchy_p2_schwarzian"})


# ---------------------------------------------------------------------------
# Config parsing / validation


def _number(value, where) -> float:
    """``value`` as a float; it must be a finite JSON number (no bool, no string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for inf, nan and oversized integers
        raise ConfigError(f"field {where} must be finite, got {value!r}")
    return float(value)


def _numbers(value, where) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"field {where} must be a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _need(section, key, where, types):
    """``section[key]``, which must be present; ``types=float`` reads a number."""
    if key not in section:
        raise ConfigError(f"missing field {where}.{key}")
    value = section[key]
    if types is float:
        return _number(value, f"{where}.{key}")
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"field {where}.{key} has wrong type {type(value).__name__}")
    return value


def _section(doc, key) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field config.{key} must be an object")
    return section


def _construct(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError turned into a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The config's fields and each section's (_tolerance checks the tolerances);
# any other is refused, so that a misspelled field cannot go unseen.
CONFIG_FIELDS = {
    "constants": {"hbar", "mass"}, "potential": {"kind", "slope", "stiffness"},
    "energy": None, "grid": {"x_min", "x_max", "n"}, "solver": {"method", "ics"},
    "microstate": {"alpha", "ell1", "ell2", "t_samples"},
    "uncertainty": {"delta_alpha", "window", "hbar_scan"},
    "hierarchy": {"order", "epsilon", "x_ref", "f_even_files"},
    "outputs": {"directory", "plots"}, "tolerances": None}


def _refuse_unknown_fields(doc):
    sections = [("config", doc, CONFIG_FIELDS)] + [
        (key, doc[key], known) for key, known in CONFIG_FIELDS.items()
        if known and isinstance(doc.get(key), dict)]
    for where, section, known in sections:
        unknown = sorted(set(section) - set(known))
        if unknown:
            raise ConfigError(f"unknown field {where}.{unknown[0]}")


def _tolerance(key, value, where) -> float:
    if key not in TOLERANCE_KEYS:
        raise ConfigError(f"unknown tolerance key {key!r}")
    value = _number(value, where)
    if value < 0.0:  # no residual could pass it
        raise ConfigError(f"field {where} must be >= 0, got {value!r}")
    return value


class ScenarioConfig:
    """Validated view of the JSON scenario document."""

    def __init__(self, doc: dict, base_dir: str):
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        _refuse_unknown_fields(doc)
        self.base_dir = base_dir

        constants = _section(doc, "constants")
        self.constants = _construct("constants", PhysicalConstants,
                                    hbar=_number(constants.get("hbar", 1.0), "constants.hbar"),
                                    mass=_number(constants.get("mass", 0.5), "constants.mass"))

        pot = _need(doc, "potential", "config", dict)
        kind = _need(pot, "kind", "potential", str)
        if kind == "custom":
            raise ConfigError("custom potentials are configured via hierarchy/f_even-style "
                              "sample files and are not yet wired into the CLI")
        self.potential = _construct(
            "potential", Potential, kind, slope=_number(pot.get("slope", 1.0), "potential.slope"),
            stiffness=_number(pot.get("stiffness", 1.0), "potential.stiffness"))

        self.energy = _need(doc, "energy", "config", float)

        grid = _need(doc, "grid", "config", dict)
        n = _need(grid, "n", "grid", int)
        if n < 64:
            raise ConfigError(f"grid.n must be >= 64 for CLI runs, got {n}")
        self.grid = _construct("grid", Grid, _need(grid, "x_min", "grid", float),
                               _need(grid, "x_max", "grid", float), n)

        solver = _section(doc, "solver")
        self.method = solver.get("method", "auto")
        if self.method not in ("auto", "analytic", "numeric"):
            raise ConfigError(f"solver.method must be auto/analytic/numeric, got {self.method!r}")
        self.ics = None  # Scenario then solves from default_ics at each hbar
        if "ics" in solver:
            self.ics = tuple(_numbers(solver["ics"], "solver.ics"))
            if len(self.ics) != 4:
                raise ConfigError("solver.ics must hold exactly four values")

        self.microstate = self.t_samples = None
        if "microstate" in doc:
            section = _section(doc, "microstate")
            self.microstate = _construct(
                "microstate", microstates.MicrostateParams,
                alpha=_number(section.get("alpha", 0.0), "microstate.alpha"),
                ell=complex(_need(section, "ell1", "microstate", float),
                            _number(section.get("ell2", 0.0), "microstate.ell2")))
            if section.get("t_samples") is not None:
                self.t_samples = _numbers(section["t_samples"], "microstate.t_samples")

        self.uncertainty = None
        if "uncertainty" in doc:
            section = _section(doc, "uncertainty")
            window = _numbers(_need(section, "window", "uncertainty", list), "uncertainty.window")
            if len(window) != 2:
                raise ConfigError("uncertainty.window must be [lo, hi]")
            _construct("uncertainty.window", uncertainty.window_mask, self.grid, window)
            if self.microstate is None:
                raise ConfigError("uncertainty section needs a microstate section")
            delta_alpha = _need(section, "delta_alpha", "uncertainty", float)
            if delta_alpha == 0.0:
                raise ConfigError("uncertainty.delta_alpha must be nonzero")
            hbar_scan = _numbers(section.get("hbar_scan", []), "uncertainty.hbar_scan")
            if hbar_scan:  # an empty list runs no scan
                _construct("uncertainty.hbar_scan", uncertainty.scan_hbars, hbar_scan)
                for hbar in hbar_scan:  # the constants the scan builds at each hbar
                    _construct("uncertainty.hbar_scan", PhysicalConstants, hbar=hbar,
                               mass=self.constants.mass)
            self.uncertainty = {"delta_alpha": delta_alpha, "window": tuple(window),
                                "hbar_scan": hbar_scan}
        if self.ics is not None and self.resolved_method() == "analytic":
            raise ConfigError("solver.ics sets the initial data of a numeric pair, but this "
                              "config solves the closed form; set solver.method: numeric")

        self.hierarchy = None
        if "hierarchy" in doc:
            section = _section(doc, "hierarchy")
            files = section.get("f_even_files", [])
            if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
                raise ConfigError("field hierarchy.f_even_files must be a list of file names")
            self.hierarchy = _construct(
                "hierarchy", hierarchy.HierarchyInput, self.potential, self.grid,
                self.energy, _need(section, "order", "hierarchy", int),
                _need(section, "epsilon", "hierarchy", float),
                _number(section.get("x_ref", self.grid.x_min), "hierarchy.x_ref"),
                f_even=[self._sampled_field(ref) for ref in files])

        outputs = _section(doc, "outputs")
        self.out_dir = outputs.get("directory", "out")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"field outputs.directory must be a string, got {self.out_dir!r}")
        self.plots = outputs.get("plots", False)
        if not isinstance(self.plots, bool):
            raise ConfigError(f"field outputs.plots must be true or false, got {self.plots!r}")

        self.tolerances = {key: _tolerance(key, value, f"tolerances.{key}")
                           for key, value in _section(doc, "tolerances").items()}

    def _sampled_field(self, ref: str) -> ScalarField:
        """The last column of a CSV file (one header line), relative to the config."""
        try:
            data = np.loadtxt(os.path.join(self.base_dir, ref), delimiter=",", skiprows=1,
                              ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read f_even file {ref}: {exc}") from exc
        if len(data) != self.grid.n:
            raise ConfigError(f"f_even file {ref} has {len(data)} samples, "
                              f"grid has {self.grid.n}")
        return ScalarField(self.grid, data[:, -1])

    # -- scenario construction ----------------------------------------------

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        kind = self.potential.kind
        if kind in ("free", "linear"):
            return "analytic"
        # the closed form exists at the ground level only, so it has no
        # energy derivative for the time/uncertainty pipelines
        if (kind == "harmonic" and self.uncertainty is None and not self.t_samples
                and self.potential.is_ground_level(self.energy, self.constants)):
            return "analytic"
        return "numeric"

    def scenario(self) -> Scenario:
        return Scenario(self.potential, self.constants, self.grid, self.energy,
                        method=self.resolved_method(), ics=self.ics)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: "
                          f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return ScenarioConfig(doc, os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Output helpers


# Varying cells per formatted block (512 rows of fields.csv).  The cell kernel
# holds about 100 bytes a cell in temporaries; larger blocks were no faster.
CSV_BLOCK_CELLS = 6656

# Decimal exponents X = floor(log10|v|) of the cells the kernel formats: with
# 1e-270 <= |v| <= 1e270, X and X +- 1 stay inside, and so do the carry
# X + 1; every 10**(16 - X) and its pieces are normal floats.
_X_MIN, _X_MAX = -272, 272
_FIXED = range(-4, 17)  # the exponents %.17g writes in fixed notation, d.ddde+XX otherwise
_TEN16, _TEN17 = 10 ** 16, 10 ** 17
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _words(texts):
    """Byte strings of at most four bytes, NUL-padded, as native uint32 words."""
    return np.array(texts, dtype="S4").view(np.uint32)


@functools.cache
def _cell_tables() -> dict:
    """Tables of the cell kernel, built on first use.  Per-exponent tables are
    indexed by X - _X_MIN, the digit table by a group of four digits plus
    10000 times its form: as is, trailing zeros dropped, leading zeros dropped,
    leading zeros dropped but for a units digit."""
    exponents = range(_X_MIN, _X_MAX + 1)
    hi, lo = [], []
    for x in exponents:
        # 10**k = hi + lo to about 2**-106: hi is 10**k rounded, lo the rounded
        # remainder; int / int true division rounds correctly
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    big = hi * _SPLIT
    hi_hi = big - (big - hi)
    # digits of the 17-digit d before the point
    n_int = np.array([max(x + 1, 0) if x in _FIXED else 1 for x in exponents])
    group = np.arange(10000, dtype=np.int16)
    chars = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    chars = chars.astype(np.uint8) + ord("0")
    nonzero = chars != ord("0")
    leading = np.logical_or.accumulate(nonzero, axis=1)
    trailing = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    digits = np.concatenate([chars, chars * trailing, chars * leading, chars * leading])
    digits[30000, 3] = ord("0")  # the units form writes 0 as "0"
    middle, exp_head, exp_tail = [], [], []
    for x in exponents:
        zeros = b"0" * (-x - 1) if x in _FIXED else b""  # fixed notation below 0.1
        middle += [zeros, b"." + zeros]                    # without, with a fraction
        suffix = b"" if x in _FIXED else b"e%+03d" % x
        exp_head.append(b"\0" + suffix[:3])  # its first byte is the 17th digit's
        exp_tail.append(suffix[3:])
    return {"hi": hi, "hi_hi": hi_hi, "hi_lo": hi - hi_hi, "lo": np.array(lo),
            "n_int": n_int, "div": 10 ** (17 - n_int), "mul": 10 ** n_int,
            "digits": digits.view(np.uint32).ravel(), "middle": _words(middle),
            "exp_head": _words(exp_head), "exp_tail": _words(exp_tail),
            "last": _words([b"%d" % d if d else b"" for d in range(10)]),
            "minus": _words([b"-"])[0]}


def _scaled(a, i, t):
    """(base, f): a * 10**(16 - X) = base + f with 0 <= f < 1, to within 1e-14.

    p = fl(a * hi) is an integer (>= 2**53); Dekker's two-product gives its
    exact rounding error ((a_hi hi_hi - p) + a_hi hi_lo + a_lo hi_hi) + a_lo hi_lo,
    summed in that order, and a * lo carries the rest.  In place, to keep the
    temporaries of a block few.
    """
    p = a * t["hi"][i]
    a_hi = a * _SPLIT
    a_lo = a_hi - a
    a_hi -= a_lo  # the upper 26 bits of a
    np.subtract(a, a_hi, out=a_lo)
    hi_hi, hi_lo = t["hi_hi"][i], t["hi_lo"][i]
    rest = a_hi * hi_hi
    rest -= p
    a_hi *= hi_lo
    rest += a_hi
    hi_hi *= a_lo
    rest += hi_hi
    a_lo *= hi_lo
    rest += a_lo
    del a_hi, a_lo, hi_hi, hi_lo
    rest += a * t["lo"][i]
    whole = np.floor(rest)
    rest -= whole
    base = p.astype(np.int64)
    base += whole.astype(np.int64)
    return base, rest


def _groups(n, count):
    """The last ``count`` base-10**4 digits of the int64 array ``n``, last first."""
    out = []
    for _ in range(count):
        quotient = n // 10000
        out.append(n - quotient * 10000)
        n = quotient
    return out


def _digits(values, t):
    """(d, i, undecided): |v| rounds to d * 10**(X - 16), d a 17-digit int64 or
    0 for +-0, and i = X - _X_MIN, for every cell but those at ``undecided``."""
    a = np.abs(values)
    decided = (a >= 1e-270) & (a <= 1e270)  # false for NaN
    np.copyto(a, 1.0, where=~decided)
    i = np.floor(np.log10(a)).astype(np.int64) - _X_MIN
    base, frac = _scaled(a, i, t)
    low, high = base < _TEN16, base >= _TEN17
    redo = np.flatnonzero(low | high)  # log10 rounded across a power of ten
    if redo.size:
        i[redo] += high[redo].astype(np.int64) - low[redo]
        base[redo], frac[redo] = _scaled(a[redo], i[redo], t)
        decided[redo] &= (base[redo] >= _TEN16) & (base[redo] < _TEN17)
    decided &= np.abs(frac - 0.5) >= 1e-9
    base += frac > 0.5
    carry = base == _TEN17  # rounded up to the next power of ten
    base[carry] = _TEN16
    np.add(i, 1, out=i, where=carry)
    undecided = np.flatnonzero(~decided)
    base[undecided] = _TEN16  # a stand-in, blanked by the caller
    i[undecided] = -_X_MIN
    base[values == 0.0] = 0  # +-0: d = 0 at X = 0 writes "0" after the sign
    return base, i, np.flatnonzero(~decided & (values != 0.0))


def _cell_words(values):
    """``"%.17g" % v`` of a 1-D float64 array, decided in numpy.

    Returns (words, undecided): row r of the uint32 array ``words`` holds
    cell r's ASCII bytes padded with NUL bytes anywhere; Python's formatter
    wrote the cells at the indices ``undecided``.

    The 17 significant digits are d = round(|v| 10**(16 - X)), X the decimal
    exponent, from a double-double product within 1e-14.  That decides d
    unless the fraction lies within 1e-9 of 1/2, where %.17g may round an
    exact tie half to even: those cells, NaN, +-inf, subnormals and |v|
    outside [1e-270, 1e270] but for +-0 are undecided.  A row holds a sign, the
    integer digits right aligned, a point and up to three zeros, 17 fraction
    digits left aligned and an exponent suffix; leading and trailing zeros
    come out as NUL through the digit table, so dropping NUL bytes yields %g.
    """
    t = _cell_tables()
    d, i, undecided = _digits(values, t)
    div = t["div"][i]
    whole = d // div
    frac = (d - whole * div) * t["mul"][i]  # the digits after the point, left aligned in 17
    del d, div
    negative = np.signbit(values)
    negative[undecided] = False
    sign = bool(negative.any())
    # words: the integer digits (the first byte left for '-'), the point and
    # zeros, four groups of fraction digits, the 17th digit and the exponent
    n = -(-(max(int(t["n_int"][i].max()), 1) + sign) // 4)
    exponent = not (int(i.min()) + _X_MIN in _FIXED and int(i.max()) + _X_MIN in _FIXED)
    words = np.empty((len(values), n + 6 + exponent), np.uint32)
    for j, g in enumerate(_groups(whole, n)):
        np.add(g, 30000 if j == 0 else 20000, out=g, where=whole < 10 ** (4 * j + 4))
        words[:, n - 1 - j] = t["digits"][g]
    if sign:
        words[:, 0] += negative * t["minus"]
    words[:, n] = t["middle"][2 * i + (frac != 0)]
    head = frac // 10
    last = frac - head * 10
    tail = t["last"][last]
    if exponent:
        tail += t["exp_head"][i]
        words[:, n + 6] = t["exp_tail"][i]
    words[:, n + 5] = tail
    zeros_after = last == 0
    for j, g in zip((3, 2, 1, 0), _groups(head, 4)):
        zero = g == 0
        np.add(g, 10000, out=g, where=zeros_after)
        words[:, n + 1 + j] = t["digits"][g]
        zeros_after &= zero
    if undecided.size:  # a row holds at least 28 bytes, %.17g at most 24
        texts = np.array([b"%.17g" % v for v in values[undecided].tolist()],
                         dtype=f"S{4 * words.shape[1]}")
        words[undecided] = texts.view(np.uint32).reshape(len(undecided), -1)
    return words, undecided


def _csv_block(block, pieces):
    """CSV rows of a (rows, k) block of varying cells with NUL bytes left in:
    pieces[0], cell 0, pieces[1], ..., cell k - 1, pieces[k] on each row."""
    parts = [pieces[0]]
    if block.shape[1]:
        cells = _cell_words(block.ravel())[0].view(np.uint8).reshape(len(block), block.shape[1], -1)
        for j, piece in enumerate(pieces[1:]):
            parts += [cells[:, j], piece]
    text = bytearray(len(block) * sum(part.shape[-1] for part in parts))
    rows = np.frombuffer(text, np.uint8).reshape(len(block), -1)
    col = 0
    for part in parts:
        rows[:, col:col + part.shape[-1]] = part
        col += part.shape[-1]
    return text


@contextlib.contextmanager
def _atomic_file(path: str):
    """Binary file in path's directory that replaces path when the block ends;
    an error inside the block removes it and leaves path as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qhjlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str):
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path: str, columns):
    """columns: list of (name, 1-D array) of one length; complex split into re_/im_.

    Every number is written as ``"%.17g" % v``.  A column whose samples all
    have the first sample's bit pattern (so +0.0, -0.0 and NaN payloads stay
    apart) is formatted once, into the row template; the hierarchy's parity
    makes half of the hierarchy.csv columns +0 on every potential.  The
    varying cells are formatted in blocks of whole rows, at most
    CSV_BLOCK_CELLS cells or else one row, by ``_cell_words``, which computes
    the digits exactly in numpy and leaves the values it cannot decide to
    Python's formatter; the NUL bytes padding each cell are dropped from the
    finished block, which is written to the temporary file that replaces
    ``path`` once the last block is in.
    """
    names, arrays = [], []
    for name, arr in columns:
        arr = np.asarray(arr)
        if arrays and len(arr) != len(arrays[0]):
            raise ValueError(f"column {name!r} has {len(arr)} rows, expected {len(arrays[0])}")
        if np.iscomplexobj(arr):
            names.extend([f"re_{name}", f"im_{name}"])
            arrays.extend([arr.real, arr.imag])
        else:
            names.append(name)
            arrays.append(arr)
    cells, varying = [], []
    for arr in arrays:
        arr = np.asarray(arr, dtype=np.float64)
        bits = arr.view(np.int64)
        if len(bits) and np.all(bits == bits[0]):
            cells.append("%.17g" % arr[0])  # %.17g never yields a '%'
        else:
            cells.append("%.17g")
            varying.append(arr)
    # the row template's text before, between and after the varying cells
    pieces = [np.frombuffer(piece.encode("ascii"), np.uint8)
              for piece in (",".join(cells) + "\n").split("%.17g")]
    table = np.stack(varying, axis=1) if varying else np.empty((len(arrays[0]), 0))
    with _atomic_file(path) as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        rows = max(1, CSV_BLOCK_CELLS // (len(varying) or 1))
        for start in range(0, len(table), rows):
            block = _csv_block(table[start:start + rows], pieces)
            fh.write(block.translate(None, b"\0"))


# ---------------------------------------------------------------------------
# Stages: (cfg, family, out_dir) -> ({check name: (residual, bound)}, the
# artifact the checks refer to, fields.csv columns); side tables are written
# unless out_dir is None.


def run_solve(cfg: ScenarioConfig, family: microstates.EnergyFamily, out_dir):
    pair = family.pair
    return pair.checks(), "fields.csv", [
        ("x", cfg.grid.x), ("potential", pair.v_field.values),
        ("psi", pair.psi.values), ("psi_dual", pair.psi_dual.values)]


def run_microstate(cfg: ScenarioConfig, family: microstates.EnergyFamily, out_dir):
    ms = family.microstate
    report = ms.qshje
    columns = [("w_ratio", ms.w.values), ("S0", ms.S0.values), ("p", ms.p.values),
               ("Q", ms.Q.values), ("mfW", ms.mfW.values),
               ("residual_qshje_potential", report.from_potential.values),
               ("residual_qshje_schwarzian", report.from_schwarzian.values)]
    if out_dir and cfg.t_samples:
        traj = ms.trajectory(cfg.t_samples)
        rows = [pt for seg in traj.segments for pt in seg]
        write_csv(os.path.join(out_dir, "trajectory.csv"),
                  [(f.name, [getattr(pt, f.name) for pt in rows])
                   for f in fields(microstates.TrajectoryPoint)])
    return microstates.microstate_checks(ms), "fields.csv", columns


def run_uncertainty(cfg: ScenarioConfig, family: microstates.EnergyFamily, out_dir):
    ms = family.microstate
    de_p = ms.de_momentum
    section = cfg.uncertainty
    report = uncertainty.delta_chain(ms, section["delta_alpha"], section["window"],
                                     de_momentum=de_p)
    if out_dir:
        mask = uncertainty.window_mask(cfg.grid, section["window"])
        abs_p = np.abs(ms.p.values[mask])
        write_csv(os.path.join(out_dir, "uncertainty.csv"),
                  [("x", cfg.grid.x[mask]), ("abs_p", abs_p),
                   ("delta_q_pointwise", report.delta_s0 / abs_p),
                   ("time_weight", np.abs(de_p.values[mask]) / abs_p)])
    checks = {}
    if section["hbar_scan"]:
        checks = uncertainty.hbar_scaling_scan(family, section["window"], section["hbar_scan"],
                                               section["delta_alpha"]).checks()
    return checks, "uncertainty.csv", []


def run_duality(cfg: ScenarioConfig, family: microstates.EnergyFamily, out_dir):
    prep = duality.build_prepotential(normalize_wronskian(make_conjugate(family.pair)))
    return duality.duality_checks(prep), "fields.csv", [("F", prep.F.values),
                                                        ("phi", prep.phi.values)]


def run_hierarchy(cfg: ScenarioConfig, family: microstates.EnergyFamily, out_dir):
    sol = hierarchy.recurse(cfg.hierarchy)
    if out_dir:
        columns = [("x", cfg.grid.x)]
        for j, (p, s) in enumerate(zip(sol.p_coeffs, sol.s_coeffs)):
            columns.append((f"P{j}", p.values))
            columns.append((f"S{j}", s.values))
        write_csv(os.path.join(out_dir, "hierarchy.csv"), columns)
    return hierarchy.hierarchy_checks(sol), "hierarchy.csv", []


# Run order.  The hierarchy needs no solution pair, so it goes first, before
# the family is solved, and the two never hold memory at the same time.
STAGES = {"hierarchy": run_hierarchy, "solve": run_solve, "microstate": run_microstate,
          "uncertainty": run_uncertainty, "duality": run_duality}
# Stages that need their config section: requested alone, a missing section
# is a config error; under all and report the stage is skipped.
SECTION_STAGES = ("microstate", "uncertainty", "hierarchy")
PIPELINES = {"solve": ("solve",), "microstate": ("solve", "microstate"),
             "uncertainty": ("uncertainty",), "duality": ("solve", "duality"),
             "hierarchy": ("hierarchy",), "all": tuple(STAGES), "report": tuple(STAGES)}


PLOT_SCRIPT = """# gnuplot script generated by qhjlab; run from the output directory
set datafile separator ','
set key autotitle columnhead
set grid
set xlabel 'x'
plot 'fields.csv' using 1:'S0' with lines, \\
     'fields.csv' using 1:'p' with lines, \\
     'fields.csv' using 1:'Q' with lines
"""


def run(config_path: str, subcommand: str, out_dir: str | None = None,
        tolerance_overrides=None) -> int:
    """Execute ``subcommand`` for the config; returns the process exit code."""
    cfg = load_config(config_path)
    if tolerance_overrides:
        cfg.tolerances.update(tolerance_overrides)
    if subcommand in SECTION_STAGES and getattr(cfg, subcommand) is None:
        raise ConfigError(f"{subcommand} pipeline requested but config has no "
                          f"{subcommand} section")
    stages = [name for name in PIPELINES[subcommand]
              if name not in SECTION_STAGES or getattr(cfg, name) is not None]
    out = out_dir or cfg.out_dir
    write_to = None if subcommand == "report" else out

    family = microstates.EnergyFamily(cfg.scenario(), cfg.microstate)  # solved on first use
    checks, columns = {}, []
    for name in stages:
        values, artifact, stage_columns = STAGES[name](cfg, family, write_to)
        columns.extend(stage_columns)
        for check, (value, bound) in values.items():
            key = "gd_residual" if check.startswith("gd_") else check
            tolerance = cfg.tolerances.get(key, bound)
            checks[check] = {"status": "pass" if value <= tolerance else "fail",
                             "max_residual": float(value), "tolerance": float(tolerance),
                             "artifacts": [artifact]}
    del family  # release its fields before fields.csv is written

    if write_to and columns:
        write_csv(os.path.join(out, "fields.csv"), columns)
        if cfg.plots:
            atomic_write(os.path.join(out, "plots.gp"), PLOT_SCRIPT)

    failed = sorted(name for name, check in checks.items() if check["status"] == "fail")
    report = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand, "checks": checks,
              "summary": {"total": len(checks), "passed": len(checks) - len(failed),
                          "failed": len(failed), "failing_checks": failed}}
    atomic_write(os.path.join(out, "report.json"),
                 json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name in sorted(checks):
        check = checks[name]
        print(f"{check['status']:4s}  {name}  "
              f"(max {check['max_residual']:.3e}, tol {check['tolerance']:.3e})")
    return 2 if failed else 0


def _parse_tol(items):
    overrides = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = float(text)
        except ValueError:
            value = text  # refused below as not a number
        overrides[key] = _tolerance(key, value, f"--tol {key}")
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhjlab",
        description="Scenario-driven residual checks for 1-D trajectory quantum mechanics")
    parser.add_argument("subcommand", choices=PIPELINES)
    parser.add_argument("--config", required=True, help="path to the JSON scenario config")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument("--tol", action="append", metavar="KEY=VALUE",
                        help="override a check tolerance")
    args = parser.parse_args(argv)

    try:
        return run(args.config, args.subcommand, out_dir=args.out,
                   tolerance_overrides=_parse_tol(args.tol))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QhjLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
