import numpy as np
import pytest
from hypothesis import settings

from qhjlab import hierarchy, schrodinger
from qhjlab.fields import Grid
from qhjlab.schrodinger import PhysicalConstants, Potential, analytic_pair


@pytest.fixture(scope="session")
def constants():
    """Default units: hbar = 1, m = 1/2, so eps = 1."""
    return PhysicalConstants()


@pytest.fixture(scope="session")
def free_grid():
    return Grid(0.0, 2.0 * np.pi, 1025)


@pytest.fixture(scope="session")
def free_pair(constants, free_grid):
    return analytic_pair(Potential("free"), 1.0, constants, free_grid)


@pytest.fixture(scope="session")
def harmonic_grid():
    return Grid(-3.0, 3.0, 1025)


@pytest.fixture(scope="session")
def harmonic_pair(constants, harmonic_grid):
    return analytic_pair(Potential("harmonic"), 1.0, constants, harmonic_grid)


@pytest.fixture(scope="session")
def airy_grid():
    return Grid(-4.0, 1.5, 1025)


@pytest.fixture(scope="session")
def airy_pair(constants, airy_grid):
    return analytic_pair(Potential("linear"), 2.0, constants, airy_grid)


@pytest.fixture
def pair_solves(monkeypatch):
    """Records one key per pair construction (analytic or numeric)."""
    keys = []
    for name in ("analytic_pair", "solve_pair"):
        def counted(potential, E, constants, grid, *args, _name=name,
                    _original=getattr(schrodinger, name), **kwargs):
            ics = tuple(float(v) for v in args[0]) if args else None
            keys.append((_name, repr(potential), float(E), constants, grid, ics))
            return _original(potential, E, constants, grid, *args, **kwargs)

        monkeypatch.setattr(schrodinger, name, counted)
    return keys


@pytest.fixture
def tile_columns(monkeypatch):
    """Columns of every ``_recurse_tile`` call ``hierarchy.recurse`` makes, in order."""
    columns = []

    def counted(e_minus_v, f_dd, cols, _original=hierarchy._recurse_tile):
        columns.append(e_minus_v.shape[1])
        return _original(e_minus_v, f_dd, cols)

    monkeypatch.setattr(hierarchy, "_recurse_tile", counted)
    return columns


# Property tests draw the same examples on every run, with no time limit per
# example, so the suite stays deterministic and bounded.
settings.register_profile("qhjlab", derandomize=True, deadline=None, max_examples=200,
                          database=None)
settings.load_profile("qhjlab")
