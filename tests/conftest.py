import warnings

import pytest


@pytest.fixture(autouse=True)
def _quiet_separation_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*separation.*")
        warnings.filterwarnings("ignore", message=".*ordering.*")
        yield


@pytest.fixture
def shear_state():
    """A maker of fresh unit-shear states on n = 128 at time.n_t = 6: 8
    nodes from -0.2 to 1.2, and the temporal bump on (1/4, 3/4) leaves v,
    dv and R exactly zero at the 6 nodes outside it (p is zero at every
    node).  Each call builds new fields, so no cached sup carries over
    between calls."""
    from ci2d import init_state, make_grid
    from ci2d.generators import build_initial, time_grid

    def make():
        grid = make_grid(128)
        times = time_grid(1.0, 0.1, 6)
        return init_state(build_initial("shear", grid, times, 1.0, {"m": 1}), 0.4, 1.0, 1.0)

    return make
