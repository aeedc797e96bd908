import contextlib
import copy
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from kerrpurify import (
    BranchState,
    ModeLabel,
    Party,
    PhaseTag,
    Pol,
    PureState,
    Spatial,
    ZERO_COUNTS,
)

ALL_PORT_MODES = tuple(
    ModeLabel(p, s, pol)
    for p in Party
    for s in (Spatial.UPPER, Spatial.LOWER)
    for pol in Pol
)

# pickle, copy and deepcopy: each rebuilds an object, as a process pool would
copiers = pytest.mark.parametrize(
    "copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])

# angles in units of pi, admissible or not: tests assume() away the
# pairs a QndConfig rejects
angles = st.builds(Fraction, st.integers(1, 47), st.integers(2, 24))


def random_angle_pair(rng) -> tuple:
    """Two angles (p/q)*pi with q in [4, 64] from a ``random.Random``,
    admissible or not."""
    return tuple(PhaseTag(rng.randrange(1, 2 * q), q)
                 for q in (rng.randint(4, 64), rng.randint(4, 64)))


# probe counts (a, b); at qnd1's default angles theta = pi/4 and
# theta' = 3pi/4 they read the distinct phases 0, pi/4, 3pi/4, pi/2, 3pi/2, pi
PROBE_POOL = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


def random_pure_state(rng, max_branches=4, max_photons=4, with_probe=True) -> PureState:
    """Random normalized state on the eight port modes."""
    while True:
        branches = []
        for _ in range(rng.integers(1, max_branches + 1)):
            n = int(rng.integers(0, max_photons + 1))
            occ = {}
            for _ in range(n):
                m = ALL_PORT_MODES[rng.integers(len(ALL_PORT_MODES))]
                occ[m] = occ.get(m, 0) + 1
            amp = complex(rng.normal(), rng.normal())
            if with_probe:
                probe = (
                    PROBE_POOL[rng.integers(len(PROBE_POOL))],
                    PROBE_POOL[rng.integers(len(PROBE_POOL))],
                )
            else:
                probe = (ZERO_COUNTS, ZERO_COUNTS)
            branches.append(BranchState.of(occ, amp, probe))
        state = PureState.of(branches)
        if state.norm_squared() > 1e-6:
            return state.normalize()


def assert_states_equal(actual: PureState, expected: PureState, tol=1e-10):
    a = {b.key(): b.amplitude for b in actual.branches}
    e = {b.key(): b.amplitude for b in expected.branches}
    assert set(a) == set(e), f"branch keys differ: {set(a) ^ set(e)}"
    for k in a:
        assert abs(a[k] - e[k]) <= tol, f"amplitude mismatch at {k}: {a[k]} vs {e[k]}"


def photon_distribution(state: PureState) -> dict:
    """Probability mass on each total photon number."""
    dist = {}
    for b in state.branches:
        n = sum(n for _, n in b.occupations)
        dist[n] = dist.get(n, 0.0) + abs(b.amplitude) ** 2
    return dist


def pytest_runtest_makereport(item, call):
    """Import hypothesis's failure-patch module before its plugin does.

    On a failed test the plugin imports ``hypothesis.extra._patching``, which
    imports libcst, whose import raises a third-party DeprecationWarning;
    under ``-W error`` that ends the run in INTERNALERROR instead of naming
    the failure.  Importing it here first, with only DeprecationWarning
    ignored and only after a failure, leaves passing runs as they were.
    Without libcst the plugin skips the module, and so does this hook."""
    if call.when == "call" and call.excinfo is not None:
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
