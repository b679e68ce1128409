"""Test-suite configuration.

Hypothesis deadlines are disabled globally: property tests here exercise
whole substrates (filesystem trees, layer stacks) whose first-run import
and warm-up costs trip the default 200 ms deadline spuriously.
"""

import contextlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def chaos_injector():
    """One :class:`FaultInjector` shared by an entire chaos sweep.

    Sweep iterations reconfigure it with
    ``injector.reset(seed=..., rate=...)`` instead of constructing a
    fresh injector per (seed, rate) point; ``disarm(site)`` silences one
    site mid-scenario without disturbing the seeded stream.
    """
    from repro.resilience import FaultInjector

    return FaultInjector()


@contextlib.contextmanager
def memos_switched_off(*names):
    """The registered memos named *names* (:data:`repro.memo.MEMOS`), or
    every one when none is named, with a cap of 0 and no entries, so
    every lookup of them misses and nothing is stored; each memo's cap
    and entries are restored on leaving.  An unknown name raises
    ``KeyError`` listing the known ones."""
    import repro.core.backend  # noqa: F401  (registers the backend memos)
    import repro.core.workflow  # noqa: F401  (and every memo it reaches)
    from repro.memo import MEMOS

    unknown = sorted(set(names) - set(MEMOS))
    if unknown:
        raise KeyError(f"no memo named {', '.join(unknown)}"
                       f" (memos: {', '.join(MEMOS)})")
    saved = {memo: (memo.cap, list(memo._entries.items()))
             for name, memo in MEMOS.items() if not names or name in names}
    for memo in saved:
        memo.cap = 0
        memo.clear()
    try:
        yield
    finally:
        for memo, (cap, entries) in saved.items():
            memo.cap = cap
            memo.clear()
            memo._entries.update(entries)


@pytest.fixture
def memos_off():
    """A test with every memo switched off (:func:`memos_switched_off`):
    the oracle a memoised run is compared against.  A test fixture, not a
    product flag."""
    with memos_switched_off():
        yield
