import faulthandler
import signal
import sys

import pytest

# Per-phase limit for each test's setup, call and teardown, in seconds.
# A hang (e.g. a plan waiting on resources that never free) fails that
# one test with every thread's stack dumped, instead of stalling the run.
TEST_TIMEOUT_S = 600


class _TestTimeout(KeyboardInterrupt):
    """Raised by the alarm. A KeyboardInterrupt, because a wait inside
    Ray's core worker (``ray.get``) is cut short only by that; it then
    resurfaces as a plain KeyboardInterrupt."""


def _timed_phase():
    fired = []

    def on_alarm(signum, frame):
        fired.append(signum)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        raise _TestTimeout

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        return (yield)
    except KeyboardInterrupt:
        if fired:
            pytest.fail(f"timed out after {TEST_TIMEOUT_S} s "
                        "(all thread stacks dumped to stderr)", pytrace=False)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _timed_phase())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _timed_phase())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    return (yield from _timed_phase())


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def block_bytes(request):
    """Lower Ray's ``DataContext.target_max_block_size`` to
    ``request.param`` bytes for one test (``None`` leaves it), and
    restore it afterwards. Datasets the test creates split their blocks
    at that size, and ``gate_alerts`` gates any alert stream larger
    than it through the tagged hash exchange instead of one task — use
    with ``indirect=True`` to run a test under both gate plans."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    if request.param is not None:
        ctx.target_max_block_size = request.param
    try:
        yield request.param
    finally:
        ctx.target_max_block_size = old
