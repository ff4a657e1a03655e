import pytest


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
