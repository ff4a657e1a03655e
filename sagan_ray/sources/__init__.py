"""Input sources: parquet readers and the deterministic webpages derivations."""


def read_parquet_clean(paths, **kwargs):
    """Read parquet ``paths`` (files, directories, or a list of both),
    planned from the file listing and footers.

    Each read task carries its files' exact row count, uncompressed size
    and schema, so planning runs no remote task (Ray's own parquet
    reader samples fragments in tasks it waits on), and
    ``Dataset.schema()``, ``count()`` and ``size_bytes()`` execute
    nothing. A task reads its files row group by row group. Blocks and
    schema carry no ``pandas`` schema metadata: it makes a pyarrow
    Schema unhashable, which defeats Ray Data's schema deduplication in
    every downstream shuffle. ``columns`` projects; ``include_paths``
    appends ``path``; then every ``k=v`` directory in a file's path
    becomes a string column (hive layout), as in
    ``ray.data.read_parquet``. The read's operator is ``ReadParquet``.

    Read tasks are sized to the host, not one per file: the read plans
    ``min(files, max(cluster CPUs, ceil(footer bytes /
    target_max_block_size)))`` tasks of consecutive files balanced by
    footer bytes, and, unless the caller passes ``override_num_blocks``,
    asks for ``max(tasks, cluster CPUs)`` blocks. With no more files
    than CPUs that is one task per file, split to one block per CPU.
    With more, each task yields one block, so the read fuses with the
    maps after it into one task per read task, with no ``SplitBlocks``
    (Ray still cuts an output block past ``target_max_block_size``
    inside the task).
    """
    import math

    import ray.data as rd

    from ..functions import exchange
    from .parquet import FooterParquetDatasource, list_files

    files = list_files(paths)
    source = FooterParquetDatasource(
        files, columns=kwargs.pop("columns", None),
        include_paths=kwargs.pop("include_paths", False))
    if "override_num_blocks" not in kwargs:
        cpus = exchange.cluster_cpus()
        block_bytes = rd.DataContext.get_current().target_max_block_size
        by_size = (math.ceil(source.estimate_inmemory_data_size() / block_bytes)
                   if block_bytes else 0)
        tasks = min(len(files), max(cpus, by_size))
        kwargs["override_num_blocks"] = max(tasks, cpus)
    return rd.read_datasource(source, **kwargs)
