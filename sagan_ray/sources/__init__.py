"""Input sources: parquet readers and the deterministic webpages derivations."""


def read_parquet_clean(paths, **kwargs):
    """Read parquet ``paths`` (files, directories, or a list of both) as
    one read task per file, planned from the file listing and footers.

    Each task carries the file's exact row count, uncompressed size and
    schema, so planning runs no remote task (Ray's own parquet reader
    samples fragments in tasks it waits on) and ``Dataset.schema()``
    executes nothing. A task reads its file row group by row group.
    Blocks and schema carry no ``pandas`` schema metadata: it makes a
    pyarrow Schema unhashable, which defeats Ray Data's schema
    deduplication in every downstream shuffle. ``columns`` projects;
    ``include_paths`` appends ``path``; then every ``k=v`` directory in a
    file's path becomes a string column (hive layout), as in
    ``ray.data.read_parquet``. The read's operator is ``ReadParquet``.

    Unless the caller passes ``override_num_blocks``, the read asks for
    ``max(files, cluster CPUs)`` blocks. One block per file fuses the
    read with the maps after it into one task per file (Ray still cuts
    an output block past ``target_max_block_size`` inside the task);
    fewer files than CPUs still split, to one block per CPU.
    """
    import ray.data as rd

    from ..functions import exchange
    from .parquet import FooterParquetDatasource, list_files

    files = list_files(paths)
    kwargs.setdefault("override_num_blocks",
                      max(len(files), exchange.cluster_cpus()))
    source = FooterParquetDatasource(
        files, columns=kwargs.pop("columns", None),
        include_paths=kwargs.pop("include_paths", False))
    return rd.read_datasource(source, **kwargs)
