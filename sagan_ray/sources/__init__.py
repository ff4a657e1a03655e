"""Input sources: parquet readers and the deterministic webpages derivations."""


def read_parquet_clean(paths, **kwargs):
    """``ray.data.read_parquet`` with file-level ``pandas`` schema metadata
    stripped from every block, read as one block per file once the files
    fill the cluster's CPUs.

    Parquet written by pandas carries a ``b"pandas"`` schema-metadata blob;
    pyarrow Schemas holding it are UNHASHABLE (the decoded metadata contains a
    dict), which silently defeats Ray Data's schema deduplication in every
    downstream shuffle ("Failed to hash the schemas" / "RefBundle with a
    different schema" warnings) and forces repeated full unify_schemas work in
    reduce tasks. Stripping is metadata-only (zero-copy) and fuses into the
    read stage.

    Unless the caller passes ``override_num_blocks``, the read asks for
    ``max(files, cluster CPUs)`` blocks, counting the ``*.parquet`` files
    under a directory (hive layout included). Ray's own heuristic wants
    blocks of at least 1 MiB, so it split 4 files of ~2 MB into 8 blocks;
    a split read does not fuse with the next map, so every input byte
    went through the object store and parse/match ran as 8 more tasks.
    One block per file fuses the read with the maps after it into one
    task per file (Ray still cuts an output block past
    ``target_max_block_size`` inside the task); fewer files than CPUs
    still split, to one block per CPU.
    """
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..functions import exchange

    # one listing: it counts the files and finds the footer for the schema
    files: list[str] = []
    hive = False
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            found = sorted(glob.glob(os.path.join(p, "**", "*.parquet"),
                                     recursive=True))
            # hive-partitioned layout: the file footer does NOT carry the
            # partition columns, so a footer-derived schema would disagree
            # with the blocks Ray builds (declared schema missing e.g.
            # 'classification'); such reads take the post-read strip-map
            if found and "=" in os.path.relpath(found[0], p):
                hive = True
            files += found
        else:
            files.append(p)
    kwargs.setdefault("override_num_blocks",
                      max(len(files), exchange.cluster_cpus()))

    schema = kwargs.pop("schema", None)
    if schema is None and files and not hive and not kwargs.get("include_paths"):
        # Derive a metadata-free schema from the first file's footer
        # (driver-side, one footer read) and hand it to the reader, so
        # blocks are clean FROM the read — no extra stage, and the
        # fragment-schema unify inside the read task stops warning too.
        try:
            full = pq.read_schema(files[0]).remove_metadata()
            cols = kwargs.get("columns")
            schema = (pa.schema([full.field(c) for c in cols])
                      if cols else full)
        except Exception:
            schema = None  # fall through to the strip-map path

    if schema is not None:
        return rd.read_parquet(paths, schema=schema, **kwargs)
    ds = rd.read_parquet(paths, **kwargs)
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )
