"""Parquet read planned from file listings and footers.

One ``ReadTask`` per file, each carrying the file's exact row count,
its uncompressed size and its schema, all taken from the footer on the
driver. Nothing runs remotely to plan the read (Ray's own parquet
datasource samples fragments in remote tasks to estimate an encoding
ratio), and ``Dataset.schema()`` executes nothing.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def list_files(paths) -> list[str]:
    """The files ``paths`` names: a file as given, a directory as every
    file below it in sorted order, skipping names that start with ``.``
    or ``_`` (as pyarrow's dataset discovery does)."""
    files: list[str] = []
    for p in [paths] if isinstance(paths, str) else paths:
        if not os.path.isdir(p):
            files.append(p)
            continue
        found = []
        for root, dirs, names in os.walk(p):
            dirs[:] = [d for d in dirs if d[0] not in "._"]
            found += [os.path.join(root, n) for n in names if n[0] not in "._"]
        files += sorted(found)
    return files


def hive_values(path: str) -> dict[str, str]:
    """Every ``k=v`` directory in ``path``, read as Ray's hive partition
    parser reads it (values are strings; ``part_id=`` gives ``""``)."""
    return dict(d.split("=") for d in os.path.dirname(path).split("/")
                if d.count("=") == 1)


def _read_file(path: str, columns: list[str] | None,
               extra: tuple[tuple[str, str], ...]):
    """The file's rows, one row group at a time, without schema metadata,
    with a constant string column for each ``extra`` (name, value)."""
    with pq.ParquetFile(path) as f:
        for i in range(f.num_row_groups):
            t = f.read_row_group(i, columns=columns, use_threads=False)
            if t.num_rows:
                t = t.replace_schema_metadata(None)
                for name, value in extra:
                    t = t.append_column(name, pa.repeat(value, t.num_rows))
                yield t


class FooterParquetDatasource(Datasource):
    """``files`` as one read task each, planned from their footers,
    whatever parallelism Ray asks for (when it asks for more blocks than
    files, Ray splits each task's output).

    Columns come in ``columns`` order (all, when None); then ``path``
    when ``include_paths``; then a string column for every ``k=v``
    directory in the file's path that is not a file column (filtered
    to ``columns`` when given). Blocks and schema carry no file-level
    metadata: pandas writes a ``pandas`` blob that makes a pyarrow
    Schema unhashable, which defeats Ray Data's schema deduplication in
    every downstream shuffle."""

    def __init__(self, files: list[str], columns: list[str] | None = None,
                 include_paths: bool = False):
        self._plan = []
        for path in files:
            meta = pq.read_metadata(path)
            full = meta.schema.to_arrow_schema().remove_metadata()
            hive = hive_values(path)
            cols = (None if columns is None else
                    [c for c in columns if c in full.names or c not in hive])
            extra = (("path", path),) if include_paths else ()
            extra += tuple((k, v) for k, v in hive.items()
                           if k not in full.names
                           and (columns is None or k in columns))
            fields = list(full) if cols is None else [full.field(c) for c in cols]
            schema = pa.schema(fields + [pa.field(k, pa.string()) for k, _ in extra])
            size = sum(meta.row_group(i).total_byte_size
                       for i in range(meta.num_row_groups))
            self._plan.append((path, cols, extra, meta.num_rows, size, schema))

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(size for _p, _c, _e, _r, size, _s in self._plan)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return [ReadTask(functools.partial(_read_file, path, cols, extra),
                         BlockMetadata(num_rows=rows, size_bytes=size,
                                       input_files=[path], exec_stats=None),
                         schema=schema)
                for path, cols, extra, rows, size, schema in self._plan]
