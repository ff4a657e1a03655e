"""Parquet read planned from file listings and footers.

Each file's exact row count, uncompressed size and schema are taken
from its footer on the driver. ``get_read_tasks(parallelism)`` packs
consecutive files, balanced by those sizes, into at most
``parallelism`` read tasks, each declaring the summed rows and sizes
and the unified schema of its files. Nothing runs remotely to plan the
read (Ray's own parquet datasource samples fragments in remote tasks to
estimate an encoding ratio), and ``Dataset.schema()``, ``count()`` and
``size_bytes()`` execute nothing.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

import numpy as np
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


class _File(NamedTuple):
    """One file's read plan, from its footer."""

    path: str
    columns: list[str] | None
    extra: tuple[tuple[str, str], ...]
    rows: int
    size: int
    schema: pa.Schema


def _read_files(files: list[_File]):
    """The rows of each file in turn, one row group at a time, without
    schema metadata, with a constant string column for each ``extra``
    (name, value). Ray's block builder combines the tables of files whose
    schemas differ by null-filling the columns a file lacks."""
    for f in files:
        with pq.ParquetFile(f.path) as pf:
            for i in range(pf.num_row_groups):
                t = pf.read_row_group(i, columns=f.columns, use_threads=False)
                if t.num_rows:
                    t = t.replace_schema_metadata(None)
                    for name, value in f.extra:
                        t = t.append_column(name, pa.repeat(value, t.num_rows))
                    yield t


def _pack(sizes: list[int], n: int) -> list[int]:
    """Bounds ``[0, …, len(sizes)]`` that cut ``sizes`` into ``n``
    non-empty runs of consecutive items, each cut at the item boundary
    nearest an equal share of the total."""
    cum = np.cumsum([0] + sizes)
    bounds = [0]
    for k in range(1, n):
        near = int(np.argmin(np.abs(cum - cum[-1] * k / n)))
        bounds.append(min(max(near, bounds[-1] + 1), len(sizes) - (n - k)))
    return bounds + [len(sizes)]


class FooterParquetDatasource(Datasource):
    """``files`` read in at most ``parallelism`` tasks, planned from
    their footers: ``get_read_tasks`` packs consecutive files, balanced
    by footer bytes, into ``min(parallelism, files)`` tasks, each
    declaring its files' summed rows and bytes and their unified schema
    (when Ray asks for more blocks than tasks, it splits each task's
    output).

    Columns come in ``columns`` order (all, when None); then ``path``
    when ``include_paths``; then a string column for every ``k=v``
    directory in the file's path that is not a file column (filtered
    to ``columns`` when given). Blocks and schema carry no file-level
    metadata: pandas writes a ``pandas`` blob that makes a pyarrow
    Schema unhashable, which defeats Ray Data's schema deduplication in
    every downstream shuffle."""

    def __init__(self, files: list[str], columns: list[str] | None = None,
                 include_paths: bool = False):
        self._plan: list[_File] = []
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
            self._plan.append(_File(path, cols, extra, meta.num_rows, size, schema))

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(f.size for f in self._plan)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = min(parallelism, len(self._plan))
        if not n:
            return []
        bounds = _pack([f.size for f in self._plan], n)
        tasks = []
        for lo, hi in zip(bounds, bounds[1:]):
            files = self._plan[lo:hi]
            meta = BlockMetadata(num_rows=sum(f.rows for f in files),
                                 size_bytes=sum(f.size for f in files),
                                 input_files=[f.path for f in files],
                                 exec_stats=None)
            # permissive, as Ray unifies the schemas of its read tasks
            schema = pa.unify_schemas([f.schema for f in files],
                                      promote_options="permissive")
            tasks.append(ReadTask(functools.partial(_read_files, files),
                                  meta, schema=schema))
        return tasks
