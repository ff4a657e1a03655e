"""Seeded benchmark inputs, cached as parquet inside the checkout.

Every table is ``sagan_ray.synth.generate_webpages(rows, seed,
include_html=False)`` row for row: it is built here, in the benchmark
process, by ``make_batch`` — the per-row function ``generate_webpages``
maps over ``ray.data.range`` — which skips a Ray job per run. Each table is
written once per (seed, rows, file count, synth version) to
``.perfbench/cache``; the pipeline under test only ever sees those
parquet files. The synth version is a digest of ``sagan_ray/synth.py``,
so a change to the generator never reuses a stale table. Generation is
never inside a timed region.
"""

from __future__ import annotations

import hashlib
import os
import shutil

CACHE_ENTRIES = 16


def synth_version(root: str) -> str:
    with open(os.path.join(root, "sagan_ray", "synth.py"), "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:10]


def webpages_files(cache_dir: str, root: str, rows: int, seed: int,
                   n_files: int) -> list[str]:
    """Paths of ``n_files`` parquet files holding rows ``0..rows-1`` of
    the seeded webpages table in doc_id order, file ``k`` holding the
    ``k``-th contiguous slice."""
    key = f"webpages-s{seed}-n{rows}-f{n_files}-{synth_version(root)}"
    path = os.path.join(cache_dir, key)
    names = [f"part-{k:03d}.parquet" for k in range(n_files)]
    if not os.path.exists(os.path.join(path, "_DONE")):
        _write(path, rows, seed, names)
        _prune(cache_dir, keep=CACHE_ENTRIES)
    return [os.path.join(path, n) for n in names]


def _prune(cache_dir: str, keep: int) -> None:
    """Drop all but the ``keep`` most recently written tables: runs
    usually take a new seed each, so the cache would otherwise grow
    without bound."""
    entries = sorted((os.path.getmtime(os.path.join(cache_dir, e)), e)
                     for e in os.listdir(cache_dir))
    for _mtime, e in entries[:-keep]:
        shutil.rmtree(os.path.join(cache_dir, e), ignore_errors=True)


def _write(path: str, rows: int, seed: int, names: list[str]) -> None:
    import numpy as np
    import pyarrow.parquet as pq
    from sagan_ray.synth import make_batch

    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    per = -(-rows // len(names))
    for k, name in enumerate(names):
        idx = np.arange(k * per, min(rows, (k + 1) * per))
        t = make_batch(idx, seed=seed).drop_columns(["html"])
        pq.write_table(t, os.path.join(tmp, name))
    open(os.path.join(tmp, "_DONE"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
