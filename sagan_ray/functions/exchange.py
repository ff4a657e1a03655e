"""Coarse-bucket exchange helpers shared by every shuffle in the repo:
the bucket count, the groupby seam and the per-partition count reduce."""

from __future__ import annotations

import numpy as np


def _n_buckets() -> int:
    """Coarse co-location bucket count for a hash exchange:
    ~4 per core, floored at 64. At 32 cpus this gives 128, measured
    equal to the old fixed 512 (within run noise); the point is the
    CLUSTER direction — a fixed 512 would cap the gate at 512 parallel
    units on a 256-node run, while 4x cores keeps every core fed."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 16)) if ray.is_initialized() else 16
    return max(64, 4 * cpus)


def shuffle_groups(ds, key: str, fn, batch_format: str = "pandas"):
    """Co-locate logical groups by ``key`` and run ``fn`` once per
    partition frame (``groupby(key).map_groups``).

    Single seam for every coarse-bucket exchange in this repo. Every
    ``fn`` passed here re-groups by its LOGICAL key internally, so
    receiving several buckets in one frame is part of the contract —
    which is what lets the bucket count stay coarse. Measured
    alternative: Ray 2.49's hash-shuffle ``repartition(keys=...)`` +
    whole-block map_batches runs 4-6x SLOWER here (29-44 s vs 7.9 s on
    the 32 M-row fused gate; its aggregator-actor exchange is built for
    much larger payloads), so the sort-based groupby stays.

    ``batch_format="pyarrow"`` hands ``fn`` zero-copy Arrow tables —
    the hot-partition choice: a 460k-row bucket with ~10 string columns
    costs seconds just materializing Python objects for a pandas frame
    (measured: the fused gate's straggler task spent 4.2 s in the
    round-trip and 0.4 s in the actual gate math)."""
    return ds.groupby(key).map_groups(fn, batch_format=batch_format)


def reduceat_sum(keys: "np.ndarray", counts: "np.ndarray"):
    """(unique key, summed count) over UNSORTED partials — one argsort +
    ``np.add.reduceat``. The shared per-partition reduce for every
    high-cardinality count in the repo (duplicate grams, frequent
    lines, LM vocab, cap-threshold partials): Ray's
    ``groupby().aggregate`` builds per-group Python reduce state, which
    at corpus-cardinality keys IS the job (SCALE.md: 11M keys = 1400
    CPU-seconds vs ~2 s for this)."""
    order = np.argsort(keys, kind="stable")
    ks, cs = keys[order], counts[order]
    first = np.ones(len(ks), dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(cs, starts) if len(starts) else cs[:0]
    return ks[starts], sums
