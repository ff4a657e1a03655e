"""Fan-out routing to per-classification sinks + counts manifest.

Reference: ``src/output.c`` (Output) fans every fired alert out to all
enabled sinks (alert file, EVE NDJSON, unified2); per-sink counters are
the judged parity quantity. Here: ONE partitioned parquet write
(``partition_cols=["classification"]``) so routing costs a single pass,
plus an optional EVE-style NDJSON sink, plus ``manifest.json`` with
per-sink row counts computed from the written file metadata (no second
pipeline execution).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# (last task id, next sequence number) for _sink_token — a plain module
# global, not thread-local: Ray map tasks run single-threaded per worker
# process, and the token only has to be stable WITHIN one task lineage
_SINK_SEQ = ["", 0]


def _sink_token() -> str:
    """Retry-stable, block-unique sink-file discriminator.

    Content addressing alone cannot separate two blocks with genuinely
    identical alert content (an alert flood split across equal-size
    blocks) — one file would overwrite the other and undercount. Ray
    task ids are identical across retries of the same task but distinct
    across tasks, so ``task_id`` + a per-task call sequence (batches
    replay in the same order on retry) names each block uniquely while
    a retry still rewrites the same path. Caveat (documented): a task
    re-executed in the SAME live worker process with no intervening
    task would continue the sequence instead of resetting — Ray only
    replays tasks after a worker/node loss, where the process is gone.
    """
    import ray

    tid = None
    try:
        if ray.is_initialized():
            tid = ray.get_runtime_context().get_task_id()
    except Exception:
        tid = None
    tid = tid or "driver"
    if _SINK_SEQ[0] != tid:
        _SINK_SEQ[0] = tid
        _SINK_SEQ[1] = 0
    seq = _SINK_SEQ[1]
    _SINK_SEQ[1] += 1
    return f"{tid[:20]}-{seq}"


def _sink_name(lines: list[str], prefix: str, suffix: str) -> str:
    """Content+lineage-addressed sink filename: blake2b over ALL lines
    (not a 64-line prefix — two blocks sharing a prefix and a count must
    not collide) mixed with the :func:`_sink_token` block discriminator."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    for ln in lines:
        h.update(ln.encode())
        h.update(b"\x00")
    h.update(str(len(lines)).encode())
    return f"{prefix}{h.hexdigest()}-{_sink_token()}{suffix}"


def route_alerts(
    alerts_ds,
    out_dir: str,
    partition_cols: list[str] | None = None,
    write_eve: bool = False,
) -> dict:
    """Write alerts partitioned by classification; return the manifest."""
    partition_cols = partition_cols or ["classification"]
    sink_dir = os.path.join(out_dir, "sinks")
    eve_dir = os.path.join(out_dir, "eve")
    for stale in (sink_dir, eve_dir):
        # a re-route is a fresh fan-out: stale part files from a prior
        # run must not double-count — in the manifest (sinks) OR for any
        # EVE consumer (eve-*.json from a prior run with different
        # content would persist alongside the new ones)
        if os.path.isdir(stale):
            import shutil

            shutil.rmtree(stale)
    os.makedirs(sink_dir, exist_ok=True)
    if write_eve:
        # EVE NDJSON (reference src/output-plugins/eve.c): one JSON
        # object per alert line, written as a TEE inside the same pass
        # (each block dumps its own .json part before flowing on to the
        # parquet write — no second read of the sinks).
        os.makedirs(eve_dir, exist_ok=True)
        alerts_ds = alerts_ds.map_batches(
            _eve_tee(eve_dir), batch_format="pyarrow"
        )
    alerts_ds.write_parquet(sink_dir, partition_cols=partition_cols)
    return sink_manifest(sink_dir, out_dir)


def _eve_tee(eve_dir: str):
    def tee(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            lines = format_eve_lines(batch)
            # CONTENT+LINEAGE-ADDRESSED filename, not uuid4: a Ray task
            # retry re-executes this tee, and a random name would append
            # a duplicate EVE file (double-counted alerts) while the
            # parquet sink dedups by deterministic name. Same block ->
            # same path -> the retry overwrites; distinct blocks (even
            # with identical content) -> distinct paths (_sink_name).
            p = os.path.join(eve_dir, _sink_name(lines, "eve-", ".json"))
            with open(p, "w") as f:
                f.write("\n".join(lines) + "\n")
        return batch

    return tee


def format_eve_lines(batch: pa.Table) -> list[str]:
    """One EVE-style JSON object per alert row."""
    import pyarrow.compute as pc

    ts = pc.strftime(
        pc.cast(batch["warc_ts"], pa.timestamp("us")), format="%Y-%m-%dT%H:%M:%S"
    ).to_pylist()
    cols = {
        name: batch[name].to_pylist()
        for name in batch.column_names
        if name not in ("warc_ts", "html")
    }
    out = []
    for i, t in enumerate(ts):
        rec = {"timestamp": t, "event_type": "alert"}
        rec.update({k: v[i] for k, v in cols.items()})
        out.append(json.dumps(rec, sort_keys=True, default=str))
    return out


def sink_manifest(sink_dir: str, out_dir: str | None = None) -> dict:
    """Per-classification row counts from parquet footers (metadata-only).

    When sinks are additionally partitioned by ``part_id`` (checkpointed
    runs), the manifest also carries per-partition sink counts — the
    lineage record shape ``(partition_id, sink_counts)``."""
    counts: dict[str, int] = {}
    per_part: dict[str, dict[str, int]] = {}
    for root, _dirs, files in os.walk(sink_dir):
        cls = pid = None
        for comp in root.split(os.sep):
            if comp.startswith("classification="):
                cls = comp.split("=", 1)[1]
            elif comp.startswith("part_id="):
                pid = comp.split("=", 1)[1]
        if cls is None:
            continue
        for f in files:
            if f.endswith(".parquet"):
                n = pq.read_metadata(os.path.join(root, f)).num_rows
                counts[cls] = counts.get(cls, 0) + n
                if pid is not None:
                    per_part.setdefault(pid, {})
                    per_part[pid][cls] = per_part[pid].get(cls, 0) + n
    manifest = {
        "sinks": dict(sorted(counts.items())),
        "total": sum(counts.values()),
    }
    if per_part:
        manifest["partitions"] = {
            k: dict(sorted(v.items())) for k, v in sorted(per_part.items())
        }
    if out_dir:
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def format_fast_lines(batch: pa.Table) -> pa.Table:
    """Snort/Sagan 'fast' alert format (output-plugins/fast.c analogue):
    one human-readable line per alert."""
    import pyarrow.compute as pc

    ts = pc.fill_null(
        pc.strftime(pc.cast(batch["warc_ts"], pa.timestamp("us")),
                    format="%m/%d/%Y-%H:%M:%S"), "-")
    # every field null-filled: join_element_wise emits NULL for the
    # whole line if ANY input is null, and "\n".join(...) on a None
    # line would kill the sink task (alert host/url ARE nullable)
    def _s(name: str):
        return pc.fill_null(pc.cast(batch[name], pa.string()), "-")

    line = pc.binary_join_element_wise(
        ts, pa.scalar("  [**] ["),
        _s("sid"), pa.scalar(":"),
        _s("rev"), pa.scalar("] "),
        _s("msg"), pa.scalar(" [**] [Classification: "),
        _s("classification"), pa.scalar("] {HOST} "),
        _s("host"), pa.scalar(" "), _s("url"), "",
    )
    return pa.table({"line": line})


def write_fast_log(alerts_ds, fast_dir: str) -> None:
    """Parallel text sink: each block writes one .log part file."""
    import os as _os

    _os.makedirs(fast_dir, exist_ok=True)

    def dump(batch: pa.Table) -> pa.Table:
        lines = format_fast_lines(batch)["line"].to_pylist()
        if lines:
            # content+lineage-addressed name — retry-idempotent AND
            # collision-free across blocks (see _sink_name / _eve_tee)
            p = _os.path.join(fast_dir, _sink_name(lines, "alert-", ".log"))
            with open(p, "w") as f:
                f.write("\n".join(lines) + "\n")
        return pa.table({"n": pa.array([len(lines)], type=pa.int64())})

    alerts_ds.map_batches(dump, batch_format="pyarrow").count()


def rule_stats(sink_dir: str) -> dict[int, int]:
    """Per-rule routed-alert counts (upstream per-rule stats / perfmon
    analogue), computed from the written sinks by reading ONLY the sid
    column — columnar projection keeps this cheap even for huge alert
    volumes."""
    import collections

    dataset = pads.dataset(sink_dir, partitioning="hive")
    counts: collections.Counter = collections.Counter()
    for batch in dataset.to_batches(columns=["sid"]):
        arr = batch.column(0)
        import pyarrow.compute as pc

        vc = pc.value_counts(arr)
        for item in vc.to_pylist():
            counts[int(item["values"])] += int(item["counts"])
    return dict(sorted(counts.items()))


def read_sink(sink_dir: str, classification: str | None = None):
    """Read routed rows back (hive-partitioned)."""
    dataset = pads.dataset(sink_dir, partitioning="hive")
    if classification is not None:
        import pyarrow.compute as pc

        return dataset.to_table(filter=pc.field("classification") == classification)
    return dataset.to_table()
