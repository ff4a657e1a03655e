"""unified2 binary alert sink + reader (the Snort/barnyard2 spool
format; reference ``src/output-plugins/unified2.c``).

Upstream deprecated unified2 in Sagan 2.x, but barnyard2-era consumers
still read it, so the sink exists for drop-in parity. Format is the
public Snort spec: a stream of ``(record_type:u32be, record_length:
u32be)`` headers each followed by one record; we emit
``UNIFIED2_IDS_EVENT`` (type 7, 52-byte IPv4 event) records — the
variant barnyard2 accepts from Sagan — and skip packet records (log
events have no packet; upstream writes none either).

Ray-Data-first shape: one ``map_batches`` sink stage; the WHOLE block
packs into a single numpy structured array with big-endian fields and
hits disk as one buffer — no per-row ``struct.pack`` loop. IPv4 string
columns vectorize to u32 via one ``pc.extract_regex`` pass. Filenames
are content+lineage addressed exactly like the fast/EVE sinks
(route._sink_name): task retries rewrite the same path, distinct blocks
never collide, and a spool consumer globs ``unified2-*.log``.

Deterministic field mapping (documented deltas vs upstream's runtime
counters): ``event_id`` = siphash32(url) (vectorized, retry-stable; upstream uses
a process-local increment, which is NOT replay-stable), ``sensor_id`` =
0, ``classification_id`` = fnv1a32(classification) & 0x7fffffff with a
``classification.map`` sidecar per sink dir (upstream relies on
classification.config order; a content hash needs no cross-block
coordination at scale).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

U2_IDS_EVENT = 7  # Snort spec: Unified2 IDS Event (IPv4, 52 bytes)

_EVENT_DT = np.dtype([
    ("rec_type", ">u4"), ("rec_len", ">u4"),
    ("sensor_id", ">u4"), ("event_id", ">u4"),
    ("event_second", ">u4"), ("event_microsecond", ">u4"),
    ("signature_id", ">u4"), ("generator_id", ">u4"),
    ("signature_revision", ">u4"), ("classification_id", ">u4"),
    ("priority_id", ">u4"),
    ("ip_source", ">u4"), ("ip_destination", ">u4"),
    ("sport_itype", ">u2"), ("dport_icode", ">u2"),
    ("protocol", "u1"), ("impact_flag", "u1"),
    ("impact", "u1"), ("blocked", "u1"),
])
assert _EVENT_DT.itemsize == 60  # 8 header + 52 record

# record body without the 8-byte header (reader side)
_BODY_DT = np.dtype([(n, _EVENT_DT.fields[n][0])
                     for n in _EVENT_DT.names[2:]])
assert _BODY_DT.itemsize == 52

_PROTO = {"tcp": 6, "udp": 17, "icmp": 1}


def _ipv4_u32(col, n: int) -> np.ndarray:
    """IPv4 string column -> u32 array, one vectorized regex pass;
    null / non-IPv4 (incl. IPv6) -> 0 (upstream writes 0.0.0.0 when it
    has no address)."""
    if col is None:
        return np.zeros(n, dtype=np.uint32)
    if pa.types.is_null(col.type):  # belt-and-braces with pack's guard
        return np.zeros(n, dtype=np.uint32)
    s = pc.fill_null(col, "")
    m = pc.extract_regex(
        s, r"^(?P<a>\d{1,3})\.(?P<b>\d{1,3})\.(?P<c>\d{1,3})\.(?P<d>\d{1,3})$")
    out = np.zeros(n, dtype=np.uint32)
    valid = pc.is_valid(m).to_numpy(zero_copy_only=False)
    if not valid.any():
        return out
    parts = []
    for f in ("a", "b", "c", "d"):
        v = pc.cast(pc.struct_field(m, f), pa.int64()).to_numpy(
            zero_copy_only=False)
        parts.append(np.where(valid, v, 0).astype(np.int64))
    a, b, c, d = parts
    ok = valid & (a <= 255) & (b <= 255) & (c <= 255) & (d <= 255)
    packed = (a << 24) | (b << 16) | (c << 8) | d
    out[ok] = packed[ok].astype(np.uint32)
    return out


def _hash32(col, n: int) -> np.ndarray:
    """Vectorized 32-bit id from a string column (replay-stable event
    ids): one pandas siphash pass (fixed default key — deterministic
    across processes, so a task retry rewrites identical bytes),
    folded to 32 bits."""
    import pandas as pd

    if col is None:
        return np.zeros(n, dtype=np.uint32)
    vals = pc.fill_null(col, "").to_pandas()
    h = pd.util.hash_array(np.asarray(vals, dtype=object))
    return ((h >> np.uint64(32)) ^ (h & np.uint64(0xFFFFFFFF))).astype(
        np.uint32)


def _fnv1a32(s: str) -> int:
    h = 0x811C9DC5
    for b in s.encode():
        h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
    return h & 0x7FFFFFFF


def pack_unified2(batch: pa.Table) -> tuple[bytes, dict[str, int]]:
    """Alert block -> unified2 byte stream + the block's
    classification-name -> id map (for the sidecar)."""
    n = batch.num_rows
    rec = np.zeros(n, dtype=_EVENT_DT)
    rec["rec_type"] = U2_IDS_EVENT
    rec["rec_len"] = 52
    # an ALL-null column infers Arrow type `null`, on which every
    # pc.fill_null below raises — treat such columns as absent (each
    # field has a documented default); one guard for every consumer
    cols = [c for c in batch.column_names
            if not pa.types.is_null(batch[c].type)]
    rec["event_id"] = _hash32(batch["url"] if "url" in cols else None, n)
    if "warc_ts" in cols:
        # normalize to us FIRST: ns-provenance blocks (pandas round
        # trips) cast straight to int64 would yield ns and wrap the
        # uint32 seconds field (the rule correlate._ts_us follows too)
        ts = pc.cast(pc.cast(batch["warc_ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        ts = np.where(np.isnan(ts.astype(np.float64)), 0, ts).astype(np.int64)
        rec["event_second"] = (ts // 1_000_000).astype(np.uint32)
        rec["event_microsecond"] = (ts % 1_000_000).astype(np.uint32)
    if "sid" in cols:
        # fill_null BEFORE to_numpy: a partially-null sid column would
        # surface as float64 + NaN, and NaN.astype(uint32) is undefined
        rec["signature_id"] = pc.fill_null(batch["sid"], 0).cast(
            pa.int64()).to_numpy(zero_copy_only=False).astype(np.uint32)
    rec["generator_id"] = 1
    if "rev" in cols:
        rec["signature_revision"] = pc.fill_null(
            batch["rev"], 1).to_numpy(zero_copy_only=False).astype(np.uint32)
    cls_map: dict[str, int] = {}
    if "classification" in cols:
        names = pc.fill_null(batch["classification"], "").to_pylist()
        cls_map = {c: _fnv1a32(c) for c in set(names)}
        rec["classification_id"] = np.fromiter(
            (cls_map[c] for c in names), dtype=np.uint32, count=n)
    if "priority" in cols:
        rec["priority_id"] = pc.fill_null(batch["priority"], 3).to_numpy(
            zero_copy_only=False).astype(np.uint32)
    rec["ip_source"] = _ipv4_u32(
        batch["src_ip"] if "src_ip" in cols else None, n)
    rec["ip_destination"] = _ipv4_u32(
        batch["dst_ip"] if "dst_ip" in cols else None, n)
    if "src_port" in cols:
        sp = pc.fill_null(batch["src_port"], 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rec["sport_itype"] = np.clip(sp, 0, 65535).astype(np.uint16)
    if "proto" in cols:
        rec["protocol"] = np.fromiter(
            (_PROTO.get((p or "").lower(), 0)
             for p in batch["proto"].to_pylist()),
            dtype=np.uint8, count=n)
    return rec.tobytes(), cls_map


def unified2_sink(alerts_ds, u2_dir: str) -> dict:
    """Write the alert stream as unified2 spool files
    (``u2_dir/unified2-<hash>-<task>.log`` + ``classification.map``
    sidecar). Returns {'n_events': ..., 'n_files': ...}.

    Re-running into the same dir clears the previous run's spool and
    sidecar files FIRST (the route_alerts fresh-fan-out rule): the
    lineage-addressed names differ per run, so stale files from a prior
    run would otherwise sit alongside the new ones and a spool consumer
    would double-count every event."""
    if os.path.isdir(u2_dir):
        for f in os.listdir(u2_dir):
            if (f.startswith("unified2-") or f.startswith(".cls-")
                    or f == "classification.map"):
                os.remove(os.path.join(u2_dir, f))
    os.makedirs(u2_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        from .route import _sink_name

        if batch.num_rows == 0:
            return pa.table({"n_events": pa.array([0], type=pa.int64()),
                             "n_files": pa.array([0], type=pa.int64())})
        payload, cls_map = pack_unified2(batch)
        import hashlib

        digest = hashlib.blake2b(payload, digest_size=8).hexdigest()
        name = _sink_name([digest], "unified2-", ".log")
        tmp = os.path.join(u2_dir, "." + name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(u2_dir, name))
        # sidecar merge: append-only lines, rewritten idempotently
        for cname, cid in sorted(cls_map.items()):
            line = f"{cid}: {cname}\n"
            side = os.path.join(u2_dir, f".cls-{cid}")
            if not os.path.exists(side):
                with open(side, "w") as f:
                    f.write(line)
        return pa.table({"n_events": pa.array([batch.num_rows],
                                              type=pa.int64()),
                         "n_files": pa.array([1], type=pa.int64())})

    stats = alerts_ds.map_batches(
        write_block, batch_format="pyarrow").to_pandas().sum()
    # assemble the human-readable sidecar once, driver-side
    lines = []
    for f in sorted(os.listdir(u2_dir)):
        if f.startswith(".cls-"):
            with open(os.path.join(u2_dir, f)) as fh:
                lines.append(fh.read())
    with open(os.path.join(u2_dir, "classification.map"), "w") as f:
        f.writelines(lines)
    return {"n_events": int(stats["n_events"]),
            "n_files": int(stats["n_files"])}


def read_unified2(path: str) -> list[dict]:
    """Parse a unified2 spool file back to dicts (round-trip testing /
    peek tooling; skips unknown record types per spec)."""
    out = []
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos + 8 <= len(data):
        rtype = int.from_bytes(data[pos:pos + 4], "big")
        rlen = int.from_bytes(data[pos + 4:pos + 8], "big")
        body = data[pos + 8:pos + 8 + rlen]
        pos += 8 + rlen
        if rtype != U2_IDS_EVENT or len(body) != 52:
            continue
        ev = np.frombuffer(body, dtype=_BODY_DT, count=1)[0]
        out.append({
            "event_id": int(ev["event_id"]),
            "event_second": int(ev["event_second"]),
            "event_microsecond": int(ev["event_microsecond"]),
            "signature_id": int(ev["signature_id"]),
            "signature_revision": int(ev["signature_revision"]),
            "classification_id": int(ev["classification_id"]),
            "priority_id": int(ev["priority_id"]),
            "ip_source": ".".join(str((int(ev["ip_source"]) >> s) & 255)
                                  for s in (24, 16, 8, 0)),
            "ip_destination": ".".join(
                str((int(ev["ip_destination"]) >> s) & 255)
                for s in (24, 16, 8, 0)),
            "sport_itype": int(ev["sport_itype"]),
            "protocol": int(ev["protocol"]),
        })
    return out
