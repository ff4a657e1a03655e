"""Correlation: threshold / after gates and xbits cross-event flags.

Reference semantics (upstream: threshold/after checks inside
``src/processors/engine.c`` with mmap state via ``src/ipc.c``; xbits in
``src/xbit-mmap.c``): per-(rule, track-key) sliding windows anchored at
first-seen wall-clock time, mutated under a mutex.

Our re-expression is DETERMINISTIC EVENT-TIME tumbling windows over
``warc_ts`` (documented delta — SURVEY.md §2.5): for window length S,
``bucket = floor(epoch_seconds(ts) / S)`` and within each
``(sid, track_key, bucket)`` group rows are ordered by
``(warc_ts, url)`` (url is unique → total order → replay-stable):

* ``threshold: type limit, count C``   → keep row_number <= C
* ``threshold: type suppress, count C``→ keep the group only if size <= C
* ``after: count C``                   → keep row_number > C

All three are exactly expressible as DuckDB window functions — that IS
the parity oracle.

Physical shape (scale notes):
* Each gate family is a :class:`GatePlan` — bypass, tag and gate row
  functions built once per rule set (:func:`fused_plan`,
  :func:`correlation_plan`, :func:`xbits_plan`). Two physical plans run
  the same row functions; only the exchange differs.
* The caller materializes/checkpoints the alert stream once before the
  correlation branches (alerts ≪ input) so the expensive match stage is
  never re-executed per branch, and picks the plan by the stream's
  size: a stream at or under Ray's ``target_max_block_size`` is gated
  in ONE task (:func:`gate_in_one_task`: one block holds every logical
  group whole, so there is no sort-shuffle and no union); a larger one
  takes the tagged hash exchange (:func:`_shuffled`).
* The exchange is ONE hash shuffle, keyed on
  ``gb = hash(sid,ckey,bucket) % NB`` — logical groups are co-located
  into NB coarse partitions and the gate runs vectorized per partition
  (no per-tiny-group Python call overhead).
* Hot-host skew: a batch-local pre-prune keeps at most C rows per
  (sid,key,bucket) per input batch for `limit` rules before the shuffle,
  so a host with 10^7 hits in one bucket ships O(C·num_batches) rows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..rules import Rule

def _n_buckets() -> int:
    """Coarse co-location bucket count for the correlation exchange:
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


def _track_col(track: str) -> str:
    """Track spec -> alert column. by_src/by_host -> host (the reporting
    endpoint), by_dst -> the parsed dst_ip column (upstream
    ``track ip_dst``), ip_pair/by_pair -> the composite src+dst key
    (upstream ``src/flexbit-mmap.c`` pair semantics — the
    login-fail-then-success-per-pair idiom), by_lang/by_facility ->
    lang, by_username -> the username column (populated by normalize
    extraction), by_string -> the liblognorm-extracted string (our
    `extracted` JSON column). A missing column keys to '' (one group)
    rather than crashing — matching upstream, which falls back to the
    empty string when the normalized field is absent."""
    if track in ("by_lang", "by_facility"):
        return "lang"
    if track == "by_username":
        return "username"
    if track == "by_string":
        return "extracted"
    if track in ("by_dst", "ip_dst"):
        return "dst_ip"
    if track in ("ip_pair", "by_pair"):
        return "ip_pair"
    return "host"


def _pair_key_pa(tbl: pa.Table):
    """src_ip|dst_ip composite key as an Arrow string array (nulls ->
    '', missing columns -> '' side), vectorized."""
    n = tbl.num_rows

    def side(name: str):
        if name in tbl.column_names:
            return pc.fill_null(tbl[name], "")
        return pa.array([""] * n, type=pa.string())

    return pc.binary_join_element_wise(side("src_ip"), side("dst_ip"), "|")


def corr_specs(rules: list[Rule]) -> dict[int, dict]:
    """sid -> correlation spec (kind, type, count, seconds, track col)."""
    specs: dict[int, dict] = {}
    for r in rules:
        if r.threshold is not None:
            specs[r.sid] = {
                "kind": "threshold",
                "ttype": r.threshold.ttype,
                "count": r.threshold.count,
                "seconds": r.threshold.seconds,
                "track": _track_col(r.threshold.track),
            }
        elif r.after is not None:
            specs[r.sid] = {
                "kind": "after",
                "count": r.after.count,
                "seconds": r.after.seconds,
                "track": _track_col(r.after.track),
            }
    return specs


def _ts_us(batch: pa.Table) -> np.ndarray:
    return np.asarray(
        pc.cast(
            pc.cast(batch["warc_ts"], pa.timestamp("us")), pa.int64()
        ).combine_chunks(),
        dtype=np.int64,
    )


def _attach_keys(batch: pa.Table, specs: dict[int, dict]) -> pa.Table:
    """Add ckey (track value) and bucket columns per row, by sid.

    Vectorized: per distinct sid (few), not per row."""
    sid = np.asarray(batch["sid"].combine_chunks(), dtype=np.int64)
    n = batch.num_rows
    ts_s = _ts_us(batch) // 1_000_000
    colcache: dict[str, np.ndarray] = {}

    def col(name: str) -> np.ndarray:
        if name not in colcache:
            if name == "ip_pair":
                vals = np.asarray(_pair_key_pa(batch).to_pandas(), dtype=object)
            elif name in batch.column_names:
                vals = np.asarray(batch[name].to_pandas(), dtype=object)
                vals = np.where(vals == None, "", vals)  # noqa: E711
            else:
                vals = np.full(n, "", dtype=object)
            colcache[name] = vals
        return colcache[name]

    ckey = np.empty(n, dtype=object)
    bucket = np.full(n, -1, dtype=np.int64)
    for s, spec in specs.items():
        m = sid == s
        if not m.any():
            continue
        ckey[m] = col(spec["track"])[m]
        bucket[m] = ts_s[m] // spec["seconds"]
    ckey[bucket == -1] = ""
    return batch.append_column(
        "ckey", pa.array(ckey, type=pa.string())
    ).append_column("bucket", pa.array(bucket))


def _gb_hash(nb: np.uint64, *cols) -> pa.Array:
    """Coarse co-location key from raw arrays (Arrow-branch twin of
    :func:`_attach_gb`): vectorized siphash chain, % nb. Only controls
    WHICH partition a logical group lands in — consistency within a run
    is the only requirement."""
    h = pd.util.hash_array(np.asarray(cols[0], dtype=object))
    for c in cols[1:]:
        h = h * np.uint64(31) + pd.util.hash_array(
            np.asarray(c) if not isinstance(c, np.ndarray) else c
        )
    return pa.array((h % nb).astype(np.int64))


def _attach_gb(pdf: pd.DataFrame, cols: list[str],
               nb: int | None = None) -> pd.DataFrame:
    """Coarse co-location key: hash of the logical group key.

    Vectorized (pandas siphash). The gb value only controls WHICH
    partition a logical group lands in, never the output rows, so it
    needs to be consistent within a run, not across library versions."""
    h = pd.util.hash_pandas_object(pdf[cols[0]], index=False).to_numpy()
    for c in cols[1:]:
        h = h * np.uint64(31) + pd.util.hash_pandas_object(
            pdf[c], index=False
        ).to_numpy()
    pdf["gb"] = (h % np.uint64(nb or _n_buckets())).astype(np.int64)
    return pdf


def _preprune_mask(kdf: pd.DataFrame, specs: dict[int, dict]) -> np.ndarray:
    """Keep-mask version of the batch-local limit pre-prune, computed on
    a KEY-ONLY frame (sid, ckey, bucket, warc_ts, url) so wide columns
    never round-trip through pandas."""
    keep = np.ones(len(kdf), dtype=bool)
    limit_sids = {
        s for s, sp in specs.items()
        if sp["kind"] == "threshold" and sp["ttype"] == "limit"
    }
    if not limit_sids or kdf.empty:
        return keep
    m = kdf["sid"].isin(limit_sids).to_numpy()
    if not m.any():
        return keep
    sub = kdf[m]
    # NULLS LAST on the url tie-break (the gate's contract; a raw
    # object-dtype lexsort raises TypeError on None) — numpy sorts NaT
    # last in the ts key already
    urls = sub["url"].to_numpy()
    url_null = pd.isna(urls)
    order = np.lexsort((np.where(url_null, "", urls), url_null,
                        sub["warc_ts"].to_numpy()))
    sub_sorted = sub.iloc[order]
    rn = sub_sorted.groupby(["sid", "ckey", "bucket"], sort=False).cumcount()
    counts = {s: sp["count"] for s, sp in specs.items() if s in limit_sids}
    keep_sorted = (rn < sub_sorted["sid"].map(counts)).to_numpy()
    keep_sub = np.empty(len(sub), dtype=bool)
    keep_sub[order] = keep_sorted
    keep[np.flatnonzero(m)] = keep_sub
    return keep


def _preprune_limit(batch: pd.DataFrame, specs: dict[int, dict]) -> pd.DataFrame:
    """Batch-local skew guard: for `limit` rules keep only the C earliest
    rows per (sid, ckey, bucket) within this batch — a superset of the
    final winners (monotone prefix property of row_number<=C)."""
    limit_sids = {
        s
        for s, sp in specs.items()
        if sp["kind"] == "threshold" and sp["ttype"] == "limit"
    }
    if not limit_sids or batch.empty:
        return batch
    mask = batch["sid"].isin(limit_sids)
    if not mask.any():
        return batch
    sub = batch[mask].sort_values(["warc_ts", "url"], kind="mergesort")
    counts = {s: sp["count"] for s, sp in specs.items() if s in limit_sids}
    rn = sub.groupby(["sid", "ckey", "bucket"], sort=False).cumcount()
    keep_sub = sub[rn < sub["sid"].map(counts)]
    return pd.concat([batch[~mask], keep_sub], ignore_index=True)


def _gate_partition(g: pd.DataFrame, specs: dict[int, dict]) -> pd.DataFrame:
    """Vectorized gate over one co-location partition (many logical
    groups in one frame).

    Hot-partition path: a pandas ``sort_values`` over the string keys
    (ckey, url) costs ~10 s per 1.5 M-row partition (object-dtype
    comparisons); instead the logical key is FACTORIZED to ints, the
    sort is an integer ``np.lexsort`` on (sid, ckey_code, bucket, ts),
    and the lexicographic ``url`` tie-break — which the oracle's
    ``ORDER BY warc_ts, url`` requires — is applied only INSIDE
    (group, ts) tie runs (measured ~10 s → ~0.6 s on the same frame).
    Group identity needs grouping, not ordering, so appearance-order
    factorize codes are safe; within-group order is (ts, url) exactly.
    """
    if g.empty:
        return g.drop(columns=["gb"], errors="ignore")
    idx = _gate_order_keep(
        g["sid"].to_numpy(dtype=np.int64),
        pd.factorize(g["ckey"], sort=False)[0],
        g["bucket"].to_numpy(dtype=np.int64),
        g["warc_ts"].to_numpy(dtype="datetime64[us]"),
        lambda rows: g["url"].to_numpy(dtype=object)[rows],
        specs,
    )
    out = g.iloc[idx]
    return out.drop(columns=["gb"], errors="ignore")


def _gate_order_keep(sid_np: np.ndarray, ckey_codes: np.ndarray,
                     bucket: np.ndarray, ts_dt: np.ndarray,
                     get_urls, specs: dict[int, dict]) -> np.ndarray:
    """Shared gate core -> positional indices of kept rows (in gated
    order). ``get_urls(rows)`` lazily materializes url strings for the
    tie-break rows only (both the pandas and Arrow wrappers feed it)."""
    n = len(sid_np)
    ts = ts_dt.astype(np.int64)
    nat = np.isnat(ts_dt)
    if nat.any():
        # NaT casts to int64-min (sorts FIRST); the contract — pandas
        # sort_values and the DuckDB oracle's ORDER BY — is NULLS LAST
        ts[nat] = np.iinfo(np.int64).max
    order = np.lexsort((ts, bucket, ckey_codes, sid_np))
    ss, cc, bb, tt = sid_np[order], ckey_codes[order], bucket[order], ts[order]
    new_grp = np.r_[True, (ss[1:] != ss[:-1]) | (cc[1:] != cc[:-1]) | (bb[1:] != bb[:-1])]
    # url tie-break inside equal-(group, ts) runs only
    new_run = new_grp | np.r_[True, tt[1:] != tt[:-1]]
    run_starts = np.flatnonzero(new_run)
    run_ends = np.r_[run_starts[1:], n]
    long_runs = np.flatnonzero(run_ends - run_starts > 1)
    if len(long_runs):
        need = np.concatenate([order[run_starts[ri]:run_ends[ri]]
                               for ri in long_runs])
        urls = get_urls(need)
        off = 0
        for ri in long_runs:
            s0, e0 = run_starts[ri], run_ends[ri]
            m = e0 - s0
            sl = order[s0:e0]
            order[s0:e0] = sl[np.argsort(urls[off:off + m], kind="stable")]
            off += m
    grp_start_pos = np.flatnonzero(new_grp)
    grp_sizes = np.diff(np.r_[grp_start_pos, n])
    rn = np.arange(n, dtype=np.int64) - np.repeat(grp_start_pos, grp_sizes)
    size = np.repeat(grp_sizes, grp_sizes)
    keep = np.ones(n, dtype=bool)
    for s, spec in specs.items():
        m = ss == s
        if not m.any():
            continue
        if spec["kind"] == "threshold":
            if spec["ttype"] == "suppress":
                keep[m] = size[m] <= spec["count"]
            elif spec["ttype"] == "threshold":
                # legacy type (deprecated upstream): emit every C-th
                keep[m] = (rn[m] + 1) % spec["count"] == 0
            else:  # limit
                keep[m] = rn[m] < spec["count"]
        else:  # after
            keep[m] = rn[m] >= spec["count"]
    return order[keep]


def _np_col(t: pa.Table, name: str, dtype=None) -> np.ndarray:
    arr = t[name]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = arr.to_numpy(zero_copy_only=False)
    return out if dtype is None else out.astype(dtype)


def _str_codes(t: pa.Table, name: str) -> np.ndarray:
    """Appearance-order-free integer codes for a string column — Arrow
    dictionary_encode (C++), no Python string objects. Codes only carry
    group IDENTITY (never order), so dictionary index order is fine."""
    arr = t[name]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    enc = pc.dictionary_encode(arr)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    # nulls encode as null indices -> NaN through to_numpy; pin to -1
    if codes.dtype.kind == "f":
        codes = np.where(np.isnan(codes), -1, codes)
    return codes.astype(np.int64)


def _take_urls(t: pa.Table):
    def get(rows: np.ndarray) -> np.ndarray:
        col = t["url"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return np.asarray(col.take(pa.array(rows)).to_pylist(), dtype=object)

    return get


def _gate_partition_pa(t: pa.Table, specs: dict[int, dict]) -> pa.Table:
    """Arrow-native twin of :func:`_gate_partition`: same gate core,
    but the kept rows come back via ``Table.take`` — no Python string
    objects are created except the tie-break urls."""
    if t.num_rows == 0:
        return t
    idx = _gate_order_keep(
        _np_col(t, "sid", np.int64),
        _str_codes(t, "ckey"),
        _np_col(t, "bucket", np.int64),
        _np_col(t, "warc_ts").astype("datetime64[us]"),
        _take_urls(t),
        specs,
    )
    return t.take(pa.array(idx))


class GatePlan(NamedTuple):
    """The row functions of one gate family, shared by both physical
    plans (:func:`_shuffled` and :func:`gate_in_one_task`).

    ``bypass`` keeps the rows that route without meeting their group;
    ``tag`` emits the rows that must, each carrying a ``gb`` co-location
    column; ``gate`` decides any frame of WHOLE logical groups (one
    exchange partition, or the entire stream) and returns routable rows
    without the helper columns."""

    bypass: Callable[[pa.Table], pa.Table]
    tag: Callable[[pa.Table], pa.Table]
    gate: Callable[[pa.Table], pa.Table]


def _shuffled(alerts_ds, plan: GatePlan):
    """Tagged hash exchange: bypass rows stream past it, tagged rows meet
    their group in one ``gb`` partition. The input is consumed by both
    branches — materialize it first."""
    plain = alerts_ds.map_batches(plan.bypass, batch_format="pyarrow")
    tagged = alerts_ds.map_batches(plan.tag, batch_format="pyarrow")
    gated = shuffle_groups(tagged, "gb", plan.gate, batch_format="pyarrow")
    return plain.union(gated)


def correlation_plan(rules: list[Rule]) -> GatePlan | None:
    """Threshold/after gate: uncorrelated rows bypass; correlated rows
    carry their (ckey, bucket) key. None when no rule correlates."""
    specs = corr_specs(rules)
    if not specs:
        return None
    corr_sids = pa.array(list(specs.keys()), type=pa.int64())

    def split_plain(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch["sid"], value_set=corr_sids).combine_chunks())
        )

    # modulus captured ONCE at plan build (the fused path's invariant:
    # every task must use the SAME modulus within a run — a mid-run
    # autoscale would otherwise split one logical group across two
    # partitions and double a limit-rule's budget)
    nb_run = _n_buckets()

    def split_corr(batch: pa.Table) -> pa.Table:
        # Arrow-native: wide columns (text/url) never round-trip through
        # pandas pre-shuffle — only the KEY frame does (the fused path's
        # explode_safe pattern; the old full-payload to_pandas cost
        # seconds per hot block just materializing strings)
        sub = batch.filter(pc.is_in(batch["sid"], value_set=corr_sids))
        sub = _attach_keys(sub, specs)
        kdf = sub.select(["sid", "ckey", "bucket", "warc_ts",
                          "url"]).to_pandas()
        keep = _preprune_mask(kdf, specs)
        if not keep.all():
            sub = sub.filter(pa.array(keep))
            kdf = kdf[keep]
        kdf = _attach_gb(kdf, ["sid", "ckey", "bucket"], nb=nb_run)
        return sub.append_column(
            "gb", pa.array(kdf["gb"].to_numpy(dtype=np.int64)))

    def gate(g: pa.Table) -> pa.Table:
        return _gate_partition_pa(g, specs).drop_columns(["ckey", "bucket", "gb"])

    return GatePlan(split_plain, split_corr, gate)


def apply_correlation(alerts_ds, rules: list[Rule]):
    """alerts Dataset -> gated alerts Dataset, through the tagged
    exchange (:func:`correlation_plan`). Uncorrelated rules bypass the
    shuffle. The input is consumed by two branches — materialize or
    checkpoint it first (the pipeline helpers do)."""
    plan = correlation_plan(rules)
    return alerts_ds if plan is None else _shuffled(alerts_ds, plan)


# ---------------------------------------------------------------------------
# fused correlation + xbits: ONE tagged shuffle
# ---------------------------------------------------------------------------


def can_fuse(rules: list[Rule]) -> bool:
    """Fusable when no rule needs BOTH a threshold/after gate and an
    xbits test (sequential semantics); true for typical rule sets."""
    return not any((r.threshold or r.after) and r.xbits for r in rules)


def fused_plan(rules: list[Rule]) -> GatePlan | None:
    """Correlation and xbits in one gate: each alert row is tagged
    `plain` (bypasses the exchange), `corr` (threshold/after gating) or
    `xbit` (exploded per xbit option); corr+xbit rows share one
    co-location key and are gated/resolved together. None when no rule
    correlates or carries xbits."""
    specs = corr_specs(rules)
    xspecs = xbit_specs(rules)
    if not specs and not xspecs:
        return None
    assert can_fuse(rules), "rule with both threshold/after and xbits: use two-phase"
    by_sid = {r.sid: r for r in rules}
    corr_sids = pa.array(list(specs.keys()), type=pa.int64())
    test_sids = {
        s for s, xbs in xspecs.items()
        if any(x.action in ("isset", "isnotset") for x in xbs)
    }
    noalert_sids = {s for s, xbs in xspecs.items() if by_sid[s].noalert}
    noalert_arr = pa.array(sorted(noalert_sids), type=pa.int64())
    # rows that route WITHOUT shuffling: not correlated, and either no
    # xbits at all or xbits that only set/unset (and not noalert)
    bypass_keep = pa.array(
        [
            r.sid
            for r in rules
            if r.sid not in specs
            and (r.sid not in xspecs
                 or (r.sid not in test_sids and r.sid not in noalert_sids))
        ],
        type=pa.int64(),
    )

    def bypass(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["sid"], value_set=bypass_keep))

    nb = np.uint64(_n_buckets())  # captured once at plan build — every
    # task must use the SAME modulus within a run

    def _hash_gb_arrays(*cols) -> pa.Array:
        return _gb_hash(nb, *cols)

    def _const(n: int, val, typ) -> pa.Array:
        if typ == "str":
            return pa.array([val] * n, type=pa.string())
        return pa.array(np.full(n, val, dtype=np.int64))

    helper_order = ["ckey", "bucket", "xname", "xaction", "xkey", "xexpire",
                    "kind", "gb"]

    # sid-constant columns never ride the exchange: msg / classification
    # / priority / rev are pure functions of sid (rule metadata), so the
    # tagged branch drops them pre-shuffle and re-attaches post-gate
    # from a broadcast sid-indexed map — less payload per shuffled row.
    _SID_CONST = ("msg", "classification", "priority", "rev")
    _sid_arr = np.array(sorted(by_sid), dtype=np.int64)
    _const_vals = {
        "msg": np.array([by_sid[s].msg for s in _sid_arr], dtype=object),
        "classification": np.array(
            [by_sid[s].classtype for s in _sid_arr], dtype=object
        ),
        "priority": np.array([by_sid[s].priority for s in _sid_arr],
                             dtype=np.int64),
        "rev": np.array([by_sid[s].rev for s in _sid_arr], dtype=np.int64),
    }
    def explode_safe(batch: pa.Table) -> pa.Table:
        """Arrow-native tagged explode: wide columns (text/url) never
        round-trip through pandas pre-shuffle; key-only pandas frames
        drive the pre-prune mask and gb hashes."""
        parts: list[pa.Table] = []
        base_names = [c for c in batch.column_names if c not in _SID_CONST]
        csub = batch.filter(pc.is_in(batch["sid"], value_set=corr_sids))
        if csub.num_rows:
            csub = _attach_keys(csub, specs)
            kdf = csub.select(["sid", "ckey", "bucket", "warc_ts", "url"]).to_pandas()
            keep = _preprune_mask(kdf, specs)
            if not keep.all():
                csub = csub.filter(pa.array(keep))
                kdf = kdf[keep]
            m = csub.num_rows
            csub = (
                csub.append_column("xname", _const(m, "", "str"))
                .append_column("xaction", _const(m, "", "str"))
                .append_column("xkey", _const(m, "", "str"))
                .append_column("xexpire", _const(m, -1, "int"))
                .append_column("kind", _const(m, "corr", "str"))
                .append_column(
                    "gb",
                    _hash_gb_arrays(
                        kdf["sid"].astype(str).to_numpy(dtype=object),
                        pd.util.hash_array(kdf["ckey"].to_numpy(dtype=object)),
                        kdf["bucket"].to_numpy(),
                    )
                    if m
                    else pa.array([], type=pa.int64()),
                )
            )
            parts.append(csub.select(base_names + helper_order))
        for s, xbs in xspecs.items():
            rsub = batch.filter(pc.equal(batch["sid"], s))
            if rsub.num_rows == 0:
                continue
            m = rsub.num_rows
            for xb in xbs:
                xc = _track_col(xb.track)
                if xc == "ip_pair":
                    xkey_col = _pair_key_pa(rsub)
                elif xc in rsub.column_names:
                    xkey_col = pc.fill_null(rsub[xc], "")
                else:
                    # missing track column keys to '' (one group) — see
                    # explode_xbit; keeps the two engines in agreement
                    xkey_col = _const(m, "", "str")
                t2 = (
                    rsub.append_column("ckey", _const(m, "", "str"))
                    .append_column("bucket", _const(m, -1, "int"))
                    .append_column("xname", _const(m, xb.name, "str"))
                    .append_column("xaction", _const(m, xb.action, "str"))
                    .append_column("xkey", xkey_col)
                    .append_column(
                        "xexpire",
                        _const(m, xb.expire if xb.expire is not None else -1, "int"),
                    )
                    .append_column("kind", _const(m, "xbit", "str"))
                )
                xk = np.asarray(xkey_col.to_pandas(), dtype=object)
                names = np.full(m, xb.name, dtype=object)
                t2 = t2.append_column("gb", _hash_gb_arrays(names, pd.util.hash_array(xk)))
                parts.append(t2.select(base_names + helper_order))
        if not parts:
            empty = batch.slice(0, 0)
            for cname in ["ckey", "xname", "xaction", "xkey", "kind"]:
                empty = empty.append_column(cname, pa.array([], type=pa.string()))
            for cname in ["bucket", "xexpire", "gb"]:
                empty = empty.append_column(cname, pa.array([], type=pa.int64()))
            return empty.select(base_names + helper_order)
        return pa.concat_tables(parts)

    helper_cols = ["ckey", "bucket", "xname", "xaction", "xkey", "xexpire", "kind"]

    def gate_and_resolve(g: pa.Table) -> pa.Table:
        outs = []
        corr_rows = g.filter(pc.equal(g["kind"], "corr"))
        if corr_rows.num_rows:
            outs.append(_gate_partition_pa(corr_rows, specs))
        xb_rows = g.filter(pc.equal(g["kind"], "xbit"))
        if xb_rows.num_rows:
            # set/unset rows contribute state inside the resolver; only
            # isset/isnotset keeps are emitted. Set-only rules' own
            # routing happens on the bypass branch (no duplicates).
            res = _resolve_partition_pa(xb_rows)
            if len(noalert_arr) and res.num_rows:
                # noalert TEST rules evaluate (state consumed) but never
                # route — flagship.py's documented contract
                res = res.filter(pc.invert(pc.is_in(
                    res["sid"], value_set=noalert_arr).combine_chunks()))
            outs.append(res)
        out = pa.concat_tables(outs) if outs else g.slice(0, 0)
        return out.drop_columns(
            [c for c in helper_cols + ["gb"] if c in out.column_names]
        )

    _CANON = ["url", "warc_ts", "host", "lang", "text", "sid", "rev",
              "msg", "classification", "priority", "src_ip", "dst_ip",
              "src_port", "hash_value", "extracted", "proto", "part_id",
              "country", "blacklisted", "intel_hit"]

    def reattach(t: pa.Table) -> pa.Table:
        """Re-attach the sid-constant columns dropped pre-shuffle and
        restore the canonical column order + types (matching the bypass
        branch block-for-block)."""
        from .route import normalize_alerts

        sidv = t["sid"]
        sid = np.asarray(
            sidv.combine_chunks() if isinstance(sidv, pa.ChunkedArray) else sidv,
            dtype=np.int64,
        )
        idx = np.searchsorted(_sid_arr, sid)
        for name in _SID_CONST:
            vals = _const_vals[name][idx]
            typ = pa.string() if name in ("msg", "classification") else pa.int64()
            t = t.append_column(name, pa.array(vals.tolist(), type=typ))
        cols = t.column_names
        order = [c for c in _CANON if c in cols] + [c for c in cols if c not in _CANON]
        return normalize_alerts(t.select(order))

    def gate(g: pa.Table) -> pa.Table:
        return reattach(gate_and_resolve(g))

    return GatePlan(bypass, explode_safe, gate)


def apply_correlation_fused(alerts_ds, rules: list[Rule]):
    """Single-shuffle correlation (:func:`fused_plan` through the tagged
    exchange). Replaces apply_correlation→apply_xbits (2 shuffles, ~5
    branch scans) with 1 shuffle + 2 scans — the fixed-overhead
    reduction that makes small-cluster → big-cluster scaling efficient.

    Input must be materialized (it is consumed twice)."""
    plan = fused_plan(rules)
    return alerts_ds if plan is None else _shuffled(alerts_ds, plan)


# ---------------------------------------------------------------------------
# xbits — cross-event flags as a co-partitioned temporal join
# ---------------------------------------------------------------------------


def xbit_specs(rules: list[Rule]) -> dict[int, list]:
    return {r.sid: list(r.xbits) for r in rules if r.xbits}


def _resolve_partition(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized xbits state machine over one co-location partition.

    Within each (xname, xkey), rows sorted by (ts, action-order, url)
    with set/unset before tests at equal ts. A test row keeps iff the
    most recent `set` is active: set_ts <= ts (< set_ts + expire) and no
    later `unset`. Equal-expire windows make most-recent-set equivalent
    to any-active-set (monotone windows)."""
    if g.empty:
        return g
    # null xkeys would be silently EXCLUDED by the keyed-Series groupby
    # ffills below (dropna), losing their state and diverging from the
    # Arrow twin (which groups null codes); '' matches both engines
    g = g.assign(xkey=g["xkey"].fillna(""))
    order = {"set": 0, "unset": 1, "isset": 2, "isnotset": 3}
    g = g.assign(_ord=g["xaction"].map(order))
    g = g.sort_values(["xname", "xkey", "warc_ts", "_ord", "url"], kind="mergesort")
    # resolution-proof µs epoch (pandas may carry ns OR us datetime64);
    # NaT would cast to int64-min — pin to max to match the NULLS-LAST
    # ordering sort_values just applied
    _ts_dt = g["warc_ts"].to_numpy(dtype="datetime64[us]")
    _ts_i = _ts_dt.astype(np.int64)
    _ts_i[np.isnat(_ts_dt)] = np.iinfo(np.int64).max
    ts = pd.Series(_ts_i, index=g.index)
    keys = g[["xname", "xkey"]]

    is_set = (g["xaction"] == "set").to_numpy()
    is_unset = (g["xaction"] == "unset").to_numpy()
    set_ts = pd.Series(np.where(is_set, ts, np.nan), index=g.index)
    unset_ts = pd.Series(np.where(is_unset, ts, np.nan), index=g.index)
    last_set = set_ts.groupby([keys["xname"], keys["xkey"]], sort=False).ffill()
    last_unset = unset_ts.groupby([keys["xname"], keys["xkey"]], sort=False).ffill()
    exp = g["xexpire"].astype("int64").to_numpy()
    # expire comes from the SET row; propagate set-row expire forward
    set_exp = pd.Series(np.where(is_set, exp.astype(float), np.nan), index=g.index)
    last_exp = set_exp.groupby([keys["xname"], keys["xkey"]], sort=False).ffill()
    active_until = np.where(
        np.isnan(last_set.to_numpy()),
        -np.inf,
        np.where(
            last_exp.to_numpy() >= 0,
            last_set.to_numpy() + last_exp.to_numpy() * 1_000_000,
            np.inf,
        ),
    )
    cleared = (~np.isnan(last_unset.to_numpy())) & (
        last_unset.to_numpy() >= last_set.to_numpy()
    )
    active = (
        (~np.isnan(last_set.to_numpy()))
        & (ts.to_numpy() < active_until)
        & (~cleared)
    )
    act = g["xaction"].to_numpy()
    keep = np.where(act == "isset", active, np.where(act == "isnotset", ~active, False))
    return g[keep].drop(columns=["_ord"])


_XB_ORD = {"set": 0, "unset": 1, "isset": 2, "isnotset": 3}


def _resolve_partition_pa(t: pa.Table) -> pa.Table:
    """Arrow-native twin of :func:`_resolve_partition` (same state
    machine, differential-tested): per-(xname, xkey) forward-fill is a
    segment cummax over row indices instead of a pandas groupby ffill,
    and kept rows come back via ``Table.take`` — no object columns are
    materialized except tie-break urls."""
    n = t.num_rows
    if n == 0:
        return t
    xn = _str_codes(t, "xname")
    xk = _str_codes(t, "xkey")
    ts_dt = _np_col(t, "warc_ts").astype("datetime64[us]")
    ts = ts_dt.astype(np.int64)
    ts[np.isnat(ts_dt)] = np.iinfo(np.int64).max  # NULLS LAST
    act_str = t["xaction"]
    if isinstance(act_str, pa.ChunkedArray):
        act_str = act_str.combine_chunks()
    ordv = np.select(
        [pc.equal(act_str, a).to_numpy(zero_copy_only=False)
         for a in _XB_ORD],
        list(_XB_ORD.values()),
    ).astype(np.int64)
    order = np.lexsort((ordv, ts, xk, xn))
    sxn, sxk, sts, sord = xn[order], xk[order], ts[order], ordv[order]
    new_grp = np.r_[True, (sxn[1:] != sxn[:-1]) | (sxk[1:] != sxk[:-1])]
    # url tie-break inside fully-equal (group, ts, action) runs — the
    # pandas twin's 5th mergesort key
    new_run = new_grp | np.r_[True, (sts[1:] != sts[:-1]) | (sord[1:] != sord[:-1])]
    run_starts = np.flatnonzero(new_run)
    run_ends = np.r_[run_starts[1:], n]
    long_runs = np.flatnonzero(run_ends - run_starts > 1)
    if len(long_runs):
        get_urls = _take_urls(t)
        need = np.concatenate([order[run_starts[ri]:run_ends[ri]]
                               for ri in long_runs])
        urls = get_urls(need)
        off = 0
        for ri in long_runs:
            s0, e0 = run_starts[ri], run_ends[ri]
            m = e0 - s0
            sl = order[s0:e0]
            order[s0:e0] = sl[np.argsort(urls[off:off + m], kind="stable")]
            off += m
        sts = ts[order]
        sord = ordv[order]
    grp_start = np.repeat(np.flatnonzero(new_grp),
                          np.diff(np.r_[np.flatnonzero(new_grp), n]))
    idxs = np.arange(n, dtype=np.int64)
    is_set = sord == 0
    is_unset = sord == 1
    last_set = np.maximum.accumulate(np.where(is_set, idxs, -1))
    last_unset = np.maximum.accumulate(np.where(is_unset, idxs, -1))
    valid_set = last_set >= grp_start
    valid_unset = last_unset >= grp_start
    set_ts = sts[np.maximum(last_set, 0)]
    unset_ts = sts[np.maximum(last_unset, 0)]
    exp = _np_col(t, "xexpire", np.int64)[order].astype(np.float64)
    exp_at_set = exp[np.maximum(last_set, 0)]
    active_until = np.where(
        ~valid_set,
        -np.inf,
        np.where(exp_at_set >= 0,
                 set_ts.astype(np.float64) + exp_at_set * 1_000_000,
                 np.inf),
    )
    cleared = valid_unset & valid_set & (unset_ts >= set_ts)
    active = valid_set & (sts < active_until) & ~cleared
    keep = np.where(sord == 2, active, np.where(sord == 3, ~active, False))
    return t.take(pa.array(order[keep]))


def xbits_plan(rules: list[Rule]) -> GatePlan | None:
    """Xbits gate (reference ``src/xbit-mmap.c`` analogue): `set`/`unset`
    rules contribute state events; `isset`/`isnotset` rules keep rows
    only when the bit is active at their event time, evaluated per (bit
    name, track key) in event-time order. Rows of rules that carry no
    xbits, or only set/unset options, route on the bypass; `noalert`
    rules contribute state but route nothing. None when no rule carries
    xbits."""
    specs = xbit_specs(rules)
    if not specs:
        return None
    by_sid = {r.sid: r for r in rules}
    test_sids = {
        s for s, xbs in specs.items() if any(x.action in ("isset", "isnotset") for x in xbs)
    }
    noalert_sids = {s for s, xbs in specs.items() if by_sid[s].noalert}
    # every xbit sid that does NOT route its own row: test rules route
    # only the resolver's keeps, noalert rules never route
    held = pa.array(sorted(test_sids | noalert_sids), type=pa.int64())
    noalert_arr = pa.array(sorted(noalert_sids), type=pa.int64())
    # same plan-build modulus capture as the fused/correlation plans
    nb_u64 = np.uint64(_n_buckets())

    def bypass(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch["sid"], value_set=held).combine_chunks())
        )

    def explode_xbit(batch: pa.Table) -> pa.Table:
        """One row per (alert row, xbit option) — Arrow-native per sid:
        wide columns never round-trip through pandas (the fused path's
        explode_safe xbit loop; only the key-sized xkey array does, for
        the gb hash)."""
        parts: list[pa.Table] = []
        for s, xbs in specs.items():
            rsub = batch.filter(pc.equal(batch["sid"], s))
            m = rsub.num_rows
            if m == 0:
                continue
            for xb in xbs:
                xc = _track_col(xb.track)
                if xc == "ip_pair":
                    xkey_col = _pair_key_pa(rsub)
                elif xc in rsub.column_names:
                    xkey_col = pc.fill_null(rsub[xc], "")
                    if isinstance(xkey_col, pa.ChunkedArray):
                        xkey_col = xkey_col.combine_chunks()
                else:
                    # missing track column keys to '' (one group) — the
                    # _track_col contract; the old host fallback made
                    # this path disagree with the correlation family
                    xkey_col = pa.array([""] * m, type=pa.string())
                xk = np.asarray(xkey_col.to_pandas(), dtype=object)
                names = np.full(m, xb.name, dtype=object)
                t2 = (
                    rsub.append_column(
                        "xname", pa.array([xb.name] * m, type=pa.string()))
                    .append_column(
                        "xaction",
                        pa.array([xb.action] * m, type=pa.string()))
                    .append_column("xkey", xkey_col)
                    .append_column("xexpire", pa.array(np.full(
                        m, xb.expire if xb.expire is not None else -1,
                        dtype=np.int64)))
                    .append_column("gb", _gb_hash(
                        nb_u64, names, pd.util.hash_array(xk)))
                )
                parts.append(t2)
        if not parts:
            empty = batch.slice(0, 0)
            for cname in ("xname", "xaction", "xkey"):
                empty = empty.append_column(
                    cname, pa.array([], type=pa.string()))
            for cname in ("xexpire", "gb"):
                empty = empty.append_column(
                    cname, pa.array([], type=pa.int64()))
            return empty
        return pa.concat_tables(parts)

    def resolve(g: pa.Table) -> pa.Table:
        out = _resolve_partition_pa(g).drop_columns(
            ["xname", "xaction", "xkey", "xexpire", "gb"])
        if len(noalert_arr) and out.num_rows:
            # noalert TEST rules evaluate (their state was consumed in
            # the resolver) but never route
            out = out.filter(pc.invert(pc.is_in(
                out["sid"], value_set=noalert_arr).combine_chunks()))
        return out

    return GatePlan(bypass, explode_xbit, resolve)


def apply_xbits(alerts_ds, rules: list[Rule]):
    """Two-pass xbits (:func:`xbits_plan` through the tagged exchange).
    The input Dataset is consumed by two branches — materialize or
    checkpoint it first (the pipeline helpers do)."""
    plan = xbits_plan(rules)
    return alerts_ds if plan is None else _shuffled(alerts_ds, plan)


def gate_in_one_task(alerts_ds, rules: list[Rule]):
    """Gate a stream small enough for ONE block in one task: the same
    row functions as the exchange plans (:func:`fused_plan`, or
    :func:`correlation_plan` then :func:`xbits_plan` when a rule mixes
    both families), with every logical group already whole in the one
    table — no sort-shuffle, no union, one output block."""
    from .route import normalize_alerts

    if can_fuse(rules):
        plans = [fused_plan(rules)]
    else:
        plans = [correlation_plan(rules), xbits_plan(rules)]
    plans = [p for p in plans if p is not None]

    def gate_all(t: pa.Table) -> pa.Table:
        for plan in plans:
            # the fused gate emits the canonical column order and types;
            # align both halves before concatenating
            bypassed = normalize_alerts(plan.bypass(t))
            gated = normalize_alerts(plan.gate(plan.tag(t)))
            t = pa.concat_tables([bypassed, gated.select(bypassed.column_names)])
        return t

    return alerts_ds.repartition(1).map_batches(
        gate_all, batch_size=None, batch_format="pyarrow")
