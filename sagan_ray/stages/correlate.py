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
  functions built once per rule set (:func:`correlation_plan`,
  :func:`xbits_plan`); :func:`fused_plan` composes the two into one
  plan. :func:`gate_plans` is the ONE plan list both physical plans
  run: ``[fused]``, or ``[correlation, xbits]`` when a rule mixes the
  families. Only the exchange differs between the physical plans.
* The caller materializes/checkpoints the alert stream once before the
  correlation branches (alerts ≪ input) so the expensive match stage is
  never re-executed per branch, and picks the plan by the stream's
  size: a stream at or under Ray's ``target_max_block_size`` is gated
  in ONE task (:func:`gate_in_one_task`: one block holds every logical
  group whole, so there is no sort-shuffle and no union); a larger one
  takes the tagged hash exchange (:func:`apply_correlation_fused`:
  :func:`_shuffled` once per plan).
* The exchange is ONE hash shuffle per plan, keyed on
  ``gb = hash(logical group key) % NB`` — logical groups are co-located
  into NB coarse partitions and the gate runs vectorized per partition
  (no per-tiny-group Python call overhead).
* Tagged rows carry every column, so both physical plans route a row
  with its own values (msg, classification, priority, rev included),
  in the input's column order and types.
* Hot-host skew: a batch-local pre-prune keeps at most C rows per
  (sid,key,bucket) per input batch for `limit` rules before the shuffle,
  so a host with 10^7 hits in one bucket ships O(C·num_batches) rows.

The pandas reference twins of the gate kernels, which the tests compare
the Arrow-native kernels against, live in ``tests/gate_oracle.py``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _n_buckets, shuffle_groups
from ..rules import Rule


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
    """Coarse co-location key of a logical group key's columns (string
    columns as object arrays): vectorized siphash chain, % nb. Only
    controls WHICH partition a logical group lands in — consistency
    within a run is the only requirement."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h = h * np.uint64(31) + pd.util.hash_array(np.asarray(c))
    return pa.array((h % nb).astype(np.int64))


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


def _url_tiebreak(order: np.ndarray, new_run: np.ndarray, get_urls) -> None:
    """Sort ``order`` by url, in place, inside each run of tied sort keys
    (``new_run`` marks the first row of a run): the lexicographic url
    tie-break, paid only where keys tie. Every key is equal inside a
    run, so arrays gathered by ``order`` before the call stay valid."""
    run_starts = np.flatnonzero(new_run)
    run_ends = np.r_[run_starts[1:], len(order)]
    long_runs = np.flatnonzero(run_ends - run_starts > 1)
    if not len(long_runs):
        return
    urls = get_urls(np.concatenate([order[run_starts[ri]:run_ends[ri]]
                                    for ri in long_runs]))
    off = 0
    for ri in long_runs:
        s0, e0 = run_starts[ri], run_ends[ri]
        order[s0:e0] = order[s0:e0][np.argsort(urls[off:off + e0 - s0],
                                               kind="stable")]
        off += e0 - s0


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
    _url_tiebreak(order, new_grp | np.r_[True, tt[1:] != tt[:-1]], get_urls)
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
    """Arrow-native threshold/after gate (twin of the pandas
    ``_gate_partition`` in ``tests/gate_oracle.py``): same gate core,
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


# helper columns each family's tag adds next to ``gb``
_CORR_KEYS = ["ckey", "bucket"]
_XBIT_KEYS = ["xname", "xaction", "xkey", "xexpire"]


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
    # modulus captured ONCE at plan build: every task must use the SAME
    # modulus within a run — a mid-run autoscale would otherwise split
    # one logical group across two partitions and double a limit-rule's
    # budget
    nb = np.uint64(_n_buckets())

    def bypass(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch["sid"], value_set=corr_sids).combine_chunks())
        )

    def tag(batch: pa.Table) -> pa.Table:
        # Arrow-native: wide columns (text/url) never round-trip through
        # pandas — only the key frame does, for the pre-prune and gb
        sub = batch.filter(pc.is_in(batch["sid"], value_set=corr_sids))
        sub = _attach_keys(sub, specs)
        kdf = sub.select(["sid", "ckey", "bucket", "warc_ts",
                          "url"]).to_pandas()
        keep = _preprune_mask(kdf, specs)
        if not keep.all():
            sub = sub.filter(pa.array(keep))
            kdf = kdf[keep]
        return sub.append_column(
            "gb", _gb_hash(nb, kdf["ckey"], kdf["sid"], kdf["bucket"]))

    def gate(g: pa.Table) -> pa.Table:
        return _gate_partition_pa(g, specs).drop_columns(_CORR_KEYS + ["gb"])

    return GatePlan(bypass, tag, gate)


# ---------------------------------------------------------------------------
# xbits — cross-event flags as a co-partitioned temporal join
# ---------------------------------------------------------------------------


def xbit_specs(rules: list[Rule]) -> dict[int, list]:
    return {r.sid: list(r.xbits) for r in rules if r.xbits}


_XB_ORD = {"set": 0, "unset": 1, "isset": 2, "isnotset": 3}


def _resolve_partition_pa(t: pa.Table) -> pa.Table:
    """Arrow-native xbits resolver (twin of the pandas
    ``_resolve_partition`` in ``tests/gate_oracle.py``: same state
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
    _url_tiebreak(
        order,
        new_grp | np.r_[True, (sts[1:] != sts[:-1]) | (sord[1:] != sord[:-1])],
        _take_urls(t))
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
    noalert_sids = {s for s in specs if by_sid[s].noalert}
    # every xbit sid that does NOT route its own row: test rules route
    # only the resolver's keeps, noalert rules never route
    held = pa.array(sorted(test_sids | noalert_sids), type=pa.int64())
    noalert_arr = pa.array(sorted(noalert_sids), type=pa.int64())
    # same plan-build modulus capture as the correlation plan
    nb = np.uint64(_n_buckets())

    def bypass(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch["sid"], value_set=held).combine_chunks())
        )

    def tag(batch: pa.Table) -> pa.Table:
        """One row per (alert row, xbit option) — Arrow-native per sid:
        wide columns never round-trip through pandas (only the key-sized
        xkey array does, for the gb hash)."""
        parts: list[pa.Table] = []
        for s, xbs in specs.items():
            rsub = batch.filter(pc.equal(batch["sid"], s))
            m = rsub.num_rows
            for xb in xbs:
                xc = _track_col(xb.track)
                if xc == "ip_pair":
                    xkey_col = _pair_key_pa(rsub)
                elif xc in rsub.column_names:
                    xkey_col = pc.fill_null(rsub[xc], "").combine_chunks()
                else:
                    # missing track column keys to '' (one group) — the
                    # _track_col contract, shared with the correlation
                    # family
                    xkey_col = pa.array([""] * m, type=pa.string())
                names = np.full(m, xb.name, dtype=object)
                parts.append(
                    rsub.append_column("xname", pa.array(names, type=pa.string()))
                    .append_column(
                        "xaction", pa.array([xb.action] * m, type=pa.string()))
                    .append_column("xkey", xkey_col)
                    .append_column("xexpire", pa.array(np.full(
                        m, xb.expire if xb.expire is not None else -1,
                        dtype=np.int64)))
                    .append_column("gb", _gb_hash(
                        nb, names, xkey_col.to_numpy(zero_copy_only=False)))
                )
        return pa.concat_tables(parts)

    def gate(g: pa.Table) -> pa.Table:
        out = _resolve_partition_pa(g).drop_columns(_XBIT_KEYS + ["gb"])
        # noalert TEST rules evaluate (their state was consumed in the
        # resolver) but never route
        return out.filter(pc.invert(pc.is_in(
            out["sid"], value_set=noalert_arr).combine_chunks()))

    return GatePlan(bypass, tag, gate)


# ---------------------------------------------------------------------------
# fused correlation + xbits: ONE tagged shuffle
# ---------------------------------------------------------------------------


def can_fuse(rules: list[Rule]) -> bool:
    """Fusable when no rule needs BOTH a threshold/after gate and an
    xbits test (sequential semantics); true for typical rule sets."""
    return not any((r.threshold or r.after) and r.xbits for r in rules)


def fused_plan(rules: list[Rule]) -> GatePlan | None:
    """Correlation and xbits in one gate, composed from
    :func:`correlation_plan` and :func:`xbits_plan`: a row bypasses when
    both families' bypasses keep it; the tag is both families' tagged
    rows, each half null-filling the other's key columns; the gate
    splits on ``xname`` being null and runs each family's own gate.
    Valid only for a rule set that :func:`can_fuse`. None when no rule
    correlates or carries xbits."""
    corr, xb = correlation_plan(rules), xbits_plan(rules)
    if corr is None or xb is None:
        return corr or xb

    def bypass(batch: pa.Table) -> pa.Table:
        return xb.bypass(corr.bypass(batch))

    def tag(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([corr.tag(batch), xb.tag(batch)],
                                promote_options="default")

    def gate(g: pa.Table) -> pa.Table:
        is_xbit = pc.is_valid(g["xname"])
        return pa.concat_tables([
            corr.gate(g.filter(pc.invert(is_xbit)).drop_columns(_XBIT_KEYS)),
            xb.gate(g.filter(is_xbit).drop_columns(_CORR_KEYS)),
        ])

    return GatePlan(bypass, tag, gate)


def gate_plans(rules: list[Rule]) -> list[GatePlan]:
    """The gate's plans in the order they run, for both physical plans:
    ``[fused]``, or ``[correlation, xbits]`` when a rule mixes the
    families (threshold first, then xbits). Empty when no rule
    correlates or carries xbits."""
    if can_fuse(rules):
        plans = [fused_plan(rules)]
    else:
        plans = [correlation_plan(rules), xbits_plan(rules)]
    return [p for p in plans if p is not None]


def gate_in_one_task(alerts_ds, rules: list[Rule]):
    """Gate a stream small enough for ONE block in one task: the row
    functions of :func:`gate_plans`, with every logical group already
    whole in the one table — no sort-shuffle, no union, one output
    block. Every column stays in place and keeps its type."""
    plans = gate_plans(rules)

    def gate_all(t: pa.Table) -> pa.Table:
        for plan in plans:
            t = pa.concat_tables([plan.bypass(t), plan.gate(plan.tag(t))])
        return t

    return alerts_ds.repartition(1).map_batches(
        gate_all, batch_size=None, batch_format="pyarrow")


def _shuffle_width() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(8, 2 * cpus)


def apply_correlation_fused(alerts_ds, rules: list[Rule]):
    """Gate a stream through the tagged exchange, one shuffle per plan of
    :func:`gate_plans` (one for the fused plan, so 1 shuffle + 2 scans in
    place of correlation then xbits). Each plan's input is materialized
    first (the exchange consumes it twice) and, when fragmented (the
    match stage emits many near-empty filtered blocks, which cost ~10x
    in shuffle overhead), coalesced to ``_shuffle_width()`` blocks."""
    width = _shuffle_width()
    for plan in gate_plans(rules):
        alerts_ds = alerts_ds.materialize()
        if alerts_ds.num_blocks() > 2 * width:
            # only pay the coalesce when the filtered stream really is
            # fragmented (reads with override_num_blocks never are)
            alerts_ds = alerts_ds.repartition(width).materialize()
        alerts_ds = _shuffled(alerts_ds, plan)
    return alerts_ds
