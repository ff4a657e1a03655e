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
  families. Only the exchange differs between the physical plans. Both
  build the plan list once per Ray session and rule set and ship it to
  the workers as one object (:func:`_shipped_plans`); their UDFs hold
  only its ref.
* The caller materializes/checkpoints the alert stream once before the
  correlation branches (alerts ≪ input) so the expensive match stage is
  never re-executed per branch, and picks the plan by the stream's
  size (Ray's plan metadata: a materialized stream's, or a checkpoint
  read's footers): a stream at or under Ray's ``target_max_block_size``
  is gated in ONE task (:func:`gate_in_one_task`: one batch holds every
  logical group whole, so there is no sort-shuffle and no union); a
  larger one takes the tagged hash exchange
  (:func:`apply_correlation_fused`: :func:`_shuffled` once per plan).
* The exchange is ONE hash shuffle per plan, keyed on
  ``gb = hash(logical group key) % NB`` (:func:`_gb_hash`, one hash for
  both families: crc32 of the distinct key strings, sid and bucket
  mixed in as integers) — logical groups are co-located into NB coarse
  partitions and the gate runs vectorized per partition (no
  per-tiny-group Python call overhead).
* Every kernel runs on Arrow and numpy alone (no pandas): keys come from
  ``if_else``/``index_in``, group identity from dictionary codes, and
  the url tie-break is one Arrow sort with nulls last.
* Tagged rows carry every column, so both physical plans route a row
  with its own values (msg, classification, priority, rev included),
  in the input's column order and types.
* Hot-host skew: the correlation tag runs the gate itself
  (:func:`_gate_partition_pa`) over each input batch with the `limit`
  specs only, so it keeps at most C rows per (sid,key,bucket) per batch
  before the shuffle — a host with 10^7 hits in one bucket ships
  O(C·num_batches) rows — and passes every other row through.

The pandas reference twins of the gate kernels, which the tests compare
the Arrow-native kernels against, live in ``tests/gate_oracle.py``.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _n_buckets, cluster_cpus, shuffle_groups
from ..rules import Rule
from .ship import fetch, ship


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
    def side(name: str):
        if name in tbl.column_names:
            return pc.fill_null(tbl[name].combine_chunks(), "")
        return pa.repeat(pa.scalar("", pa.string()), tbl.num_rows)

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


# bucket of a null warc_ts: one shared group per (sid, ckey), apart from
# every real bucket (|ts_us // (seconds * 10^6)| < 10^13), as a NULL
# does in DuckDB's PARTITION BY
_NULL_BUCKET = np.iinfo(np.int64).max


def _attach_keys(batch: pa.Table, specs: dict[int, dict]) -> pa.Table:
    """Add ckey (track value) and bucket (``floor(epoch_s / seconds)``)
    columns per row, by sid; a row whose sid has no spec keys to ''.

    Vectorized in Arrow: one ``if_else`` per distinct track column (few),
    the seconds of each row's spec through ``index_in``."""
    sid = batch["sid"].combine_chunks()
    spec_sids = pa.array(list(specs), type=pa.int64())
    by_track: dict[str, list[int]] = {}
    for s, spec in specs.items():
        by_track.setdefault(spec["track"], []).append(s)
    ckey = pa.repeat(pa.scalar("", pa.string()), batch.num_rows)
    for track, sids in by_track.items():
        if track == "ip_pair":
            vals = _pair_key_pa(batch)
        elif track in batch.column_names:
            vals = pc.cast(batch[track].combine_chunks(), pa.string())
        else:
            continue  # missing column keys to '' (the _track_col contract)
        ckey = pc.if_else(pc.is_in(sid, value_set=pa.array(sids, pa.int64())),
                          vals, ckey)
    # seconds -> µs per spec; the last slot serves sids with no spec
    span_us = np.array([sp["seconds"] for sp in specs.values()] + [1],
                       dtype=np.int64) * 1_000_000
    slot = pc.fill_null(pc.index_in(sid, value_set=spec_sids), len(specs))
    ts = pc.cast(pc.cast(batch["warc_ts"], pa.timestamp("us")), pa.int64())
    bucket = np.floor_divide(pc.fill_null(ts, 0).to_numpy(),
                             span_us[slot.to_numpy()])
    bucket[pc.is_null(ts).to_numpy()] = _NULL_BUCKET
    return batch.append_column(
        "ckey", pc.fill_null(ckey, "")
    ).append_column("bucket", pa.array(bucket))


def _gb_hash(nb: np.uint64, *cols) -> pa.Array:
    """Coarse co-location key of a logical group key's Arrow columns,
    % nb: a string column hashes its distinct values (crc32), an integer
    column mixes in as is. Only controls WHICH partition a logical group
    lands in, so the one requirement is that every worker process of a
    run agrees — hence no salted ``hash()``."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):  # wraparound is the point
        for c in cols:
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            if pa.types.is_integer(c.type):
                v = c.to_numpy().astype(np.uint64)
            else:
                enc = pc.dictionary_encode(c, null_encoding="encode")
                crc = np.array([zlib.crc32(b or b"") for b in
                                pc.cast(enc.dictionary, pa.binary()).to_pylist()],
                               dtype=np.uint64)
                v = crc[enc.indices.to_numpy()]
            h = h * np.uint64(31) + v
    return pa.array((h % nb).astype(np.int64))


def _url_tiebreak(order: np.ndarray, new_run: np.ndarray, get_urls) -> None:
    """Sort ``order`` by url, in place, inside each run of tied sort keys
    (``new_run`` marks the first row of a run), null urls last — DuckDB's
    ``ORDER BY warc_ts, url``: the lexicographic url tie-break, paid only
    where keys tie, in ONE stable Arrow sort by (run, url). ``get_urls``
    returns the urls of the given rows as an Arrow string array. Every
    key is equal inside a run, so arrays gathered by ``order`` before the
    call stay valid."""
    run_len = np.diff(np.r_[np.flatnonzero(new_run), len(order)])
    in_long = np.repeat(run_len > 1, run_len)
    if not in_long.any():
        return
    pos = np.flatnonzero(in_long)
    rows = order[pos]
    run = np.repeat(np.arange(len(run_len)), run_len)[pos]
    perm = pc.sort_indices(
        pa.table({"run": run, "url": get_urls(rows)}),
        sort_keys=[("run", "ascending"), ("url", "ascending")],
        null_placement="at_end")
    order[pos] = rows[perm.to_numpy()]


def _gate_order_keep(sid_np: np.ndarray, ckey_codes: np.ndarray,
                     bucket: np.ndarray, ts_dt: np.ndarray,
                     get_urls, specs: dict[int, dict]) -> np.ndarray:
    """Shared gate core -> positional indices of kept rows (in gated
    order); rows of a sid not in ``specs`` are all kept.
    ``get_urls(rows)`` gives the urls of the tie-break rows only, as an
    Arrow array (both the pandas and Arrow wrappers feed it)."""
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
    enc = pc.dictionary_encode(arr, null_encoding="encode")
    return enc.indices.to_numpy().astype(np.int64)


def _take_urls(t: pa.Table):
    def get(rows: np.ndarray) -> np.ndarray:
        col = t["url"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col.take(pa.array(rows))

    return get


def _gate_partition_pa(t: pa.Table, specs: dict[int, dict]) -> pa.Table:
    """Arrow-native threshold/after gate (twin of the pandas
    ``_gate_partition`` in ``tests/gate_oracle.py``): same gate core,
    but the kept rows come back via ``Table.take`` — no Python string
    objects are created."""
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
    limit_specs = {s: sp for s, sp in specs.items()
                   if sp["kind"] == "threshold" and sp["ttype"] == "limit"}
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
        sub = _attach_keys(
            batch.filter(pc.is_in(batch["sid"], value_set=corr_sids)), specs)
        if limit_specs:
            # skew guard: the gate itself over this batch, limit sids
            # only — at most C rows per (sid, ckey, bucket) ship, a
            # superset of the final winners; other sids pass through
            sub = _gate_partition_pa(sub, limit_specs)
        return sub.append_column(
            "gb", _gb_hash(nb, sub["ckey"], sub["sid"], sub["bucket"]))

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
    materialized."""
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
        """One row per (alert row, xbit option), Arrow-native per sid."""
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
                    xkey_col = pa.repeat(pa.scalar("", pa.string()), m)
                expire = xb.expire if xb.expire is not None else -1
                parts.append(
                    rsub.append_column("xname", pa.repeat(
                        pa.scalar(xb.name, pa.string()), m))
                    .append_column("xaction", pa.repeat(
                        pa.scalar(xb.action, pa.string()), m))
                    .append_column("xkey", xkey_col)
                    .append_column("xexpire", pa.repeat(
                        pa.scalar(expire, pa.int64()), m)))
        t = pa.concat_tables(parts)
        return t.append_column("gb", _gb_hash(nb, t["xname"], t["xkey"]))

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


def _shipped_plans(rules: list[Rule]):
    """The ObjectRef of :func:`gate_plans`, built and put once per Ray
    session and rule set (``ship.ship``, keyed on the loaded ``Rule``
    objects). The plans' bucket modulus is captured once with them, so
    every task of every execution that uses the ref agrees on it."""
    return ship(("gate", *map(id, rules)), lambda: gate_plans(rules),
                keep=rules)


# the shipped plans' row functions, as module-level UDFs over the ref
# (their names are the operators' names: ``MapBatches(gate)``, ...)
def bypass(plans_ref, i: int, batch: pa.Table) -> pa.Table:
    return fetch(plans_ref)[i].bypass(batch)


def tag(plans_ref, i: int, batch: pa.Table) -> pa.Table:
    return fetch(plans_ref)[i].tag(batch)


def gate(plans_ref, i: int, g: pa.Table) -> pa.Table:
    return fetch(plans_ref)[i].gate(g)


def gate_all(plans_ref, t: pa.Table) -> pa.Table:
    """Every plan over one table that holds every logical group whole."""
    for plan in fetch(plans_ref):
        t = pa.concat_tables([plan.bypass(t), plan.gate(plan.tag(t))])
    return t


def gate_in_one_task(alerts_ds, rules: list[Rule], rows: int):
    """Gate a stream of known size and rows, small enough for ONE block,
    in one task: the row functions of :func:`gate_plans`, with every
    logical group already whole in the one table — no sort-shuffle, no
    union, one output block. Every column stays in place and keeps its
    type. The task gets the plans through their shipped ref
    (:func:`_shipped_plans`), not by value.

    ``rows`` (at least the stream's row count: Ray's plan metadata, or
    the footers of a checkpoint read) as the batch size makes Ray bundle
    every block into one task and one batch, without an execution that
    gathers the blocks first. Ray does not fuse a batch-sized map into
    an operator that can change the row count (a read, a filter), so a
    read upstream still runs in its own tasks."""
    return alerts_ds.map_batches(partial(gate_all, _shipped_plans(rules)),
                                 batch_size=max(rows, 1),
                                 batch_format="pyarrow")


def _shuffle_width() -> int:
    return max(8, 2 * cluster_cpus())


def apply_correlation_fused(alerts_ds, rules: list[Rule]):
    """Gate a stream through the tagged exchange, one shuffle per plan of
    :func:`gate_plans` (one for the fused plan, so 1 shuffle + 2 scans in
    place of correlation then xbits). Each plan's input is materialized
    first (the exchange consumes it twice) and, when fragmented (the
    match stage emits many near-empty filtered blocks, which cost ~10x
    in shuffle overhead), coalesced to ``_shuffle_width()`` blocks.
    Each plan's bypass, tag and gate UDFs reach it through the shipped
    plans' ref (:func:`_shipped_plans`)."""
    width = _shuffle_width()
    ref = _shipped_plans(rules)
    for i in range(len(fetch(ref))):  # the driver gets the plans once too
        plan = GatePlan(partial(bypass, ref, i), partial(tag, ref, i),
                        partial(gate, ref, i))
        alerts_ds = alerts_ds.materialize()
        if alerts_ds.num_blocks() > 2 * width:
            # only pay the coalesce when the filtered stream really is
            # fragmented (a footer-planned read is max(read tasks, CPUs)
            # blocks, plus the cuts past target_max_block_size)
            alerts_ds = alerts_ds.repartition(width).materialize()
        alerts_ds = _shuffled(alerts_ds, plan)
    return alerts_ds
