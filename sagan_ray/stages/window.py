"""Windowed / per-key stream operators over coarse co-location buckets.

``grouped_apply`` is the scale-shaped replacement for
``groupby(keys).map_groups(fn_per_group)``: logical keys are hashed into
``_n_buckets()`` coarse partitions (one shuffle) and the caller's
function runs ONCE per partition with vectorized pandas groupby inside —
no per-tiny-group Python call overhead (the same fix that made the
correlation gate scale; the shared helpers live in functions/exchange.py).

All fns must be pure + deterministic given the partition frame (sorted
explicitly inside) so task retries replay identically.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _n_buckets


def _cast_block(t: pa.Table, want: dict[str, pa.DataType]) -> pa.Table:
    """Cast each block back to the captured input Arrow types.

    The per-partition kernels run in pandas, where int64-with-nulls
    degrades to float64 (and ``from_pandas`` re-emits double) — this
    final map restores the contract: NaN→null, then a plain cast, so
    inner-join int payloads come back as non-nullable int64 and only
    genuinely unmatched left-join rows carry nulls. Also strips pandas
    schema metadata (the source of the executor's "Failed to hash the
    schemas: unhashable type: 'dict'" warnings)."""
    arrays = []
    for name in t.column_names:
        arr = t[name]
        wt = want.get(name)
        # pandas-backed Datasets report python classes (e.g. `object`)
        # for string columns via Dataset.schema().types — only real
        # Arrow types are enforceable
        if isinstance(wt, pa.DataType) and arr.type != wt:
            if pa.types.is_floating(arr.type) and not pa.types.is_floating(wt):
                arr = pc.if_else(
                    pc.is_nan(arr), pa.scalar(None, type=arr.type), arr
                )
            arr = arr.cast(wt)
        arrays.append(arr)
    return pa.table(dict(zip(t.column_names, arrays)))


def _stable_col_hash(col) -> np.ndarray:
    """Vectorized per-row hash of one key column that does NOT depend
    on the pandas dtype a block happens to convert to.

    ``to_pandas()`` turns an int64 Arrow column into float64 exactly
    when the BLOCK contains a null — and pandas hashes ``5`` and
    ``5.0`` differently, so the same logical key could route to
    different co-location buckets depending on which block it rode in
    (duplicate partial groups downstream). Hash from the ARROW type
    instead: integers/temporals hash their int64 value, floats their
    float64 value, everything else its string form; nulls mix in a
    distinct constant so null != the fill sentinel."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    _NULL_MIX = np.uint64(0x9E3779B97F4A7C15)
    if pa.types.is_null(t):  # all-null column infers type `null`
        return np.full(len(arr),
                       np.uint64(0) ^ _NULL_MIX, dtype=np.uint64)
    nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
    if pa.types.is_boolean(t):
        arr = arr.cast(pa.int8())  # fill_null(bool, 0) raises; int8 ok
        t = arr.type
    if pa.types.is_timestamp(t):
        # normalize the unit BEFORE hashing: us- and ns-provenance
        # blocks of the same instant must land in the same bucket.
        # safe=False floors sub-us components instead of raising on
        # genuine ns-precision values — for a ROUTING hash, colliding
        # two sub-us-apart instants is fine; crashing is not
        arr = arr.cast(pa.timestamp("us", tz=t.tz), safe=False)
        t = arr.type
    elif pa.types.is_temporal(t):
        # date32/time32 can't cast straight to int64; widen via a
        # 64-bit temporal first (also unit-normalizes date64/time64;
        # safe=False for the same ns-flooring reason as timestamps)
        if pa.types.is_date(t):
            arr = arr.cast(pa.date64())
        elif pa.types.is_time(t):
            arr = arr.cast(pa.time64("us"), safe=False)
        elif pa.types.is_duration(t):
            arr = arr.cast(pa.duration("us"), safe=False)
        t = arr.type
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        filled = pc.fill_null(arr, 0)
        if pa.types.is_unsigned_integer(t) and t.bit_width == 64:
            # uint64 values above 2^63 can't cast (checked) to int64 —
            # reinterpret the bits instead (bijective, dtype-stable)
            vals = filled.to_numpy(zero_copy_only=False).astype(
                np.uint64).view(np.int64)
        else:
            vals = filled.cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(vals.astype(np.int64))
    elif pa.types.is_floating(t):
        vals = pc.fill_null(arr, 0.0).to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(vals.astype(np.float64))
    else:
        # cast FIRST, fill after: fill_null('') on e.g. decimal raises
        vals = np.asarray(
            pc.fill_null(arr.cast(pa.string()), "").to_pandas(),
            dtype=object)
        h = pd.util.hash_array(vals)
    if nulls.any():
        h = np.where(nulls, h ^ _NULL_MIX, h)
    return h


def stable_gb(t: pa.Table, keys: list[str], nb: np.uint64) -> pa.Array:
    """Coarse co-location bucket from key columns via
    :func:`_stable_col_hash` — the one routing hash for the window /
    join family."""
    h = _stable_col_hash(t[keys[0]])
    for c in keys[1:]:
        h = h * np.uint64(31) + _stable_col_hash(t[c])
    return pa.array((h % nb).astype(np.int64))


def grouped_apply(ds, keys: list[str], fn: Callable[[pd.DataFrame], pd.DataFrame],
                  output_cols: list[str] | None = None,
                  out_schema: dict[str, pa.DataType] | None = None):
    """fn receives ONE co-location partition (many logical groups, all
    rows of each group co-located) and must group by ``keys`` itself
    (vectorized).

    ``out_schema`` (col -> Arrow type) enforces output column types per
    block — pass the input types so pandas' int→float null degradation
    never leaks into the output schema."""
    nb = np.uint64(_n_buckets())

    def tag(t: pa.Table) -> pa.Table:
        # Arrow-native dtype-stable routing hash (see _stable_col_hash:
        # pandas-dtype hashing splits a logical key across buckets when
        # only SOME blocks contain nulls); payload stays zero-copy.
        return t.append_column("gb", stable_gb(t, keys, nb))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def run(g: pd.DataFrame) -> pd.DataFrame:
        out = fn(g.drop(columns=["gb"]))
        return out

    out = tagged.groupby("gb").map_groups(run, batch_format="pandas")
    if out_schema:
        out = out.map_batches(lambda t: _cast_block(t, out_schema),
                              batch_format="pyarrow")
    else:
        out = out.map_batches(lambda t: t, batch_format="pyarrow")
    if output_cols:
        out = out.select_columns(output_cols)
    return out


def approx_hot_keys(ds, keys: list[str], min_count: int,
                    top_m: int = 64) -> list[tuple]:
    """Find logical keys hot enough to break a co-location partition.

    Scale shape: each block emits its local top-``top_m`` key counts
    (a tiny partial — ``top_m`` rows per block, never the key
    universe), a small groupby sums them, and only keys at or above
    ``min_count`` reach the driver. Set ``min_count`` to the rows a
    single partition can comfortably hold — by construction only
    partition-scale keys come back, so the driver list is bounded.

    Approximation contract: a key must be block-locally top-``top_m``
    somewhere to be seen at all, and its returned count is a LOWER
    bound (only blocks where it ranked count toward the sum). A key
    large enough to matter (≥ one partition's rows) is necessarily
    heavy in many blocks, so partition-breaking keys are not missed.
    """
    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({**{k: t[k] for k in keys},
                             "partial_n": pa.array([], type=pa.int64())})
        kdf = t.select(keys).to_pandas()
        vc = (kdf.groupby(keys, sort=False, dropna=False).size()
              .nlargest(top_m).rename("partial_n").reset_index())
        return pa.Table.from_pandas(
            vc, preserve_index=False).replace_schema_metadata(None)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(keys).sum("partial_n"))

    def thresh(t: pa.Table) -> pa.Table:
        cnt = [c for c in t.column_names if c not in keys][0]
        return t.select(keys).filter(
            pc.greater_equal(t[cnt], pa.scalar(min_count)))

    hot = agg.map_batches(thresh, batch_format="pyarrow").take_all()
    return [tuple(r[k] for k in keys) for r in hot]


def _salt_fn(keys: list[str], ts_col: str, hot_keys, n_salts: int):
    """Append ``_salt`` to a side-tagged (asof/range join) block: left
    rows of a hot key spread over ``n_salts`` shards by a deterministic
    ts hash, right rows of a hot key REPLICATE to every shard (each
    shard then holds a slice of the probe side plus the key's full
    history — per-shard output is exact and shards are disjoint in
    left rows, so the union equals the unsalted join), everything else
    shard 0. Replication multiplies only the hot keys' right rows —
    the assumption is probe-side skew; a key whose HISTORY outgrows a
    worker needs pre-aggregation instead."""
    hot_df = pd.DataFrame(list(hot_keys), columns=keys).drop_duplicates()
    nsu = np.uint64(n_salts)

    def salt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        kdf = t.select(keys + ["side"]).to_pandas()
        hot = (kdf.merge(hot_df.assign(_hot=True), on=keys, how="left")
               ["_hot"].notna().to_numpy())
        side = kdf["side"].to_numpy()
        salt_arr = np.zeros(n, dtype=np.int64)
        left_hot = hot & (side == 0)
        if left_hot.any():
            ts = t.select([ts_col]).to_pandas()[ts_col]
            h = pd.util.hash_pandas_object(ts[left_hot], index=False)
            salt_arr[left_hot] = (h.to_numpy() % nsu).astype(np.int64)
        right_hot = hot & (side == 1)
        base = t.append_column("_salt", pa.array(salt_arr))
        if not right_hot.any():
            return base
        rh_mask = pa.array(right_hot)
        parts = [base.filter(pc.invert(rh_mask))]
        rh = t.filter(rh_mask)
        for s in range(n_salts):
            parts.append(rh.append_column("_salt", pa.array(
                np.full(rh.num_rows, s, dtype=np.int64))))
        return pa.concat_tables(parts)

    return salt


def _maybe_salted_apply(tagged, keys, ts_col, make_fn, out_schema,
                        hot_keys, n_salts, left_for_auto,
                        hot_key_min_count):
    """Shared asof/range tail: plain grouped_apply, or the salted twin.

    ``make_fn(group_keys)`` builds the per-partition kernel over the
    given logical-key list. In the salted plan the kernel groups by
    ``keys + ['_salt']`` — NOT bare keys — because two salt shards of
    one hot key can hash-collide into the same gb partition, where the
    replicated history would otherwise count twice (duplicate pairs in
    range_join); with ``_salt`` a key column, shards stay logically
    separate wherever they land, and the wrapper strips the column
    from the kernel's output."""
    if hot_keys == "auto":
        if hot_key_min_count is None:
            raise ValueError(
                "hot_keys='auto' needs hot_key_min_count (the rows one "
                "partition can hold)")
        hot_keys = approx_hot_keys(left_for_auto, keys, hot_key_min_count)
    if not hot_keys:
        return grouped_apply(tagged, keys, make_fn(keys),
                             out_schema=out_schema)
    salted = tagged.map_batches(
        _salt_fn(keys, ts_col, hot_keys, n_salts), batch_format="pyarrow")
    inner = make_fn(keys + ["_salt"])
    return grouped_apply(salted, keys + ["_salt"],
                         lambda g: inner(g).drop(columns=["_salt"]),
                         out_schema=out_schema)


class _TypesView:
    """Duck-typed ``Dataset.schema()`` stand-in over a col->type dict.

    Passing explicit types skips the ``Dataset.schema()`` probe, which
    EXECUTES a limit-1 subplan on a lazy input — both a wasted partial
    execution and (observed in this sandbox) a crash lottery: Ray
    2.49's LimitOperator task-cancellation can race task completion
    into a fatal ``Check failed: it != submissible_tasks_`` in the
    core worker. Judged queries pass types; ad-hoc callers may omit."""

    def __init__(self, d: dict):
        self.names = list(d)
        self.types = list(d.values())


def asof_join(left, right, keys: list[str], ts_col: str,
              direction: str = "backward",
              left_types: dict | None = None,
              right_types: dict | None = None,
              hot_keys=None, n_salts: int = 8,
              hot_key_min_count: int | None = None):
    """Per-key as-of join — a custom operator Ray Data lacks natively.

    For each left row, attach the latest right row with
    ``right.ts <= left.ts`` (direction="backward") sharing ``keys``.
    Left-join semantics: unmatched left rows keep nulls — exactly
    DuckDB's ``ASOF LEFT JOIN`` for oracle parity.

    Scale shape: both sides ride ONE hash exchange — rows are
    side-tagged, unioned, co-partitioned on coarse key buckets
    (grouped_apply), and each partition runs a single vectorized
    ``pd.merge_asof(by=keys)`` over ALL its logical keys at once (no
    per-key Python). Partitioning assumption: all rows of one logical
    key fit in one partition; salt or pre-aggregate hot keys upstream
    if a single key's history outgrows a worker. Ties on (key, ts) in
    the right side resolve to the row last in payload sort order —
    keep the right side unique per (key, ts) for deterministic output.

    Skew: ``hot_keys`` (a list of key tuples, or ``"auto"`` with
    ``hot_key_min_count`` = the rows one partition holds, detected via
    :func:`approx_hot_keys` on the left side) salts each hot key's
    PROBE rows over ``n_salts`` shards and replicates its history to
    every shard — one Zipf-hot probe key no longer lands on a single
    worker, output identical to unsalted (see :func:`_salt_fn`).

    Payload column names must be disjoint across sides (rename before
    calling); integer right payloads come back as nullable int64.
    ``left_types`` / ``right_types`` (col -> pa.DataType, ALL columns
    of that side) skip the ``Dataset.schema()`` probes — see
    :class:`_TypesView` for why that matters.
    """
    shared = set(keys) | {ts_col}
    lschema = _TypesView(left_types) if left_types else left.schema()
    rschema = _TypesView(right_types) if right_types else right.schema()
    lpay = [c for c in lschema.names if c not in shared]
    rpay = [c for c in rschema.names if c not in shared]
    clash = set(lpay) & set(rpay)
    if clash:
        raise ValueError(f"payload columns must be disjoint, got {clash}")

    def _pad(missing: list[tuple[str, pa.DataType]], side: int):
        def pad(t: pa.Table) -> pa.Table:
            for name, typ in missing:
                t = t.append_column(name, pa.nulls(len(t), type=typ))
            return t.append_column("side", pa.array([side] * len(t),
                                                    type=pa.int8()))
        return pad

    rtype_by_name = dict(zip(rschema.names, rschema.types))
    ltype_by_name = dict(zip(lschema.names, lschema.types))
    rtypes = [(c, rtype_by_name[c]) for c in rpay]
    ltypes = [(c, ltype_by_name[c]) for c in lpay]
    # output contract: every column keeps its INPUT Arrow type — left
    # payload stays non-nullable (every left row survives), right
    # payload is nullable int64/etc only where genuinely unmatched
    out_schema = {c: ltype_by_name[c] for c in keys + [ts_col] + lpay}
    out_schema.update({c: t for c, t in rtypes})
    cols = keys + [ts_col] + lpay + rpay + ["side"]
    tagged = (
        left.map_batches(_pad(rtypes, 0), batch_format="pyarrow")
        .select_columns(cols)
        .union(right.map_batches(_pad(ltypes, 1), batch_format="pyarrow")
               .select_columns(cols))
    )
    # nullable pandas dtype per payload column so matched and unmatched
    # partitions produce one uniform arrow schema (int64 stays int64
    # through pandas null-padding instead of degrading to float64)
    pd_dtypes = {
        c: ("Int64" if pa.types.is_integer(t) else
            "float64" if pa.types.is_floating(t) else None)
        for c, t in rtypes + ltypes if isinstance(t, pa.DataType)
    }

    def make_fn(gkeys: list[str]):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            out_cols = gkeys + [ts_col] + lpay + rpay
            g = g.copy()
            # block->pandas conversion yields ns or us depending on the
            # block's provenance; merge_asof requires one unit
            g[ts_col] = g[ts_col].astype("datetime64[ns]")

            def fill_right_na(df: pd.DataFrame) -> pd.DataFrame:
                df = df.copy()
                for c, _t in rtypes:
                    d = pd_dtypes.get(c)
                    if d == "float64":
                        # pd.array([pd.NA]*n, dtype="float64") raises —
                        # numpy float NA is NaN
                        df[c] = np.full(len(df), np.nan)
                    else:
                        df[c] = pd.array([pd.NA] * len(df),
                                         dtype=d or "object")
                return df[out_cols]

            # DuckDB ASOF parity on nulls: a NULL ts or NULL by-key
            # never matches. merge_asof instead RAISES on null merge
            # keys and EQUATES null by-keys — so unmatchable left rows
            # bypass the merge (kept, right payload null) and
            # unmatchable right rows are dropped before it.
            unmatchable = g[ts_col].isna()
            for k in gkeys:
                unmatchable |= g[k].isna()
            lun = g[(g["side"] == 0) & unmatchable].drop(
                columns=["side"] + rpay)
            g = g[~unmatchable]
            lg = g[g["side"] == 0].drop(columns=["side"] + rpay)
            rg = g[g["side"] == 1].drop(columns=["side"] + lpay)
            if lg.empty:
                out = g.iloc[0:0][out_cols].copy()
            elif rg.empty:
                out = fill_right_na(
                    lg.sort_values([ts_col] + gkeys, kind="mergesort"))
            else:
                lg = lg.sort_values([ts_col] + gkeys, kind="mergesort")
                rg = rg.sort_values([ts_col] + gkeys + rpay,
                                    kind="mergesort")
                out = pd.merge_asof(lg, rg, on=ts_col, by=gkeys,
                                    direction=direction)[out_cols]
            if len(lun):
                out = pd.concat([out, fill_right_na(lun)],
                                ignore_index=True)
            for c, d in pd_dtypes.items():
                if d:
                    out[c] = out[c].astype(d)
            return out

        return fn

    return _maybe_salted_apply(tagged, keys, ts_col, make_fn, out_schema,
                               hot_keys, n_salts, left,
                               hot_key_min_count)


def range_join(left, right, keys: list[str], ts_col: str,
               lo: pd.Timedelta, hi: pd.Timedelta,
               left_types: dict | None = None,
               right_types: dict | None = None,
               hot_keys=None, n_salts: int = 8,
               hot_key_min_count: int | None = None):
    """Per-key banded range join — the second custom join Ray Data
    lacks: emit every (l, r) pair sharing ``keys`` with
    ``l.ts + lo < r.ts <= l.ts + hi`` (inner semantics).

    Scale shape: same single co-partitioning exchange as
    :func:`asof_join` (side-tagged union, coarse key buckets). Inside a
    partition the per-left match RANGE is found with two vectorized
    ``pd.merge_asof`` probes (position of the last right row at or
    before each band edge — merge_asof is the vectorized per-key
    binary search), then pairs materialize via a numpy range-expansion
    — no per-key or per-row Python. Partitioning assumption: one key's
    rows fit a partition; band width controls output blow-up.
    ``hot_keys`` / ``n_salts`` / ``hot_key_min_count`` relax the
    probe-side half of that assumption exactly as in :func:`asof_join`
    (salted left shards each see the key's full right side; emitted
    pairs stay disjoint across shards).

    Output: keys + ts_col (left) + left payload + ts_col+"_r" + right
    payload. Payload names must be disjoint across sides.
    ``left_types`` / ``right_types`` as in :func:`asof_join`.
    """
    shared = set(keys) | {ts_col}
    lschema = _TypesView(left_types) if left_types else left.schema()
    rschema = _TypesView(right_types) if right_types else right.schema()
    lpay = [c for c in lschema.names if c not in shared]
    rpay = [c for c in rschema.names if c not in shared]
    clash = set(lpay) & set(rpay)
    if clash:
        raise ValueError(f"payload columns must be disjoint, got {clash}")
    rtype_by_name = dict(zip(rschema.names, rschema.types))
    ltype_by_name = dict(zip(lschema.names, lschema.types))
    rtypes = [(c, rtype_by_name[c]) for c in rpay]
    ltypes = [(c, ltype_by_name[c]) for c in lpay]
    # inner join: every output column keeps its INPUT Arrow type,
    # non-nullable — no float degradation from the null padding
    out_schema = {c: ltype_by_name[c] for c in keys + [ts_col] + lpay}
    out_schema[ts_col + "_r"] = rtype_by_name[ts_col]
    out_schema.update({c: t for c, t in rtypes})

    def _pad(missing, side):
        def pad(t: pa.Table) -> pa.Table:
            for name, typ in missing:
                t = t.append_column(name, pa.nulls(len(t), type=typ))
            return t.append_column("side", pa.array([side] * len(t),
                                                    type=pa.int8()))
        return pad

    cols = keys + [ts_col] + lpay + rpay + ["side"]
    tagged = (
        left.map_batches(_pad(rtypes, 0), batch_format="pyarrow")
        .select_columns(cols)
        .union(right.map_batches(_pad(ltypes, 1), batch_format="pyarrow")
               .select_columns(cols))
    )
    ts_r = ts_col + "_r"
    out_cols = keys + [ts_col] + lpay + [ts_r] + rpay
    pd_dtypes = {
        c: ("Int64" if pa.types.is_integer(t) else
            "float64" if pa.types.is_floating(t) else None)
        for c, t in rtypes + ltypes if isinstance(t, pa.DataType)
    }

    def _fix_dtypes(out: pd.DataFrame) -> pd.DataFrame:
        for c, d in pd_dtypes.items():
            if d:
                out[c] = out[c].astype(d)
        return out

    def make_fn(gkeys: list[str]):
        def fn(g: pd.DataFrame) -> pd.DataFrame:
            import numpy as np

            empty = pd.DataFrame({
                **{k: g[k].iloc[0:0] for k in gkeys},
                ts_col: g[ts_col].iloc[0:0],
                **{c: g[c].iloc[0:0] for c in lpay},
                ts_r: g[ts_col].iloc[0:0],
                **{c: g[c].iloc[0:0] for c in rpay},
            })
            # exact per-partition key codes (no hash collisions)
            g = g.copy()
            # one timestamp unit regardless of block provenance (ns vs us)
            g[ts_col] = g[ts_col].astype("datetime64[ns]")
            # inner semantics: a NULL ts can pair with nothing, and
            # left NaT + hi = NaT would crash the merge_asof probe
            g = g[g[ts_col].notna()]
            g["_kc"] = g.groupby(gkeys, sort=True).ngroup()
            lg = g[g["side"] == 0]
            rg = g[g["side"] == 1]
            if lg.empty or rg.empty:
                return _fix_dtypes(empty)
            # key-major ordering: contiguous per-key segments to gather from
            rg_km = rg.sort_values(["_kc", ts_col] + rpay,
                                   kind="mergesort").reset_index(drop=True)
            base = rg_km.groupby("_kc", sort=False).cumcount()
            seg_base = pd.Series(
                np.arange(len(rg_km))[base.to_numpy() == 0],
                index=rg_km.loc[base.to_numpy() == 0, "_kc"].to_numpy(),
            )
            # ts-global ordering for the merge_asof probes, carrying the
            # key-major position (same tie-break: rpay)
            lookup = rg_km[["_kc", ts_col]].assign(_kmpos=np.arange(len(rg_km)))
            lookup = lookup.sort_values([ts_col, "_kc"],
                                        kind="mergesort").reset_index(drop=True)

            def last_pos_at_or_before(bounds: pd.Series) -> np.ndarray:
                probe = pd.DataFrame({
                    "_kc": lg["_kc"].to_numpy(),
                    "_b": bounds.to_numpy(),
                    "_li": np.arange(len(lg)),
                }).sort_values(["_b", "_kc"], kind="mergesort")
                m = pd.merge_asof(
                    probe,
                    lookup.rename(columns={ts_col: "_b"}),
                    on="_b", by="_kc", direction="backward",
                    allow_exact_matches=True,
                )
                out = np.full(len(lg), -1, dtype=np.int64)
                pos = m["_kmpos"].to_numpy()
                li = m["_li"].to_numpy()
                ok = ~np.isnan(pos)
                out[li[ok]] = pos[ok].astype(np.int64)
                return out

            h = last_pos_at_or_before(lg[ts_col] + hi)      # ts <= l.ts+hi
            l_pos = last_pos_at_or_before(lg[ts_col] + lo)  # ts <= l.ts+lo
            kb = seg_base.reindex(lg["_kc"].to_numpy()).to_numpy()
            kb = np.where(np.isnan(kb), len(rg_km), kb).astype(np.int64)
            starts = np.maximum(l_pos + 1, kb)
            counts = np.maximum(h - starts + 1, 0)
            total = int(counts.sum())
            if total == 0:
                return _fix_dtypes(empty)
            take = counts > 0
            st, ct = starts[take], counts[take]
            cc = np.cumsum(ct)
            ridx = (np.arange(total)
                    - np.repeat(np.r_[0, cc[:-1]], ct)
                    + np.repeat(st, ct))
            lrep = np.repeat(np.flatnonzero(take), ct)
            lsel = lg.iloc[lrep].reset_index(drop=True)
            rsel = rg_km.iloc[ridx].reset_index(drop=True)
            out = pd.DataFrame({
                **{k: lsel[k] for k in gkeys},
                ts_col: lsel[ts_col],
                **{c: lsel[c] for c in lpay},
                ts_r: rsel[ts_col],
                **{c: rsel[c] for c in rpay},
            })
            return _fix_dtypes(out)

        return fn

    return _maybe_salted_apply(tagged, keys, ts_col, make_fn, out_schema,
                               hot_keys, n_salts, left,
                               hot_key_min_count)


# ---- vectorized per-partition kernels (each groups by its keys) ----


def windowed_rank_filter(keys: list[str], order: list[str], count: int,
                         mode: str) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """limit: keep first `count` per group; after: keep beyond `count`."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g
        g = g.sort_values(keys + order, kind="mergesort")
        # dropna=False: null keys form a real group (SQL GROUP BY
        # semantics) instead of silently vanishing from the output
        rn = g.groupby(keys, sort=False, dropna=False).cumcount()
        return g[rn < count] if mode == "limit" else g[rn >= count]

    return fn


def sessionize_fn(keys: list[str], ts_col: str, order: list[str],
                  gap: pd.Timedelta) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """-> one row per logical group: keys + n_sessions."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g[keys].iloc[0:0].assign(n_sessions=pd.Series(dtype="int64"))
        g = g.sort_values(keys + order, kind="mergesort")
        grp = g.groupby(keys, sort=False, dropna=False)
        new_sess = (grp[ts_col].diff() > gap).astype("int64")
        out = new_sess.groupby([g[k] for k in keys], sort=False,
                               dropna=False).sum() + 1
        out = out.rename("n_sessions").reset_index()
        return out

    return fn


def rolling_sum_fn(keys: list[str], order: list[str], value_col: str,
                   window: int, out_col: str,
                   round_to: int = 2) -> Callable[[pd.DataFrame], pd.DataFrame]:
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g.assign(**{out_col: pd.Series(dtype="float64")})
        g = g.sort_values(keys + order, kind="mergesort")
        # dropna=False: with the default, null-key rows are excluded
        # from the rolling result and the column assignment raises a
        # length mismatch on any partition containing them
        g[out_col] = (
            g.groupby(keys, sort=False, dropna=False)[value_col]
            .rolling(window, min_periods=1)
            .sum()
            .round(round_to)
            .reset_index(drop=True)
            .to_numpy()
        )
        return g

    return fn


def top1_fn(keys: list[str], order_desc: str, tiebreak: str) -> Callable:
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g
        g = g.sort_values([*keys, order_desc, tiebreak],
                          ascending=[True] * len(keys) + [False, True],
                          kind="mergesort")
        return g.groupby(keys, sort=False, dropna=False).head(1)

    return fn


def hopping_window_agg(ds, keys: list[str], ts_col: str,
                       window_s: int, hop_s: int, value_col: str,
                       agg: str = "sum",
                       key_types: dict | None = None):
    """Overlapping (hopping) event-time windows per key: every row
    joins the ``window_s / hop_s`` windows covering its timestamp, and
    each (key, window_start) aggregates ``value_col`` with ``agg``
    (sum / count / mean / max / min). ``hop_s == window_s`` degenerates
    to tumbling windows.

    Scale shape (pane decomposition, the public "No Pane, No Gain"
    trick — Li et al., SIGMOD Record 2005): rows are NEVER exploded
    into their ``n_win`` covering windows before the shuffle. Each
    batch pre-aggregates per (key, hop-sized pane) — one lexsort +
    reduceat, no replication — and every pane partial ships at most
    TWICE, routed by (key, window-aligned span): the ``n_win`` windows
    covering a pane span a range of ``window_s - hop_s`` so they fall
    in at most two window-aligned spans, and each span copy serves
    exactly the windows inside that span (no double counting). The
    merge expands panes into windows LOCALLY, after cross-batch pane
    merging, so shuffle volume is bounded by 2x|distinct (key, pane)|
    per block — not rows, and never rows x n_win. All five aggs are
    pane-decomposable (mean ships (sum, n) and divides after the
    merge). Window starts are epoch-aligned (``floor(t/hop)*hop``),
    matching the SQL restatement ``GROUP BY key, ws`` over a generated
    window series.

    Output: keys + ``window_start`` (timestamp us) + ``<agg>_value``.
    ``key_types`` (col -> pa.DataType): pass the INPUT key types when a
    key column can hold nulls — the merge runs in pandas, where an
    int64 key with nulls degrades to float64, and without the cast-back
    the output blocks would mix int64 and double schemas.
    """
    if window_s % hop_s != 0:
        raise ValueError("window_s must be a multiple of hop_s")
    if agg not in ("sum", "count", "mean", "max", "min"):
        raise ValueError(f"unknown agg {agg!r}")
    n_win = window_s // hop_s
    nb = np.uint64(_n_buckets())
    hop_us = np.int64(hop_s * 1_000_000)
    window_us = np.int64(window_s * 1_000_000)

    def pane_partials(t: pa.Table) -> pa.Table:
        n = t.num_rows
        # rows with a null timestamp or null value are EXCLUDED (they
        # have no window / nothing to aggregate — count counts values)
        if n:
            valid = pc.and_(pc.is_valid(t[ts_col]),
                            pc.is_valid(t[value_col]))
            if not pc.all(valid).as_py():
                t = t.filter(valid)
                n = t.num_rows
        if n == 0:
            return pa.table({
                **{k: t[k] for k in keys},
                "pane": pa.array([], type=pa.int64()),
                "span": pa.array([], type=pa.int64()),
                "s": pa.array([], type=pa.float64()),
                "n": pa.array([], type=pa.int64()),
                "mx": pa.array([], type=pa.float64()),
                "mn": pa.array([], type=pa.float64()),
                "gb": pa.array([], type=pa.int64()),
            })
        ts = pc.cast(pc.cast(t[ts_col], pa.timestamp("us"), safe=False),
                     pa.int64()).to_numpy(zero_copy_only=False)
        vals = (t[value_col].to_numpy(zero_copy_only=False)
                .astype(np.float64))
        kdf = t.select(keys).to_pandas()
        # integer codes for this batch's key tuples (exact, local;
        # dropna=False so null keys form their own group, not code -1)
        codes = kdf.groupby(keys, sort=False,
                            dropna=False).ngroup().to_numpy()
        # batch-local partial per (key, hop-pane): lexsort + reduceat —
        # NO n_win replication; panes expand into windows in the merge
        pane = (ts // hop_us) * hop_us
        order = np.lexsort((pane, codes))
        ck, pk, vv = codes[order], pane[order], vals[order]
        first = np.ones(len(ck), dtype=bool)
        first[1:] = (ck[1:] != ck[:-1]) | (pk[1:] != pk[:-1])
        st = np.flatnonzero(first)
        sums = np.add.reduceat(vv, st)
        maxs = np.maximum.reduceat(vv, st)
        mins = np.minimum.reduceat(vv, st)
        cnts = np.diff(np.r_[st, len(vv)]).astype(np.int64)
        pane_st = pk[st]
        # windows covering pane p start in [p - window + hop, p] — a
        # range of width window - hop, so at most TWO window-aligned
        # spans; ship one copy per span and let each span's merge keep
        # only the windows inside it (each window counted exactly once)
        span_hi = pane_st // window_us
        span_lo = (pane_st - window_us + hop_us) // window_us
        dup_idx = np.flatnonzero(span_lo != span_hi)
        all_idx = np.concatenate([np.arange(len(st)), dup_idx])
        all_span = np.concatenate([span_hi, span_lo[dup_idx]])
        # map each partial segment back to an original row holding its
        # key tuple
        orig_row = order[st]
        key_rows = (t.select(keys).take(pa.array(orig_row))
                    .take(pa.array(all_idx)))
        # dtype-stable routing hash over (keys, span) — see
        # _stable_col_hash for why pandas-dtype hashing is unsafe here
        h = _stable_col_hash(key_rows[keys[0]])
        for c in keys[1:]:
            h = h * np.uint64(31) + _stable_col_hash(key_rows[c])
        h = h * np.uint64(31) + all_span.view(np.uint64)
        return pa.table({
            **{k: key_rows[k] for k in keys},
            "pane": pa.array(pane_st[all_idx]),
            "span": pa.array(all_span),
            "s": pa.array(sums[all_idx]),
            "n": pa.array(cnts[all_idx]),
            "mx": pa.array(maxs[all_idx]),
            "mn": pa.array(mins[all_idx]),
            "gb": pa.array((h % nb).astype(np.int64)),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # 1) merge pane partials across batches
        grp = (g.groupby(keys + ["pane", "span"], sort=False,
                         dropna=False)
               .agg(s=("s", "sum"), n=("n", "sum"), mx=("mx", "max"),
                    mn=("mn", "min")).reset_index())
        # 2) expand each merged pane into the covering windows that
        #    live in its routed span (local, post-merge, never shuffled)
        if n_win == 1:
            e = grp
            e["ws"] = e["pane"].to_numpy(dtype=np.int64)
        else:
            m = len(grp)
            p = grp["pane"].to_numpy(dtype=np.int64)
            sp = grp["span"].to_numpy(dtype=np.int64)
            idx = np.repeat(np.arange(m), n_win)
            ws = (np.repeat(p, n_win)
                  - np.tile(np.arange(n_win, dtype=np.int64) * hop_us,
                            m))
            keep = (ws // window_us) == np.repeat(sp, n_win)
            idx, ws = idx[keep], ws[keep]
            e = grp.iloc[idx].reset_index(drop=True)
            e["ws"] = ws
        out = (e.groupby(keys + ["ws"], sort=False, dropna=False)
               .agg(s=("s", "sum"), n=("n", "sum"), mx=("mx", "max"),
                    mn=("mn", "min")).reset_index())
        if agg == "sum":
            out["value"] = out["s"]
        elif agg == "count":
            out["value"] = out["n"]
        elif agg == "mean":
            out["value"] = out["s"] / out["n"]
        elif agg == "max":
            out["value"] = out["mx"]
        else:
            out["value"] = out["mn"]
        return out[keys + ["ws", "value"]]

    from ..functions.exchange import shuffle_groups

    out = shuffle_groups(ds.map_batches(pane_partials,
                                        batch_format="pyarrow"),
                         "gb", merge)

    def finish(t: pa.Table) -> pa.Table:
        if key_types:
            t = _cast_block(t, key_types)
        ws = t["ws"].cast(pa.timestamp("us"))
        t = t.set_column(t.column_names.index("ws"), "window_start", ws)
        return t.rename_columns(
            keys + ["window_start", f"{agg}_value"])

    return out.map_batches(finish, batch_format="pyarrow")
