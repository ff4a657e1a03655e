"""Pandas reference twins of the gate kernels in
``sagan_ray.stages.correlate``: the tests compare the Arrow-native
product kernels against these, and use them as the parity oracle for
the threshold/after and xbits semantics. Also the two-phase exchange
reference — each gate family through its own shuffle — that the fused
plan is compared against. No product path calls them."""

import numpy as np
import pandas as pd
import pyarrow as pa

from sagan_ray.functions.exchange import _n_buckets
from sagan_ray.stages.correlate import (
    _gate_order_keep,
    _shuffled,
    correlation_plan,
    xbits_plan,
)


def apply_correlation(alerts_ds, rules):
    """The threshold/after family alone through the tagged exchange.
    The input is consumed twice — materialize it first."""
    plan = correlation_plan(rules)
    return alerts_ds if plan is None else _shuffled(alerts_ds, plan)


def apply_xbits(alerts_ds, rules):
    """The xbits family alone through the tagged exchange. The input is
    consumed twice — materialize it first."""
    plan = xbits_plan(rules)
    return alerts_ds if plan is None else _shuffled(alerts_ds, plan)


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
        lambda rows: pa.array(g["url"].to_numpy(dtype=object)[rows],
                              type=pa.string(), from_pandas=True),
        specs,
    )
    out = g.iloc[idx]
    return out.drop(columns=["gb"], errors="ignore")


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
