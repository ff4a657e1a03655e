"""Sort-exchange equi-join: a measured alternative to ``Dataset.join``.

Ray 2.49's native ``Dataset.join`` hash-partitions every map-side block
with a PER-ROW Python loop (``hash(tuple(...))`` in
``transform_pyarrow.hash_partition``) — ~1 µs/row of pure Python on the
map side of every join, which at 10^12 rows is days of CPU. This
operator reaches the same co-partitioning with the repo's tagged-union
exchange instead: both sides get a coarse bucket id from a VECTORIZED
siphash (pandas ``hash_pandas_object`` — C per column), ride one
sort-based shuffle, and each partition runs a single vectorized
``pd.merge`` / ``isin`` over all its keys at once.

Semantics parity with ``Dataset.join`` for ``inner``, ``left_outer``,
``right_outer``, ``full_outer``, ``left_semi`` and ``left_anti`` on
equality keys with disjoint payload names. Output column types equal the INPUT Arrow types (the
``_cast_block`` contract shared with asof/range joins); payload ints
are nullable only where genuinely unmatched — the right side's under
``left_outer``/``full_outer``, the left side's under
``right_outer``/``full_outer``.

Partitioning assumption (same as every hash join): all rows of one join
key land in one partition — a single pathological hot key can skew a
partition; salt or pre-aggregate it upstream. Bucket count follows
``functions.exchange._n_buckets()`` (data-sized, floor 2/cpu).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .window import grouped_apply

_HOW = ("inner", "left_outer", "right_outer", "full_outer",
        "left_semi", "left_anti")


def join_types(left_types: dict, right_types: dict,
               on, how: str = "inner") -> dict:
    """Static output-type map of :func:`equi_join` — pass it as the next
    join's ``left_types`` when CHAINING joins so the chain never probes
    ``Dataset.schema()`` on a shuffle output (which would execute the
    whole upstream exchange once just for the schema)."""
    keys = list(on)
    if how in ("left_semi", "left_anti"):
        return dict(left_types)
    out = dict(left_types)
    for c, t in right_types.items():
        if c not in keys:
            out[c] = t
    return out


def equi_join(left, right, on: list[str] | tuple[str, ...],
              how: str = "inner",
              right_on: list[str] | tuple[str, ...] | None = None,
              left_types: dict | None = None,
              right_types: dict | None = None):
    """Join two Datasets on equality keys.

    ``right_on`` names the right side's key columns when they differ;
    they are renamed to the left names before the exchange (the output
    carries the LEFT key names, like ``pd.merge``'s key coalescing).

    ``left_types`` / ``right_types`` (col -> pa.DataType, covering ALL
    columns of that side, keys under their OUTPUT names) skip the
    ``Dataset.schema()`` probe. Pass them whenever a side is an
    expensive lazy plan — probing the schema of a shuffle output
    EXECUTES that shuffle once just to see one block. Plain reads and
    map-chains are cheap to probe; chained equi_joins are not (use
    :func:`join_types`)."""
    if how not in _HOW:
        raise ValueError(f"how must be one of {_HOW}, got {how!r}")
    keys = list(on)
    if right_on is not None:
        ren = dict(zip(list(right_on), keys))
        right = right.map_batches(
            lambda t, _m=ren: t.rename_columns(
                [_m.get(c, c) for c in t.column_names]
            ),
            batch_format="pyarrow",
        )
        if right_types is not None:
            right_types = {ren.get(c, c): t for c, t in right_types.items()}

    class _S:  # duck-typed schema view over a types dict
        def __init__(self, d):
            self.names = list(d)
            self.types = list(d.values())

    lschema = _S(left_types) if left_types is not None else left.schema()
    rschema = _S(right_types) if right_types is not None else right.schema()
    lpay = [c for c in lschema.names if c not in keys]
    rpay = [c for c in rschema.names if c not in keys]
    clash = set(lpay) & set(rpay)
    if clash:
        raise ValueError(f"payload columns must be disjoint, got {clash}")
    def _arrow_type(t):
        # pandas-backed Datasets report numpy dtypes / python classes via
        # Dataset.schema().types — coerce to Arrow (object/str -> string)
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except (TypeError, pa.ArrowNotImplementedError):
            return pa.string()

    ltype = {n: _arrow_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtype = {n: _arrow_type(t) for n, t in zip(rschema.names, rschema.types)}

    semi = how in ("left_semi", "left_anti")
    out_pay = lpay if semi else lpay + rpay
    out_cols = keys + out_pay
    out_schema = {c: ltype.get(c, rtype.get(c)) for c in out_cols}

    def _pad(missing, side):
        def pad(t: pa.Table) -> pa.Table:
            for name, typ in missing:
                t = t.append_column(name, pa.nulls(len(t), type=typ))
            return t.append_column(
                "side", pa.array(np.full(len(t), side, dtype=np.int8))
            )
        return pad

    rtypes = [(c, rtype[c]) for c in rpay]
    ltypes = [(c, ltype[c]) for c in lpay]
    cols = keys + lpay + rpay + ["side"]
    # semi/anti never need the right payload downstream — drop it BEFORE
    # the exchange so only (keys) of the right side ride the shuffle
    if semi:
        right = right.select_columns(keys)
        rtypes = []
        cols = keys + lpay + ["side"]

    tagged = (
        left.map_batches(_pad(rtypes, 0), batch_format="pyarrow")
        .select_columns(cols)
        .union(
            right.map_batches(_pad(ltypes, 1), batch_format="pyarrow")
            .select_columns(cols)
        )
    )

    # nullable pandas dtypes keep int64 int through pandas null padding
    pd_dtypes = {
        c: ("Int64" if pa.types.is_integer(t) else
            "float64" if pa.types.is_floating(t) else None)
        for c, t in (rtypes + ltypes)
        if isinstance(t, pa.DataType)
    }

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["side"] == 0]
        rg = g[g["side"] == 1]
        if semi:
            lg = lg.drop(columns=["side"])
            if len(keys) == 1:
                mask = lg[keys[0]].isin(rg[keys[0]].unique())
            else:
                ridx = pd.MultiIndex.from_frame(rg[keys].drop_duplicates())
                mask = pd.MultiIndex.from_frame(lg[keys]).isin(ridx)
            out = lg[mask if how == "left_semi" else ~np.asarray(mask)]
            return out[out_cols]
        lg = lg.drop(columns=["side"] + rpay)
        rg = rg.drop(columns=["side"] + lpay)
        pd_how = {"inner": "inner", "left_outer": "left",
                  "right_outer": "right", "full_outer": "outer"}[how]
        provably_empty = (
            (how == "inner" and (lg.empty or rg.empty))
            or (how == "left_outer" and lg.empty)
            or (how == "right_outer" and rg.empty)
            or (how == "full_outer" and lg.empty and rg.empty))
        if provably_empty:
            out = g.iloc[0:0][out_cols].copy()
        else:
            out = pd.merge(lg, rg, on=keys, how=pd_how,
                           sort=False)[out_cols]
        for c, d in pd_dtypes.items():
            if d and c in out.columns:
                out[c] = out[c].astype(d)
        return out

    return grouped_apply(tagged, keys, fn, output_cols=out_cols,
                         out_schema=out_schema)
