"""Threshold/after invariants — property-based (hypothesis) + unit."""

import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagan_ray.rules import parse_rule
from gate_oracle import _attach_gb, _gate_partition
from sagan_ray.stages.correlate import (
    _attach_keys,
    _gate_partition_pa,
    corr_specs,
    correlation_plan,
)

THRESH_RULE = parse_rule(
    "alert any any any -> any any (sid:1; content:\"x\"; "
    "threshold: type limit, track by_host, count 3, seconds 100;)"
)
AFTER_RULE = parse_rule(
    "alert any any any -> any any (sid:2; content:\"x\"; "
    "after: track by_host, count 2, seconds 100;)"
)
SUPPRESS_RULE = parse_rule(
    "alert any any any -> any any (sid:3; content:\"x\"; "
    "threshold: type suppress, track by_host, count 4, seconds 100;)"
)
SPECS = corr_specs([THRESH_RULE, AFTER_RULE, SUPPRESS_RULE])


def alerts_df(rows):
    """rows: list of (sid, host, ts_seconds)."""
    return pd.DataFrame(
        {
            "sid": [r[0] for r in rows],
            "host": [r[1] for r in rows],
            "lang": "en",
            "url": [f"u{i}" for i in range(len(rows))],
            "warc_ts": pd.to_datetime([r[2] for r in rows], unit="s"),
        }
    )


def gate_all(df):
    """Reference implementation path: attach keys, co-locate, gate each
    hash partition (exactly what the Dataset pipeline does)."""
    t = pa.Table.from_pandas(df, preserve_index=False)
    t = _attach_keys(t, SPECS)
    pdf = _attach_gb(t.to_pandas(), ["sid", "ckey", "bucket"])
    outs = [
        _gate_partition(g, SPECS) for _, g in pdf.groupby("gb", sort=False)
    ]
    return pd.concat(outs) if outs else pdf.iloc[0:0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),
            st.sampled_from(["h1", "h2"]),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=0,
        max_size=60,
    )
)
def test_gate_invariants(rows):
    df = alerts_df(rows)
    out = gate_all(df)
    for (sid, host, bucket), g in out.assign(
        bucket=(out["warc_ts"].astype("int64") // 10**9) // 100
    ).groupby(["sid", "host", "bucket"]):
        n_in = sum(
            1
            for r in rows
            if r[0] == sid and r[1] == host and r[2] // 100 == bucket
        )
        if sid == 1:  # limit 3: at most 3 out
            assert len(g) == min(n_in, 3)
        elif sid == 2:  # after 2: n - 2
            assert len(g) == max(0, n_in - 2)
        elif sid == 3:  # suppress at >4: all or nothing
            assert len(g) == (n_in if n_in <= 4 else 0)


URL_POOL = ["a", "b", "c", None]


def gated_rows(t):
    """Gated rows as a sorted multiset of (sid, host, ts, url): rows tied
    on all four are interchangeable."""
    return sorted(zip(t["sid"].to_pylist(), t["host"].to_pylist(),
                      t["warc_ts"].to_pylist(), t["url"].to_pylist()),
                  key=repr)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),
            st.sampled_from(["h1", "h2"]),
            st.integers(min_value=0, max_value=149),
            st.sampled_from(URL_POOL),
        ),
        min_size=6,
        max_size=60,
    ),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=4),
)
def test_preprune_commutes_with_gate(rows, cuts):
    """The product tag's batch-local limit pre-prune (skew guard) must
    not change the final gated set, for ANY split of the stream into
    batches — with timestamps tied at the 50 s grain and null urls: tag
    per batch then gate equals the gate over the whole stream."""
    plan = correlation_plan([THRESH_RULE, AFTER_RULE, SUPPRESS_RULE])
    t = pa.table({
        "sid": pa.array([r[0] for r in rows], pa.int64()),
        "host": pa.array([r[1] for r in rows], pa.string()),
        "url": pa.array([r[3] for r in rows], pa.string()),
        "warc_ts": pa.array([(r[2] // 50) * 50_000_000 for r in rows],
                            pa.timestamp("us")),
    })
    bounds = sorted({0, t.num_rows, *(min(c, t.num_rows) for c in cuts)})
    parts = [plan.tag(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:])]
    whole = _gate_partition_pa(_attach_keys(t, SPECS), SPECS)
    assert gated_rows(plan.gate(pa.concat_tables(parts))) == gated_rows(whole)


DUCKDB_GATE = """
    SELECT url FROM t
    QUALIFY row_number() OVER (PARTITION BY sid, ckey, bucket
                               ORDER BY warc_ts, url) {cond}
"""

DUCKDB_XBITS = """
    WITH o AS (
      SELECT *, row_number() OVER (
        PARTITION BY xname, xkey ORDER BY warc_ts,
          CASE xaction WHEN 'set' THEN 0 WHEN 'unset' THEN 1
                       WHEN 'isset' THEN 2 ELSE 3 END, url) AS rn
      FROM t),
    s AS (
      SELECT *,
        last_value(CASE WHEN xaction = 'set' THEN rn END IGNORE NULLS)
          OVER w AS set_rn,
        last_value(CASE WHEN xaction = 'unset' THEN rn END IGNORE NULLS)
          OVER w AS unset_rn,
        last_value(CASE WHEN xaction = 'set' THEN epoch_us(warc_ts) END
                   IGNORE NULLS) OVER w AS set_us,
        last_value(CASE WHEN xaction = 'set' THEN xexpire END IGNORE NULLS)
          OVER w AS set_exp
      FROM o WINDOW w AS (PARTITION BY xname, xkey ORDER BY rn)),
    a AS (
      SELECT url, xaction,
        set_rn IS NOT NULL AND coalesce(unset_rn < set_rn, true)
          AND (set_exp < 0 OR epoch_us(warc_ts) < set_us + set_exp * 1000000)
          AS active
      FROM s)
    SELECT url FROM a
    WHERE (xaction = 'isset' AND active) OR (xaction = 'isnotset' AND NOT active)
"""


def duckdb_urls(t, sql):
    import duckdb

    con = duckdb.connect()
    con.register("t", t)
    return sorted(con.sql(sql).fetchall(), key=repr)


def urls_of(t):
    return sorted(((u,) for u in t["url"].to_pylist()), key=repr)


@pytest.mark.parametrize("spec,cond", [
    ({"kind": "threshold", "ttype": "limit", "count": 1}, "<= 1"),
    ({"kind": "threshold", "ttype": "limit", "count": 2}, "<= 2"),
    ({"kind": "after", "count": 2}, "> 2"),
], ids=["limit1", "limit2", "after2"])
def test_gate_null_url_tie_matches_duckdb(spec, cond):
    """A null url tied on warc_ts sorts last (DuckDB's ORDER BY warc_ts,
    url); it used to raise TypeError in the object argsort."""
    t = pa.table({
        "sid": pa.array([7, 7, 7], pa.int64()),
        "ckey": ["h", "h", "h"],
        "bucket": pa.array([0, 0, 0], pa.int64()),
        "warc_ts": pa.array([5_000_000] * 3, pa.timestamp("us")),
        "url": ["b", None, "a"],
    })
    want = duckdb_urls(t, DUCKDB_GATE.format(cond=cond))
    assert urls_of(_gate_partition_pa(t, {7: spec})) == want
    assert urls_of(pa.Table.from_pandas(_gate_partition(t.to_pandas(),
                                                        {7: spec}))) == want


@pytest.mark.parametrize("actions,expires,urls,late", [
    # set + two issets tied on ts: both fire
    (["set", "isset", "isset"], [-1, -1, -1], ["a", None, "c"], []),
    # two sets tied on ts: the null-url one is the later set, so its
    # 200 s expire holds at +100 s
    (["set", "set"], [50, 200], ["a", None], ["isset", "isnotset"]),
], ids=["tied_issets", "tied_sets"])
def test_resolve_null_url_tie_matches_duckdb(actions, expires, urls, late):
    from sagan_ray.stages.correlate import _resolve_partition_pa

    n = len(actions) + len(late)
    t = pa.table({
        "xname": ["b"] * n,
        "xkey": ["k"] * n,
        "warc_ts": pa.array([1_000_000] * len(actions)
                            + [101_000_000] * len(late), pa.timestamp("us")),
        "xaction": actions + late,
        "xexpire": pa.array(expires + [-1] * len(late), pa.int64()),
        "url": urls + [f"late{i}" for i in range(len(late))],
        "sid": pa.array([1] * n, pa.int64()),
    })
    want = duckdb_urls(t, DUCKDB_XBITS)
    assert want  # the case keeps rows, so a null url decides an outcome
    assert urls_of(_resolve_partition_pa(t)) == want


def test_attach_keys_pre_epoch_and_null_ts():
    """A correlated row before the epoch keeps its track key (its bucket
    is -1, no sentinel); null timestamps share one non-null bucket per
    (sid, ckey), apart from every real bucket, without a NaN cast."""
    import warnings

    t = pa.table({
        "sid": pa.array([1, 1, 1, 1], pa.int64()),
        "host": ["h1", "h2", "h1", "h1"],
        "url": ["u0", "u1", "u2", "u3"],
        "warc_ts": pa.array([-1_800_000_000, -1_800_000_000, None, None],
                            pa.timestamp("us")),  # 1969-12-31T23:30
    })
    specs = {1: {"kind": "threshold", "ttype": "limit", "count": 1,
                 "seconds": 3600, "track": "host"}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _attach_keys(t, specs)
    assert out["ckey"].to_pylist() == ["h1", "h2", "h1", "h1"]
    bucket = out["bucket"]
    assert bucket.type == pa.int64() and bucket.null_count == 0
    b = bucket.to_pylist()
    assert b[:2] == [-1, -1] and b[2] == b[3] and b[2] not in (-1, 0)
    # the gate: one row per host for the pre-epoch bucket, and the two
    # null-ts rows form ONE group (limit 1 keeps one of them)
    kept = _gate_partition_pa(out, specs)["url"].to_pylist()
    assert sorted(kept) == ["u0", "u1", "u2"]


def test_correlate_imports_no_pandas():
    """The gate module runs on Arrow alone; its pandas twins live in
    tests/gate_oracle.py."""
    import ast
    import pathlib

    import sagan_ray.stages.correlate as mod

    tree = ast.parse(pathlib.Path(mod.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "pandas" not in imported


def test_xbits_expire_window(ray_session):
    """set at t, expire E: isset fires in [t, t+E) only; unset clears."""
    import ray.data as rd

    from sagan_ray.rules import parse_rules
    from gate_oracle import apply_xbits

    rules, _ = parse_rules(
        'alert any any any -> any any (sid:10; content:"SETME"; '
        "xbits:set,b1,track by_host,expire 100; noalert;)\n"
        'alert any any any -> any any (sid:11; content:"TEST"; '
        "xbits:isset,b1,track by_host;)"
    )
    base = 1_700_000_000
    rows = [
        ("SETME", base + 0),       # sets until base+100
        ("TEST", base + 50),       # in window -> fires
        ("TEST", base + 150),      # expired -> no
        ("SETME x", base + 200),   # re-set until 300
        ("TEST", base + 250),      # fires
    ]
    alerts = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(len(rows))]),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], type=pa.timestamp("us")
            ),
            "host": pa.array(["h"] * len(rows)),
            "lang": pa.array(["en"] * len(rows)),
            "text": pa.array([r[0] for r in rows]),
            "sid": pa.array(
                [10 if "SETME" in r[0] else 11 for r in rows], type=pa.int64()
            ),
            "rev": pa.array([1] * len(rows), type=pa.int32()),
            "msg": pa.array(["m"] * len(rows)),
            "classification": pa.array(["c"] * len(rows)),
            "priority": pa.array([1] * len(rows), type=pa.int32()),
        }
    )
    out = apply_xbits(rd.from_arrow(alerts), rules).to_pandas()
    assert sorted(out["url"].tolist()) == ["u1", "u4"]


def test_legacy_threshold_type_every_cth():
    """Deprecated `type threshold` = emit every C-th match per key/window."""
    from sagan_ray.rules import parse_rule
    from gate_oracle import _attach_gb, _gate_partition
    from sagan_ray.stages.correlate import corr_specs

    rule = parse_rule(
        "alert any any any -> any any (sid:9; content:\"x\"; "
        "threshold: type threshold, track by_host, count 3, seconds 100;)"
    )
    specs = corr_specs([rule])
    rows = [(9, "h1", t) for t in range(10)]  # 10 events, one bucket
    df = alerts_df(rows)
    import pyarrow as pa

    t = pa.Table.from_pandas(df, preserve_index=False)
    from sagan_ray.stages.correlate import _attach_keys

    pdf = _attach_gb(_attach_keys(t, specs).to_pandas(), ["sid", "ckey", "bucket"])
    out = _gate_partition(pdf, specs)
    # every 3rd: rows 3,6,9 (1-based) -> u2, u5, u8
    assert sorted(out["url"]) == ["u2", "u5", "u8"]


def test_flexbits_alias():
    from sagan_ray.rules import parse_rule

    r = parse_rule(
        "alert any any any -> any any (sid:3; flexbits:set,fb,track by_host,expire 60;)"
    )
    assert r.xbits[0].name == "fb" and r.xbits[0].expire == 60
