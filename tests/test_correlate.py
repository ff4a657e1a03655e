"""Threshold/after invariants — property-based (hypothesis) + unit."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from sagan_ray.rules import parse_rule
from gate_oracle import _attach_gb, _gate_partition, _preprune_limit
from sagan_ray.stages.correlate import _attach_keys, corr_specs

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


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.just(1),
            st.sampled_from(["h1", "h2", "h3"]),
            st.integers(min_value=0, max_value=300),
        ),
        min_size=0,
        max_size=80,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_preprune_commutes_with_gate(rows, n_splits):
    """Batch-local pre-prune (skew guard) must not change the final gated
    set, for ANY partitioning of the input into batches."""
    df = alerts_df(rows)
    t = _attach_keys(pa.Table.from_pandas(df, preserve_index=False), SPECS)
    full = t.to_pandas()

    pruned_parts = []
    for chunk in np.array_split(np.arange(len(full)), n_splits):
        if len(chunk) == 0:
            continue
        pruned_parts.append(_preprune_limit(full.iloc[chunk].copy(), SPECS))
    pruned = (
        pd.concat(pruned_parts, ignore_index=True) if pruned_parts else full.iloc[0:0]
    )

    def final(pdf):
        pdf = _attach_gb(pdf.copy(), ["sid", "ckey", "bucket"])
        outs = [
            _gate_partition(g, SPECS) for _, g in pdf.groupby("gb", sort=False)
        ]
        out = pd.concat(outs) if outs else pdf.iloc[0:0]
        return sorted(out["url"].tolist())

    assert final(full) == final(pruned)


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
