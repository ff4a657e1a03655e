"""Differential property test for xbits: the vectorized groupby-ffill
state machine (_resolve_partition) vs an independently-written
sequential simulation of the frozen semantics."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_oracle import _resolve_partition

ACTIONS = ["set", "unset", "isset", "isnotset"]


def naive_resolve(rows):
    """rows: list of (xname, xkey, ts_sec, action, expire, url).
    Sequential per-(name,key) state machine, ordered by
    (ts, action-order set<unset<isset<isnotset, url)."""
    order = {"set": 0, "unset": 1, "isset": 2, "isnotset": 3}
    kept = []
    by_group: dict = {}
    for r in sorted(rows, key=lambda r: (r[0], r[1], r[2], order[r[3]], r[5])):
        name, key, ts, act, expire, url = r
        st_ = by_group.get((name, key))
        ts_us = ts * 1_000_000
        if act == "set":
            until = ts_us + expire * 1_000_000 if expire >= 0 else float("inf")
            by_group[(name, key)] = until
        elif act == "unset":
            by_group[(name, key)] = None
        else:
            active = st_ is not None and ts_us < st_
            if (act == "isset") == active:
                kept.append(url)
    return sorted(kept)


def to_frame(rows) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "xname": [r[0] for r in rows],
            "xkey": [r[1] for r in rows],
            "warc_ts": pd.to_datetime([r[2] for r in rows], unit="s").astype(
                "datetime64[us]"
            ),
            "xaction": [r[3] for r in rows],
            "xexpire": np.array([r[4] for r in rows], dtype=np.int64),
            "url": [r[5] for r in rows],
            "sid": np.int64(1),
        }
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["b1", "b2"]),
            st.sampled_from(["k1", "k2"]),
            st.integers(min_value=0, max_value=500),
            st.sampled_from(ACTIONS),
            st.sampled_from([-1, 50, 200]),
        ),
        min_size=0,
        max_size=50,
    )
)
def test_vectorized_resolve_matches_naive(raw):
    # mixed expires per bit are legal: a `set` overwrites the slot
    # (reference: xbit-mmap hash slot), so most-recent-set IS the
    # semantics both implementations must share
    rows = [
        (name, key, ts, act, exp, f"u{i:03d}")
        for i, (name, key, ts, act, exp) in enumerate(raw)
    ]
    g = to_frame(rows)
    got = sorted(_resolve_partition(g)["url"].tolist()) if len(g) else []
    want = naive_resolve(rows)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["b1", "b2"]),
            st.sampled_from(["k1", "k2"]),
            st.integers(min_value=0, max_value=500),
            st.sampled_from(ACTIONS),
            st.sampled_from([-1, 50, 200]),
        ),
        min_size=0,
        max_size=50,
    )
)
def test_arrow_resolve_matches_pandas(raw):
    """The Arrow-native resolver (Table.take, segment-cummax ffill) must
    keep exactly the rows its pandas twin keeps."""
    import pyarrow as pa

    from sagan_ray.stages.correlate import _resolve_partition_pa

    rows = [
        (name, key, ts, act, exp, f"u{i:03d}")
        for i, (name, key, ts, act, exp) in enumerate(raw)
    ]
    g = to_frame(rows)
    want = sorted(_resolve_partition(g)["url"].tolist()) if len(g) else []
    t = pa.Table.from_pandas(g, preserve_index=False)
    got = sorted(_resolve_partition_pa(t)["url"].to_pylist())
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1000003, 1000007]),
            st.sampled_from(["h1", "h2", "h3"]),
            st.integers(min_value=0, max_value=3),   # coarse time bucket
            st.integers(min_value=0, max_value=500),
        ),
        min_size=0,
        max_size=60,
    )
)
def test_arrow_gate_matches_pandas(raw):
    """The Arrow-native threshold/after gate must keep exactly the rows
    its pandas twin keeps (including url tie-breaks at equal ts)."""
    import pyarrow as pa

    from gate_oracle import _gate_partition
    from sagan_ray.stages.correlate import _gate_partition_pa

    specs = {
        1000003: {"kind": "threshold", "ttype": "limit", "count": 2},
        1000007: {"kind": "after", "count": 3},
    }
    g = pd.DataFrame(
        {
            "sid": np.array([r[0] for r in raw], dtype=np.int64),
            "ckey": [r[1] for r in raw],
            "bucket": np.array([r[2] for r in raw], dtype=np.int64),
            "warc_ts": pd.to_datetime([r[3] // 7 for r in raw], unit="s")
            .astype("datetime64[us]"),  # //7 forces equal-ts tie runs
            "url": [f"u{i % 13:02d}-{i:03d}" for i in range(len(raw))],
        }
    )
    want = sorted(_gate_partition(g, specs)["url"].tolist()) if len(g) else []
    t = pa.Table.from_pandas(g, preserve_index=False)
    got = sorted(_gate_partition_pa(t, specs)["url"].to_pylist())
    assert got == want
