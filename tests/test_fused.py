"""Differential test: the fused single-shuffle correlator must produce
EXACTLY the same routed row set as the two-phase path, for random alert
streams (hypothesis) — the fused path is a pure physical optimization."""

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gate_oracle import apply_correlation, apply_xbits
from sagan_ray.pipelines.flagship import gate_alerts, load_default_rules
from sagan_ray.rules import parse_rules
from sagan_ray.schema import ALERTS_SCHEMA
from sagan_ray.stages.correlate import apply_correlation_fused, can_fuse
from sagan_ray.stages.match import match_alerts
from sagan_ray.stages.route import route_alerts
from sagan_ray.sources.webpages import webpages_from_documents
from test_flagship import SF

RULES_TEXT = """
alert any any any -> any any (msg:"plain"; sid:1; content:"aa"; classtype:misc-activity;)
alert any any any -> any any (msg:"lim"; sid:2; content:"bb"; classtype:bad-unknown; threshold: type limit, track by_host, count 2, seconds 100;)
alert any any any -> any any (msg:"aft"; sid:3; content:"cc"; classtype:bad-unknown; after: track by_host, count 1, seconds 100;)
alert any any any -> any any (msg:"sup"; sid:4; content:"dd"; classtype:misc-activity; threshold: type suppress, track by_host, count 3, seconds 100;)
alert any any any -> any any (msg:"set"; sid:5; content:"ee"; classtype:not-suspicious; xbits:set,b1,track by_host,expire 150;)
alert any any any -> any any (msg:"iss"; sid:6; content:"ff"; classtype:correlated-attack; xbits:isset,b1,track by_host;)
alert any any any -> any any (msg:"nots"; sid:7; content:"gg"; classtype:misc-activity; xbits:isnotset,b1,track by_host;)
"""
RULES, _ = parse_rules(RULES_TEXT)
assert can_fuse(RULES)
SID_META = {r.sid: r for r in RULES}


def alerts_table(rows, sid_meta=SID_META):
    """rows: (sid, host, ts_sec) triples."""
    n = len(rows)
    return pa.table(
        {
            "url": pa.array([f"u{i:04d}" for i in range(n)]),
            "warc_ts": pa.array(
                [r[2] * 1_000_000 for r in rows], type=pa.timestamp("us")
            ),
            "host": pa.array([r[1] for r in rows]),
            "lang": pa.array(["en"] * n),
            "text": pa.array(["t"] * n),
            "sid": pa.array([r[0] for r in rows], type=pa.int64()),
            "rev": pa.array([1] * n, type=pa.int32()),
            "msg": pa.array([sid_meta[r[0]].msg for r in rows]),
            "classification": pa.array([sid_meta[r[0]].classtype for r in rows]),
            "priority": pa.array([2] * n, type=pa.int32()),
        }
    )


def routed_set(ds):
    pdf = ds.to_pandas()
    if pdf.empty or "url" not in pdf.columns:
        return []
    return sorted(zip(pdf["url"], pdf["sid"]))


def exchange_ops(ds) -> list[str]:
    """Sort / MapGroups operators a materialized Dataset's plan ran."""
    return re.findall(r"Operator \d+ (Sort|MapGroups)\b", ds.stats())


def block_schemas(ds) -> list[pa.Schema]:
    """The distinct schemas of a materialized Dataset's blocks, leaving
    out the column-less empty blocks Ray's exchange emits for partitions
    that hold no rows."""
    import ray

    schemas: list[pa.Schema] = []
    for t in ray.get(ds.to_arrow_refs()):
        if t.num_columns and not any(t.schema.equals(s) for s in schemas):
            schemas.append(t.schema)
    return schemas


# each gate test runs under both plans: `block_bytes` (tests/conftest.py)
# at Ray's default keeps a small stream in one task; lowered below the
# test's alert stream, it sends gate_alerts through the tagged exchange
def both_plans(shuffle_block_bytes: int):
    return pytest.mark.parametrize(
        "block_bytes", [None, shuffle_block_bytes],
        ids=["one_block", "shuffle"], indirect=True)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=7),
            st.sampled_from(["h1", "h2"]),
            st.integers(min_value=0, max_value=400),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_fused_equals_two_phase(ray_session, rows):
    import ray.data as rd

    alerts = rd.from_arrow(alerts_table(rows)).materialize()
    two_phase = apply_xbits(
        apply_correlation(alerts, RULES).materialize(), RULES
    )
    fused = apply_correlation_fused(alerts, RULES)
    assert routed_set(two_phase) == routed_set(fused)


@both_plans(4096)
def test_fused_large_random(ray_session, block_bytes):
    """One bigger randomized instance across many hosts/batches: the
    fused exchange and gate_alerts (under each plan) both route exactly
    the two-phase exchange's rows."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    n = 3000
    rows = [
        (int(rng.randint(1, 8)), f"h{rng.randint(0, 20)}", int(rng.randint(0, 5000)))
        for _ in range(n)
    ]
    alerts = (
        rd.from_arrow(alerts_table(rows))
        .map_batches(lambda t: t, batch_size=128, batch_format="pyarrow")
        .materialize()
    )
    alerts = alerts.repartition(1).materialize()
    two_phase = apply_xbits(
        apply_correlation(alerts, RULES).materialize(), RULES
    )
    fused = apply_correlation_fused(alerts, RULES)
    assert routed_set(two_phase) == routed_set(fused)
    gated = gate_alerts(alerts, RULES).materialize()
    assert bool(exchange_ops(gated)) == (block_bytes is not None)
    assert routed_set(gated) == routed_set(two_phase)


MIXED_RULES, _ = parse_rules("""
alert any any any -> any any (msg:"set"; sid:1; content:"ee"; classtype:not-suspicious; xbits:set,b1,track by_host,expire 150;)
alert any any any -> any any (msg:"lim+iss"; sid:2; content:"ff"; classtype:correlated-attack; threshold: type limit, track by_host, count 1, seconds 100; xbits:isset,b1,track by_host;)
""")
MIXED_META = {r.sid: r for r in MIXED_RULES}


@both_plans(128)
@pytest.mark.parametrize(
    "lim_ts, routed_lim",
    [
        # limit keeps only t=5, where b1 (set at t=10) is not yet set
        ([5, 20, 30], []),
        # limit keeps t=20; b1 was set at t=10 and has not expired
        ([20, 30], [20]),
    ],
)
def test_gate_alerts_mixed_family(ray_session, block_bytes, lim_ts,
                                  routed_lim):
    """A rule with BOTH a threshold and an xbits test cannot fuse, so
    gate_alerts runs the two-phase family: threshold first, then xbits —
    in one task, or as two exchanges."""
    import ray.data as rd

    assert not can_fuse(MIXED_RULES)
    rows = [(1, "h1", 10)] + [(2, "h1", t) for t in lim_ts]
    alerts = rd.from_arrow(alerts_table(rows, MIXED_META))
    gated = gate_alerts(alerts, MIXED_RULES).materialize()
    assert bool(exchange_ops(gated)) == (block_bytes is not None)
    assert len(block_schemas(gated)) == 1
    routed = gated.to_pandas()
    ts_by_url = {f"u{i:04d}": t for i, (_s, _h, t) in enumerate(rows)}
    got = sorted((s, ts_by_url[u]) for s, u in zip(routed["sid"], routed["url"]))
    assert got == [(1, 10)] + [(2, t) for t in routed_lim]


def web_alerts():
    """The match stage's alert stream for web.rules over sf0.001."""
    return match_alerts(webpages_from_documents(SF), load_default_rules())


@both_plans(65536)
def test_gate_alerts_web_rules(ray_session, block_bytes):
    """web.rules (limit, after, xbits set+isset with noalert): gate_alerts
    routes exactly the rows of the two-phase exchange under each plan."""
    rules = load_default_rules()
    alerts = web_alerts().materialize()
    want = routed_set(
        apply_xbits(apply_correlation(alerts, rules).materialize(), rules))
    gated = gate_alerts(alerts, rules).materialize()
    assert bool(exchange_ops(gated)) == (block_bytes is not None)
    assert len(block_schemas(gated)) == 1
    assert routed_set(gated) == want


@both_plans(128)
def test_gate_keeps_row_sid_constants(ray_session, block_bytes):
    """A gated row routes with its own msg/classification/priority/rev,
    not its rule's — as when stage B re-gates a checkpointed row under
    reloaded rules — the same under both plans, in blocks of the input's
    schema."""
    import ray.data as rd

    rows = [(2, "h1", t) for t in (1, 2, 3)] + [
        (5, "h1", 4), (6, "h1", 5), (7, "h2", 6), (1, "h1", 7)]
    table = alerts_table(rows)
    n = table.num_rows
    old = {"msg": "old msg", "classification": "old-class",
           "priority": 9, "rev": 7}
    for name, value in old.items():
        i = table.schema.get_field_index(name)
        table = table.set_column(
            i, name, pa.array([value] * n, type=table.schema.field(i).type))
    gated = gate_alerts(rd.from_arrow(table), RULES).materialize()
    assert bool(exchange_ops(gated)) == (block_bytes is not None)
    [schema] = block_schemas(gated)
    assert schema.equals(table.schema)
    for name in old:
        assert schema.field(name).type == ALERTS_SCHEMA.field(name).type
    routed = gated.to_pandas()
    assert sorted(routed["sid"]) == [1, 2, 2, 5, 6, 7]
    for name, value in old.items():
        assert set(routed[name]) == {value}


def test_small_stream_gates_in_one_task(ray_session, tmp_path):
    """An alert stream that fits one block is gated in ONE task, without
    a sort, MapGroups or Repartition operator, into one block, and routes
    to one parquet file per classification — also when the stream
    arrives in many blocks."""
    import ray
    import ray.data as rd

    rules = load_default_rules()
    alerts = web_alerts().materialize()
    table = pa.concat_tables(ray.get(alerts.to_arrow_refs()))
    step = -(-table.num_rows // 6)
    many = rd.from_arrow([table.slice(i, step)
                          for i in range(0, table.num_rows, step)])
    assert many.num_blocks() >= 5
    routed = []
    for i, stream in enumerate((alerts, many)):
        gated = gate_alerts(stream, rules).materialize()
        routed.append(routed_set(gated))
        stats = gated.stats()
        assert exchange_ops(gated) == []
        assert not re.search(r"Operator \d+ \S*Repartition", stats)
        assert re.findall(
            r"Operator \d+ MapBatches\(gate_all\): (\d+) tasks executed",
            stats) == ["1"]
        assert gated.num_blocks() == 1
        out = tmp_path / f"run{i}"
        manifest = route_alerts(gated, str(out))
        for cls in manifest["sinks"]:
            files = [f for f in os.listdir(out / "sinks" / f"classification={cls}")
                     if f.endswith(".parquet")]
            assert len(files) == 1, (cls, files)
    assert routed[0] == routed[1]
