"""Regression tests for the round-3 package-wide review findings over
the judged core (match/correlate/route)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sagan_ray.rules import parse_rules
from test_fused import both_plans, exchange_ops


def _mk_rule(body: str):
    txt = ('alert any any any -> any any (msg:"t"; sid:7001; rev:1; '
           f'classtype:misc-activity; {body})')
    return parse_rules(txt)[0]


def _webpages(hours, hosts=None, texts=None):
    n = len(hours)
    return pa.table({
        "url": pa.array([f"https://h{i}.example/p{i}" for i in range(n)]),
        "warc_ts": pa.array(
            [pd.Timestamp(f"2024-03-06 {h:02d}:30:00") for h in hours],
            type=pa.timestamp("us")),
        "host": pa.array(hosts or [f"h{i}.example" for i in range(n)]),
        "lang": pa.array(["en"] * n),
        "text": pa.array(texts or ["attack marker here"] * n),
    })


def test_alert_time_wraps_midnight(ray_session):
    """hours 2200-0600 (the canonical night window) must match 23:30
    and 03:30 but not 12:30 — the old mask was always-false."""
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    rules = _mk_rule('content:"attack"; alert_time: days 0123456, '
                     'hours 2200-0600;')
    t = _webpages([23, 3, 12, 22, 6])
    out = match_alerts(rd.from_arrow(t), rules).to_pandas()
    got_hours = sorted(pd.to_datetime(out["warc_ts"]).dt.hour.tolist())
    assert got_hours == [3, 22, 23]


def test_fast_log_survives_null_fields(ray_session, tmp_path):
    import os

    import ray.data as rd

    from sagan_ray.stages.route import write_fast_log

    t = pa.table({
        "warc_ts": pa.array([pd.Timestamp("2024-01-01"), None],
                            type=pa.timestamp("us")),
        "sid": pa.array([1, 2], type=pa.int64()),
        "rev": pa.array([1, 1], type=pa.int64()),
        "msg": pa.array(["m1", None]),
        "classification": pa.array(["c", "c"]),
        "host": pa.array([None, "h2"]),
        "url": pa.array(["u1", None]),
    })
    d = str(tmp_path / "fast")
    write_fast_log(rd.from_arrow(t), d)
    lines = []
    for p in os.listdir(d):
        with open(os.path.join(d, p)) as f:
            lines += [ln for ln in f.read().splitlines() if ln]
    assert len(lines) == 2  # the null-field row still logs (with '-')
    assert any("{HOST} -" in ln for ln in lines)


def _noalert_isset_alerts():
    """A set rule and a noalert isset rule on one host: (rules, alerts)."""
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    txt = """
alert any any any -> any any (msg:"setter"; sid:8001; rev:1; classtype:misc-activity; content:"stage one"; xbits:set,chain,track by_host,expire 3600;)
alert any any any -> any any (msg:"probe"; sid:8002; rev:1; classtype:misc-activity; content:"stage two"; xbits:isset,chain,track by_host; noalert;)
"""
    rules = parse_rules(txt)[0]
    t = _webpages(
        [10, 11], hosts=["same.example", "same.example"],
        texts=["stage one here", "stage two here"])
    return rules, match_alerts(rd.from_arrow(t), rules).materialize()


def _missing_track_alerts():
    """xbits tracked by_username over alerts with no username column,
    set on host A and probed on host B: (rules, alerts)."""
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    txt = """
alert any any any -> any any (msg:"s"; sid:8101; rev:1; classtype:misc-activity; content:"stage one"; xbits:set,u,track by_username,expire 7200;)
alert any any any -> any any (msg:"p"; sid:8102; rev:1; classtype:misc-activity; content:"stage two"; xbits:isset,u,track by_username;)
"""
    rules = parse_rules(txt)[0]
    t = _webpages([10, 11], hosts=["a.example", "b.example"],
                  texts=["stage one", "stage two"])
    return rules, match_alerts(rd.from_arrow(t), rules).materialize()


@pytest.mark.parametrize("fused", [True, False])
def test_noalert_isset_rule_never_routes(ray_session, fused):
    """A noalert rule with an xbits TEST evaluates but routes nothing
    (flagship contract); the set-side rule still routes its own alert."""
    from gate_oracle import apply_xbits
    from sagan_ray.stages.correlate import apply_correlation_fused

    rules, alerts = _noalert_isset_alerts()
    assert sorted(alerts.to_pandas()["sid"]) == [8001, 8002]
    gated = (apply_correlation_fused(alerts, rules) if fused
             else apply_xbits(alerts, rules))
    sids = sorted(gated.to_pandas()["sid"]) if gated.count() else []
    assert sids == [8001]  # the isset match fired internally but noalert


def test_missing_track_column_keys_to_empty_both_engines(ray_session):
    """track by_username with no username column: one '' group in BOTH
    xbits engines (the _track_col contract; the old fallback used host,
    splitting state per host)."""
    from gate_oracle import apply_xbits
    from sagan_ray.stages.correlate import apply_correlation_fused

    # set on host A, probe on host B: with the '' group they correlate
    rules, alerts = _missing_track_alerts()
    for engine in (apply_correlation_fused, apply_xbits):
        got = sorted(engine(alerts, rules).to_pandas()["sid"])
        assert got == [8101, 8102], engine.__name__


@both_plans(128)
@pytest.mark.parametrize("alerts_of, want", [
    (_noalert_isset_alerts, [8001]),
    (_missing_track_alerts, [8101, 8102]),
], ids=["noalert_isset", "missing_track"])
def test_xbits_cases_through_gate_alerts(ray_session, block_bytes,
                                         alerts_of, want):
    """The two cases above route the same through gate_alerts, in one
    task and through the tagged exchange."""
    from sagan_ray.pipelines.flagship import gate_alerts

    rules, alerts = alerts_of()
    gated = gate_alerts(alerts, rules).materialize()
    assert bool(exchange_ops(gated)) == (block_bytes is not None)
    assert sorted(gated.to_pandas()["sid"]) == want


def test_eve_tee_filenames_are_content_addressed(ray_session, tmp_path):
    import os

    import ray.data as rd

    from sagan_ray.stages.route import route_alerts

    t = pa.table({
        "url": pa.array(["u1", "u2"]),
        "warc_ts": pa.array([pd.Timestamp("2024-01-01")] * 2,
                            type=pa.timestamp("us")),
        "sid": pa.array([1, 1], type=pa.int64()),
        "rev": pa.array([1, 1], type=pa.int32()),
        "msg": pa.array(["m", "m"]),
        "classification": pa.array(["c", "c"]),
        "host": pa.array(["h", "h"]),
        "lang": pa.array(["en", "en"]),
        "text": pa.array(["x", "y"]),
    })
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    route_alerts(rd.from_arrow(t), d1, write_eve=True)
    route_alerts(rd.from_arrow(t), d2, write_eve=True)

    def lines(d):
        out = []
        for f in os.listdir(os.path.join(d, "eve")):
            with open(os.path.join(d, "eve", f)) as fh:
                out.extend(fh.read().splitlines())
        return sorted(out)

    # round-4 contract: filenames mix in a task-lineage discriminator
    # (identical-content blocks must not collide), so names are NOT
    # stable across runs — CONTENT is, and a re-route to the same dir
    # clears stale files first (no double count).
    l1, l2 = lines(d1), lines(d2)
    assert l1 == l2 and len(l1) == 2
    route_alerts(rd.from_arrow(t), d1, write_eve=True)  # re-route
    assert lines(d1) == l1


def test_read_parquet_clean_hive_partition_schema(ray_session, tmp_path):
    """Round-5 review finding: over a hive-partitioned dir the footer-
    derived schema hint omitted the partition column, so the declared
    schema disagreed with the blocks (the exact divergence the helper
    exists to prevent). The hint is skipped for hive layouts."""
    import os

    import pyarrow.parquet as pq

    from sagan_ray.sources import read_parquet_clean

    root = tmp_path / "sinks"
    for cls in ("alpha", "beta"):
        d = root / f"classification={cls}"
        os.makedirs(d)
        pq.write_table(pa.table({"sid": pa.array([1, 2], pa.int64()),
                                 "msg": pa.array(["a", "b"])}),
                       str(d / "part.parquet"))
    ds = read_parquet_clean(str(root))
    names = set(ds.schema().names)
    assert "classification" in names  # declared schema == block schema
    out = ds.to_pandas()
    assert set(out["classification"]) == {"alpha", "beta"}
    assert len(out) == 4


# ---- round-5 second review pass ----


def test_asof_join_nulls_and_float_payload_match_duckdb(ray_session):
    """Round-5 review findings: (a) a partition with left rows but no
    right rows crashed on the float-payload NA fill; (b) null ts rows
    crashed merge_asof; (c) null by-keys MATCHED each other (merge_asof
    equates NaN) where DuckDB ASOF LEFT JOIN never matches NULL."""
    import duckdb
    import ray.data as rd

    from sagan_ray.stages.window import asof_join

    ts = lambda s: pd.Timestamp(f"2024-01-01 00:00:{s:02d}")
    left = pd.DataFrame({
        "k": pd.array([1, 1, None, 2, 9], dtype="Int64"),
        "ts": [ts(5), pd.NaT, ts(3), ts(4), ts(7)],
        "lv": [10, 11, 12, 20, 30],
    })
    right = pd.DataFrame({
        "k": pd.array([1, None, 2], dtype="Int64"),
        "ts": [ts(2), ts(1), pd.NaT],
        "rv": [0.5, 0.25, 0.125],  # float payload -> NaN fill path
    })
    out = asof_join(rd.from_pandas(left), rd.from_pandas(right),
                    keys=["k"], ts_col="ts").to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    # the SCALAR restatement, not the ASOF operator: DuckDB's ASOF
    # operator matches a NULL left ts to the LAST right row (sort
    # artifact), diverging from SQL NULL-comparison semantics; the
    # correlated subquery encodes the standard (NULL never matches),
    # which is the contract asof_join pins
    ref = con.execute(
        "SELECT l.lv, (SELECT r.rv FROM r WHERE r.k = l.k "
        "AND r.ts <= l.ts ORDER BY r.ts DESC LIMIT 1) AS rv "
        "FROM l").df()
    got = {int(a): (None if pd.isna(b) else float(b))
           for a, b in zip(out["lv"], out["rv"])}
    want = {int(a): (None if pd.isna(b) else float(b))
            for a, b in zip(ref["lv"], ref["rv"])}
    assert len(out) == len(left)  # every left row survives exactly once
    assert got == want  # null ts / null key rows unmatched, 1->0.5 only


def test_range_join_null_ts_matches_duckdb(ray_session):
    """A null timestamp on either side pairs with nothing (inner
    semantics) instead of crashing the merge_asof probe."""
    import duckdb
    import ray.data as rd

    from sagan_ray.stages.window import range_join

    ts = lambda s: pd.Timestamp(f"2024-01-01 00:00:{s:02d}")
    left = pd.DataFrame({
        "k": [1, 1, 2], "ts": [ts(1), pd.NaT, ts(2)],
        "lv": [10, 11, 20],
    })
    right = pd.DataFrame({
        "k": [1, 1, 2], "ts": [ts(2), pd.NaT, ts(3)],
        "rv": [100, 101, 200],
    })
    lo, hi = pd.Timedelta(seconds=0), pd.Timedelta(seconds=5)
    out = range_join(rd.from_pandas(left), rd.from_pandas(right),
                     keys=["k"], ts_col="ts", lo=lo, hi=hi).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    ref = con.execute(
        "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k "
        "AND r.ts > l.ts + INTERVAL 0 SECOND "
        "AND r.ts <= l.ts + INTERVAL 5 SECOND").df()
    assert (sorted(zip(out["lv"], out["rv"]))
            == sorted(zip(ref["lv"], ref["rv"])))


def test_window_kernels_keep_null_keys():
    """groupby(dropna=False) everywhere: null-key rows form a real
    group (SQL GROUP BY semantics) — rolling crashed with a length
    mismatch, rank/sessionize/top1 silently dropped them."""
    from sagan_ray.stages.window import (rolling_sum_fn, sessionize_fn,
                                         top1_fn, windowed_rank_filter)

    ts = pd.to_datetime(["2024-01-01 00:00:01", "2024-01-01 00:00:02",
                         "2024-01-01 00:00:03"])
    g = pd.DataFrame({"k": [1.0, None, None], "ts": ts,
                      "v": [1.0, 2.0, 3.0]})
    out = rolling_sum_fn(["k"], ["ts"], "v", 2, "s")(g.copy())
    assert len(out) == 3  # null-key rows kept, no length mismatch
    assert sorted(out.loc[out["k"].isna(), "s"]) == [2.0, 5.0]
    out = windowed_rank_filter(["k"], ["ts"], 1, "limit")(g.copy())
    assert out["k"].isna().sum() == 1  # first null-key row kept
    out = sessionize_fn(["k"], "ts", ["ts"],
                        pd.Timedelta(seconds=10))(g.copy())
    assert len(out) == 2  # the null key is a group with n_sessions
    out = top1_fn(["k"], "v", "ts")(g.copy())
    assert out["k"].isna().sum() == 1


def test_stable_col_hash_ns_precision(ray_session):
    """ns-precision temporals hash via a flooring cast instead of
    raising ArrowInvalid; sub-us-apart instants may collide (fine for
    a routing hash) but equal instants from us/ns blocks agree."""
    from sagan_ray.stages.window import _stable_col_hash

    ns = pa.array([1001, 2_000_000_000], type=pa.timestamp("ns"))
    us = pa.array([1, 2_000_000], type=pa.timestamp("us"))
    h_ns = _stable_col_hash(ns)
    h_us = _stable_col_hash(us)
    assert list(h_ns) == list(h_us)  # 1001ns floors to 1us
    _stable_col_hash(pa.array([1001], type=pa.time64("ns")))
    _stable_col_hash(pa.array([1001], type=pa.duration("ns")))


def test_hopping_window_ns_timestamps(ray_session):
    import ray.data as rd

    from sagan_ray.stages.window import hopping_window_agg

    t = pa.table({
        "k": pa.array([1, 1, 2], type=pa.int64()),
        "ts": pa.array([1001, 30_000_000_001, 1],
                       type=pa.timestamp("ns")),
        "v": pa.array([1.0, 2.0, 3.0]),
    })
    out = hopping_window_agg(rd.from_arrow(t), keys=["k"], ts_col="ts",
                             window_s=60, hop_s=15,
                             value_col="v").to_pandas()
    assert len(out) > 0  # no ArrowInvalid from the pane cast


def test_alert_mail_newline_headers():
    """A rule msg with CR/LF must not kill the batch: header values
    sanitize to spaces (EmailMessage raises on raw newlines)."""
    from sagan_ray.stages.emit import SmtpEmitter, format_alert_mail

    batch = pa.table({
        "sid": pa.array([1], type=pa.int64()),
        "msg": pa.array(["evil\r\nX-Injected: gotcha"]),
        "classification": pa.array(["c\nd"]),
        "url": pa.array(["https://x/y"]),
    })
    msgs = format_alert_mail(batch, "f@x", "t@x")
    assert len(msgs) == 1
    # the newline is now a space INSIDE the Subject value — no line of
    # the message starts with the injected header name
    assert not any(ln.startswith(b"X-Injected:")
                   for ln in msgs[0].splitlines())
    sent = []
    em = SmtpEmitter(transport=lambda ms: sent.extend(ms) or len(ms),
                     mail_from="f@x", mail_to="t@x")
    stats = em(batch)
    assert stats["n_ok"][0].as_py() == 1 and len(sent) == 1
