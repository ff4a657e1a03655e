"""Round-2 features: rule headers, parse_proto, fail-closed gates,
latin-1 rawbytes, noalert routing, CIDR blacklist, DNS cache, hamming
kernel, lineage path hashing."""

import numpy as np
import pyarrow as pa
import pytest

from sagan_ray.rules import Header, HostSpec, parse_rule, parse_rules
from sagan_ray.stages.match import check_content_chain, make_matcher, rule_mask


def batch(texts, hosts=None, langs=None, **extra):
    n = len(texts)
    cols = {
        "url": pa.array([f"u{i}" for i in range(n)]),
        "warc_ts": pa.array([0] * n, type=pa.timestamp("us")),
        "host": pa.array(hosts or ["h"] * n),
        "lang": pa.array(langs or ["en"] * n),
        "text": pa.array(texts),
    }
    cols.update(extra)
    return pa.table(cols)


# ---------------------------------------------------------------------------
# header parsing + gating
# ---------------------------------------------------------------------------


def test_header_parsed_and_compiled():
    r = parse_rule(
        'alert tcp [a.com,b.com] any -> en any (sid:1; content:"x";)'
    )
    assert r.header is not None
    assert r.header.proto == "tcp"
    assert r.header.src.globs == ("a.com", "b.com")
    assert r.header.dst.globs == ("en",)
    assert not r.header.bidirectional


def test_header_any_is_none():
    r = parse_rule('alert any any any -> any any (sid:1; content:"x";)')
    assert r.header is None
    r2 = parse_rule('alert syslog any any -> any any (sid:2; content:"x";)')
    assert r2.header is None  # syslog == transport designator, not a gate


def test_header_var_expansion():
    rules, _ = parse_rules(
        "var HOME [a.com, b.com]\n"
        'alert any $HOME any -> any any (sid:3; content:"x";)'
    )
    assert rules[0].header.src.globs == ("a.com", "b.com")


def test_header_src_gates_host():
    r = parse_rule('alert any a.com any -> any any (sid:1; content:"x";)')
    b = batch(["x", "x", "y"], hosts=["a.com", "b.com", "a.com"])
    assert rule_mask(b, r).tolist() == [True, False, False]


def test_header_negated_src():
    r = parse_rule('alert any !a.com any -> any any (sid:1; content:"x";)')
    b = batch(["x", "x"], hosts=["a.com", "b.com"])
    assert rule_mask(b, r).tolist() == [False, True]


def test_header_dst_gates_lang():
    r = parse_rule('alert any any any -> de any (sid:1; content:"x";)')
    b = batch(["x", "x"], langs=["en", "de"])
    assert rule_mask(b, r).tolist() == [False, True]


def test_header_bidirectional():
    # <> matches either (host in src, lang in dst) or flipped
    r = parse_rule('alert any a.com any <> en any (sid:1; content:"x";)')
    b = batch(
        ["x", "x", "x"],
        hosts=["a.com", "en", "z.com"],
        langs=["en", "a.com", "zz"],
    )
    assert rule_mask(b, r).tolist() == [True, True, False]


def test_header_glob():
    r = parse_rule('alert any h0* any -> any any (sid:1; content:"x";)')
    b = batch(["x", "x"], hosts=["h01.example", "g01"])
    assert rule_mask(b, r).tolist() == [True, False]


# ---------------------------------------------------------------------------
# fail-closed gates
# ---------------------------------------------------------------------------


def test_gate_fails_closed_when_column_missing():
    r = parse_rule('alert any any any -> any any (sid:1; level:"warn"; content:"x";)')
    b = batch(["x", "x"])  # no `source` column
    assert rule_mask(b, r).tolist() == [False, False]
    r2 = parse_rule('alert any any any -> any any (sid:2; event_id:"7"; content:"x";)')
    assert rule_mask(b, r2).tolist() == [False, False]
    r3 = parse_rule(
        'alert any any any -> any any (sid:3; content:"x"; '
        "country_code: track by_host, is [US];)"
    )
    assert rule_mask(b, r3).tolist() == [False, False]


# ---------------------------------------------------------------------------
# latin-1 rawbytes + chain bound parity
# ---------------------------------------------------------------------------


def test_rawbytes_latin1_high_bytes(ray_session):
    """Non-UTF8 html bytes (0xFF) must not crash, and |hex| patterns over
    bytes >0x7F must match via the latin-1 mapping."""
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    rules, _ = parse_rules(
        'alert any any any -> any any (msg:"hi-byte"; sid:9; '
        'content:"|FF FE|mark"; rawbytes; classtype:misc-activity;)'
    )
    t = pa.table(
        {
            "url": pa.array(["u1", "u2"]),
            "warc_ts": pa.array([0, 0], type=pa.timestamp("us")),
            "host": pa.array(["h", "h"]),
            "lang": pa.array(["en", "en"]),
            "text": pa.array(["clean text", "clean text"]),
            "html": pa.array([b"\xff\xfemark body", b"plain"], type=pa.binary()),
        }
    )
    out = match_alerts(rd.from_arrow(t), rules).to_pandas()
    assert out["url"].tolist() == ["u1"]


def test_chain_rawbytes_hit_beyond_text_len():
    """Regression: an unconstrained content's bound is len(base), so a
    rawbytes hit beyond len(text) matches. rule_mask and make_matcher
    agree with check_content_chain, for a lone rawbytes content and for
    one inside a position chain."""
    rules = [parse_rule(
        'alert any any any -> any any (sid:1; content:"tail"; rawbytes;)'
    ), parse_rule(
        'alert any any any -> any any (sid:2; content:"sh"; depth:2; '
        'content:"tail"; rawbytes;)'
    )]
    text, raws = "short", ["x" * 50 + "tail", "x" * 50]
    # html_str: the latin-1 view of html that match_alerts hands the matcher
    b = batch([text, text], html_str=pa.array(raws))
    for r in rules:
        want = [check_content_chain(text, r.contents, raw) for raw in raws]
        assert want == [True, False]
        assert rule_mask(b, r).tolist() == want
    out = make_matcher(rules)(b)
    assert sorted(zip(out["sid"].to_pylist(), out["url"].to_pylist())) == [
        (1, "u0"), (2, "u0")]


# ---------------------------------------------------------------------------
# noalert routing
# ---------------------------------------------------------------------------


def test_noalert_without_xbits_routes_nothing(ray_session):
    import ray.data as rd

    from sagan_ray.pipelines.flagship import alerts_pipeline

    rules, _ = parse_rules(
        'alert any any any -> any any (msg:"silent"; sid:50; content:"x"; '
        "noalert; classtype:misc-activity;)\n"
        'alert any any any -> any any (msg:"loud"; sid:51; content:"x"; '
        "classtype:misc-activity;)"
    )
    t = batch(["x here"])
    out = alerts_pipeline(rd.from_arrow(t), rules).to_pandas()
    assert out["sid"].tolist() == [51]


# ---------------------------------------------------------------------------
# parse_proto kernels
# ---------------------------------------------------------------------------


def test_proto_from_text():
    from sagan_ray.functions.extract import proto_from_text

    arr = pa.array(
        ["conn over TCP port 80", "udp flood", "ping icmp", "nothing here", None]
    )
    assert proto_from_text(arr).to_pylist() == ["tcp", "udp", "icmp", None, None]


def test_proto_priority_tcp_first():
    from sagan_ray.functions.extract import proto_from_text

    arr = pa.array(["udp then tcp"])
    assert proto_from_text(arr).to_pylist() == ["tcp"]


def test_proto_from_program():
    from sagan_ray.functions.extract import proto_from_program

    arr = pa.array(["sshd", "named", "unknownd", None])
    assert proto_from_program(arr).to_pylist() == ["tcp", "udp", None, None]


def test_parse_proto_rule_option(ray_session):
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    rules, _ = parse_rules(
        'alert any any any -> any any (msg:"p"; sid:60; content:"conn"; '
        "parse_proto; classtype:misc-activity;)"
    )
    t = batch(["conn via udp", "conn no proto"])
    out = match_alerts(rd.from_arrow(t), rules).to_pandas()
    assert sorted(out["proto"].fillna("-").tolist()) == ["-", "udp"]


# ---------------------------------------------------------------------------
# CIDR blacklist + DNS cache
# ---------------------------------------------------------------------------


def test_cidr_membership():
    from sagan_ray.stages.enrich import compile_cidrs, ips_in_cidrs

    starts, ends, v6 = compile_cidrs(
        ["10.0.3.0/24", "192.168.0.0/16", "2001:db8::/32"]
    )
    ips = ["10.0.3.7", "10.0.4.1", "192.168.255.1", "8.8.8.8", None, "bogus",
           "2001:db8::42", "2001:db9::1"]
    assert ips_in_cidrs(ips, starts, ends, v6).tolist() == [
        True, False, True, False, False, False, True, False,
    ]


def test_dns_cache_resolves_once():
    from sagan_ray.stages.enrich import DnsCache

    c = DnsCache({"a.com": "1.2.3.4"})
    t = pa.table({"host": pa.array(["a.com", "a.com", "b.com"])})
    out = c(t)
    assert out["resolved_ip"].to_pylist() == ["1.2.3.4", "1.2.3.4", None]
    # second batch with the same hosts: all served from cache
    c(t)
    assert c.misses == 2  # a.com and b.com resolved exactly once each
    assert c.hits >= 1


# ---------------------------------------------------------------------------
# hamming pair kernel (vs brute force)
# ---------------------------------------------------------------------------


def test_hamming_pairs_matches_bruteforce():
    from sagan_ray.stages.dedup import _hamming_pairs

    rng = np.random.RandomState(7)
    sig = rng.randint(0, 2**63, size=200, dtype=np.int64).view(np.uint64)
    # plant close pairs
    sig[10] = sig[11] ^ np.uint64(0b101)  # hamming 2
    sig[20] = sig[21]  # hamming 0
    a, b, h = _hamming_pairs(sig, 3, chunk=17)  # odd chunk crosses bounds
    got = set(zip(a.tolist(), b.tolist()))
    expect = set()
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if bin(int(sig[i]) ^ int(sig[j])).count("1") <= 3:
                expect.add((i, j))
    assert got == expect
    for ai, bi, hi in zip(a.tolist(), b.tolist(), h.tolist()):
        assert bin(int(sig[ai]) ^ int(sig[bi])).count("1") == hi


# ---------------------------------------------------------------------------
# lineage partition ids
# ---------------------------------------------------------------------------


def test_partition_id_distinct_for_same_basename():
    from sagan_ray.state.lineage import partition_id

    a = partition_id("/data/day=01/part-0.parquet")
    b = partition_id("/data/day=02/part-0.parquet")
    assert a != b
    assert partition_id("/data/day=01/part-0.parquet") == a  # stable


# ---------------------------------------------------------------------------
# md5 sample determinism
# ---------------------------------------------------------------------------


def test_md5_sample_rate():
    import hashlib

    keep = [
        hashlib.md5(str(i).encode()).hexdigest()[0] in ("0", "1")
        for i in range(10000)
    ]
    assert 0.1 < sum(keep) / len(keep) < 0.15  # ~2/16


# ---------------------------------------------------------------------------
# tag gate, parse_dst_ip, json_meta_content
# ---------------------------------------------------------------------------


def test_tag_gate():
    r = parse_rule('alert any any any -> any any (sid:1; tag:"kernel"; content:"x";)')
    b = batch(["x", "x"], tag=pa.array(["kernel", "cron"]))
    assert rule_mask(b, r).tolist() == [True, False]
    # fail closed without the column
    assert rule_mask(batch(["x"]), r).tolist() == [False]


def test_parse_dst_ip(ray_session):
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    rules, _ = parse_rules(
        'alert any any any -> any any (sid:70; content:"to"; '
        "parse_src_ip:1; parse_dst_ip:2; classtype:misc-activity;)"
    )
    t = batch(["from 1.2.3.4 to 5.6.7.8"])
    out = match_alerts(rd.from_arrow(t), rules).to_pandas()
    assert out["src_ip"].tolist() == ["1.2.3.4"]
    assert out["dst_ip"].tolist() == ["5.6.7.8"]


def test_json_meta_content():
    import json as _json

    rules, _ = parse_rules(
        "var BADK [6, 7]\n"
        'alert any any any -> any any (sid:71; content:"e"; '
        'json_meta_content:".k", $BADK;)'
    )
    props = [_json.dumps({"k": 63}), _json.dumps({"k": 12}), _json.dumps({"k": 7})]
    b = batch(["e1", "e2", "e3"], props=pa.array(props))
    # substring semantics: "6" in "63" -> hit; "7" in "7" -> hit
    assert rule_mask(b, rules[0]).tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# threshold track by_string (liblognorm-extracted key)
# ---------------------------------------------------------------------------


def test_threshold_track_by_string(ray_session):
    """threshold tracked by the normalize-extracted string: limit 1 per
    distinct extracted user per window, regardless of host."""
    import ray.data as rd

    from sagan_ray.pipelines.flagship import alerts_pipeline

    rules, _ = parse_rules(
        'alert any any any -> any any (msg:"per-user"; sid:80; '
        'content:"login"; normalize:"user=(?P<user>\\w+)"; '
        "classtype:misc-activity; "
        "threshold: type limit, track by_string, count 1, seconds 86400;)"
    )
    texts = ["login user=alice", "login user=alice", "login user=bob"]
    t = batch(texts, hosts=["h1", "h2", "h3"])
    out = alerts_pipeline(rd.from_arrow(t), rules).to_pandas()
    # one alert per distinct user (alice once, bob once), though hosts differ
    assert len(out) == 2
    users = sorted(out["extracted"].tolist())
    assert users == ['{"user": "alice"}', '{"user": "bob"}']


# ---------------------------------------------------------------------------
# IPv6 extraction, CSV source, enrich mode equality
# ---------------------------------------------------------------------------


def test_nth_ip_v6_and_mixed():
    from sagan_ray.functions.extract import nth_ip

    texts = [
        "from 2001:db8::1 to 10.0.0.1",
        "v6 fe80:0:0:0:1:2:3:4 only",
        "none here",
    ]
    assert nth_ip(texts, 1) == ["2001:db8::1", "fe80:0:0:0:1:2:3:4", None]
    assert nth_ip(texts, 2) == ["10.0.0.1", None, None]


def test_csv_source(ray_session, tmp_path):
    from sagan_ray.sources.readers import read_csv_logs

    p = tmp_path / "logs.csv"
    p.write_text("host,level,message\nh1,info,hello\nh2,warn,world\n")
    out = read_csv_logs(str(p)).to_pandas().sort_values("host")
    assert out["message"].tolist() == ["hello", "world"]
    assert list(out.columns) == ["host", "level", "message"]


def test_enrich_stage_lookup_values(ray_session):
    import ray.data as rd

    from sagan_ray.stages.enrich import default_lookups, enrich_stage

    geo, bl, intel = default_lookups()
    t = batch(
        ["needle-alpha inside", "clean"],
        hosts=["src3.example.com", "src7.example.com"],
    )
    a = (
        enrich_stage(rd.from_arrow(t), geo, bl, intel)
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert a["country"].tolist() == ["CN", "FR"]  # i % 5 -> US,DE,FR,CN,RU
    assert a["blacklisted"].tolist() == [False, True]  # src7: 7 % 7 == 0
    assert a["intel_hit"].tolist() == [True, False]


# ---------------------------------------------------------------------------
# html -> text extraction (north-star byte-identity function)
# ---------------------------------------------------------------------------


def test_html_to_text_roundtrip_byte_identical(ray_session):
    """The extraction is the exact inverse of the webpages wrapping:
    extracted text == documents.text, byte for byte, for every url."""
    import ray.data as rd

    from sagan_ray.sources.webpages import webpages_from_documents
    from sagan_ray.stages.html import extract_text_stage

    ds = webpages_from_documents("/root/testdata/sf0.001")
    ex = extract_text_stage(
        ds.drop_columns(["text"]), html_col="html", out_col="text"
    )
    pdf = ex.select_columns(["url", "text"]).to_pandas()
    orig = (
        webpages_from_documents("/root/testdata/sf0.001")
        .select_columns(["url", "text"])
        .to_pandas()
    )
    m = dict(zip(orig.url, orig.text))
    assert len(pdf) == len(orig)
    for u, t in zip(pdf.url, pdf.text):
        assert t == m[u]


def test_html_to_text_strips_and_decodes():
    import pyarrow as pa

    from sagan_ray.stages.html import html_to_text

    arr = pa.array(
        [
            "<html><head><script>var x=1; </script></head>"
            "<body><p>Hello   <b>world</b></p>&amp; more &lt;tags&gt;</body></html>",
            "<style>.a{color:red}</style>plain",
            None,
        ]
    )
    out = html_to_text(arr).to_pylist()
    assert out[0] == "Hello world & more <tags>"
    assert out[1] == "plain"
    assert out[2] is None


def test_run_flagship_hive_layout_duplicate_basenames(ray_session, tmp_path):
    """Hive layouts repeat basenames (day=01/part-0.parquet,
    day=02/part-0.parquet): every partition must checkpoint separately
    and the manifest must cover all rows."""
    import os

    import pyarrow.parquet as pq

    from sagan_ray.pipelines.flagship import load_default_rules, run_flagship

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    files = []
    for i, day in enumerate(("01", "02")):
        d = tmp_path / f"day={day}"
        d.mkdir()
        f = str(d / "part-0.parquet")  # SAME basename in both dirs
        pq.write_table(t.slice(i * 250, 250), f)
        files.append(f)
    run_dir = str(tmp_path / "run")
    m = run_flagship(files, run_dir, load_default_rules())
    recs = [
        f for f in os.listdir(os.path.join(run_dir, "_lineage"))
        if f.endswith(".json")
    ]
    assert len(recs) == 2  # two distinct partitions, no collision
    assert len(m["partitions"]) == 2


def test_simhash_hot_group_split_exact(monkeypatch):
    """The secondary pigeonhole for oversized segment groups finds
    EXACTLY the same pairs as the direct O(g²) scan."""
    import sagan_ray.stages.dedup as dd

    rng = np.random.RandomState(3)
    sig = rng.randint(0, 2**63, size=400, dtype=np.int64).view(np.uint64)
    for i in range(0, 60, 2):  # plant close pairs
        sig[i + 1] = sig[i] ^ np.uint64(1 << (i % 60))
    ids = np.arange(400, dtype=np.int64)
    direct = set(zip(*dd._hamming_pairs(sig, 3)[:2]))
    monkeypatch.setattr(dd, "_MAX_SEG_GROUP", 50)
    a, b, h = dd._group_pairs_bounded(ids, sig, seg=1, n_seg=4,
                                      seg_bits=16, max_hamming=3)
    split = set(zip(a.tolist(), b.tolist()))
    assert split == {(int(x), int(y)) for x, y in direct}
    for ai, bi, hi in zip(a.tolist(), b.tolist(), h.tolist()):
        assert bin(int(sig[ai]) ^ int(sig[bi])).count("1") == hi


def test_engine_yaml_lookup_files(tmp_path):
    from sagan_ray.engine import EngineConfig

    (tmp_path / "geo.csv").write_text("a.com,US\nb.com,DE\n# comment\n")
    (tmp_path / "bl.txt").write_text("bad.com\n10.0.3.0/24\n")
    (tmp_path / "intel.txt").write_text("needle-one\nneedle-two\n")
    (tmp_path / "engine.yaml").write_text(
        "enrich: true\ngeo_file: geo.csv\nblacklist_file: bl.txt\n"
        "intel_file: intel.txt\n"
    )
    cfg = EngineConfig.from_yaml(str(tmp_path / "engine.yaml"))
    assert cfg.geo == {"a.com": "US", "b.com": "DE"}
    assert cfg.blacklist == {"bad.com", "10.0.3.0/24"}
    assert cfg.intel == ["needle-one", "needle-two"]


def test_route_rerun_does_not_double_count(ray_session, tmp_path):
    import ray.data as rd

    from sagan_ray.pipelines.flagship import alerts_pipeline, load_default_rules
    from sagan_ray.sources.webpages import webpages_from_documents
    from sagan_ray.stages.route import route_alerts

    out = str(tmp_path / "rr")
    ds = webpages_from_documents("/root/testdata/sf0.001", include_html=False)
    alerts = alerts_pipeline(ds, load_default_rules())
    m1 = route_alerts(alerts, out)
    ds2 = webpages_from_documents("/root/testdata/sf0.001", include_html=False)
    alerts2 = alerts_pipeline(ds2, load_default_rules())
    m2 = route_alerts(alerts2, out)  # same out dir — must not accumulate
    assert m1 == m2


def test_cli_peek(ray_session, tmp_path, capsys):
    import json as _json

    import pyarrow.parquet as pq

    from sagan_ray.__main__ import main
    from sagan_ray.pipelines.flagship import load_default_rules, run_flagship

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    f = str(tmp_path / "d.parquet")
    pq.write_table(t.slice(0, 250), f)
    run_dir = str(tmp_path / "run")
    run_flagship([f], run_dir, load_default_rules())
    assert main(["peek", "--run", run_dir]) == 0
    rep = _json.loads(capsys.readouterr().out.strip())
    assert rep["partitions_done"] == 1
    assert rep["rows_in"] == 250
    assert rep["routed_total"] == sum(rep["sinks"].values())
    assert rep["routed_total"] == sum(rep["per_rule"].values())
    assert all(int(k) >= 1000001 for k in rep["per_rule"])


def test_flagship_on_native_webpages_schema(ray_session, tmp_path):
    """The north-rule input shape (url, warc_ts, html, text, lang) runs
    directly — no documents derivation step."""
    import ray.data as rd

    from sagan_ray.pipelines.flagship import load_default_rules, run_streaming
    from sagan_ray.synth import generate_webpages

    inp = str(tmp_path / "wp")
    generate_webpages(5_000).write_parquet(inp)
    out = str(tmp_path / "out")
    m = run_streaming(rd.read_parquet(inp), load_default_rules(), out)
    assert m["total"] > 0
    assert set(m["sinks"]) <= {
        "attempted-recon", "bad-unknown", "correlated-attack",
        "misc-activity", "not-suspicious", "policy-violation",
        "suspicious-traffic", "web-application-activity",
    }


# ---------------------------------------------------------------------------
# JSON input mapping (parse-json-message analogue)
# ---------------------------------------------------------------------------


def test_json_map_stage_nested_and_malformed(ray_session, tmp_path):
    import json as _json

    import ray.data as rd

    from sagan_ray.sources.jsonmap import read_json_logs_mapped
    from sagan_ray.stages.match import match_alerts

    lines = [
        _json.dumps({"id": "e1", "timestamp": "2024-01-01T00:00:05",
                     "host": "h1", "facility": "auth",
                     "message": "login failed badly", "k": 7}),
        _json.dumps({"id": "e2", "timestamp": "2024-01-01T00:00:06",
                     "meta": {"deep": "x"},
                     "host": "h2", "facility": "auth",
                     "message": "login ok"}),
        "NOT JSON AT ALL",
    ]
    p = tmp_path / "in.jsonl"
    p.write_text("\n".join(lines) + "\n")
    ds = read_json_logs_mapped(str(p))
    pdf = ds.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(pdf) == 3  # malformed line kept with null fields
    assert pdf.loc[0, "host"] == "h1" and pdf.loc[1, "text"] == "login ok"
    assert pdf.loc[2, "url"] is None or pd_isna(pdf.loc[2, "url"])
    # the mapped stream feeds the rule engine directly (drop null-url rows)
    rules, _ = parse_rules(
        'alert any any any -> any any (sid:90; facility:"auth"; '
        'content:"failed"; json_content:".k","7"; classtype:misc-activity;)'
    )
    clean = ds.filter(lambda r: r["url"] is not None)
    out = match_alerts(clean, rules).to_pandas()
    assert out["url"].tolist() == ["e1"]


def pd_isna(v):
    import pandas as _pd

    return _pd.isna(v)


def test_json_map_custom_mapping():
    import json as _json

    from sagan_ray.sources.jsonmap import json_map_batch

    t = pa.table({"json": pa.array([
        _json.dumps({"src": {"addr": "1.2.3.4"}, "msg": "hi"})])})
    out = json_map_batch(
        t, {"host": ".src.addr", "text": ".msg"}, keep_raw=False
    )
    assert out["host"].to_pylist() == ["1.2.3.4"]
    assert out["text"].to_pylist() == ["hi"]


def test_default_proto_and_port(ray_session):
    import ray.data as rd

    from sagan_ray.stages.match import match_alerts

    rules, _ = parse_rules(
        'alert any any any -> any any (sid:95; content:"conn"; parse_proto; '
        "parse_port; default_proto:tcp; default_src_port:514; "
        "classtype:misc-activity;)"
    )
    t = batch(["conn via udp port 2222", "conn no hints"])
    out = match_alerts(rd.from_arrow(t), rules).to_pandas().sort_values("url")
    assert out["proto"].tolist() == ["udp", "tcp"]  # parsed beats default
    assert out["src_port"].tolist() == [2222, 514]


def test_bluedot_cache_ttl_and_batching():
    from sagan_ray.stages.bluedot import BluedotLookup

    calls = []

    def resolver(keys):
        calls.append(sorted(keys))
        return {k: "malicious" for k in keys}

    clk = [0.0]
    b = BluedotLookup(resolver=resolver, ttl_s=10.0, clock=lambda: clk[0])
    t = pa.table({"host": pa.array(["a", "b", "a", "b"])})
    out = b(t)
    assert out["reputation"].to_pylist() == ["malicious"] * 4
    assert calls == [["a", "b"]]  # ONE deduped batch call
    b(t)
    assert calls == [["a", "b"]]  # all cached
    clk[0] = 11.0  # past TTL
    b(t)
    assert calls == [["a", "b"], ["a", "b"]]  # re-resolved after expiry
    assert b.hits == 2 and b.misses == 4


def test_bluedot_stage_plumbing(ray_session):
    import ray.data as rd

    from sagan_ray.stages.bluedot import bluedot_stage

    t = batch(["x", "y"], hosts=["h1.example", "h2.example"])
    out = bluedot_stage(rd.from_arrow(t)).to_pandas()
    assert set(out["reputation"]) <= {"clean", "suspicious", "malicious"}
    assert len(out) == 2


def test_external_sink(ray_session, tmp_path):
    import json as _json

    import ray.data as rd

    from sagan_ray.pipelines.flagship import alerts_pipeline, load_default_rules
    from sagan_ray.sources.webpages import webpages_from_documents
    from sagan_ray.stages.external import external_sink

    sink_file = tmp_path / "ext.ndjson"
    script = tmp_path / "collect.sh"
    script.write_text(f"#!/bin/sh\ncat >> {sink_file}\n")
    script.chmod(0o755)
    ds = webpages_from_documents("/root/testdata/sf0.001", include_html=False)
    alerts = alerts_pipeline(ds, load_default_rules())
    stats = external_sink(alerts, [str(script)])
    assert stats["n_fail"] == 0
    lines = [l for l in sink_file.read_text().splitlines() if l]
    assert stats["n_ok"] == len(lines) == 2373  # golden total
    rec = _json.loads(lines[0])
    assert rec["event_type"] == "alert" and "sid" in rec


def test_external_sink_failure_counted(ray_session):
    import ray.data as rd

    from sagan_ray.stages.external import external_sink

    t = batch(["x"])
    t = t.append_column("sid", pa.array([1], type=pa.int64()))
    stats = external_sink(rd.from_arrow(t), ["/nonexistent/program"])
    assert stats["n_fail"] == 1 and stats["n_ok"] == 0


# ---------------------------------------------------------------------------
# upstream-style ruleset (a Sagan user's rules drop in unchanged)
# ---------------------------------------------------------------------------


def test_upstream_style_ruleset_parses_and_runs(ray_session):
    import ray.data as rd

    from sagan_ray.rules import CLASSIFICATIONS, load_rules_file
    from sagan_ray.pipelines.flagship import alerts_pipeline

    CLASSIFICATIONS.setdefault("unsuccessful-user", 2)
    CLASSIFICATIONS.setdefault("brute-force", 1)
    rules = load_rules_file("tests/fixtures/rules/openssh-style.rules")
    assert len(rules) == 6
    assert rules[0].parse_src_ip == 1 and rules[0].programs == ("sshd", "ssh")
    assert rules[1].threshold.count == 5
    assert rules[3].noalert and rules[3].xbits[0].action == "set"

    # syslog-shaped stream: host=program-analogue, text=message
    rows = []
    base = 1_700_000_000_000_000
    for i in range(8):  # brute-force storm from sshd
        rows.append(("sshd", f"Failed password for root from 10.0.0.{i}", base + i * 1_000_000))
    rows.append(("sshd", "Accepted password for root from 10.0.0.9", base + 9_000_000))
    rows.append(("cron", "Failed password should not match (wrong program)", base))
    t = pa.table(
        {
            "url": pa.array([f"log://{i}" for i in range(len(rows))]),
            "warc_ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
            "host": pa.array([r[0] for r in rows]),
            "lang": pa.array(["en"] * len(rows)),
            "text": pa.array([r[1] for r in rows]),
        }
    )
    out = alerts_pipeline(rd.from_arrow(t), rules).to_pandas()
    by_sid = out.groupby("sid").size().to_dict()
    assert by_sid.get(5000002) == 5  # threshold limit 5 of 8 failures
    assert by_sid.get(5000003) == 1  # success fired only because bit set
    assert 5000004 not in by_sid  # noalert state rule routes nothing
    assert out[out.sid == 5000002]["src_ip"].notna().all()  # parse_src_ip


def test_follow_directory_incremental(ray_session, tmp_path):
    """Daemon-mode polling: a second wave of files is picked up and
    correlation re-gates globally (manifest grows, earlier partitions
    not reprocessed)."""
    import os

    import pyarrow.parquet as pq

    from sagan_ray.pipelines.flagship import follow_directory, load_default_rules

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(t.slice(0, 250), str(inp / "wave1.parquet"))
    run_dir = str(tmp_path / "run")
    rules = load_default_rules()
    m1 = follow_directory(str(inp), run_dir, rules, poll_s=0.0,
                          max_iterations=1)
    assert m1["total"] > 0
    w1_mtime = {
        f: os.path.getmtime(os.path.join(run_dir, "ckpt", f))
        for f in os.listdir(os.path.join(run_dir, "ckpt"))
    }
    pq.write_table(t.slice(250, 250), str(inp / "wave2.parquet"))
    m2 = follow_directory(str(inp), run_dir, rules, poll_s=0.0,
                          max_iterations=1)
    assert m2["total"] > m1["total"]
    assert len(m2["partitions"]) == 2
    for f, mt in w1_mtime.items():  # wave1 checkpoints untouched
        assert os.path.getmtime(os.path.join(run_dir, "ckpt", f)) == mt


def test_json_meta_nocase():
    import json as _json

    rules, _ = parse_rules(
        'alert any any any -> any any (sid:72; content:"e"; '
        'json_meta_content:".tag", WARN|CRIT; json_meta_nocase;)'
    )
    assert rules[0].json_metas[0][2] is True
    props = [_json.dumps({"tag": "warning"}), _json.dumps({"tag": "info"})]
    b = batch(["e1", "e2"], props=pa.array(props))
    assert rule_mask(b, rules[0]).tolist() == [True, False]


# ---------------------------------------------------------------------------
# RFC3164 / RFC5424 syslog source (syslog-handler.c BSD + IETF formats)
# ---------------------------------------------------------------------------


def test_syslog_parse_and_rule_engine(ray_session, tmp_path):
    from sagan_ray.sources.readers import read_syslog_text, syslog_as_events
    from sagan_ray.stages.match import match_alerts

    lines = [
        "<34>Oct 11 22:14:15 box1 su[230]: su root failed for lonvick",
        "<13>Feb  5 17:32:18 10.0.0.99 myapp: Use the BFG!",
        "<165>1 2003-10-11T22:14:15.003Z host.example.com evntslog 1234 "
        'ID47 [x y="1"] su root failed again',
        "<34>1 2003-10-11T22:14:15Z box2 su - - - plain ietf su failed too",
        "NOT SYSLOG",
    ]
    p = tmp_path / "syslog.log"
    p.write_text("\n".join(lines) + "\n")
    ds = read_syslog_text(str(p))
    pdf = ds.to_pandas()
    assert len(pdf) == 4  # malformed line dropped
    assert set(pdf["format"]) == {"rfc3164", "rfc5424"}
    assert (pdf[pdf["format"] == "rfc3164"]["ts"].dt.year == 2024).all()
    r3 = pdf[pdf["host"] == "box1"].iloc[0]
    assert (r3["facility"], r3["level"], r3["program"]) \
        == ("auth", "crit", "su")
    # engine gates apply directly: program + facility + content
    rules, _ = parse_rules(
        'alert any any any -> any any (sid:70; program:su; '
        'facility:"auth"; content:"failed"; classtype:misc-activity;)'
    )
    ev = syslog_as_events(read_syslog_text(str(p)))
    out = match_alerts(ev, rules).to_pandas()
    assert sorted(out["host"].tolist()) == ["box1", "box2"]
