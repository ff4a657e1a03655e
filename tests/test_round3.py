"""Round-3 regression tests: ADVICE fixes (syslog PRI range, RFC5424
structured-data greediness, NaT ordering in the correlation gate) and
the asof/range-join dtype contract."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sagan_ray.sources.readers import parse_syslog_batch
from gate_oracle import _gate_partition
from sagan_ray.stages.correlate import corr_specs
from sagan_ray.rules import parse_rule


def _lines_table(lines):
    return pa.table({"text": pa.array(lines, type=pa.string())})


def test_syslog_pri_out_of_range_dropped_not_crash():
    """PRI > 191 (regex admits up to 999) must drop the line as
    malformed, not ArrowIndexError the whole batch (ADVICE high)."""
    out = parse_syslog_batch(_lines_table([
        "<999>Oct 11 22:14:15 box1 su[230]: evil pri",
        "<192>Oct 11 22:14:15 box2 su[231]: one past the edge",
        "<191>Oct 11 22:14:15 box3 su[232]: last valid pri",
        "<34>Oct 11 22:14:15 box4 su[233]: normal line",
    ]))
    hosts = sorted(out["host"].to_pylist())
    assert hosts == ["box3", "box4"]
    r = out.to_pandas().set_index("host").loc["box3"]
    assert (r["facility"], r["level"]) == ("local7", "debug")  # 191 = 23<<3|7


def test_syslog_pri_all_invalid_batch():
    out = parse_syslog_batch(_lines_table([
        "<999>Oct 11 22:14:15 box1 su[230]: evil pri",
    ]))
    assert out.num_rows == 0
    assert "host" in out.column_names  # stable empty schema


def test_rfc5424_bracket_in_message_preserved():
    """']' inside the free-form message must not be eaten by the
    structured-data matcher (ADVICE medium)."""
    out = parse_syslog_batch(_lines_table([
        '<165>1 2003-10-11T22:14:15Z h1 app 1 ID1 [x y="1"] msg with ] bracket',
        '<165>1 2003-10-11T22:14:15Z h2 app 1 ID1 [a b="2"][c d="3"] two sd elements',
        "<165>1 2003-10-11T22:14:15Z h3 app 1 ID1 - nil sd [with] brackets",
    ]))
    msgs = dict(zip(out["host"].to_pylist(), out["message"].to_pylist()))
    assert msgs["h1"] == "msg with ] bracket"
    assert msgs["h2"] == "two sd elements"
    assert msgs["h3"] == "nil sd [with] brackets"


def test_gate_nat_timestamps_sort_last():
    """A NaT warc_ts must order AFTER real timestamps (NULLS LAST — the
    pandas sort_values / DuckDB ORDER BY contract), so `limit count N`
    keeps the N earliest real rows, not the NaT row (ADVICE medium)."""
    rule = parse_rule(
        'alert any any any -> any any (sid:1; content:"x"; '
        "threshold: type limit, track by_host, count 3, seconds 100;)"
    )
    specs = corr_specs([rule])
    g = pd.DataFrame({
        "sid": [1, 1, 1, 1],
        "host": ["h1"] * 4,
        "url": ["u3", "u1", "u2", "u0"],
        "warc_ts": pd.Series(
            [pd.NaT, pd.Timestamp(10, unit="s"), pd.Timestamp(20, unit="s"),
             pd.Timestamp(30, unit="s")], dtype="datetime64[us]"),
        "ckey": ["h1"] * 4,
        "bucket": [0] * 4,
    })
    kept = _gate_partition(g, specs)
    assert sorted(kept["url"].tolist()) == ["u0", "u1", "u2"]
    assert kept["warc_ts"].notna().all()


def test_asof_join_int_dtypes_preserved(ray_session):
    """Int payload columns keep int64 through the asof join; only
    genuinely-unmatched right payload carries nulls (r2 driver red)."""
    import ray.data as rd
    from sagan_ray.stages.window import asof_join

    ts = pd.to_datetime([5, 15, 25], unit="s")
    left = rd.from_pandas(pd.DataFrame(
        {"k": ["a", "a", "b"], "ts": ts, "lval": [1, 2, 3]}))
    right = rd.from_pandas(pd.DataFrame(
        {"k": ["a", "a"], "ts": pd.to_datetime([4, 14], unit="s"),
         "rval": [10, 20]}))
    out = asof_join(left, right, keys=["k"], ts_col="ts")
    t = out.to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    # lval: no nulls possible -> int64 end to end
    assert str(t["lval"].dtype) == "int64"
    # rval: one unmatched left row ("b") -> arrow int64-with-null ->
    # pandas float64, exactly DuckDB's .df() rendering
    assert str(t["rval"].dtype) == "float64"
    assert t["rval"].tolist()[:2] == [10.0, 20.0] and np.isnan(t["rval"].iloc[2])


def test_asof_join_all_matched_stays_int(ray_session):
    import ray.data as rd
    from sagan_ray.stages.window import asof_join

    left = rd.from_pandas(pd.DataFrame(
        {"k": ["a"], "ts": pd.to_datetime([5], unit="s"), "lval": [1]}))
    right = rd.from_pandas(pd.DataFrame(
        {"k": ["a"], "ts": pd.to_datetime([4], unit="s"), "rval": [10]}))
    t = asof_join(left, right, keys=["k"], ts_col="ts").to_pandas()
    assert str(t["rval"].dtype) == "int64"  # no nulls -> int64 survives


def test_range_join_int_dtypes_preserved(ray_session):
    """Inner range join: every output column keeps its input Arrow type
    (r2 driver red: int payloads degraded to float64)."""
    import ray.data as rd
    from sagan_ray.stages.window import range_join

    left = rd.from_pandas(pd.DataFrame(
        {"k": ["a", "b"], "ts": pd.to_datetime([0, 0], unit="s"),
         "lid": [1, 2]}))
    right = rd.from_pandas(pd.DataFrame(
        {"k": ["a", "a"], "ts": pd.to_datetime([10, 4000], unit="s"),
         "rid": [7, 8]}))
    t = range_join(left, right, keys=["k"], ts_col="ts",
                   lo=pd.Timedelta(0), hi=pd.Timedelta(hours=1)).to_pandas()
    assert str(t["lid"].dtype) == "int64"
    assert str(t["rid"].dtype) == "int64"
    assert t[["lid", "rid"]].values.tolist() == [[1, 7]]


# ---------------------------------------------------------------------------
# round-3 oracle hardening: dedup_simhash / doc_fingerprint / emb_ann_ivf
# gained exact DuckDB oracles. These differentials pin the hash choices
# to their SQL restatements, including edge cases the sf corpora never
# hit (short/empty docs).
# ---------------------------------------------------------------------------


def test_md5_word_hash_matches_duckdb_md5_number_lower():
    import duckdb

    from sagan_ray.stages.dedup import md5_word_hash

    words = ["the", "quick", "", "héllo", "a", "the"]
    mine = md5_word_hash(words).tolist()
    con = duckdb.connect()
    theirs = [
        int(con.sql("SELECT md5_number_lower(?)", params=[w]).fetchone()[0])
        for w in words
    ]
    assert mine == theirs


def test_simhash_md5_signature_matches_duckdb():
    """End-to-end signature differential incl. an empty doc (sig 0)."""
    import duckdb

    from sagan_ray.stages.dedup import batch_simhash

    texts = ["the quick brown fox", "quick brown fox jumps", "", "a a b"]
    sigs = [int(s) for s in batch_simhash(texts, hash_fn="md5")]
    con = duckdb.connect()
    con.sql(
        "CREATE TABLE docs AS SELECT * FROM (VALUES "
        + ",".join(f"({i}, '{t}')" for i, t in enumerate(texts))
        + ") t(doc_id, text)"
    )
    rows = con.sql("""
        WITH words AS (
          SELECT doc_id,
                 unnest(list_filter(string_split(text,' '), x -> x <> '')) AS w
          FROM docs),
        bitsum AS (
          SELECT doc_id, b.i,
                 sum(CASE WHEN (md5_number_lower(w) >> b.i) & 1 = 1
                          THEN 1 ELSE -1 END) AS s
          FROM words, (SELECT unnest(generate_series(0, 63)) AS i) b
          GROUP BY doc_id, b.i),
        sig0 AS (
          SELECT doc_id, sum(CASE WHEN s > 0 THEN (1::UBIGINT << i)
                                  ELSE 0::UBIGINT END) AS sig
          FROM bitsum GROUP BY doc_id)
        SELECT d.doc_id, COALESCE(sig, 0)::UBIGINT
        FROM docs d LEFT JOIN sig0 USING (doc_id) ORDER BY doc_id
    """).fetchall()
    assert [int(r[1]) for r in rows] == sigs


def test_fingerprint_oracle_weight_constants():
    """The HUGEINT weight literals in the doc_fingerprint oracle SQL
    must equal text._poly_weights (B^e mod 2^64, B=1099511628211)."""
    import re

    from sagan_ray.pipelines.queries import ORACLES
    from sagan_ray.stages.text import _poly_weights

    w8 = [int(x) for x in _poly_weights(8)]
    sql = ORACLES["doc_fingerprint"]
    lits = [int(x) for x in re.findall(r"(\d+)::HUGEINT", sql)]
    # g8 CASE lists W[0..6] then ELSE 1; gshort lists B^0..B^6 ascending
    for w in w8:
        assert w == 1 or w in lits, f"weight {w} missing from oracle SQL"
    b = 1099511628211
    for e in range(1, 7):
        assert pow(b, e, 1 << 64) in lits


def test_winnow_fingerprint_matches_duckdb_edge_cases():
    """Short (<k), exactly-k, <=window, and empty docs through the REAL
    oracle SQL — branches the sf corpora (min 48 chars) never hit."""
    import duckdb

    from sagan_ray.pipelines.queries import ORACLES
    from sagan_ray.stages.text import winnow_fingerprints

    texts = [
        "",               # empty -> [0]
        "ab",             # n < k -> single whole-text hash
        "abcdefgh",       # n == k -> one gram
        "abcdefghijklm",  # N = 6 == window -> [min]
        "abcdefghijklmn", # N = 7 -> first full winnowing
        "the quick brown fox jumps over the lazy dog repeatedly and often",
        "aaaaaaaaaaaaaaaaaaaa",  # degenerate: all grams equal (ties)
    ]
    expect = []
    for i, t in enumerate(texts):
        fps = winnow_fingerprints(t)
        expect.append((i, len(fps), min(fps)))
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM (VALUES "
        + ",".join(f"({i}, '{t}')" for i, t in enumerate(texts))
        + ") t(doc_id, text)"
    )
    rows = con.sql(ORACLES["doc_fingerprint"] + " ORDER BY doc_id").fetchall()
    assert [(r[0], r[1], r[2]) for r in rows] == expect


def test_ivf_bits_topk_equals_in_bucket_brute_force(ray_session):
    """ivf_bits_topk == exact top-k restricted to the query's sign
    bucket (numpy reference), on deterministic synthetic vectors."""
    import ray.data as rd

    from sagan_ray.stages.similarity import _unit, ivf_bits_topk

    rng = np.random.RandomState(7)
    vecs = rng.randn(200, 16).astype(np.float32)
    ids = np.arange(200, dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame(
        {"vec_id": ids, "embedding": [v.tolist() for v in vecs]}))
    q_ids = [0, 1, 2]
    qv = vecs[:3].astype(np.float64)
    out = ivf_bits_topk(ds, qv, q_ids, k=5, n_bits=4).to_pandas()
    v64 = vecs.astype(np.float64)
    buckets = ((v64[:, :4] > 0).astype(np.int64) << np.arange(4)).sum(axis=1)
    u = _unit(v64)
    for qi in q_ids:
        mask = buckets == buckets[qi]
        sims = u[mask] @ _unit(qv[qi:qi + 1]).T[:, 0]
        sub = ids[mask]
        order = np.lexsort((sub, -sims))[:5]
        got = out[out["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        assert got == sub[order].tolist()


def test_fast_digest128_vectorized_dedup_digest():
    """128-bit digest: deterministic, 32 hex chars, content-keyed."""
    from sagan_ray.stages.dedup import fast_digest128

    texts = ["same", "same", "other", "", "héllo"]
    d = fast_digest128(texts)
    assert list(d[:2]) == [d[0]] * 2 and d[0] != d[2]
    assert all(len(x) == 32 and set(x) <= set("0123456789abcdef") for x in d)
    assert list(fast_digest128(texts)) == list(d)
    assert len({d[0], d[2], d[3], d[4]}) == 4


def test_exact_dedup_fast_digest_groups(ray_session):
    import ray.data as rd

    from sagan_ray.stages.dedup import exact_dedup_groups

    rows = [{"doc_id": 0, "text": "same"}, {"doc_id": 1, "text": "same"},
            {"doc_id": 2, "text": "other"}]
    out = exact_dedup_groups(rd.from_items(rows)).to_pandas()
    assert "text_digest" in out.columns and len(out) == 2
    assert out[out["n"] == 2]["keeper_doc_id"].iloc[0] == 0


# ---------------------------------------------------------------------------
# round-3: track by_dst + xbits ip_pair (upstream src/flexbit-mmap.c pair
# semantics — login-fail-then-success per src/dst pair)
# ---------------------------------------------------------------------------


def _pair_alerts(rows):
    """rows: (text, epoch_s, sid, src_ip, dst_ip) -> alert table (one host)."""
    return pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(len(rows))]),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], type=pa.timestamp("us")
            ),
            "host": pa.array(["h"] * len(rows)),
            "lang": pa.array(["en"] * len(rows)),
            "text": pa.array([r[0] for r in rows]),
            "sid": pa.array([r[2] for r in rows], type=pa.int64()),
            "rev": pa.array([1] * len(rows), type=pa.int32()),
            "msg": pa.array(["m"] * len(rows)),
            "classification": pa.array(["c"] * len(rows)),
            "priority": pa.array([1] * len(rows), type=pa.int32()),
            "src_ip": pa.array([r[3] for r in rows]),
            "dst_ip": pa.array([r[4] for r in rows]),
        }
    )


_PAIR_RULES = (
    'alert any any any -> any any (sid:20; content:"FAIL"; '
    "xbits:set,pairbit,track ip_pair,expire 7200; noalert;)\n"
    'alert any any any -> any any (sid:21; content:"OK"; '
    "xbits:isset,pairbit,track ip_pair;)"
)

_PAIR_ROWS = [
    ("FAIL login", 1_700_000_000, 20, "1.1.1.1", "2.2.2.2"),
    ("OK login", 1_700_000_100, 21, "1.1.1.1", "2.2.2.2"),   # same pair -> fires
    ("OK login", 1_700_000_200, 21, "1.1.1.1", "3.3.3.3"),   # same src only -> no
    ("OK login", 1_700_000_300, 21, "4.4.4.4", "2.2.2.2"),   # same dst only -> no
    ("OK login", 1_700_000_400, 21, "1.1.1.1", "2.2.2.2"),   # same pair -> fires
]


def test_xbits_ip_pair_tracking(ray_session):
    """isset fires only for the exact (src,dst) pair — host/by_src
    tracking would fire all OK rows (everything shares one host)."""
    import ray.data as rd

    from sagan_ray.rules import parse_rules
    from gate_oracle import apply_xbits

    rules, _ = parse_rules(_PAIR_RULES)
    assert rules[0].xbits[0].track == "ip_pair"
    out = apply_xbits(rd.from_arrow(_pair_alerts(_PAIR_ROWS)), rules).to_pandas()
    assert sorted(out["url"].tolist()) == ["u1", "u4"]


def test_xbits_ip_pair_fused_matches_two_phase(ray_session):
    """The fused single-shuffle path resolves pair-tracked xbits exactly
    like the two-phase path (a threshold rule forces fusion)."""
    import ray.data as rd

    from sagan_ray.rules import parse_rules
    from gate_oracle import apply_xbits
    from sagan_ray.stages.correlate import apply_correlation_fused, can_fuse

    rules, _ = parse_rules(
        _PAIR_RULES + "\n"
        'alert any any any -> any any (sid:22; content:"zzz"; '
        "threshold: type limit, track by_host, count 1, seconds 60;)"
    )
    assert can_fuse(rules)
    ds = rd.from_arrow(_pair_alerts(_PAIR_ROWS))
    fused = apply_correlation_fused(ds, rules).to_pandas()
    two = apply_xbits(ds, rules).to_pandas()
    assert sorted(fused["url"].tolist()) == sorted(two["url"].tolist()) == ["u1", "u4"]


def test_threshold_track_by_dst(ray_session):
    """threshold limit tracked by_dst buckets by the parsed dst_ip."""
    import ray.data as rd

    from sagan_ray.rules import parse_rule
    from gate_oracle import _attach_gb, _gate_partition
    from sagan_ray.stages.correlate import _attach_keys, corr_specs

    rule = parse_rule(
        'alert any any any -> any any (sid:30; content:"x"; '
        "threshold: type limit, track by_dst, count 1, seconds 3600;)"
    )
    specs = corr_specs([rule])
    assert specs[30]["track"] == "dst_ip"
    rows = [
        ("x a", 1_700_000_000, 30, "9.9.9.9", "2.2.2.2"),
        ("x b", 1_700_000_010, 30, "9.9.9.9", "2.2.2.2"),  # same dst -> capped
        ("x c", 1_700_000_020, 30, "9.9.9.9", "3.3.3.3"),  # new dst -> kept
    ]
    pdf = _attach_gb(
        _attach_keys(_pair_alerts(rows), specs).to_pandas(),
        ["sid", "ckey", "bucket"],
    )
    out = _gate_partition(pdf, specs)
    assert sorted(out["url"].tolist()) == ["u0", "u2"]


# ---------------------------------------------------------------------------
# round-3: real decode branches behind try-imports (PIL / maxminddb are
# absent from this container; fakes injected via sys.modules exercise
# the real code path, the stub/dict fallbacks stay covered elsewhere)
# ---------------------------------------------------------------------------


def test_decode_image_real_branch_with_fake_pil(monkeypatch):
    import sys
    import types

    class FakeImg:
        def __init__(self, payload):
            self.payload = payload

        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

        @property
        def size(self):
            return (len(self.payload), 2)

        def convert(self, mode):
            assert mode == "L"
            return np.full((2, len(self.payload)), 7, dtype=np.uint8)

    class FakeImage:
        @staticmethod
        def open(bio):
            data = bio.read()
            if not data.startswith(b"IMG"):
                raise ValueError("not an image")
            return FakeImg(data)

    fake_pil = types.ModuleType("PIL")
    fake_pil.Image = FakeImage
    monkeypatch.setitem(sys.modules, "PIL", fake_pil)

    from sagan_ray.stages.multimodal import DecodeImage

    dec = DecodeImage(payload_col="payload", mode="real")
    assert dec.real
    t = pa.table(
        {"url": pa.array(["a", "b"]),
         "payload": pa.array([b"IMGxx", b"junk!"], type=pa.binary())}
    )
    out = dec(t)
    # decodable -> real dims/mean; undecodable -> NULLs, batch survives
    assert out["width"].to_pylist() == [5, None]
    assert out["height"].to_pylist() == [2, None]
    assert out["mean_byte"].to_pylist() == [7, None]
    assert out["n_bytes"].to_pylist() == [5, 5]


def test_decode_image_modes_without_pil():
    from sagan_ray.stages.multimodal import DecodeImage

    assert not DecodeImage(mode="auto").real   # falls back to stub
    assert not DecodeImage(mode="stub").real
    with pytest.raises(ImportError):
        DecodeImage(mode="real")


def test_enrich_mmdb_path_with_fake_maxminddb(monkeypatch, tmp_path):
    import sys
    import types

    table = {"1.2.3.4": {"country": {"iso_code": "DE"}},
             "5.6.7.8": {}}

    class FakeReader:
        def get(self, key):
            if ":" not in key and key.count(".") != 3:
                raise ValueError("not an IP")
            return table.get(key)

    fake = types.ModuleType("maxminddb")
    opened = []
    fake.open_database = lambda p: (opened.append(p), FakeReader())[1]
    monkeypatch.setitem(sys.modules, "maxminddb", fake)

    from sagan_ray.stages.enrich import Enrich

    p = str(tmp_path / "geo.mmdb")
    e = Enrich({"hostA": "US"}, set(), [], mmdb_path=p)
    assert opened == [p] and e.mmdb is not None
    t = pa.table(
        {
            # dict hit, mmdb hit, mmdb empty record, non-IP miss
            "host": pa.array(["hostA", "1.2.3.4", "5.6.7.8", "hostB"]),
            "lang": pa.array(["en"] * 4),
            "text": pa.array(["x"] * 4),
        }
    )
    out = e(t)
    # same `country` contract: dict first, mmdb for IP-shaped misses,
    # 'ZZ' fallback for everything else
    assert out["country"].to_pylist() == ["US", "DE", "ZZ", "ZZ"]


def test_enrich_mmdb_absent_falls_back_to_dict():
    from sagan_ray.stages.enrich import Enrich

    e = Enrich({"hostA": "US"}, set(), [], mmdb_path="/nonexistent/geo.mmdb")
    assert e.mmdb is None  # maxminddb not installed -> broadcast dict only
    t = pa.table(
        {"host": pa.array(["hostA"]), "lang": pa.array(["en"]),
         "text": pa.array(["x"])}
    )
    assert e(t)["country"].to_pylist() == ["US"]


# ---------------------------------------------------------------------------
# round-3: training-stream assembly ops (deterministic shuffle, mixture)
# ---------------------------------------------------------------------------


def test_seeded_shuffle_deterministic_permutation(ray_session):
    import ray.data as rd

    from sagan_ray.stages.pack import seeded_shuffle

    ds = rd.range(500).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow")
    a = seeded_shuffle(ds, seed=7).to_pandas()["doc_id"].tolist()
    b = seeded_shuffle(ds, seed=7).to_pandas()["doc_id"].tolist()
    c = seeded_shuffle(ds, seed=8).to_pandas()["doc_id"].tolist()
    assert a == b                      # replay-stable
    assert a != c                      # new seed = new order
    assert sorted(a) == list(range(500))   # a permutation
    assert a != list(range(500))       # actually shuffled
    # block-layout invariance: same ids, different partitioning
    ds2 = rd.range(500, override_num_blocks=13).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow")
    assert seeded_shuffle(ds2, seed=7).to_pandas()["doc_id"].tolist() == a


def test_mix_datasets_weighted_deterministic(ray_session):
    import ray.data as rd

    from sagan_ray.stages.pack import mix_datasets

    a = rd.range(2000).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow")
    b = rd.range(2000).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow")
    m = mix_datasets([a, b], [1.0, 0.3], seed=42).to_pandas()
    n0 = (m["source_id"] == 0).sum()
    n1 = (m["source_id"] == 1).sum()
    assert n0 == 2000                  # weight 1.0 keeps everything
    assert 450 <= n1 <= 750            # ~0.3 of 2000, hash-gated
    # deterministic membership
    m2 = mix_datasets([a, b], [1.0, 0.3], seed=42).to_pandas()
    assert sorted(m2[m2["source_id"] == 1]["doc_id"]) == sorted(
        m[m["source_id"] == 1]["doc_id"])
    # different seed -> different subset (same size class)
    m3 = mix_datasets([a, b], [1.0, 0.3], seed=43).to_pandas()
    assert sorted(m3[m3["source_id"] == 1]["doc_id"]) != sorted(
        m[m["source_id"] == 1]["doc_id"])


# ---------------------------------------------------------------------------
# round-3: pair set -> duplicate clusters -> keeper filter
# ---------------------------------------------------------------------------


def _union_find_reference(pairs, nodes):
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in nodes}


def test_dedup_clusters_matches_union_find(ray_session):
    """Min-label propagation == union-find on a random graph with
    chains, cliques and singletons-with-one-edge."""
    import ray.data as rd

    from sagan_ray.stages.dedup import dedup_clusters

    rng = np.random.RandomState(3)
    pairs = set()
    # a long chain (worst diameter), a clique, random edges
    pairs |= {(i, i + 1) for i in range(0, 12)}          # chain 0..12
    pairs |= {(a, b) for a in range(100, 105) for b in range(a + 1, 105)}
    for _ in range(40):
        a, b = rng.randint(200, 260, size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    plist = sorted(pairs)
    nodes = sorted({x for p in plist for x in p})
    expect = _union_find_reference(plist, nodes)

    ds = rd.from_items(
        [{"doc_id_a": int(a), "doc_id_b": int(b)} for a, b in plist])
    out = dedup_clusters(ds).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == expect


def test_dedup_keep_first_filters_losers(ray_session):
    import ray.data as rd

    from sagan_ray.stages.dedup import dedup_keep_first

    docs = rd.from_items([{"doc_id": i, "text": f"t{i}"} for i in range(10)])
    pairs = rd.from_items([
        {"doc_id_a": 1, "doc_id_b": 4},
        {"doc_id_a": 4, "doc_id_b": 7},   # cluster {1,4,7} -> keeper 1
        {"doc_id_a": 2, "doc_id_b": 9},   # cluster {2,9}   -> keeper 2
    ])
    kept = sorted(dedup_keep_first(docs, pairs).to_pandas()["doc_id"])
    assert kept == [0, 1, 2, 3, 5, 6, 8]


def test_cc_kernels_partition_simulation():
    """The propagation kernels (send/fold/jump) simulated over explicit
    gb partitions — no Ray — converge a chain to its min label."""
    import pyarrow as pa

    from sagan_ray.stages.dedup import _cc_gb, _cc_kernels

    nb = 16
    send, fold, jump = _cc_kernels(nb)

    def mk(k, v, side):
        k = np.array(k, dtype=np.int64)
        v = np.array(v, dtype=np.int64)
        return pa.table({"k": pa.array(k), "v": pa.array(v),
                         "gb": _cc_gb(k, nb),
                         "side": pa.array(np.full(len(k), side, dtype=np.int8))})

    def simulate(fn, *tabs):
        u = pa.concat_tables(tabs)
        gbs = u["gb"].to_numpy()
        return pa.concat_tables(
            [fn(u.filter(pa.array(gbs == g))) for g in np.unique(gbs)]
        )

    # chain 5-6-7-8-9, both directions
    chain = [(i, i + 1) for i in range(5, 9)]
    ea = [a for a, b in chain] + [b for a, b in chain]
    eb = [b for a, b in chain] + [a for a, b in chain]
    edges = mk(ea, eb, 0)
    # init label = min(self, neighbors)
    init = {n: min([n] + [b for a, b in zip(ea, eb) if a == n])
            for n in range(5, 10)}
    labels = mk(list(init), list(init.values()), 1)
    for _ in range(4):
        msgs = simulate(send, edges, labels)
        folded = simulate(fold, msgs, labels)
        if not any(folded["chg"].to_pylist()):
            labels = folded.drop_columns(["chg"])
            break
        labels2 = folded.drop_columns(["chg"])
        seekers = mk(labels2["v"].to_pylist(), labels2["k"].to_pylist(), 0)
        labels = simulate(jump, seekers, labels2)
    got = dict(zip(labels["k"].to_pylist(), labels["v"].to_pylist()))
    assert got == {n: 5 for n in range(5, 10)}


def test_frame_sample_real_branch_with_fake_pil(monkeypatch):
    """FrameSample's real path via an injected PIL exposing the
    Image.open + ImageSequence.Iterator contract over synthesized
    'animated' payloads: b'VID' + one gray byte per frame."""
    import sys
    import types

    class FakeFrame:
        def __init__(self, val):
            self.val = val

        def convert(self, mode):
            assert mode == "L"
            return np.full((4, 4), self.val, dtype=np.uint8)

    class FakeAnim:
        def __init__(self, payload):
            self.frames = [FakeFrame(b) for b in payload[3:]]

        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

    class FakeImage:
        @staticmethod
        def open(bio):
            data = bio.read()
            if not data.startswith(b"VID"):
                raise ValueError("not a video")
            return FakeAnim(data)

    class FakeImageSequence:
        @staticmethod
        def Iterator(im):
            return iter(im.frames)

    fake_pil = types.ModuleType("PIL")
    fake_pil.Image = FakeImage
    fake_pil.ImageSequence = FakeImageSequence
    monkeypatch.setitem(sys.modules, "PIL", fake_pil)

    from sagan_ray.stages.multimodal import FrameSample

    fs = FrameSample(every_n=10, payload_col="payload", mode="real")
    assert fs.real
    t = pa.table({
        "url": pa.array(["anim", "junk", "empty"]),
        "payload": pa.array(
            [b"VID" + bytes(range(25)), b"nope!", b"VID"],
            type=pa.binary()),
    })
    out = fs(t)
    # 25 frames sampled every 10 -> frames 0, 10, 20; corrupt and
    # zero-frame payloads each yield ONE NULL row (flag-and-keep)
    assert out["url"].to_pylist() == ["anim", "anim", "anim",
                                      "junk", "empty"]
    assert out["frame_id"].to_pylist() == [0, 10, 20, None, None]
    feats = out["feature"].to_pylist()
    assert feats[3] is None and feats[4] is None
    # uniform-gray frame: whole histogram mass in one 16-bin bucket
    for f, frame_val in zip(feats[:3], (0, 10, 20)):
        assert len(f) == 16
        assert abs(sum(f) - 1.0) < 1e-6
        assert max(f) == 1.0
        assert f.index(1.0) == (frame_val * 16) >> 8

    # auto mode without PIL falls back to the stub; real mode raises
    monkeypatch.delitem(sys.modules, "PIL")
    assert not FrameSample(mode="auto").real
    with pytest.raises(ImportError):
        FrameSample(mode="real")
