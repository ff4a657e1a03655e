"""Round-4 fixes: sink-name collision safety, stale-EVE cleanup,
auto-bounded broadcasts for span masking / frequent-line stripping."""
import os

import numpy as np
import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# route.py — content+lineage-addressed sink names
# ---------------------------------------------------------------------------


def _alerts_table(n=4, host="h"):
    return pa.table({
        "url": pa.array([f"http://{host}/{i}" for i in range(n)]),
        "warc_ts": pa.array(
            np.array(["2024-01-01T00:00:00"] * n, dtype="datetime64[us]")),
        "host": pa.array([host] * n),
        "sid": pa.array(np.full(n, 1, dtype=np.int64)),
        "rev": pa.array(np.full(n, 1, dtype=np.int64)),
        "msg": pa.array(["m"] * n),
        "classification": pa.array(["c"] * n),
        "priority": pa.array(np.full(n, 1, dtype=np.int64)),
    })


def test_identical_blocks_get_distinct_sink_files(ray_session, tmp_path):
    """Two blocks with byte-identical alert content must write TWO fast
    log files (the r3 64-line-prefix content hash collided them)."""
    import ray.data as rd

    from sagan_ray.stages.route import write_fast_log

    t = _alerts_table()
    ds = rd.from_arrow([t, t])  # two identical blocks
    fast_dir = str(tmp_path / "fast")
    write_fast_log(ds, fast_dir)
    files = [f for f in os.listdir(fast_dir) if f.endswith(".log")]
    total = 0
    for f in files:
        with open(os.path.join(fast_dir, f)) as fh:
            total += sum(1 for _ in fh)
    assert total == 2 * t.num_rows, (
        f"{len(files)} files, {total} lines — identical blocks collided")


def test_sink_name_hashes_all_lines():
    """Same 64-line prefix + same count but different tails must differ
    even within one task (full-content hash)."""
    from sagan_ray.stages.route import _sink_name

    a = [f"line-{i}" for i in range(80)]
    b = a[:64] + [f"other-{i}" for i in range(16)]
    na = _sink_name(a, "x-", ".log")
    nb = _sink_name(b, "x-", ".log")
    assert na.split("-")[1] != nb.split("-")[1]  # content digest differs


def test_route_alerts_clears_stale_eve(ray_session, tmp_path):
    import ray.data as rd

    from sagan_ray.stages.route import route_alerts

    out = str(tmp_path / "run")
    eve_dir = os.path.join(out, "eve")
    os.makedirs(eve_dir)
    stale = os.path.join(eve_dir, "eve-stale.json")
    with open(stale, "w") as f:
        f.write('{"old": true}\n')
    ds = rd.from_arrow(_alerts_table())
    route_alerts(ds, out, write_eve=True)
    assert not os.path.exists(stale), "stale EVE file survived a re-route"
    # and the fresh tee actually wrote the new alerts
    lines = 0
    for f in os.listdir(eve_dir):
        with open(os.path.join(eve_dir, f)) as fh:
            lines += sum(1 for _ in fh)
    assert lines == 4


# ---------------------------------------------------------------------------
# spans.py / text.py — auto-bounded broadcasts
# ---------------------------------------------------------------------------


def _doc_table(docs):
    return pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
        "text": pa.array(docs, type=pa.string()),
    })


def _span_corpus():
    rng = np.random.RandomState(7)
    vocab = [f"w{i}" for i in range(30)]
    docs = [" ".join(rng.choice(vocab, size=rng.randint(3, 25)))
            for _ in range(60)]
    boiler = "all rights reserved by the original publisher of record"
    for i in range(6):
        docs[i * 5] = f"{docs[i * 5]} {boiler}"
    return docs


def test_span_mask_auto_forces_join_above_limit(ray_session):
    """mode='auto' with a tiny broadcast_limit must take the join path
    and still produce the broadcast path's exact output."""
    import ray.data as rd

    from sagan_ray.stages.spans import mask_duplicate_spans

    docs = _span_corpus()
    kw = dict(k=3, min_docs=2, min_span_tokens=3)
    base = (mask_duplicate_spans(rd.from_arrow(_doc_table(docs)),
                                 mode="broadcast", **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert base["n_masked_tokens"].sum() > 0  # the fixture masks something
    auto = (mask_duplicate_spans(rd.from_arrow(_doc_table(docs)),
                                 mode="auto", broadcast_limit=0, **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert auto["text"].tolist() == base["text"].tolist()
    assert (auto["n_masked_tokens"].tolist()
            == base["n_masked_tokens"].tolist())


def test_span_mask_auto_default_matches_broadcast(ray_session):
    import ray.data as rd

    from sagan_ray.stages.spans import mask_duplicate_spans

    docs = _span_corpus()
    kw = dict(k=3, min_docs=2, min_span_tokens=3)
    base = (mask_duplicate_spans(rd.from_arrow(_doc_table(docs)),
                                 mode="broadcast", **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    auto = (mask_duplicate_spans(rd.from_arrow(_doc_table(docs)), **kw)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert auto["text"].tolist() == base["text"].tolist()


BOILER = "Please accept all our cookies right now"
DOCS = [
    f"real content line number {i}\n{BOILER}\nshort\nmore real text {i}"
    for i in range(5)
] + ["unique document with no boilerplate at all", ""]


@pytest.mark.parametrize("force_join", [False, True])
def test_strip_frequent_lines_join_matches_broadcast(ray_session,
                                                     force_join):
    import ray.data as rd

    from sagan_ray.stages.text import strip_frequent_lines

    base = (strip_frequent_lines(rd.from_arrow(_doc_table(DOCS)),
                                 min_count=2, mode="broadcast")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert all(BOILER not in t for t in base["text"])
    kw = (dict(mode="auto", broadcast_limit=0) if force_join
          else dict(mode="join"))
    got = (strip_frequent_lines(rd.from_arrow(_doc_table(DOCS)),
                                min_count=2, **kw)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["text"].tolist() == base["text"].tolist()
    # untouched docs byte-identical through the join path too
    assert got["text"].tolist()[5] == DOCS[5]


# ---------------------------------------------------------------------------
# pack.py — nondeterministic-lineage guard + anti-join path plumbing
# ---------------------------------------------------------------------------


def _hot_table(n=60, cap_extra=5):
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "host": pa.array(["hot.example"] * n),
    })


def _flaky_fn(counter_path):
    """Returns the full block on the FIRST execution of the lineage,
    an empty block on every later one — a deliberately nondeterministic
    lineage (each cap_per_key_threshold pass re-executes it once)."""
    def fn(t: pa.Table) -> pa.Table:
        n = 0
        if os.path.exists(counter_path):
            with open(counter_path) as f:
                n = int(f.read())
        with open(counter_path, "w") as f:
            f.write(str(n + 1))
        return t if n == 0 else t.slice(0, 0)
    return fn


def test_threshold_engine_raises_on_nondeterministic_lineage(
        ray_session, tmp_path):
    """A still-hot key whose refinement scan comes back empty must raise
    (r3 silently set its threshold to (0,0) and dropped ~every row)."""
    import ray.data as rd

    from sagan_ray.stages.pack import (NondeterministicInputError,
                                       cap_per_key)

    ds = rd.from_arrow(_hot_table()).map_batches(
        _flaky_fn(str(tmp_path / "ctr")), batch_format="pyarrow")
    with pytest.raises(NondeterministicInputError):
        cap_per_key(ds, "host", 5, method="threshold").materialize()


def test_auto_falls_back_to_exchange_on_nondeterminism(
        ray_session, tmp_path):
    """method='auto' catches the guard and completes via the
    single-scan exchange engine instead of raising."""
    import ray.data as rd

    from sagan_ray.stages.pack import cap_per_key

    ds = rd.from_arrow(_hot_table()).map_batches(
        _flaky_fn(str(tmp_path / "ctr")), batch_format="pyarrow")
    out = cap_per_key(ds, "host", 5, method="auto").materialize()
    # the flaky lineage returns SOMETHING without raising; exact rows
    # are undefined for a nondeterministic input, bounded by the cap
    assert out.count() <= 60


def test_exchange_anti_join_path_with_types(ray_session):
    """loser_broadcast_limit=0 forces the distributed anti-join branch;
    passing `types` (no schema probe) must keep the exact keeper set."""
    import ray.data as rd

    from sagan_ray.stages.pack import cap_per_key

    rng = np.random.RandomState(3)
    n = 400
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "host": pa.array([f"h{i}" for i in rng.randint(0, 8, n)]),
        "warc_ts": pa.array(rng.randint(0, 10_000, n).astype(np.int64)),
    })
    base = sorted(cap_per_key(rd.from_arrow(t), "host", 10,
                              order_col="warc_ts", method="exchange")
                  .to_pandas()["doc_id"].tolist())
    got = sorted(cap_per_key(
        rd.from_arrow(t), "host", 10, order_col="warc_ts",
        method="exchange", loser_broadcast_limit=0,
        types={"doc_id": pa.int64(), "host": pa.string(),
               "warc_ts": pa.int64()})
        .to_pandas()["doc_id"].tolist())
    assert got == base and len(base) <= 80


def test_strip_frequent_paragraphs(ray_session):
    """sep='\\n\\n' runs the same machinery at paragraph granularity —
    a corpus-repeated PARAGRAPH (itself containing newlines) strips
    whole, and the two modes stay byte-identical."""
    import pyarrow as pa
    import ray.data as rd

    from sagan_ray.stages.text import strip_frequent_lines

    boiler = "subscribe to our newsletter\nfollow us on social media"
    docs = [f"unique body {i} with words\n\n{boiler}" for i in range(4)]
    docs.append("a document without the boilerplate at all")
    t = pa.table({
        "doc_id": pa.array(list(range(5)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    })
    kw = dict(min_count=3, min_chars=10, sep="\n\n")
    a = (strip_frequent_lines(rd.from_arrow(t), mode="broadcast", **kw)
         .to_pandas().sort_values("doc_id"))
    types = {"doc_id": pa.int64(), "text": pa.string()}
    b = (strip_frequent_lines(rd.from_arrow(t), mode="join",
                              doc_types=types, **kw)
         .to_pandas().sort_values("doc_id"))
    assert a["text"].tolist() == b["text"].tolist()
    for i in range(4):
        assert boiler not in a["text"].iloc[i]
        assert f"unique body {i}" in a["text"].iloc[i]
    # untouched doc stays byte-identical; LINE-mode would not strip the
    # two-line paragraph as a unit
    assert a["text"].iloc[4] == docs[4]


def test_preprune_tag_null_urls_sort_last():
    """The correlation tag's limit pre-prune sorts None urls LAST in a
    warc_ts tie (matching the gate and the oracle's ORDER BY warc_ts,
    url); an object sort used to raise TypeError on them."""
    import pyarrow as pa

    from sagan_ray.rules import parse_rule
    from sagan_ray.stages.correlate import correlation_plan

    rule = parse_rule(
        'alert any any any -> any any (sid:1; content:"x"; '
        "threshold: type limit, track by_host, count 2, seconds 3600;)"
    )
    batch = pa.table({
        "sid": pa.array([1] * 4, pa.int64()),
        "host": ["h"] * 4,
        "warc_ts": pa.array([1_767_225_600_000_000] * 4,  # all tied on time
                            pa.timestamp("us")),
        "url": [None, "b", "a", None],          # nulls must lose ties
    })
    tagged = correlation_plan([rule]).tag(batch)
    # winners of the 2-cap are the two non-null urls (NULLS LAST)
    assert sorted(tagged["url"].to_pylist()) == ["a", "b"]
