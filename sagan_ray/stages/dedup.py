"""Deduplication operators for large-scale training-data pipelines.

All hash functions are explicitly seeded/derandomized (blake2b, fixed
linear-congruential permutations) so every run — and every replayed
partition — produces identical results (resume idempotence).

Scale shapes:
* exact:     hash-partition on content digest → per-group first.
             One shuffle of (digest, doc_id) pairs only.
* MinHash+LSH: per-batch shingle→minhash (vectorized numpy), explode to
             (band_id, band_hash, doc_id) rows → coarse-bucket groupby →
             candidate pairs → co-partitioned text join → exact-Jaccard
             verify. Shuffles band keys + doc ids + candidate texts only.
* SimHash:   64-bit signature; Hamming ≤ d via pigeonhole segment
             blocking (d+1 segments); oversized groups sub-split with an
             exact second pigeonhole level; vectorized XOR-popcount scan.
* embedding: cosine ≥ t via multi-table random-hyperplane LSH (recall→1)
             → chunked vectorized exact verify per bucket.

All pair-generating groupbys ride ~256 coarse co-location buckets (one
vectorized pandas pass per partition — the per-tiny-group map_groups
overhead measured at ~24 s for 30k LSH buckets at sf0.1).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def md5_hex(texts) -> pa.Array:
    """Vectorized md5 hex digests (DuckDB kernel — no per-row Python)."""
    from ..functions.duck import md5_hex as _duck_md5

    return _duck_md5(texts)


def _digest64(texts) -> np.ndarray:
    """One vectorized 64-bit siphash per text (for the streaming
    seen-set, where the shard actor dedups by uint64 digest; use
    :func:`fast_digest128` where 64 bits' birthday bound is not enough)."""
    return pd.util.hash_array(
        np.asarray(texts, dtype=object), hash_key="sagan_seen_key_0"
    ).astype(np.uint64)


def fast_digest128_bytes(texts) -> np.ndarray:
    """Vectorized 128-bit content digest -> (n,) ``S32`` hex bytes.

    Two independent 64-bit siphash passes (pandas ``hash_array`` with
    distinct 16-byte keys — both C-vectorized, no per-row Python)
    concatenated to 128 bits: collision odds at 10^12 rows are ~1e-15,
    safe for exact dedup at web scale where one 64-bit hash is NOT
    (birthday at 10^12 rows predicts ~27k false merges). The S32 form
    sorts/compares byte-wise (32 B/row) — the broadcast-probe choice."""
    arr = np.asarray(texts, dtype=object)
    h1 = pd.util.hash_array(arr, hash_key="sagan_dedup_key1")
    h2 = pd.util.hash_array(arr, hash_key="sagan_dedup_key2")
    # vectorized hex: view each uint64 pair as 16 bytes -> hex
    raw = np.empty((len(arr), 2), dtype=">u8")
    raw[:, 0] = h1
    raw[:, 1] = h2
    by = raw.view(np.uint8).reshape(len(arr), 16)
    hexmap = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    out = np.empty((len(arr), 32), dtype=np.uint8)
    out[:, 0::2] = hexmap[by >> 4]
    out[:, 1::2] = hexmap[by & 0x0F]
    return out.view("S32").reshape(-1)


def fast_digest128(texts) -> np.ndarray:
    """:func:`fast_digest128_bytes` as python strings (column-friendly)."""
    return fast_digest128_bytes(texts).astype(str)


def grouped_min_count(ds, key_col: str, id_col: str, min_name: str,
                      n_name: str):
    """One row per distinct string key: (key, min id, count).

    NOT ``groupby().aggregate(Min, Count)`` — Ray's sort-aggregate
    builds per-group Python reduce state, pathological at
    corpus-cardinality keys (digests/URLs: one group per distinct
    content; see SCALE.md). Shape: project (key, id, gb=h(key)%nb),
    ONE coarse-bucket exchange, per-partition lexsort + run-length
    min/count."""
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def tag(t: pa.Table) -> pa.Table:
        # null keys group under '' (np.lexsort on an object array with
        # None raises; the same null contract as cap_per_key). Routing
        # hash straight from the Arrow buffers (functions/strhash) — no
        # per-row Python strings in the tag pass, matching the
        # integer-code reduce below.
        from ..functions.strhash import hash_string_arrow

        col = pa.compute.fill_null(t[key_col].combine_chunks(), "")
        return pa.table({
            key_col: col, id_col: t[id_col],
            "gb": pa.array((hash_string_arrow(col) % nb).astype(np.int64)),
        })

    def fn(t: pa.Table) -> pa.Table:
        # integer-only reduce: dictionary codes carry group identity, so
        # per-row Python strings never materialize (the _str_codes
        # pattern — at 10^12 digests an object-dtype lexsort dominates)
        col = t[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pa.compute.dictionary_encode(col)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, codes))
        cs, is_ = codes[order], ids[order]
        first = np.ones(len(cs), dtype=bool)
        first[1:] = cs[1:] != cs[:-1]
        starts = np.flatnonzero(first)
        n = np.diff(np.append(starts, len(cs)))
        keys_out = enc.dictionary.take(pa.array(cs[starts]))
        return pa.table({
            key_col: keys_out.cast(pa.string()),
            min_name: pa.array(is_[starts]),  # ids ascend within key
            n_name: pa.array(n.astype(np.int64)),
        })

    return shuffle_groups(ds.map_batches(tag, batch_format="pyarrow"),
                          "gb", fn, batch_format="pyarrow")


def exact_dedup_groups(ds, text_col: str = "text", id_col: str = "doc_id",
                       digest: str = "fast128"):
    """-> (digest col, keeper_doc_id, n): one row per distinct content.

    ``digest="fast128"`` (default, the scale path): vectorized 128-bit
    siphash digest, output column ``text_digest``. ``digest="md5"``:
    vectorized DuckDB md5 kernel, output column ``text_md5`` — the
    oracle-facing choice since DuckDB can restate ``md5(text)``. No
    per-row Python either way, and only (digest, id) rides the
    shuffle, never text; the reduce is :func:`grouped_min_count`
    (digest keys are corpus-cardinality)."""
    col = "text_md5" if digest == "md5" else "text_digest"

    def add_hash(t: pa.Table) -> pa.Table:
        if digest == "md5":
            h = md5_hex(t[text_col])
        else:
            h = pa.array(fast_digest128(t[text_col].to_pylist()))
        return pa.table({col: h, id_col: t[id_col]})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return grouped_min_count(hashed, col, id_col, "keeper_doc_id", "n")


def dedup_against(ds, ref, text_col: str = "text",
                  mode: str = "auto", broadcast_limit: int = 2_000_000):
    """Cross-corpus exact dedup: drop every row of ``ds`` whose content
    digest appears in the reference corpus ``ref`` — the "dedup the new
    crawl against the already-released training set" step.

    ``mode="broadcast"`` (auto when ``ref`` has <= ``broadcast_limit``
    rows): the reference digests collect into ONE sorted ``S32`` array
    (32 B/doc — 2M refs = 64 MB) placed in the object store once via
    ``ray.put``; the corpus streams map-only, each batch probing with
    ``searchsorted``. Zero shuffle — the contract for benchmark- or
    release-manifest-sized references.

    ``mode="join"`` (auto otherwise): both sides stay distributed — the
    reference reduces to unique digests (hashes only ride that
    exchange), then ``ds`` left-anti joins on the digest column. One
    hash exchange per side; the corpus exchange carries the full rows
    (the unavoidable cost of a distributed filter on a computed key).
    """
    import ray

    n_ref = None
    if mode == "auto":
        n_ref = ref.count()  # counted ONCE; reused for join sizing
        mode = "broadcast" if n_ref <= broadcast_limit else "join"

    def ref_digests(t: pa.Table) -> pa.Table:
        return pa.table({"text_digest": pa.array(
            fast_digest128(t[text_col].to_pylist()))})

    if mode == "broadcast":
        from ..functions.collect import collect_column_numpy

        dig = np.unique(collect_column_numpy(
            ref.map_batches(ref_digests, batch_format="pyarrow"),
            "text_digest", dtype="S32"))
        dig_ref = ray.put(dig)

        def gate(t: pa.Table) -> pa.Table:
            from ..functions.collect import sorted_isin

            arr = ray.get(dig_ref)
            q = fast_digest128_bytes(t[text_col].to_pylist())
            return t.filter(pa.array(~sorted_isin(arr, q)))

        return ds.map_batches(gate, batch_format="pyarrow")

    if mode != "join":
        raise ValueError(f"unknown mode {mode!r}")
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def ref_tagged(t: pa.Table) -> pa.Table:
        d = fast_digest128(t[text_col].to_pylist())
        return pa.table({
            "text_digest": pa.array(d),
            "gb": pa.array((_digest64(np.asarray(d, dtype=object))
                            % nb).astype(np.int64)),
        })

    def distinct_fn(t: pa.Table) -> pa.Table:
        d = np.unique(np.asarray(t["text_digest"].to_pylist(),
                                 dtype=object))
        return pa.table({"text_digest": pa.array(d, type=pa.string())})

    # distinct via the bucket exchange (digest keys: corpus-cardinality)
    uniq = shuffle_groups(
        ref.map_batches(ref_tagged, batch_format="pyarrow"), "gb",
        distinct_fn, batch_format="pyarrow")

    def add_digest(t: pa.Table) -> pa.Table:
        return t.append_column(
            "text_digest", pa.array(fast_digest128(t[text_col].to_pylist())))

    left = ds.map_batches(add_digest, batch_format="pyarrow")
    if n_ref is None:
        n_ref = ref.count()
    npart = max(2, min(_join_width(), n_ref // 250_000 + 2))
    out = left.join(uniq, join_type="left_anti", num_partitions=npart,
                    on=("text_digest",))
    return out.drop_columns(["text_digest"])


# ---------------------------------------------------------------------------
# shingles + minhash (vectorized, seeded)
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_LSH_BANDS = 16  # 16 bands x 4 rows
_N_COARSE = 256  # coarse co-location buckets for bucket/pair shuffles


def _perm_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Stable 61-bit hashes of word k-shingles."""
    words = text.split()
    if len(words) < k:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    out = np.empty(len(shingles), dtype=np.uint64)
    for i, s in enumerate(shingles):
        out[i] = int.from_bytes(
            hashlib.blake2b(s.encode(), digest_size=8).digest(), "little"
        ) % _MERSENNE
    return out


def minhash_signature(text: str, k: int = 3) -> np.ndarray:
    sh = shingle_hashes(text, k)
    # (P, S) permuted values -> min over shingles, vectorized
    vals = (sh[None, :] * _PERM_A[:, None] + _PERM_B[:, None]) % _MERSENNE
    return vals.min(axis=1)  # (_N_PERM,) uint64


def exact_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(shingle_hashes(a, k).tolist()), set(shingle_hashes(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _batch_shingle_hashes(texts: list[str],
                          k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc word-k-shingle hashes for a whole batch, concatenated.

    Returns (sh, doc_starts): uint64 hashes and int64 offsets such that
    doc d's shingles are ``sh[doc_starts[d]:doc_starts[d+1]]`` (empty
    docs contribute zero shingles). Word hashes come from pandas'
    siphash (vectorized, C); shingle hashes mix k consecutive word
    hashes with odd constants — no per-shingle Python."""
    n = len(texts)
    words_per_doc = [t.split() if t else [] for t in texts]
    doc_starts = np.zeros(n + 1, dtype=np.int64)
    for d, ws in enumerate(words_per_doc):
        doc_starts[d + 1] = doc_starts[d] + (0 if not ws else max(1, len(ws) - k + 1))
    flat_words = [w for ws in words_per_doc for w in ws]
    if not flat_words:
        return np.empty(0, dtype=np.uint64), doc_starts
    wh = pd.util.hash_array(np.array(flat_words, dtype=object))  # uint64
    c = [np.uint64(0x9E3779B185EBCA87), np.uint64(0xC2B2AE3D27D4EB4F),
         np.uint64(0x165667B19E3779F9)]
    sh_list = []
    pos = 0
    for ws in words_per_doc:
        m = len(ws)
        if m == 0:
            continue
        h = wh[pos : pos + m]
        pos += m
        if m < k:
            s = np.zeros(1, dtype=np.uint64)
            for j in range(m):
                s = s * c[j % 3] + h[j]
        else:
            s = np.zeros(m - k + 1, dtype=np.uint64)
            for j in range(k):
                s = s * c[j % 3] + h[j : j + (m - k + 1)]
        sh_list.append(s)
    return np.concatenate(sh_list), doc_starts


def batch_jaccard(texts_a: list[str], texts_b: list[str],
                  k: int = 3) -> np.ndarray:
    """Exact shingle-set Jaccard for aligned text pairs, batched.

    Shingle hashing is one vectorized pass per side (the same kernel
    the signatures use); per pair only C-level numpy set ops run. Set
    CARDINALITIES equal the string-set ones w.h.p. (64-bit hashes), so
    values match the scalar blake2b ``exact_jaccard`` and the DuckDB
    list_intersect/list_distinct oracles bit-for-bit (a differential
    test pins this)."""
    n = len(texts_a)
    sha, sta = _batch_shingle_hashes(texts_a, k)
    shb, stb = _batch_shingle_hashes(texts_b, k)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        ua = np.unique(sha[sta[i]:sta[i + 1]])
        ub = np.unique(shb[stb[i]:stb[i + 1]])
        if not len(ua) and not len(ub):
            out[i] = 1.0
            continue
        inter = len(np.intersect1d(ua, ub, assume_unique=True))
        out[i] = inter / (len(ua) + len(ub) - inter)
    return out


def batch_minhash(texts: list[str], k: int = 3) -> np.ndarray:
    """Vectorized minhash signatures for a whole batch -> (n, 64) uint64.

    Shingle hashes from :func:`_batch_shingle_hashes`; signature minima
    via np.minimum.reduceat over per-doc segments — no per-shingle
    Python. Signatures only steer LSH candidate generation; the
    exact-Jaccard verify decides."""
    n = len(texts)
    sig = np.full((n, _N_PERM), np.iinfo(np.uint64).max, dtype=np.uint64)
    sh, doc_starts = _batch_shingle_hashes(texts, k)
    if not len(sh):
        return sig
    # per-permutation wraparound multiply-add then segment minima per
    # doc (row-wise loop: numpy's uint64 BROADCAST multiply falls off
    # the fast path — 0.84s vs 0.02s for the same 6M ops). doc_starts of
    # nonempty docs are strictly increasing and empty docs contribute no
    # shingles, so each reduceat segment is exactly one doc.
    nonempty = np.flatnonzero(doc_starts[1:] > doc_starts[:-1])
    if len(nonempty):
        starts = doc_starts[nonempty]
        tmp = np.empty(len(sh), dtype=np.uint64)
        for p in range(_N_PERM):
            np.multiply(sh, _PERM_A[p], out=tmp)
            tmp += _PERM_B[p]
            sig[nonempty, p] = np.minimum.reduceat(tmp, starts)
    return sig


def minhash_lsh_pairs(ds, threshold: float = 0.5, k: int = 3,
                      text_col: str = "text", id_col: str = "doc_id"):
    """Near-duplicate pairs (doc_id_a < doc_id_b, jaccard >= threshold).

    Scale-safe end to end — nothing funnels through the driver:

    1. map_batches(minhash+bands) → explode (band_id, band_hash, id) —
       ids only, never text — tagged with a coarse co-location bucket;
    2. ONE coarse-bucket groupby generates candidate pairs vectorized
       per partition (never one pandas call per tiny LSH bucket);
    3. a second coarse-bucket pass dedups pairs found in several bands;
    4. the (reduced, materialized) pair set joins TEXT back in via two
       co-partitioned ``Dataset.join``s sized from the candidate count —
       texts shuffle only for candidate ids, never as a driver dict;
    5. exact-Jaccard verify runs inside the joined partitions.

    Returns a Dataset (doc_id_a, doc_id_b, jaccard:double — RAW, callers
    derive integer comparison columns).

    The input lineage executes ONCE: the projected (id, text) is
    checkpointed (``materialize()`` — object-store blocks, spilling to
    disk beyond memory) and feeds the band pass AND both verify-join
    text sides. Without the checkpoint those three consumers would each
    re-execute the full input lineage (two extra corpus scans at 100 TB)
    and a nondeterministic input (e.g. a branched ``limit`` under
    parallel execution) would silently desynchronize the branches.
    """
    import ray.data as rd

    rows_per_band = _N_PERM // _LSH_BANDS

    def bands(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
        texts = t[text_col].to_pylist()
        sig = batch_minhash(texts, k)  # (n, 64) vectorized
        n = len(ids)
        mix = np.uint64(0xFF51AFD7ED558CCD)
        band_hash = np.empty((n, _LSH_BANDS), dtype=np.uint64)
        for b in range(_LSH_BANDS):
            chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
            h = np.full(n, np.uint64(b + 1), dtype=np.uint64)
            for j in range(rows_per_band):
                h = (h ^ chunk[:, j]) * mix
            band_hash[:, b] = h
        return pa.table(
            {
                "band_id": pa.array(
                    np.tile(np.arange(_LSH_BANDS, dtype=np.int32), n)
                ),
                "band_hash": pa.array(band_hash.reshape(-1).view(np.int64)),
                id_col: pa.array(np.repeat(ids, _LSH_BANDS)),
            }
        )

    def bands_gb(t: pa.Table) -> pa.Table:
        # coarse co-location bucket per (band_id, band_hash): the
        # bucket-groupby ships each LSH bucket to ONE partition, and the
        # per-partition pass below is vectorized over ALL buckets in the
        # partition — never one pandas call per tiny LSH bucket (the
        # per-tiny-group overhead measured at ~24 s for 30k buckets)
        out = bands(t)
        bh = np.asarray(out["band_hash"]).view(np.uint64)
        bi = np.asarray(out["band_id"]).astype(np.uint64)
        gb = ((bh * np.uint64(17) + bi) % np.uint64(_N_COARSE)).astype(np.int64)
        return out.append_column("gb", pa.array(gb))

    # ONE corpus scan: checkpoint the (id, text) projection and feed the
    # band pass and both verify-join sides from the pinned blocks
    proj = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).materialize()
    exploded = proj.map_batches(bands_gb, batch_format="pyarrow")

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"doc_id_a": pd.Series(dtype=np.int64),
             "doc_id_b": pd.Series(dtype=np.int64),
             "gb2": pd.Series(dtype=np.int64)}
        )
        if len(g) < 2:
            return empty
        # only rows whose (band_id, band_hash) occurs >= twice matter
        dup = g[g.duplicated(["band_id", "band_hash"], keep=False)]
        if dup.empty:
            return empty
        key = (
            dup["band_hash"].to_numpy(dtype=np.int64).view(np.uint64)
            * np.uint64(1099511628211)
            + dup["band_id"].to_numpy(dtype=np.int64).view(np.uint64)
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        ids = dup[id_col].to_numpy(dtype=np.int64)[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for s, e in zip(starts, ends):  # loops only over collided buckets
            if e - s < 2:
                continue
            grp = np.sort(ids[s:e])
            ii, jj = np.triu_indices(len(grp), k=1)
            out_a.append(grp[ii])
            out_b.append(grp[jj])
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        keep = a != b
        a, b = a[keep], b[keep]
        gb2 = (
            (a.view(np.uint64) * np.uint64(0x9E3779B185EBCA87)
             ^ b.view(np.uint64)) % np.uint64(_N_COARSE)
        ).astype(np.int64)
        return pd.DataFrame({"doc_id_a": a, "doc_id_b": b, "gb2": gb2})

    found = exploded.groupby("gb").map_groups(pairs_part, batch_format="pandas")
    # dedup pairs found in multiple bands: second coarse-bucket pass,
    # vectorized drop_duplicates per partition
    cand = (
        found.groupby("gb2")
        .map_groups(
            lambda g: g.drop_duplicates(["doc_id_a", "doc_id_b"]),
            batch_format="pandas",
        )
        .select_columns(["doc_id_a", "doc_id_b"])
    )
    # pin the (reduced) pair set and size the verify joins from it: each
    # Dataset.join spins num_partitions aggregator actors, so a 32-wide
    # join over a few thousand pairs is pure fixed cost. ~250k pairs per
    # partition keeps partitions chunky; the cap keeps big runs wide.
    cand = _arrow_clean(cand).materialize()
    # candidate-sized NATIVE joins: the pair set is tiny relative to the
    # corpus, so tightly-sized aggregator pools beat the sort-exchange
    # equi_join at this shape (A/B at sf0.1: ~4.6s native vs ~9.6s equi
    # end-to-end; stages/join.py documents the big-big regime where the
    # native per-row Python hash_partition flips the verdict)
    n_pairs = cand.count()
    if n_pairs == 0:
        # a fully-empty materialized Dataset loses its column schema and
        # would break the verify joins — return typed empty pairs
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "doc_id_a": pa.array([], type=pa.int64()),
            "doc_id_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        }))
    # 1 partition under 10k pairs: Ray's join aggregator crashes on a
    # partition that received ZERO rows on one side (schema-less empty
    # table inside finalize) — tiny joins must not fan out
    np_join = (1 if n_pairs < 10_000
               else max(2, min(_join_width(), n_pairs // 250_000 + 2)))

    ta = _rename_cols(proj, {id_col: "doc_id_a", text_col: "text_a"})
    tb = _rename_cols(proj, {id_col: "doc_id_b", text_col: "text_b"})
    idt, txt = pa.int64(), pa.string()
    j = cand.join(ta, join_type="inner", num_partitions=np_join,
                  on=("doc_id_a",))
    j = j.map_batches(
        _ensure_cols({"doc_id_a": idt, "doc_id_b": idt, "text_a": txt}),
        batch_format="pyarrow",
    )
    j = j.join(tb, join_type="inner", num_partitions=np_join,
               on=("doc_id_b",))
    j = j.map_batches(
        _ensure_cols({"doc_id_a": idt, "doc_id_b": idt,
                      "text_a": txt, "text_b": txt}),
        batch_format="pyarrow",
    )

    def verify(t: pa.Table) -> pa.Table:
        aa = t["doc_id_a"].to_pylist()
        bb = t["doc_id_b"].to_pylist()
        # RAW double jaccard (no rounding): callers derive integer
        # comparison columns (floor(j*10000)) that must match the SQL
        # oracle bit-for-bit, which rounding here would break. Batched
        # kernel: one vectorized shingle-hash pass per side, numpy set
        # ops per pair (no per-shingle hashing in the hot verify).
        js = batch_jaccard(
            [x or "" for x in t["text_a"].to_pylist()],
            [y or "" for y in t["text_b"].to_pylist()],
            k,
        )
        out = pa.table(
            {
                "doc_id_a": pa.array([int(x) for x in aa], type=pa.int64()),
                "doc_id_b": pa.array([int(x) for x in bb], type=pa.int64()),
                "jaccard": pa.array(js, type=pa.float64()),
            }
        )
        return out.filter(pa.compute.greater_equal(out["jaccard"], threshold))

    return j.map_batches(verify, batch_format="pyarrow")


def _ensure_cols(cols: "dict[str, pa.DataType]"):
    """Restore column schema on the schema-less EMPTY blocks Ray's native
    join emits for empty partitions (they break any downstream kernel or
    chained join that references columns by name)."""
    def fix(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.table({c: pa.array([], type=ty)
                             for c, ty in cols.items()})
        return t
    return fix


def _join_width() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(8, cpus)


def _rename_cols(ds, mapping: dict[str, str]):
    return ds.map_batches(
        lambda t: t.rename_columns(
            [mapping.get(c, c) for c in t.column_names]
        ).replace_schema_metadata(None),
        batch_format="pyarrow",
    )


def _arrow_clean(ds):
    """Arrow-ify (possibly pandas-block) stream and strip pandas schema
    metadata. Pandas-origin blocks otherwise reach ``Dataset.join`` with
    schemas made unhashable by the pandas metadata blob, which defeats
    Ray's schema deduplication inside the join aggregators."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams (stable blake2b feature hashes)."""
    acc = np.zeros(64, dtype=np.int64)
    for w in text.split():
        h = int.from_bytes(hashlib.blake2b(w.encode(), digest_size=8).digest(), "little")
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def md5_word_hash(words: list[str]) -> np.ndarray:
    """64-bit word hash = bytes 8..16 of md5(word), little-endian —
    exactly DuckDB's ``md5_number_lower``, so a SimHash built on it is
    restatable in SQL. md5 runs once per UNIQUE word (words repeat a
    lot; the loop is over the vocabulary, not the stream)."""
    arr = np.array(words, dtype=object)
    uniq, inv = np.unique(arr, return_inverse=True)
    uh = np.array(
        [int.from_bytes(hashlib.md5(w.encode()).digest()[8:16], "little")
         for w in uniq],
        dtype=np.uint64,
    )
    return uh[inv]


def batch_simhash(texts: list[str], hash_fn: str = "sip") -> np.ndarray:
    """Vectorized 64-bit SimHash for a batch -> (n,) uint64.

    Word-hash bits are unpacked to a (S, 64) ±1 matrix and accumulated
    per doc with np.add.reduceat — no per-word Python loop in the
    accumulation. ``hash_fn``:

    * ``"sip"`` (default): pandas siphash word hashes — fastest, fully
      vectorized; signatures only steer candidate blocking, the Hamming
      verify decides.
    * ``"md5"``: DuckDB-matching ``md5_number_lower`` word hashes
      (md5 per unique word) — the oracle-facing choice, so the whole
      pair set is checkable against an exact SQL restatement."""
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    words_per_doc = [t.split() if t else [] for t in texts]
    flat = [w for ws in words_per_doc for w in ws]
    if not flat:
        return out
    if hash_fn == "md5":
        wh = md5_word_hash(flat)
    else:
        wh = pd.util.hash_array(np.array(flat, dtype=object))
    bits = ((wh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    pm = bits.astype(np.int32) * 2 - 1  # (S, 64) of ±1
    starts = np.zeros(n + 1, dtype=np.int64)
    for d, ws in enumerate(words_per_doc):
        starts[d + 1] = starts[d] + len(ws)
    nonempty = np.flatnonzero(starts[1:] > starts[:-1])
    if len(nonempty):
        acc = np.add.reduceat(pm, starts[nonempty], axis=0)  # (D, 64)
        sig_bits = (acc > 0).astype(np.uint64)
        sigs = (sig_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
        out[nonempty] = sigs
    return out


def simhash_pairs(ds, max_hamming: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", hash_fn: str = "sip"):
    """Near-dup pairs with Hamming(simhash) <= max_hamming via pigeonhole
    blocking on (max_hamming+1) signature segments.

    Pigeonhole blocking is EXACT (a pair within max_hamming must agree
    on at least one segment), so with ``hash_fn="md5"`` the output is
    bit-identical to an all-pairs SQL restatement over
    ``md5_number_lower`` word hashes — the driver oracle."""
    n_seg = max_hamming + 1
    seg_bits = 64 // n_seg

    def sigs(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
        s = batch_simhash(t[text_col].to_pylist(), hash_fn=hash_fn)  # (n,) uint64
        n = len(ids)
        seg_col = np.tile(np.arange(n_seg, dtype=np.int32), n)
        vals = np.empty((n, n_seg), dtype=np.uint64)
        for seg in range(n_seg):
            lo = seg * seg_bits
            width = seg_bits if seg < n_seg - 1 else 64 - lo
            vals[:, seg] = (s >> np.uint64(lo)) & np.uint64((1 << width) - 1)
        flat_vals = vals.reshape(-1)  # row-major: (doc0 segs..., doc1 segs...)
        seg_u = seg_col.astype(np.uint64)
        gb = ((flat_vals * np.uint64(17) + seg_u) % np.uint64(_N_COARSE)).astype(np.int64)
        return pa.table(
            {
                "seg": pa.array(np.tile(np.arange(n_seg, dtype=np.int32), n)),
                "seg_val": pa.array(flat_vals.view(np.int64)),
                id_col: pa.array(np.repeat(ids, n_seg)),
                "sig": pa.array(np.repeat(s.view(np.int64), n_seg)),
                "gb": pa.array(gb),
            }
        )

    exploded = ds.map_batches(sigs, batch_format="pyarrow")

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        """Coarse partition -> candidate pairs: vectorized XOR-popcount
        per exact (seg, seg_val) block, never one call per tiny block."""
        empty = pd.DataFrame(
            {"doc_id_a": pd.Series(dtype=np.int64),
             "doc_id_b": pd.Series(dtype=np.int64),
             "hamming": pd.Series(dtype=np.int64),
             "gb2": pd.Series(dtype=np.int64)}
        )
        if len(g) < 2:
            return empty
        dup = g[g.duplicated(["seg", "seg_val"], keep=False)]
        if dup.empty:
            return empty
        key = (
            dup["seg_val"].to_numpy(dtype=np.int64).view(np.uint64)
            * np.uint64(1099511628211)
            + dup["seg"].to_numpy(dtype=np.int64).view(np.uint64)
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        ids = dup[id_col].to_numpy(dtype=np.int64)[order]
        sig = dup["sig"].to_numpy(dtype=np.int64)[order].view(np.uint64)
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        out_a, out_b, out_h = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            sub_ids = ids[s:e]
            o2 = np.argsort(sub_ids, kind="stable")
            sub_ids = sub_ids[o2]
            sub_sig = sig[s:e][o2]
            segs = dup["seg"].to_numpy(dtype=np.int64)[order][s:e][o2]
            a3, b3, h3 = _group_pairs_bounded(
                sub_ids, sub_sig, int(segs[0]), n_seg, seg_bits, max_hamming
            )
            keep = sub_ids[a3] != sub_ids[b3]
            out_a.append(sub_ids[a3[keep]])
            out_b.append(sub_ids[b3[keep]])
            out_h.append(h3[keep])
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        h = np.concatenate(out_h)
        gb2 = (
            (a.view(np.uint64) * np.uint64(0x9E3779B185EBCA87)
             ^ b.view(np.uint64)) % np.uint64(_N_COARSE)
        ).astype(np.int64)
        return pd.DataFrame({"doc_id_a": a, "doc_id_b": b, "hamming": h, "gb2": gb2})

    found = exploded.groupby("gb").map_groups(pairs_part, batch_format="pandas")
    # a pair can surface from several segments (identical hamming):
    # second coarse-bucket pass dedups vectorized per partition
    return (
        found.groupby("gb2")
        .map_groups(
            lambda g: g.drop_duplicates(["doc_id_a", "doc_id_b"]),
            batch_format="pandas",
        )
        .select_columns(["doc_id_a", "doc_id_b", "hamming"])
    )


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# Above this size a (seg, seg_val) group is sub-split with a SECOND
# pigeonhole level instead of an O(g²) scan: a popular 16-bit segment
# value at web scale must not cost quadratic work.
_MAX_SEG_GROUP = 8192


def _group_pairs_bounded(
    ids: np.ndarray, sig: np.ndarray, seg: int, n_seg: int, seg_bits: int,
    max_hamming: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamming pairs within one (seg, seg_val) group, with an EXACT
    secondary pigeonhole for oversized groups: a pair with total
    Hamming <= d that agrees on this segment has all <= d differing bits
    among the remaining 64-width bits, so splitting those into d+1
    sub-segments guarantees the pair shares at least one sub-segment
    value — recall stays 1.0 while compute drops from O(g²) to
    Σ O(subgroup²). Returns LOCAL index pairs into ids/sig."""
    n = len(sig)
    if n <= _MAX_SEG_GROUP:
        return _hamming_pairs(sig, max_hamming)
    lo = seg * seg_bits
    width = seg_bits if seg < n_seg - 1 else 64 - lo
    # concatenate the bits outside [lo, lo+width) into one value
    low_mask = np.uint64((1 << lo) - 1) if lo else np.uint64(0)
    rem = ((sig >> np.uint64(lo + width)) << np.uint64(lo)) | (sig & low_mask)
    rem_bits = 64 - width
    n_sub = max_hamming + 1
    sub_bits = rem_bits // n_sub
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    for k in range(n_sub):
        shift = k * sub_bits
        width_k = sub_bits if k < n_sub - 1 else rem_bits - shift
        vals = (rem >> np.uint64(shift)) & np.uint64((1 << width_k) - 1)
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        bstarts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
        bends = np.r_[bstarts[1:], n]
        for bs, be in zip(bstarts, bends):
            if be - bs < 2:
                continue
            loc = order[bs:be]
            ai, bi, hh = _hamming_pairs(sig[loc], max_hamming)
            ga, gb_ = loc[ai], loc[bi]
            flip = ga > gb_
            ga2 = np.where(flip, gb_, ga)
            gb2 = np.where(flip, ga, gb_)
            out_a.append(ga2)
            out_b.append(gb2)
            out_h.append(hh)
    if not out_a:
        z = np.array([], dtype=np.int64)
        return z, z, z.copy()
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    h = np.concatenate(out_h)
    codes, idx = np.unique(a.astype(np.int64) * n + b, return_index=True)
    return a[idx], b[idx], h[idx]


def _hamming_pairs(
    sig: np.ndarray, max_hamming: int, chunk: int = 1024
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (i<j) index pairs with Hamming(sig_i, sig_j) <= max_hamming.

    Vectorized XOR + byte-LUT popcount, processed in row-chunks so a hot
    segment group of size g costs O(g²) uint64 ops but only
    O(chunk · g) memory — a 100k-row group peaks at ~800 MB·chunk/g
    rather than 80 GB."""
    n = len(sig)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        x = sig[s:e, None] ^ sig[None, :]  # (c, n) uint64
        hv = _POPCNT8[x.view(np.uint8).reshape(e - s, n, 8)].sum(axis=2)
        ii, jj = np.nonzero(hv <= max_hamming)
        gi = ii + s
        keep = gi < jj  # upper triangle only (i < j)
        out_a.append(gi[keep])
        out_b.append(jj[keep])
        out_h.append(hv[ii[keep] , jj[keep]].astype(np.int64))
    if not out_a:
        z = np.array([], dtype=np.int64)
        return z, z, z.copy()
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_h).astype(np.int64),
    )


# ---------------------------------------------------------------------------
# embedding near-dup (random hyperplane LSH + exact verify)
# ---------------------------------------------------------------------------


def embedding_dup_pairs(ds, threshold: float = 0.95, n_planes: int = 16,
                        n_tables: int = 4,
                        vec_col: str = "embedding", id_col: str = "vec_id",
                        seed: int = 42):
    """Pairs with cosine >= threshold via MULTI-TABLE random-hyperplane
    LSH: ``n_tables`` independent sign-pattern bucketings (a pair is a
    candidate if it collides in ANY table), exact cosine verify on the
    deduped candidate pairs.

    One table misses a θ-angle pair with probability ≈ n_planes·θ/π
    (≈0.5% at cosine 0.999 with 16 planes — 2 of 500 planted pairs in
    the r1 fixture); with 4 independent tables the miss probability is
    that to the 4th power (~5e-10), so recall is effectively exact while
    precision stays 1.0 from the verify.

    Shuffle shape (the minhash pattern): only (tbl, bucket, id) rows
    ride the LSH explode — vectors do NOT multiply by n_tables. The
    deduped candidate-pair set then joins vectors back via two
    co-partitioned ``Dataset.join``s sized from the candidate count, so
    vector bytes shuffle once per candidate-pair side instead of
    4× corpus volume. The (id, vec) projection is checkpointed once and
    feeds the bucketing pass and both join sides (one corpus scan).
    Degenerate hot buckets cost candidate rows rather than in-partition
    matmul: pair volume ~ Σ bucket²/2, same asymptotics as the verify
    the previous shape ran in place."""
    proj = ds.map_batches(
        lambda t: t.select([id_col, vec_col]), batch_format="pyarrow"
    ).materialize()
    first = proj.take(1)
    dim = len(first[0][vec_col])

    def bucketize_factory(dim: int):
        rng = np.random.RandomState(seed)
        planes = rng.normal(size=(n_tables, n_planes, dim)).astype(np.float64)

        def bucketize(t: pa.Table) -> pa.Table:
            vecs = np.array(t[vec_col].to_pylist(), dtype=np.float64)
            n = len(vecs)
            if n == 0:
                return pa.table(
                    {"tbl": pa.array([], type=pa.int32()),
                     "bucket": pa.array([], type=pa.int64()),
                     id_col: pa.array([], type=pa.int64()),
                     "gb": pa.array([], type=pa.int64())}
                )
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            unit = vecs / norms
            keys = np.empty((n_tables, n), dtype=np.int64)
            for ti in range(n_tables):
                signs = (unit @ planes[ti].T) >= 0  # (n, P)
                keys[ti] = (
                    signs.astype(np.uint64)
                    << np.arange(n_planes, dtype=np.uint64)
                ).sum(axis=1).astype(np.int64)
            ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
            tbl = np.repeat(np.arange(n_tables, dtype=np.int32), n)
            buckets = keys.reshape(-1)
            gb = (
                (buckets.view(np.uint64) * np.uint64(17)
                 + tbl.astype(np.uint64)) % np.uint64(_N_COARSE)
            ).astype(np.int64)
            return pa.table(
                {
                    "tbl": pa.array(tbl),
                    "bucket": pa.array(buckets),
                    id_col: pa.array(np.tile(ids, n_tables)),
                    "gb": pa.array(gb),
                }
            )

        return bucketize

    bucketed = proj.map_batches(bucketize_factory(dim), batch_format="pyarrow")

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        """Coarse partition -> candidate id pairs: vectorized per exact
        (tbl, bucket) block, never one pandas call per tiny bucket."""
        empty = pd.DataFrame(
            {"id_a": pd.Series(dtype=np.int64),
             "id_b": pd.Series(dtype=np.int64),
             "gb2": pd.Series(dtype=np.int64)}
        )
        if len(g) < 2:
            return empty
        dup = g[g.duplicated(["tbl", "bucket"], keep=False)]
        if dup.empty:
            return empty
        key = (
            dup["bucket"].to_numpy(dtype=np.int64).view(np.uint64)
            * np.uint64(1099511628211)
            + dup["tbl"].to_numpy(dtype=np.int64).view(np.uint64)
        )
        order = np.argsort(key, kind="stable")
        key = key[order]
        ids_all = dup[id_col].to_numpy(dtype=np.int64)[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for s0, e0 in zip(starts, ends):
            if e0 - s0 < 2:
                continue
            grp = np.sort(ids_all[s0:e0])
            ii, jj = np.triu_indices(len(grp), k=1)
            out_a.append(grp[ii])
            out_b.append(grp[jj])
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        keep = a != b
        a, b = a[keep], b[keep]
        gb2 = (
            (a.view(np.uint64) * np.uint64(0x9E3779B185EBCA87)
             ^ b.view(np.uint64)) % np.uint64(_N_COARSE)
        ).astype(np.int64)
        return pd.DataFrame({"id_a": a, "id_b": b, "gb2": gb2})

    found = bucketed.groupby("gb").map_groups(pairs_part, batch_format="pandas")
    # a pair can collide in several tables/buckets: coarse-bucket
    # drop_duplicates per partition, then pin the reduced pair set and
    # size the vector-joins from it (the minhash sizing policy)
    cand = (
        found.groupby("gb2")
        .map_groups(
            lambda g: g.drop_duplicates(["id_a", "id_b"]),
            batch_format="pandas",
        )
        .select_columns(["id_a", "id_b"])
    )
    cand = _arrow_clean(cand).materialize()
    # acero joins reject list<float> payload columns — pack each vector
    # to a float64 byte blob (zero-copy offsets buffer) for the join,
    # decode with np.frombuffer inside verify
    def pack(t: pa.Table) -> pa.Table:
        from ..functions.vectors import vec_matrix

        vecs = vec_matrix(t[vec_col])
        n = len(t)
        width = vecs.shape[1] * 8 if n else dim * 8
        offs = pa.py_buffer(
            (np.arange(n + 1, dtype=np.int32) * width).tobytes()
        )
        blob = pa.Array.from_buffers(
            pa.binary(), n, [None, offs, pa.py_buffer(vecs.tobytes())]
        )
        return pa.table({id_col: t[id_col], "vec_bin": blob})

    packed = proj.map_batches(pack, batch_format="pyarrow")
    va = _rename_cols(packed, {id_col: "id_a", "vec_bin": "bin_a"})
    vb = _rename_cols(packed, {id_col: "id_b", "vec_bin": "bin_b"})
    # candidate-sized native joins (same A/B rationale as the minhash
    # verify joins above)
    n_pairs = cand.count()
    if n_pairs == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64()),
        }))
    np_join = (1 if n_pairs < 10_000
               else max(2, min(_join_width(), n_pairs // 250_000 + 2)))
    idt, bint = pa.int64(), pa.binary()
    j = cand.join(va, join_type="inner", num_partitions=np_join, on=("id_a",))
    j = j.map_batches(
        _ensure_cols({"id_a": idt, "id_b": idt, "bin_a": bint}),
        batch_format="pyarrow",
    )
    j = j.join(vb, join_type="inner", num_partitions=np_join, on=("id_b",))
    j = j.map_batches(
        _ensure_cols({"id_a": idt, "id_b": idt, "bin_a": bint,
                      "bin_b": bint}),
        batch_format="pyarrow",
    )

    def verify(t: pa.Table) -> pa.Table:
        a = np.asarray(t["id_a"].to_pylist(), dtype=np.int64)
        b = np.asarray(t["id_b"].to_pylist(), dtype=np.int64)
        if len(a) == 0:
            return pa.table(
                {"id_a": pa.array([], type=pa.int64()),
                 "id_b": pa.array([], type=pa.int64()),
                 "cosine": pa.array([], type=pa.float64())}
            )
        x = np.frombuffer(
            b"".join(t["bin_a"].to_pylist()), dtype=np.float64
        ).reshape(len(a), -1)
        y = np.frombuffer(
            b"".join(t["bin_b"].to_pylist()), dtype=np.float64
        ).reshape(len(b), -1)
        nx = np.linalg.norm(x, axis=1)
        ny = np.linalg.norm(y, axis=1)
        nx[nx == 0] = 1.0
        ny[ny == 0] = 1.0
        cos = np.einsum("ij,ij->i", x, y) / (nx * ny)
        # filter on the UNROUNDED value (matches the SQL oracle's
        # list_cosine_similarity >= t); round only the output column
        keep = cos >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[keep]),
                "id_b": pa.array(b[keep]),
                "cosine": pa.array(np.round(cos[keep], 4), type=pa.float64()),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# pair set -> duplicate clusters -> keeper filter
# ---------------------------------------------------------------------------


def _cc_buckets() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(64, 4 * cpus)


def _cc_gb(vals: np.ndarray, nb: int) -> pa.Array:
    """Co-location bucket for int64 keys — splitmix64-style mix so
    near-sequential doc ids spread evenly."""
    x = vals.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return pa.array((x % np.uint64(nb)).astype(np.int64))


def _np64(t: pa.Table, name: str) -> np.ndarray:
    col = t[name]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.asarray(col, dtype=np.int64)


def _kv_lookup(keys: np.ndarray, vals: np.ndarray,
               probe: np.ndarray) -> np.ndarray:
    """vals[probe-th key] via sort+searchsorted (int64, vectorized).
    Every probe MUST be present (the propagation invariants guarantee
    it); asserts stay cheap."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    pos = np.searchsorted(sk, probe)
    return vals[order[pos]]


def _cc_kernels(nb: int):
    """Per-partition kernels for the propagation rounds (factory so the
    bucket modulus is captured once per run; module-level for direct
    unit testing)."""
    def send_min_msgs(g: pa.Table) -> pa.Table:
        """One co-location partition of edges(side 0, k=src) + labels
        (side 1, k=node): emit per-dst min of label(src), locally
        combined -> (k=dst, v=min_label, gb=h(dst), side=0)."""
        side = _np64(g, "side")
        k = _np64(g, "k")
        v = _np64(g, "v")
        e = side == 0
        if not e.any():
            return g.slice(0, 0)
        lbl = _kv_lookup(k[~e], v[~e], k[e])
        dst = v[e]
        order = np.argsort(dst, kind="stable")
        ds_, ls_ = dst[order], lbl[order]
        starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
        mins = np.minimum.reduceat(ls_, starts)
        out_k = ds_[starts]
        return pa.table({
            "k": pa.array(out_k), "v": pa.array(mins),
            "gb": _cc_gb(out_k, nb),
            "side": pa.array(np.zeros(len(out_k), dtype=np.int8)),
        })

    def fold_labels(g: pa.Table) -> pa.Table:
        """Partition of msgs(side 0, k=node) + labels(side 1): new
        label = min(old, inbox); emits chg for the convergence count."""
        side = _np64(g, "side")
        k = _np64(g, "k")
        v = _np64(g, "v")
        lmask = side == 1
        nk, nv = k[lmask], v[lmask]
        mk, mv = k[~lmask], v[~lmask]
        new = nv.copy()
        if len(mk):
            order = np.argsort(mk, kind="stable")
            mks, mvs = mk[order], mv[order]
            starts = np.flatnonzero(np.r_[True, mks[1:] != mks[:-1]])
            mins = np.minimum.reduceat(mvs, starts)
            pos = np.searchsorted(nk[np.argsort(nk, kind="stable")], mks[starts])
            # align via lookup (node set superset of msg targets)
            norder = np.argsort(nk, kind="stable")
            new[norder[pos]] = np.minimum(new[norder[pos]], mins)
        return pa.table({
            "k": pa.array(nk), "v": pa.array(new),
            "gb": g.filter(pa.array(lmask))["gb"],
            "side": pa.array(np.ones(len(nk), dtype=np.int8)),
            "chg": pa.array(new < nv),
        })

    def jump(g: pa.Table) -> pa.Table:
        """Pointer jumping: label(v) <- label(label(v)). Seekers ride
        keyed on their LABEL (side 0, k=label, v=node); providers are
        the labels themselves (side 1, k=node, v=label). Labels only
        decrease and label(u) <= u, so the shortcut is monotone-safe;
        every label IS a node, so the lookup is total."""
        side = _np64(g, "side")
        k = _np64(g, "k")
        v = _np64(g, "v")
        s = side == 0
        if not s.any():
            return pa.table({
                "k": pa.array(np.empty(0, np.int64)),
                "v": pa.array(np.empty(0, np.int64)),
                "gb": pa.array(np.empty(0, np.int64)),
                "side": pa.array(np.empty(0, np.int8)),
            })
        lbl2 = _kv_lookup(k[~s], v[~s], k[s])
        node = v[s]
        return pa.table({
            "k": pa.array(node), "v": pa.array(lbl2),
            "gb": _cc_gb(node, nb),
            "side": pa.array(np.ones(len(node), dtype=np.int8)),
        })
    return send_min_msgs, fold_labels, jump


def dedup_clusters(pairs, id_a: str = "doc_id_a", id_b: str = "doc_id_b",
                   max_rounds: int = 50):
    """Connected components over a near-dup pair set -> one
    ``(doc_id, cluster_id)`` row per node, ``cluster_id`` = the MIN doc
    id in the component (the canonical keeper).

    Distributed min-label propagation WITH pointer jumping: each round
    every node takes the min label over itself and its neighbors, then
    shortcuts ``label(v) <- label(label(v))`` — so convergence is
    O(log diameter), not O(diameter); chain graphs settle in ~log2
    rounds, LSH dup near-cliques in 1-2. Each round touches only the
    pair set (≪ corpus). The loop is driver-COORDINATED but never
    driver-EXECUTED: per round the driver sees one changed-row count;
    labels/edges stay in the object store.

    Exchange shape: every lookup is a side-tagged UNION co-partitioned
    on coarse key buckets + a vectorized searchsorted merge per
    partition (3 sort shuffles/round) — NOT ``Dataset.join``, whose
    per-call aggregator-actor startup (~10 s) dominated at pair-set
    sizes below ~10^8 rows (measured 110 s -> 17.4 s on a 220k-node /
    360k-edge planted graph, labels exact vs union-find).
    """
    from ..functions.exchange import shuffle_groups

    nb = _cc_buckets()

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t[id_a].combine_chunks().cast(pa.int64())
        b = t[id_b].combine_chunks().cast(pa.int64())
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        # k = src: edges are consumed co-partitioned with labels-by-node
        return pa.table({
            "k": src, "v": dst,
            "gb": _cc_gb(np.asarray(src, dtype=np.int64), nb),
            "side": pa.array(np.zeros(len(src), dtype=np.int8)),
        })

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()
    # bound the round width: the sort-shuffle's OUTPUT partition count
    # equals its input block count, and each round unions 2-3 datasets —
    # unbounded, blocks compound ~3x per round (measured 58 -> 1508 in
    # two rounds on a tiny graph, with shuffle cost to match). Edges are
    # coalesced once; labels are re-coalesced at the end of every round.
    npart = max(2, min(_join_width(), edges.count() // 250_000 + 2))
    if edges.num_blocks() > 2 * npart:
        edges = edges.repartition(npart).materialize()

    # initial label: min(self, neighbors) — the first propagation round
    # folded into initialization. (k=node, v=label, gb=h(node)). Edges
    # are already co-partitioned on gb=h(k), so this is one vectorized
    # lexsort per partition — NOT groupby().aggregate(Min), whose
    # per-group Python reduce state is pathological at node cardinality.
    def init_labels(t: pa.Table) -> pa.Table:
        k = _np64(t, "k")
        v = _np64(t, "v")
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        node = ks[first]
        lbl = np.minimum(node, vs[first])  # min(self, min neighbor)
        return pa.table({
            "k": pa.array(node), "v": pa.array(lbl),
            "gb": _cc_gb(node, nb),
            "side": pa.array(np.ones(len(node), dtype=np.int8)),
        })

    labels = shuffle_groups(edges, "gb", init_labels,
                            batch_format="pyarrow").materialize()

    send_min_msgs, fold_labels, jump = _cc_kernels(nb)

    for _ in range(max_rounds):
        msgs = shuffle_groups(edges.union(labels), "gb", send_min_msgs,
                              batch_format="pyarrow")
        folded = shuffle_groups(msgs.union(labels), "gb", fold_labels,
                                batch_format="pyarrow").materialize()
        changed = folded.filter(expr="chg == True").count()
        labels = folded.drop_columns(["chg"])
        if changed == 0:
            labels = labels.materialize()
            break
        seekers = labels.map_batches(
            lambda t: pa.table({
                "k": t["v"], "v": t["k"],
                "gb": _cc_gb(_np64(t, "v"), nb),
                "side": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }),
            batch_format="pyarrow",
        )
        labels = shuffle_groups(seekers.union(labels), "gb", jump,
                                batch_format="pyarrow")
        labels = labels.repartition(npart).materialize()
    else:
        raise RuntimeError(f"label propagation did not converge in {max_rounds} rounds")

    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["k"], "cluster_id": t["v"]}),
        batch_format="pyarrow",
    )


def dedup_keep_first(ds, pairs, id_col: str = "doc_id"):
    """Drop every near-duplicate except its cluster keeper (min id).

    ``pairs`` is any near-dup pair Dataset (minhash/simhash/embedding);
    non-keeper ids come from :func:`dedup_clusters`, and the corpus is
    filtered with a distributed left-ANTI join (both sides stay
    distributed; the dropped-id set is never a driver-side structure).
    """
    clusters = dedup_clusters(pairs)
    losers = clusters.filter(expr="doc_id != cluster_id").select_columns(
        ["doc_id"]
    )
    losers = _rename_cols(losers, {"doc_id": id_col}).materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return ds  # empty loser set: a schema-less empty side breaks joins
    npart = (1 if n_losers < 10_000
             else max(2, min(_join_width(), n_losers // 250_000 + 2)))
    return ds.join(losers, join_type="left_anti", num_partitions=npart,
                   on=(id_col,))


# ---------------------------------------------------------------------------
# SemDeDup — semantic (embedding-cluster) deduplication
# ---------------------------------------------------------------------------


def semdedup_losers(ds, vec_col: str = "vec", id_col: str = "id",
                    eps: float = 0.03, n_clusters: int = 64,
                    sample_size: int = 4096, seed: int = 42,
                    row_chunk: int = 1024):
    """Loser ids under SemDeDup (Abbas et al. 2023, arXiv:2303.09540 —
    public method): k-means-cluster the embeddings, and within each
    cluster drop every point whose cosine similarity to any point
    EARLIER in the cluster's keep order is >= 1 - eps. Keep order is
    (cosine-to-centroid ASC, id ASC): farthest-from-centroid first —
    the paper's "keep hard examples" choice — with a deterministic id
    tiebreak so the keeper set is replay-stable.

    Scale shape: centroids fit from a bounded deterministic hash-filter
    sample (the IVF sampler — one filter pass, no shuffle, sample_size
    rows to the driver by design); assignment is one map-only batch
    matmul against the broadcast centroid matrix; then ONE co-location
    exchange ships (cluster, id, csim, vec) and each partition runs the
    pairwise rule per cluster, tiled on BOTH axes so each similarity
    tile is O(row_chunk^2) floats and stays cache-resident while it is
    max-reduced (never O(cluster_size^2) at once, and never a DRAM
    round-trip per element — with dim ~16 the GEMM is memory-bound).
    Partitioning assumption (documented, same as the window family):
    one cluster's rows fit a partition — size n_clusters to data
    (clusters ~ n/n_clusters rows); the pairwise work is the method's
    own O(cluster_size^2 * dim) cost, not an artifact.
    """
    import ray

    from ..functions.exchange import _n_buckets, shuffle_groups
    from .similarity import _unit, kmeans_fit

    knuth = np.uint64(2654435761)
    n_total = ds.count()
    modulus = max(1, n_total // max(1, sample_size))

    def hash_sample(t: pa.Table) -> pa.Table:
        if t[id_col].null_count:
            # a null id would round-trip through float64 NaN into an
            # arbitrary int64 here and silently corrupt the sample /
            # loser matching — fail loudly like the old object path did
            raise TypeError(
                f"semdedup: {id_col!r} contains nulls; ids must be "
                "non-null integers")
        ids = (t[id_col].to_numpy(zero_copy_only=False)
               .astype(np.int64).view(np.uint64))
        keep = ((ids * knuth) % np.uint64(modulus) == 0 if modulus > 1
                else np.ones(len(ids), bool))
        return t.select([id_col, vec_col]).filter(pa.array(keep))

    sample = (ds.map_batches(hash_sample, batch_format="pyarrow")
              .to_pandas().sort_values(id_col).head(sample_size))
    if len(sample) == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({id_col: pa.array([],
                                                        type=pa.int64())}))
    cent = kmeans_fit(np.stack(sample[vec_col].to_numpy()),
                      n_clusters, seed=seed)
    cent_ref = ray.put(cent)
    nb = np.uint64(_n_buckets())

    def assign(t: pa.Table) -> pa.Table:
        from ..functions.vectors import matrix_to_list_array, vec_matrix

        if t.num_rows == 0:  # Ray delivers empty blocks routinely
            return pa.table({
                id_col: t[id_col],
                "cluster": pa.array([], type=pa.int64()),
                "csim": pa.array([], type=pa.float64()),
                vec_col: pa.array([], type=pa.list_(pa.float64())),
                "gb": pa.array([], type=pa.int64()),
            })
        c = ray.get(cent_ref)
        v = _unit(vec_matrix(t[vec_col]))
        sims = v @ c.T
        cl = np.argmax(sims, axis=1).astype(np.int64)
        csim = sims[np.arange(len(v)), cl]
        return pa.table({
            id_col: t[id_col],
            "cluster": pa.array(cl),
            "csim": pa.array(csim),
            vec_col: matrix_to_list_array(v),
            "gb": pa.array(((cl.view(np.uint64) * knuth) % nb)
                           .astype(np.int64)),
        })

    thresh = 1.0 - eps

    def losers_part(t: pa.Table) -> pa.Table:
        # Arrow-native: one lexsort puts clusters contiguous in keep
        # order; vectors come out of the list column as ONE matrix view
        # (vec_matrix) — no per-row objects in the reduce
        from ..functions.vectors import vec_matrix

        n = t.num_rows
        empty = pa.table({id_col: pa.array([], type=pa.int64())})
        if n == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = t["cluster"].to_numpy(zero_copy_only=False)
        csim = t["csim"].to_numpy(zero_copy_only=False)
        v = vec_matrix(t[vec_col])
        order = np.lexsort((ids, csim, cl))
        ids, cl, v = ids[order], cl[order], v[order]
        seg_starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        seg_ends = np.r_[seg_starts[1:], n]
        out = []
        for s, e in zip(seg_starts, seg_ends):
            m = e - s
            if m < 2:
                continue
            vv = v[s:e]
            drop = np.zeros(m, dtype=bool)
            # tile BOTH axes: with dim ~16 the GEMM is memory-bound —
            # an untiled (chunk x m) float64 output is ~100 MB that
            # round-trips DRAM three times (write, mask, max) and
            # collapses under 32 concurrent tasks sharing the bus; a
            # (row_chunk x row_chunk) tile stays cache-resident while
            # it is max-reduced (measured 5.7x single-thread, more
            # under contention)
            for a in range(1, m, row_chunk):
                b = min(a + row_chunk, m)
                blk = vv[a:b]
                mx = np.full(b - a, -2.0)
                for j0 in range(0, b, row_chunk):
                    j1 = min(j0 + row_chunk, b)
                    tile = blk @ vv[j0:j1].T
                    if j1 > a:  # tile touches the j >= i region
                        jj = np.arange(j0, j1)[None, :]
                        ii = np.arange(a, b)[:, None]
                        tile[jj >= ii] = -2.0
                    np.maximum(mx, tile.max(axis=1), out=mx)
                drop[a:b] = mx >= thresh
            if drop.any():
                out.append(ids[s:e][drop])
        if not out:
            return empty
        return pa.table({id_col: pa.array(np.concatenate(out))})

    tagged = ds.map_batches(assign, batch_format="pyarrow")
    return shuffle_groups(tagged, "gb", losers_part,
                          batch_format="pyarrow")


def semdedup(ds, vec_col: str = "vec", id_col: str = "id",
             eps: float = 0.03, n_clusters: int = 64,
             sample_size: int = 4096, seed: int = 42,
             broadcast_limit: int = 8_000_000):
    """Filter ``ds`` to SemDeDup keepers (see :func:`semdedup_losers`).

    Anti tail: acero joins reject the ``list<float>`` vec payload, so
    losers gate via a broadcast sorted-id array while they fit
    ``broadcast_limit`` ids (8 B each — the dedup_against bound); above
    it the corpus anti-joins on id with vectors binary-packed through
    the join and unpacked after (the embedding-verify pack pattern)."""
    losers = semdedup_losers(ds, vec_col, id_col, eps=eps,
                             n_clusters=n_clusters,
                             sample_size=sample_size,
                             seed=seed).materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return ds
    if n_losers <= broadcast_limit:
        import ray

        from ..functions.collect import collect_column_numpy

        ref = ray.put(np.sort(collect_column_numpy(losers, id_col,
                                                   dtype=np.int64)))

        def gate(t: pa.Table) -> pa.Table:
            from ..functions.collect import sorted_isin

            blk = ray.get(ref)
            vals = t[id_col].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(~sorted_isin(blk, vals)))

        return ds.map_batches(gate, batch_format="pyarrow")

    # zero-copy both ways (functions/vectors.py): matrix view -> one
    # binary blob column for the join, flat buffer view -> list column
    # after — no per-row Python on the corpus-scale path
    def pack(t: pa.Table) -> pa.Table:
        from ..functions.vectors import vec_matrix

        vecs = np.ascontiguousarray(vec_matrix(t[vec_col]))
        n = len(t)
        width = (vecs.shape[1] if vecs.size else 1) * 8
        offs = pa.py_buffer(
            (np.arange(n + 1, dtype=np.int32) * width).tobytes())
        blob = pa.Array.from_buffers(
            pa.binary(), n, [None, offs, pa.py_buffer(vecs.tobytes())])
        others = [c for c in t.column_names if c != vec_col]
        return t.select(others).append_column("vec_bin", blob)

    def unpack(t: pa.Table) -> pa.Table:
        from ..functions.vectors import matrix_to_list_array

        arr = t["vec_bin"]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) \
            else arr
        n = len(arr)
        out = t.drop_columns(["vec_bin"])
        if n == 0:
            return out.append_column(
                vec_col, pa.array([], type=pa.list_(pa.float64())))
        bufs = arr.buffers()  # [validity, offsets(int32), data]
        offs = np.frombuffer(bufs[1], dtype=np.int32)[
            arr.offset: arr.offset + n + 1]
        flat = np.frombuffer(bufs[2], dtype=np.uint8)[
            offs[0]: offs[-1]].view(np.float64)
        m = flat.reshape(n, (offs[1] - offs[0]) // 8)
        return out.append_column(vec_col, matrix_to_list_array(m))

    npart = max(2, min(_join_width(), n_losers // 250_000 + 2))
    joined = ds.map_batches(pack, batch_format="pyarrow").join(
        _arrow_clean(losers), join_type="left_anti",
        num_partitions=npart, on=(id_col,))
    return joined.map_batches(unpack, batch_format="pyarrow")
