"""Sequence packing — assemble documents into fixed-token-budget
training sequences (the packing step of an LLM data pipeline).

Scale shape: packing is BLOCK-LOCAL — each ``map_batches`` call packs
its own batch independently, so the stage is embarrassingly parallel
and streams (no global state, no shuffle). Global greedy packing is
inherently sequential; block-local packing wastes at most one
underfull sequence per block, which at 100 TB (10^5+ blocks of 10^5
docs) is noise. Deterministic given the block: callers that need a
reproducible layout should order the stream first (e.g. sort by
doc_id) or accept per-run block boundaries.

The packer itself is O(sequences · log docs), not O(docs): greedy
first-fit over the token-count cumsum via ``np.searchsorted`` — one
binary search per OUTPUT sequence, no per-doc Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .text import BPE_TOKEN_RE


def pack_counts(counts: np.ndarray, cap: int) -> np.ndarray:
    """Greedy in-order packing: seq id per doc, budget ``cap`` tokens.

    A doc longer than ``cap`` gets its own sequence (callers truncate
    downstream). Returns int64 seq ids, non-decreasing from 0.
    """
    n = len(counts)
    seq = np.empty(n, dtype=np.int64)
    if n == 0:
        return seq
    cs = np.cumsum(counts.astype(np.int64))
    start = 0
    sid = 0
    base = 0
    while start < n:
        # last doc index whose running total fits base+cap
        end = int(np.searchsorted(cs, base + cap, side="right"))
        if end <= start:  # single doc exceeds cap: its own sequence
            end = start + 1
        seq[start:end] = sid
        sid += 1
        base = int(cs[end - 1])
        start = end
    return seq


def pack_batch(t: pa.Table, cap: int, count_col: str | None = None,
               id_col: str = "doc_id", text_col: str = "text",
               tokenize=None) -> pa.Table:
    """One packed-sequence row per greedy group within this block.

    Output: seq_id (block-local), n_docs, n_tokens, doc_ids (list),
    truncated (any doc alone over budget).

    Token denomination: ``count_col`` if given, else ``tokenize`` (the
    :mod:`..functions.tokenize` seam — counts are ``len(tokens)`` per
    doc), else the default BPE-ish regex count.
    """
    if count_col is not None:
        counts = np.asarray(t[count_col].to_pylist(), dtype=np.int64)
    elif tokenize is not None:
        counts = np.fromiter(
            (len(ws) for ws in tokenize(t[text_col].to_pylist())),
            dtype=np.int64, count=t.num_rows)
    else:
        counts = (
            pc.count_substring_regex(pc.fill_null(t[text_col], ""),
                                     BPE_TOKEN_RE)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
    seq = pack_counts(counts, cap)
    ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
    if len(seq) == 0:
        return pa.table({
            "seq_id": pa.array([], type=pa.int64()),
            "n_docs": pa.array([], type=pa.int64()),
            "n_tokens": pa.array([], type=pa.int64()),
            "doc_ids": pa.array([], type=pa.list_(pa.int64())),
            "truncated": pa.array([], type=pa.bool_()),
        })
    # segment boundaries of consecutive equal seq ids
    starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    ends = np.r_[starts[1:], len(seq)]
    n_docs = ends - starts
    n_tokens = np.add.reduceat(counts, starts)
    offsets = np.r_[starts, len(seq)].astype(np.int32)
    doc_ids = pa.ListArray.from_arrays(pa.array(offsets), pa.array(ids))
    truncated = (n_docs == 1) & (n_tokens > cap)
    return pa.table({
        "seq_id": pa.array(seq[starts]),
        "n_docs": pa.array(n_docs.astype(np.int64)),
        "n_tokens": pa.array(n_tokens.astype(np.int64)),
        "doc_ids": doc_ids,
        "truncated": pa.array(truncated),
    })


def chunk_batch(t: pa.Table, chunk_tokens: int, overlap: int,
                text_col: str = "text", id_col: str = "doc_id",
                tokenize=None, detokenize=None) -> pa.Table:
    """Split each document into token-bounded chunks with overlap.

    Tokens are whitespace words (the same normalization contract as the
    span-dedup rewrite: chunk text re-joins with single spaces — the op
    feeds a tokenizer). Chunk c covers tokens
    ``[c*stride, c*stride + chunk_tokens)`` with
    ``stride = chunk_tokens - overlap``; the last chunk is the remainder
    (never empty, never duplicated: docs with <= chunk_tokens tokens
    yield exactly one chunk, empty docs yield one empty chunk).

    Output: (id_col, chunk_id, text, n_tokens) — a 1->N explode,
    map-only, deterministic.
    """
    if overlap >= chunk_tokens:
        raise ValueError("overlap must be < chunk_tokens")
    from ..functions.tokenize import (whitespace_detokenize,
                                      whitespace_tokenize)
    tokenize = tokenize or whitespace_tokenize
    detok = detokenize or whitespace_detokenize
    stride = chunk_tokens - overlap
    ids = t[id_col].to_numpy(zero_copy_only=False)
    texts = t[text_col].to_pylist()
    words_per_doc = tokenize(texts)
    out_ids, out_chunk, out_text, out_n = [], [], [], []
    for did, ws in zip(ids, words_per_doc):
        m = len(ws)
        # number of chunks: ceil(max(m - overlap, 1) / stride)
        n_chunks = max(1, -(-(m - overlap) // stride)) if m > 0 else 1
        for c in range(n_chunks):
            seg = ws[c * stride: c * stride + chunk_tokens]
            out_ids.append(did)
            out_chunk.append(c)
            out_text.append(detok(seg))
            out_n.append(len(seg))
    return pa.table({
        id_col: pa.array(out_ids, type=t[id_col].type),
        "chunk_id": pa.array(out_chunk, type=pa.int64()),
        "text": pa.array(out_text, type=pa.string()),
        "n_tokens": pa.array(out_n, type=pa.int64()),
    })


def chunk_documents(ds, chunk_tokens: int = 512, overlap: int = 64,
                    text_col: str = "text", id_col: str = "doc_id",
                    tokenize=None, detokenize=None):
    """Dataset of documents -> Dataset of overlapping token chunks
    (map-only 1->N explode, streams; the pre-tokenization step between
    cleaning and :func:`pack_stage`). ``tokenize``/``detokenize`` are
    the :mod:`..functions.tokenize` seam (default whitespace)."""
    return ds.map_batches(
        lambda t: chunk_batch(t, chunk_tokens, overlap, text_col, id_col,
                              tokenize, detokenize),
        batch_format="pyarrow",
    )


def pack_stage(ds, cap: int = 2048, **kwargs):
    """Dataset of documents -> Dataset of packed sequences (block-local,
    map-only, streams)."""
    return ds.map_batches(
        lambda t: pack_batch(t, cap, **kwargs), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# training-stream assembly: deterministic shuffle + weighted mixture
# ---------------------------------------------------------------------------


def _shuffle_key(ids: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic 64-bit mix of (id, seed) — splitmix64 finalizer.
    Pure integer arithmetic: replay-stable across runs, processes and
    block layouts (unlike random_shuffle, which is seed-stable only for
    a fixed block layout)."""
    off = np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):  # wraparound is the point
        x = ids.astype(np.uint64) + off
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def seeded_shuffle(ds, id_col: str = "doc_id", seed: int = 42):
    """Deterministic global shuffle for training-order randomization:
    sort by a splitmix64 hash of (id, seed).

    Scale shape: ONE distributed sort (Ray's range-partitioned sort —
    the same all-to-all any global shuffle pays), but unlike
    ``random_shuffle`` the order is a pure function of (id, seed): a
    resumed or replayed run reproduces the identical stream, and a new
    seed is a full reshuffle without touching the data. The helper key
    column is dropped after the sort."""
    def key(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
        return t.append_column(
            "_shuf", pa.array(_shuffle_key(ids, seed).view(np.int64))
        )

    return (ds.map_batches(key, batch_format="pyarrow")
            .sort("_shuf")
            .drop_columns(["_shuf"]))


def mix_datasets(sources: list, weights: list[float], id_col: str = "doc_id",
                 seed: int = 42, source_col: str | None = "source_id"):
    """Weighted deterministic corpus mixture: keep each source-``i`` row
    with probability ``weights[i]`` (hash-gated — no RNG state), union
    the survivors. The training-mixture step of an LLM data pipeline
    (e.g. 100% wiki + 30% webcrawl).

    Scale shape: map-only filters + a union — no shuffle; combine with
    :func:`seeded_shuffle` downstream for training order. Deterministic:
    membership is a pure function of (id, per-source seed), so replays
    and resumed runs see the same mixture. ``source_col`` (optional)
    tags provenance."""
    import ray.data as rd  # noqa: F401  (documents the Dataset contract)

    if len(sources) != len(weights):
        raise ValueError("one weight per source")
    out = []
    denom = float(1 << 64)

    def gate_factory(i: int, w: float):
        thresh = np.uint64(min(max(w, 0.0), 1.0) * denom) if w < 1.0 else None

        def gate(t: pa.Table) -> pa.Table:
            if source_col:
                t = t.append_column(
                    source_col, pa.array([i] * len(t), type=pa.int32())
                )
            if thresh is None:
                return t
            ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
            keep = _shuffle_key(ids, seed + 1000003 * i) < thresh
            return t.filter(pa.array(keep))

        return gate

    for i, (src, w) in enumerate(zip(sources, weights)):
        out.append(src.map_batches(gate_factory(i, w), batch_format="pyarrow"))
    mixed = out[0]
    for o in out[1:]:
        mixed = mixed.union(o)
    return mixed


def weighted_sample_k(ds, k: int, weight_col: str, id_col: str = "doc_id",
                      seed: int = 42):
    """Deterministic weighted random sample WITHOUT replacement of
    ``k`` rows — inclusion probability proportional to ``weight_col``
    (Efraimidis–Spirakis A-Res keys): e.g. sample training docs
    proportional to a quality score.

    Key per row = ln(u) / w with u ~ U(0,1] derived from
    splitmix64(id, seed) — a pure function of (id, seed, weight), so
    the sample replays identically across runs and block layouts. The
    k LARGEST keys win (classic A-Res). Zero-weight rows never win
    while any positive-weight row remains; negative weights are
    rejected.

    Scale shape: map-only per-block top-``k`` combiner over the
    (id, key) projection — each block contributes <= k candidate rows —
    then one tiny sort+limit over <= k x blocks candidates and a
    broadcast id gate. Neither the corpus nor the weights ride a
    shuffle.
    """
    import ray

    from ..functions.collect import collect_column_numpy, sorted_isin

    if k < 1:
        raise ValueError("k must be >= 1")

    def es_keys(ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        if (w < 0).any():
            raise ValueError("weights must be >= 0")
        # u in (0,1]: (h+1)/2^64 with h in [0,2^64-1]
        u = (_shuffle_key(ids, seed).astype(np.float64) + 1.0) / float(2**64)
        with np.errstate(divide="ignore"):
            key = np.log(u) / w          # w=0 -> -inf (never wins)
        key[w == 0] = -np.inf
        return key

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        key = es_keys(ids, w)
        if len(key) > k:
            part = np.argpartition(key, len(key) - k)[len(key) - k:]
        else:
            part = np.arange(len(key))
        part = part[np.isfinite(key[part])]
        return pa.table({id_col: pa.array(ids[part]),
                         "_es_key": pa.array(key[part])})

    cand = ds.map_batches(local_topk, batch_format="pyarrow")
    top = cand.sort(["_es_key", id_col], descending=[True, False]).limit(k)
    win = ray.put(np.sort(collect_column_numpy(top, id_col,
                                               dtype=np.int64)))

    def gate(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(sorted_isin(ray.get(win), ids)))

    return ds.map_batches(gate, batch_format="pyarrow")


def _rank_in_key(keys: np.ndarray, order: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted row index, within-key rank) — keys grouped via factorize,
    ranked ascending by (order, id). One lexsort, no per-key Python."""
    import pandas as pd

    f = pd.factorize(keys)[0]
    idx = np.lexsort((ids, order, f))
    fs = f[idx]
    n = len(fs)
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = fs[1:] != fs[:-1]
    grp_start = np.flatnonzero(boundary)
    sizes = np.diff(np.append(grp_start, n))
    rank = np.arange(n, dtype=np.int64) - np.repeat(grp_start, sizes)
    return idx, rank


def _int64_sortable_u64(x: np.ndarray) -> np.ndarray:
    """int64 -> uint64 preserving order (flip the sign bit)."""
    return x.astype(np.int64).view(np.uint64) ^ np.uint64(1 << 63)


class NondeterministicInputError(RuntimeError):
    """The histogram-threshold engine observed an impossible scan: a
    still-hot key's refinement scope or boundary interval came back
    EMPTY, which cannot happen when the input lineage replays
    deterministically (each round's interval was chosen to contain
    >= `need` rows on the previous scan). Raised instead of silently
    defaulting the key's threshold to (0,0) — which would drop
    essentially every row of that key; ``cap_per_key(method="auto")``
    catches this and falls back to the single-scan exchange engine."""


def cap_per_key_threshold(ds, key_col: str, cap: int, id_col: str = "doc_id",
                          order_col: str | None = None, seed: int = 42,
                          hot_key_limit: int = 100_000,
                          n_buckets: int = 512,
                          boundary_cap: int = 65_536):
    """:func:`cap_per_key` semantics with ZERO row shuffle — the scale
    path for corpora where rows dwarf keys (the web reality).

    Instead of exchanging every ``(key, id, order)`` row to rank
    globally, each over-cap ("hot") key's exact rank-``cap`` cutoff —
    the cap-th smallest ``(order, id)`` pair — is found by per-key
    HISTOGRAM REFINEMENT (the select_top_tokens machinery, one interval
    per hot key, all keys refined concurrently in each round): every
    round is a map-only pass emitting sparse ``(key, bucket, count)``
    partials + one tiny groupby-sum. A hot key whose interval ties on a
    single order value switches to a second refinement level on the
    (unique) id. Boundary intervals (<= ``boundary_cap`` rows each)
    collect once for the exact cut; the final filter is a broadcast
    ``{key: (order*, id*)}`` map-only gate.

    Data movement: ~R+3 scans of the 2–3-column projection (R = rounds,
    2–3 typical for the uniform seed order) and per-round partials of
    |hot keys| x n_buckets rows — vs the exchange mode's full-row
    shuffle. Returns None when |hot keys| > ``hot_key_limit`` (the
    per-round partial volume bound) — caller falls back to the
    exchange; at web scale over-cap domains are the Zipf head, far
    below the limit."""
    import ray

    from ..functions.collect import collect_table

    def _order_u64(t: pa.Table, ids: np.ndarray) -> np.ndarray:
        if order_col is None:
            return _shuffle_key(ids, seed)
        col = t[order_col].combine_chunks()
        try:
            o = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        except pa.ArrowInvalid:
            o = col.to_numpy(zero_copy_only=False).astype(np.int64)
        return _int64_sortable_u64(o)

    def _key_codes(t: pa.Table):
        """(codes, uniques) via Arrow dictionary encode — the key column
        never materializes as Python strings (only the few uniques do);
        this runs once per pass per batch, so it must stay C-speed.
        Null keys group under '' (they'd otherwise null the indices)."""
        col = pc.fill_null(t[key_col].combine_chunks(), "")
        enc = col.dictionary_encode()
        f = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return f, enc.dictionary.to_pylist()

    def _cols(t: pa.Table):
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return ids, _order_u64(t, ids), _int64_sortable_u64(ids)

    # ---- pass 1: per-key counts. NOT groupby().aggregate (per-group
    # Python state in the reduce — pathological at key cardinality);
    # block partials ride one coarse-bucket exchange and each partition
    # sums with factorize + bincount.
    from ..functions.exchange import _n_buckets, shuffle_groups
    from .dedup import _digest64

    # shuffle modulus captured ONCE at plan build: _n_buckets() reads
    # cluster resources at call time, and two blocks hashing one key to
    # different gb values would split its counts across partitions,
    # silently un-capping it (correlate.py documents the same invariant)
    nbk_shuffle = np.uint64(_n_buckets())

    def count_part(t: pa.Table) -> pa.Table:
        f, uk = _key_codes(t)
        uk_arr = np.asarray(uk, dtype=object)
        gb = (_digest64(uk_arr) % nbk_shuffle).astype(np.int64)
        return pa.table({"k": pa.array(uk, type=pa.string()),
                         "n": pa.array(np.bincount(
                             f, minlength=len(uk)).astype(np.int64)),
                         "gb": pa.array(gb)})

    def count_sum(t: pa.Table) -> pa.Table:
        import pandas as pd

        f, uk = pd.factorize(np.asarray(t["k"].to_pylist(), dtype=object))
        sums = np.bincount(f, weights=t["n"].to_numpy(
            zero_copy_only=False), minlength=len(uk)).astype(np.int64)
        keep = sums > cap
        return pa.table({"k": pa.array(uk[keep], type=pa.string()),
                         "n": pa.array(sums[keep])})

    counts = shuffle_groups(
        ds.map_batches(count_part, batch_format="pyarrow"), "gb",
        count_sum, batch_format="pyarrow")
    ct = collect_table(counts)
    if ct is None:
        return ds  # no key over cap: identity
    hot_keys = np.asarray(ct["k"].to_pylist(), dtype=object)
    if len(hot_keys) > hot_key_limit:
        return None  # fall back to the exchange mode
    kidx = {k: i for i, k in enumerate(hot_keys)}
    nk = len(hot_keys)
    # per-key state: active flag; level 0=refine order, 1=refine id
    lo = np.zeros(nk, dtype=object)  # python ints: hi may be 2^64
    hi = np.array([1 << 64] * nk, dtype=object)
    fixed = np.zeros(nk, dtype=np.uint64)
    level = np.zeros(nk, dtype=np.int8)
    active = np.ones(nk, dtype=bool)
    need = np.full(nk, cap, dtype=np.int64)

    def _state_ref():
        step = np.array([max(1, -((int(l) - int(h)) // n_buckets))
                         for l, h in zip(lo, hi)], dtype=np.uint64)
        return ray.put((kidx, active.copy(), level.copy(),
                        np.array([int(x) for x in lo], dtype=np.uint64),
                        np.array([int(x) - 1 for x in hi],
                                 dtype=np.uint64),
                        step, fixed.copy()))

    def _round_pass(state_ref):
        def part(t: pa.Table) -> pa.Table:
            km, act_a, lv, lo_a, hi1, step_a, fx = ray.get(state_ref)
            f, uk = _key_codes(t)
            ids, ou, iu = _cols(t)
            # map the few DISTINCT keys through the dict (not per row)
            m = np.array([km.get(k, -1) for k in uk], dtype=np.int64)
            ki = m[f]
            act = (ki >= 0) & act_a[np.maximum(ki, 0)]
            if not act.any():
                return pa.table({"g": pa.array([], type=pa.int64()),
                                 "n": pa.array([], type=pa.int64()),
                                 "gb": pa.array([], type=pa.int64())})
            ki = ki[act]
            lvl = lv[ki]
            v = np.where(lvl == 0, ou[act], iu[act])
            scope = (lvl == 0) | (ou[act] == fx[ki])
            # interval test via hi-1 (hi may be 2^64, out of uint64)
            inb = scope & (v >= lo_a[ki]) & (v <= hi1[ki])
            with np.errstate(over="ignore"):
                b = ((v[inb] - lo_a[ki][inb])
                     // step_a[ki][inb]).astype(np.int64)
            gid = ki[inb] * n_buckets + b
            u, cnt = np.unique(gid, return_counts=True)
            return pa.table({"g": pa.array(u),
                             "n": pa.array(cnt.astype(np.int64)),
                             "gb": pa.array(u % np.int64(nbk_shuffle))})

        def sum_fn(t: pa.Table) -> pa.Table:
            from ..functions.exchange import reduceat_sum

            u, sums = reduceat_sum(t["g"].to_numpy(zero_copy_only=False),
                                   t["n"].to_numpy(zero_copy_only=False))
            return pa.table({"g": pa.array(u), "n": pa.array(sums)})

        # distributed reduceat sum (same high-cardinality rationale as
        # pass 1: hot_keys x n_buckets groups would stall sort-aggregate)
        h = shuffle_groups(ds.map_batches(part, batch_format="pyarrow"),
                           "gb", sum_fn, batch_format="pyarrow")
        return collect_table(h)

    # ---- refinement rounds ----
    max_rounds = 2 * (-(-64 // max(1, int(np.log2(n_buckets))))) + 2
    for _ in range(max_rounds):
        if not active.any():
            break
        ht = _round_pass(_state_ref())
        g = (ht["g"].to_numpy(zero_copy_only=False)
             if ht is not None else np.empty(0, dtype=np.int64))
        n = (ht["n"].to_numpy(zero_copy_only=False)
             if ht is not None else np.empty(0, dtype=np.int64))
        order = np.argsort(g, kind="stable")
        g, n = g[order], n[order]
        kk, bb = g // n_buckets, g % n_buckets
        for i in np.flatnonzero(active):
            sel = kk == i
            if not sel.any():
                # a still-hot key's scope CANNOT be empty under a
                # deterministic lineage (the interval held >= need rows
                # last scan) — fail loudly, never default to (0,0)
                raise NondeterministicInputError(
                    f"refinement scope for hot key {hot_keys[i]!r} came "
                    "back empty — input lineage is not deterministic")
            cum = np.cumsum(n[sel])
            j = int(np.searchsorted(cum, need[i]))  # first cum >= need
            need[i] -= int(cum[j - 1]) if j else 0
            step = max(1, -((int(lo[i]) - int(hi[i])) // n_buckets))
            b = int(bb[sel][j])
            new_lo = int(lo[i]) + b * step
            new_hi = min(new_lo + step, int(hi[i]))
            lo[i], hi[i] = new_lo, new_hi
            cnt = int(n[sel][j])
            if cnt <= boundary_cap:
                active[i] = False
            elif new_hi - new_lo == 1:
                if level[i] == 0:  # one order value, huge tie -> ids
                    fixed[i] = np.uint64(new_lo)
                    level[i] = 1
                    lo[i], hi[i] = 0, 1 << 64
                else:
                    active[i] = False  # duplicate ids: collect anyway

    # ---- boundary collect: exact per-key threshold pair ----
    b_state = ray.put((kidx, level.copy(),
                       np.array([int(x) for x in lo], dtype=np.uint64),
                       np.array([int(x) - 1 for x in hi], dtype=np.uint64),
                       fixed.copy()))

    def bpart(t: pa.Table) -> pa.Table:
        km, lv, lo_a, hi1, fx = ray.get(b_state)
        f, uk = _key_codes(t)
        ids, ou, iu = _cols(t)
        m = np.array([km.get(k, -1) for k in uk], dtype=np.int64)
        ki = m[f]
        act = ki >= 0
        ki0 = np.maximum(ki, 0)
        on_id = lv[ki0] == 1
        v = np.where(on_id, iu, ou)
        scope = ~on_id | (ou == fx[ki0])
        act &= scope & (v >= lo_a[ki0]) & (v <= hi1[ki0])
        return pa.table({"ki": pa.array(ki[act]),
                         "ou": pa.array(ou[act].view(np.int64)),
                         "iu": pa.array(iu[act].view(np.int64))})

    bt = collect_table(ds.map_batches(bpart, batch_format="pyarrow"))
    thr_o = np.zeros(nk, dtype=np.uint64)
    thr_i = np.zeros(nk, dtype=np.uint64)
    thr_set = np.zeros(nk, dtype=bool)
    if bt is not None and bt.num_rows:
        bki = bt["ki"].to_numpy(zero_copy_only=False)
        bou = bt["ou"].to_numpy(zero_copy_only=False).view(np.uint64)
        biu = bt["iu"].to_numpy(zero_copy_only=False).view(np.uint64)
        srt = np.lexsort((biu, bou, bki))
        bki, bou, biu = bki[srt], bou[srt], biu[srt]
        starts = np.r_[0, 1 + np.flatnonzero(bki[1:] != bki[:-1])]
        ends = np.r_[starts[1:], len(bki)]
        for s, e, i in zip(starts, ends, bki[starts]):
            # need[i]-th smallest in-scope pair = the last keeper
            # (the crossing bucket holds >= need rows by construction;
            # min() guards the duplicate-id fallback)
            p = min(s + need[i] - 1, e - 1)
            thr_o[i], thr_i[i] = bou[p], biu[p]
            thr_set[i] = True
    if not thr_set.all():
        # every hot key's boundary interval held >= need rows on the
        # scan that chose it — an empty collect means the lineage did
        # not replay. (0,0) would silently drop ~all rows of that key.
        missing = hot_keys[~thr_set][:3].tolist()
        raise NondeterministicInputError(
            f"boundary collect returned no rows for hot key(s) "
            f"{missing!r} — input lineage is not deterministic")
    g_state = ray.put((kidx, thr_o, thr_i))

    def gate(t: pa.Table) -> pa.Table:
        km, to, ti = ray.get(g_state)
        f, uk = _key_codes(t)
        ids, ou, iu = _cols(t)
        m = np.array([km.get(k, -1) for k in uk], dtype=np.int64)
        ki = m[f]
        ki0 = np.maximum(ki, 0)
        keep = (ki < 0) | (ou < to[ki0]) | ((ou == to[ki0])
                                            & (iu <= ti[ki0]))
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


def cap_per_key(ds, key_col: str, cap: int, id_col: str = "doc_id",
                order_col: str | None = None, seed: int = 42,
                method: str = "auto", types: dict | None = None,
                loser_broadcast_limit: int = 20_000_000):
    """Keep at most ``cap`` rows per key — the RefinedWeb-style
    per-domain cap (bound any one host's share of the training corpus).

    Keeper rank is ascending ``order_col`` (ties by id) when given —
    e.g. ``warc_ts`` keeps the earliest crawls — else a deterministic
    pseudo-random order (splitmix64 of (id, seed)), i.e. an unbiased
    per-key sample that replays identically across runs.

    Two exact engines, identical keeper sets (differential-tested):

    - ``method="threshold"`` (:func:`cap_per_key_threshold`): zero row
      shuffle — per-hot-key histogram refinement finds each key's exact
      rank-cap cutoff, then a broadcast map-only gate. A few extra
      projection scans; the scale default.
    - ``method="exchange"``: one sort-exchange of the (key, id, order)
      projection with block-local pre-pruning, losers broadcast back
      (or anti-joined above 20M). One scan; wins when the input scan
      itself is the expensive part and keys are many.

    ``method="auto"`` tries threshold and falls back to exchange when
    over-cap keys exceed its broadcast bound OR when a refinement scan
    comes back inconsistent (:class:`NondeterministicInputError` — the
    exchange engine scans the input exactly once, so it is immune).
    ``method="threshold"`` re-raises instead. Both engines otherwise
    require a DETERMINISTIC input lineage (threshold re-scans it per
    round).

    ``types`` (col -> pa.DataType, all columns of ``ds``) skips the
    ``Dataset.schema()`` probe the >20M-loser anti-join fallback would
    otherwise pay — the same contract as :func:`~.window.asof_join`;
    pass it whenever ``ds`` is an expensive lazy plan.
    """
    import pyarrow.compute as _pc  # noqa: F401

    from ..functions.exchange import shuffle_groups
    from .dedup import _digest64

    if cap < 1:
        raise ValueError("cap must be >= 1")
    if method not in ("auto", "threshold", "exchange"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "threshold"):
        try:
            out = cap_per_key_threshold(ds, key_col, cap, id_col=id_col,
                                        order_col=order_col, seed=seed)
        except NondeterministicInputError:
            if method == "threshold":
                raise
            out = None  # auto: single-scan exchange engine below
        if out is not None:
            return out
        if method == "threshold":
            raise ValueError("over-cap keys exceed hot_key_limit; "
                             "use method='exchange'")
    nb = 256  # coarse co-location buckets (many keys per bucket is fine)

    def _order_of(t: pa.Table, ids: np.ndarray) -> np.ndarray:
        if order_col is None:
            # flip the sign bit: int64 view preserves uint64 ascending order
            return (_shuffle_key(ids, seed)
                    ^ np.uint64(1 << 63)).view(np.int64)
        col = t[order_col].combine_chunks()
        try:
            return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        except pa.ArrowInvalid:
            return col.to_numpy(zero_copy_only=False).astype(np.int64)

    def proj(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # null keys group under '' — the same contract as the threshold
        # engine's _key_codes, so both engines cap identical sets
        keys = np.asarray(
            pc.fill_null(t[key_col].combine_chunks(), "").to_pylist(),
            dtype=object)
        o = _order_of(t, ids)
        idx, rank = _rank_in_key(keys, o, ids)
        # rows beyond the cap WITHIN this block are globally-sure losers:
        # they ride the exchange as skinny tagged rows (id only matters)
        # and skip the rank kernel; only the block's top-`cap` per key
        # stay candidates, so candidate volume per key is bounded per
        # block regardless of skew.
        cand = idx[rank < cap]
        sure = idx[rank >= cap]
        kh = _digest64(keys[cand])
        k_col = np.concatenate([keys[cand], np.full(len(sure), "", object)])
        gb = np.concatenate([
            (kh % np.uint64(nb)).astype(np.int32),
            (ids[sure] % nb).astype(np.int32),
        ])
        order = np.concatenate([o[cand], np.zeros(len(sure), dtype=o.dtype)])
        flag = np.concatenate([np.zeros(len(cand), dtype=np.int8),
                               np.ones(len(sure), dtype=np.int8)])
        return pa.table({
            "k": pa.array(k_col, type=pa.string()),
            id_col: pa.array(np.concatenate([ids[cand], ids[sure]])),
            "o": pa.array(order),
            "gb": pa.array(gb),
            "sure": pa.array(flag),
        })

    def losers_fn(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        flag = t["sure"].to_numpy(zero_copy_only=False).astype(bool)
        keys = np.asarray(t["k"].to_pylist(), dtype=object)[~flag]
        o = t["o"].to_numpy(zero_copy_only=False)[~flag]
        idx, rank = _rank_in_key(keys, o, ids[~flag])
        lose = ids[~flag][idx[rank >= cap]]
        return pa.table({id_col: pa.array(
            np.concatenate([ids[flag], lose]))})

    proj_ds = ds.map_batches(proj, batch_format="pyarrow")
    losers = shuffle_groups(proj_ds, "gb", losers_fn,
                            batch_format="pyarrow").materialize()
    n_losers = losers.count()
    if n_losers == 0:
        return ds
    if n_losers <= loser_broadcast_limit:
        # loser ids broadcast as ONE sorted int64 array (8 B/id — 20M
        # ids = 160 MB, object-store-sized) and the corpus streams
        # MAP-ONLY through a searchsorted gate: zero shuffle, vs the
        # full-corpus exchange any anti-join pays. Measured: the bench's
        # cap_per_host (32M rows, ~7M losers) 48 s -> map-only.
        import ray

        from ..functions.collect import collect_column_numpy

        ref = ray.put(np.sort(collect_column_numpy(losers, id_col,
                                                   dtype=np.int64)))

        def gate(t: pa.Table) -> pa.Table:
            arr = ray.get(ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            from ..functions.collect import sorted_isin

            return t.filter(pa.array(~sorted_isin(arr, ids)))

        return ds.map_batches(gate, batch_format="pyarrow")
    # loser set too big to broadcast: distributed anti-join. The
    # sort-exchange equi_join, not native Dataset.join — native's
    # per-row Python hash_partition dominates at this size (SCALE.md
    # A/B: 3.4x on an 8M x 2M semi).
    from .join import equi_join

    if types is None:
        # schema probe = a wasted partial execution of the full corpus
        # lineage (window.py documents the Ray 2.49 limit-probe hazard);
        # callers with expensive plans pass `types` to skip it.
        sch = ds.schema()
        types = dict(zip(sch.names, sch.types))
    return equi_join(ds, losers, on=(id_col,), how="left_anti",
                     left_types=types, right_types={id_col: pa.int64()})


def _desc_score_key(scores: np.ndarray) -> np.ndarray:
    """Monotone uint64 key: ascending key == DESCENDING float64 score.

    Standard IEEE-754 total-order bit trick (negatives flip all bits,
    positives flip the sign bit), then complemented for descending.
    Null/NaN scores map to -inf first, so they sort LAST (dropped
    first when a budget tightens)."""
    s = np.nan_to_num(scores.astype(np.float64), nan=-np.inf)
    b = s.view(np.uint64)
    asc = np.where(b >> np.uint64(63) == 1, ~b, b | np.uint64(1 << 63))
    return ~asc


def select_top_tokens(ds, budget: int, score_col: str,
                      token_col: str = "n_tokens", id_col: str = "doc_id",
                      seed: int = 42, exact_cap: int = 250_000,
                      n_buckets: int = 1024, tokenize=None,
                      text_col: str = "text"):
    """Keep the highest-``score_col`` documents whose cumulative
    ``token_col`` fills ``budget`` — the "train on the best N tokens"
    data-selection step. Exact semantics (differential-tested): order
    docs by (score DESC, splitmix64(id, seed) ASC), keep while the
    running token total stays <= budget; the doc that would overflow is
    excluded (and everything after it).

    Scale shape — NO global sort and NO driver-side corpus pass: the
    selection threshold is found by iterative HISTOGRAM REFINEMENT over
    the 64-bit order key. Each round is one map-only pass emitting
    per-block partial histograms (``n_buckets`` rows/block of
    (bucket, token_sum, n_docs)) + one tiny groupby-sum; the driver
    walks the cumulative histogram, picks the bucket where the budget
    crosses, and recurses into it. The value interval shrinks
    >= ``n_buckets``x per round (<= 7 rounds for the full uint64 space);
    when the boundary interval holds <= ``exact_cap`` docs, those
    (key, tiebreak, tokens) rows — and ONLY those — collect to the
    driver for the exact cut. Massive score ties cannot stall it: once
    the interval narrows to a single score value, refinement switches
    to the uniformly-distributed splitmix64 tiebreak. The final keep is
    a map-only filter against the broadcast (threshold, boundary) pair.

    Each refinement round re-executes the input lineage — project /
    checkpoint ``(id, score, tokens)`` upstream when the scan is
    expensive (2–3 rounds typical).

    ``tokenize`` (the :mod:`..functions.tokenize` seam): when given,
    ``token_col`` is (re)computed as ``len(tokenize(text_col))`` per
    doc in a prepended map stage — note each refinement round then
    re-tokenizes unless the caller checkpoints; precomputing counts
    into ``token_col`` stays the scale path.
    """
    from ray.data.aggregate import Sum

    if tokenize is not None:
        def _count(t: pa.Table) -> pa.Table:
            counts = pa.array(np.fromiter(
                (len(ws) for ws in tokenize(t[text_col].to_pylist())),
                dtype=np.int64, count=t.num_rows))
            if token_col in t.column_names:
                return t.set_column(
                    t.column_names.index(token_col), token_col, counts)
            return t.append_column(token_col, counts)

        ds = ds.map_batches(_count, batch_format="pyarrow")

    def _keys_of(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        k1 = _desc_score_key(
            t[score_col].to_numpy(zero_copy_only=False).astype(np.float64))
        k2 = _shuffle_key(ids, seed)
        toks = t[token_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return k1, k2, toks

    def _hist(lo: int, hi: int, level: int, k1_fix: int):
        """Summed histogram of the in-scope key over [lo, hi) + step."""
        step = max(1, -((lo - hi) // n_buckets))  # ceil((hi-lo)/B)

        def part(t: pa.Table) -> pa.Table:
            k1, k2, toks = _keys_of(t)
            k = k1 if level == 0 else k2
            scope = (k1 == np.uint64(k1_fix)) if level else np.ones(
                len(k1), dtype=bool)
            # hi may be 2^64 (out of uint64 range): compare <= hi-1
            scope &= (k >= np.uint64(lo)) & (k <= np.uint64(hi - 1))
            b = ((k[scope] - np.uint64(lo)) // np.uint64(step)).astype(
                np.int64)
            tok_s = np.zeros(n_buckets, dtype=np.int64)
            n_s = np.zeros(n_buckets, dtype=np.int64)
            np.add.at(tok_s, b, toks[scope])
            np.add.at(n_s, b, 1)
            nz = np.flatnonzero(n_s)
            return pa.table({"bucket": pa.array(nz),
                             "tok": pa.array(tok_s[nz]),
                             "n": pa.array(n_s[nz])})

        out = (ds.map_batches(part, batch_format="pyarrow")
               .groupby("bucket")
               .aggregate(Sum("tok", alias_name="tok"),
                          Sum("n", alias_name="n"))
               .to_pandas())
        return out.sort_values("bucket").reset_index(drop=True), step

    # ---- refinement loop: find the boundary interval ----
    lo, hi = 0, 1 << 64
    level, k1_fix = 0, 0
    remaining = int(budget)
    # interval shrinks >= n_buckets x per round; 2 levels of a 64-bit
    # space, +2 slack (7+7+2 = 16 rounds at the default 1024 buckets)
    max_rounds = 2 * (-(-64 // max(1, int(np.log2(n_buckets))))) + 2
    for _ in range(max_rounds):
        h, step = _hist(lo, hi, level, k1_fix)
        if len(h) == 0:
            # empty scope: an empty corpus (level 0, round 1) or an
            # already-resolved boundary — nothing ambiguous remains
            if level == 0:
                return ds
            lo = hi
            break
        cum_tok = h["tok"].cumsum()
        over = cum_tok > remaining
        if not over.any():
            # whole scope fits: keep everything in it
            if level == 0:
                return ds  # entire corpus fits the budget
            remaining -= int(cum_tok.iloc[-1]) if len(h) else 0
            lo = hi  # nothing boundary-ambiguous remains
            break
        i = int(np.argmax(over.to_numpy()))
        remaining -= int(cum_tok.iloc[i - 1]) if i else 0
        b = int(h["bucket"].iloc[i])
        n_docs = int(h["n"].iloc[i])
        lo, hi = lo + b * step, min(lo + (b + 1) * step, hi)
        if n_docs <= exact_cap:
            break
        if hi - lo == 1 and level == 0:
            # one score value, huge tie: refine on the uniform tiebreak
            level, k1_fix = 1, lo
            lo, hi = 0, 1 << 64

    # ---- exact cut inside the boundary interval ----
    blo, bhi, blevel, bfix = lo, hi, level, k1_fix

    def boundary(t: pa.Table) -> pa.Table:
        k1, k2, toks = _keys_of(t)
        k = k1 if blevel == 0 else k2
        scope = (k1 == np.uint64(bfix)) if blevel else np.ones(
            len(k1), dtype=bool)
        scope &= ((k >= np.uint64(blo)) & (k <= np.uint64(bhi - 1))
                  if bhi > blo else np.zeros(len(k1), dtype=bool))
        return pa.table({
            "k1": pa.array(k1[scope].view(np.int64)),
            "k2": pa.array(k2[scope].view(np.int64)),
            "tok": pa.array(toks[scope]),
        })

    from ..functions.collect import collect_table

    bt = collect_table(ds.map_batches(boundary, batch_format="pyarrow"))
    if bt is not None:
        bk1 = bt["k1"].to_numpy(zero_copy_only=False).view(np.uint64)
        bk2 = bt["k2"].to_numpy(zero_copy_only=False).view(np.uint64)
        btok = bt["tok"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bk2, bk1))
        fits = np.cumsum(btok[order]) <= remaining
        n_in = int(fits.sum())
    else:
        n_in = 0
    if n_in:
        cut_k1 = int(bk1[order][n_in - 1])
        cut_k2 = int(bk2[order][n_in - 1])
    else:
        cut_k1 = cut_k2 = -1  # nothing from the boundary set

    def keep(t: pa.Table) -> pa.Table:
        k1, k2, _ = _keys_of(t)
        if blevel == 0:
            m = k1 < np.uint64(blo)
            if n_in:
                in_b = (k1 >= np.uint64(blo)) & (k1 <= np.uint64(bhi - 1))
                m |= in_b & (
                    (k1 < np.uint64(cut_k1))
                    | ((k1 == np.uint64(cut_k1)) & (k2 <= np.uint64(cut_k2)))
                )
        else:
            m = k1 < np.uint64(bfix)
            same = k1 == np.uint64(bfix)
            m |= same & (k2 < np.uint64(blo))
            if n_in:
                in_b = same & (k2 >= np.uint64(blo)) & (
                    k2 <= np.uint64(bhi - 1))
                m |= in_b & (k2 <= np.uint64(cut_k2))
        return t.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow")


def split_by_cluster(ds, pairs=None, fractions: dict | None = None,
                     id_col: str = "doc_id", seed: int = 42,
                     out_col: str = "split"):
    """Leakage-free train/val/test assignment: near-duplicate documents
    ALWAYS land in the same split (otherwise val/test answers leak into
    train through paraphrases — the reason dedup-aware splitting exists).

    ``pairs`` is any near-dup pair Dataset (minhash/simhash/embedding);
    ``fractions`` e.g. ``{"train": 0.98, "val": 0.01, "test": 0.01}``.
    Mechanism: each doc's split key is its dup-CLUSTER id (own id when
    un-duplicated), hashed with splitmix64(seed) into [0,1) and cut at
    the cumulative fractions — deterministic, replay-stable,
    block-layout-invariant.

    Scale shape: only docs whose cluster id differs from their own id
    need a lookup — that remap is loser-sized (duplicated docs only) and
    broadcasts via ``ray.put``; everything else is map-only arithmetic.
    """
    import pyarrow as pa
    import ray

    fractions = fractions or {"train": 0.98, "val": 0.01, "test": 0.01}
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    names = list(fractions)
    cuts = np.cumsum([fractions[n] for n in names])

    rk = np.array([], dtype=np.int64)
    rv = np.array([], dtype=np.int64)
    if pairs is not None:
        from .dedup import dedup_clusters

        from ..functions.collect import collect_blocks

        clusters = dedup_clusters(pairs)
        ks, vs = [], []
        for b in collect_blocks(clusters):
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            cl = b["cluster_id"].to_numpy(zero_copy_only=False)
            ne = ids != cl
            ks.append(ids[ne])
            vs.append(cl[ne])
        if ks:
            rk = np.concatenate(ks).astype(np.int64)
            rv = np.concatenate(vs).astype(np.int64)
            order = np.argsort(rk)
            rk, rv = rk[order], rv[order]
    ref = ray.put((rk, rv))

    def assign(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cl = ids
        if len(keys):
            from ..functions.collect import sorted_isin

            # vectorized sorted-array lookup (no per-row dict probe)
            hit, pos = sorted_isin(keys, ids, return_pos=True)
            cl = np.where(hit, vals[pos], ids)
        u = _shuffle_key(cl, seed).astype(np.float64) / float(2**64)
        idx = np.searchsorted(cuts, u, side="right")
        idx = np.minimum(idx, len(names) - 1)
        lab = np.array(names, dtype=object)[idx]
        return t.append_column(out_col, pa.array(lab, type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(ds, keys: list[str], k: int, seed: int = 42,
                      id_col: str = "doc_id",
                      types: dict | None = None,
                      order: str = "splitmix"):
    """Keep (up to) ``k`` rows per logical key, chosen by a
    deterministic splitmix64(id, seed) order — replay- and
    layout-stable, unlike ``random_shuffle``-based sampling.

    Scale shape: rows ride ONE coarse-bucket co-location exchange
    (the window family's grouped_apply) and each partition keeps its
    per-key top-k with one vectorized sort + cumcount — no per-key
    Python, no global sort. Equivalent to
    ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY splitmix64(id))
    <= k`` (the differential's oracle shape). Null keys form their own
    stratum (sampled like any other, never dropped). ``id_col`` values
    must be unique (the repo-wide id contract) — duplicate ids tie in
    the order key and the tie-break would be partition-order-dependent.

    For a SINGLE key column, :func:`cap_per_key` with its default
    order implements the same keeper semantics with a skinnier scale
    shape (zero-row-shuffle threshold engine); this operator is the
    multi-key / full-row variant.

    ``types`` (col -> pa.DataType, ALL columns): pass the input types
    when any column can hold nulls — partitions containing the null
    stratum round-trip through pandas (int64+null -> float64) and
    would otherwise emit a different block schema than null-free
    partitions.

    ``order``: ``"splitmix"`` (default) ranks by splitmix64(id, seed);
    ``"md5"`` ranks by ``md5(CAST(id AS VARCHAR))`` — same keeper
    semantics, but the rank is restatable in ANSI SQL
    (``ORDER BY md5(CAST(id AS VARCHAR))``), which is what the driver
    oracle uses. ``seed`` is ignored for ``"md5"``."""
    from .window import grouped_apply

    if order not in ("splitmix", "md5"):
        raise ValueError(f"unknown order {order!r}")

    def fn(g):
        if g.empty:
            return g
        ids = g[id_col].to_numpy(dtype=np.int64)
        if order == "md5":
            from ..functions.duck import md5_hex

            ov = np.asarray(
                md5_hex([str(i) for i in ids]).to_pylist(), dtype=object)
        else:
            ov = _shuffle_key(ids, seed).astype(np.uint64)
        g = g.assign(_ord=ov).sort_values(
            keys + ["_ord"], kind="mergesort")
        rn = g.groupby(keys, sort=False, dropna=False).cumcount()
        return g[rn < k].drop(columns=["_ord"])

    return grouped_apply(ds, keys, fn, out_schema=types)
