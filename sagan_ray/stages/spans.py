"""Corpus-duplicate SPAN masking — token-level exact-substring dedup.

The hash-shingle approximation of suffix-array exact-substring dedup
(Lee et al. 2021, "Deduplicating Training Data Makes Language Models
Better"): instead of dropping whole near-duplicate documents, remove the
duplicated PASSAGES (license boilerplate, quoted articles, templated
paragraphs) and keep the unique remainder. Semantics:

1. A word ``k``-gram is *duplicated* when it occurs in >= ``min_docs``
   distinct documents (within-document repeats count once).
2. In each document, maximal runs of consecutive duplicated grams that
   cover >= ``min_span_tokens`` tokens are masked: the covered tokens
   are deleted and the remainder re-joined with single spaces.
   Documents with nothing to mask pass through BYTE-IDENTICAL; masked
   documents are whitespace-normalized (the op feeds a tokenizer — the
   same contract as the pure token-level original).

Scale shape (``single_pass=True`` default: ONE tokenize+hash scan
writes a ``large_list<int64>`` gram checkpoint that feeds both passes;
``single_pass=False`` streams the lineage twice instead):

- Count pass: documents explode batch-locally to per-doc-deduped uint64
  gram hashes — ONLY 8-byte hashes ride the groupby-count shuffle,
  never text. One k-vector-op pass hashes a whole batch (no per-gram
  Python).
- Mask pass, ``mode="broadcast"``: the duplicated-gram set collects
  into ONE sorted int64 array placed in the object store once
  (``ray.put``); the corpus streams map-only, each batch probing with
  ``searchsorted``. The dup-gram set is DATA-DEPENDENT, so
  ``mode="auto"`` (default) counts it first and only broadcasts below
  ``broadcast_limit`` (8 B/gram) — the ``dedup_against`` auto-switch
  pattern, never an unbounded broadcast.
- Mask pass, ``mode="join"``: fully distributed — every gram
  occurrence ships ``(gram_hash, id, pos)`` through a semi-join against
  the duplicated set (the unavoidable cost of a distributed filter on a
  computed key, ~24 B/token), surviving hit positions co-partition with
  the documents on ``id`` in ONE tagged-union exchange, and each
  partition rewrites vectorized.

Upstream has no analogue (Sagan processes log lines independently);
this is a training-data-pipeline operator mandated by the task brief.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_C = (np.uint64(0x9E3779B185EBCA87), np.uint64(0xC2B2AE3D27D4EB4F),
      np.uint64(0x165667B19E3779F9))


def _gram_hashes(texts: list[str], k: int,
                 tokenize=None) -> tuple[np.ndarray, np.ndarray]:
    """Word-k-gram hashes for a whole batch, flat + per-doc offsets.

    Returns ``(gh, starts)``: uint64 hashes and int64 offsets such that
    doc d's grams are ``gh[starts[d]:starts[d+1]]``, in token order
    (gram g starts at token g). Documents with fewer than k words
    contribute ZERO grams (a partial gram can't witness duplication —
    unlike the MinHash shingle kernel, which pads).

    One vectorized pass: all words hash at once (pandas siphash, C),
    gram mixing is k vector ops over the FLAT word-hash array with
    doc-boundary-crossing grams masked out — no per-doc Python loop.
    """
    n = len(texts)
    if tokenize is None:
        from ..functions.tokenize import whitespace_tokenize as tokenize
    words_per_doc = tokenize(texts)
    wc = np.fromiter((len(ws) for ws in words_per_doc), dtype=np.int64,
                     count=n)
    gc = np.maximum(wc - k + 1, 0)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(gc, out=starts[1:])
    total_words = int(wc.sum())
    if total_words < k or not starts[-1]:
        return np.empty(0, dtype=np.uint64), starts
    flat_words = np.empty(total_words, dtype=object)
    pos = 0
    for ws in words_per_doc:
        flat_words[pos:pos + len(ws)] = ws
        pos += len(ws)
    wh = pd.util.hash_array(flat_words)  # uint64, vectorized
    # gram hash at flat word position i mixes wh[i:i+k]
    m = total_words - k + 1
    s = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        s = s * _C[j % 3] + wh[j:j + m]
    # keep only grams fully inside one doc: flat positions
    # [word_start_d, word_start_d + gc_d) for each doc d — marked via
    # one inc/dec cumsum, no per-doc loop
    word_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(wc, out=word_starts[1:])
    inc = np.zeros(m + 1, dtype=np.int64)
    valid = gc > 0
    np.add.at(inc, word_starts[:-1][valid], 1)
    np.add.at(inc, (word_starts[:-1] + gc)[valid], -1)
    keep = np.cumsum(inc[:-1]) > 0
    return s[keep], starts


def _dedup_within_doc(gh: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Unique (doc, gram_hash) hashes — so min_docs counts DOCUMENTS."""
    if not len(gh):
        return gh
    doc_of = np.repeat(np.arange(len(starts) - 1, dtype=np.int64),
                       np.diff(starts))
    order = np.lexsort((gh, doc_of))
    d_s, h_s = doc_of[order], gh[order]
    first = np.ones(len(h_s), dtype=bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    return h_s[first]


_GRAMS = "__grams"  # per-doc gram-hash list column of the checkpoint


def _attach_grams(t: pa.Table, text_col: str, k: int,
                  tokenize=None) -> pa.Table:
    """Append the per-doc word-k-gram hashes as a ``large_list<int64>``
    column — the single-tokenize checkpoint payload (~8 B/token)."""
    gh, starts = _gram_hashes(t[text_col].to_pylist(), k, tokenize)
    lst = pa.LargeListArray.from_arrays(
        pa.array(starts, type=pa.int64()),
        pa.array(gh.view(np.int64), type=pa.int64()))
    return t.append_column(_GRAMS, lst)


def _grams_from_list(col) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(gh int64, starts)`` zero-copy from the list column —
    the same shape :func:`_gram_hashes` returns, minus the tokenize."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = arr.values.to_numpy(zero_copy_only=False).astype(
        np.int64, copy=False)
    return vals[off[0]:off[-1]], off - off[0]


def duplicate_gram_hashes(ds, text_col: str = "text", k: int = 10,
                          min_docs: int = 2, tokenize=None,
                          grams_col: str | None = None):
    """Dataset of ``(gram_hash, n_docs)`` for word-k-grams occurring in
    >= ``min_docs`` documents. Hashes are int64 VIEWS of the uint64
    siphash (bijective — same convention as frequent_line_hashes).

    NOT ``groupby().aggregate(Count)``: Ray's sort-aggregate builds
    per-group Python state in the reduce, and gram keys are
    corpus-cardinality (measured: 11M distinct keys = 1400 CPU-seconds,
    60 s wall — vs 2 s for this shape). Blocks emit per-block
    ``(gram_hash, partial_count)`` (doc-deduped, then block-deduped
    with counts), ride ONE coarse-bucket sort exchange, and each
    partition sums counts with a vectorized sort + ``reduceat``.

    ``grams_col``: read pre-computed per-doc gram hashes from this
    ``large_list<int64>`` column instead of tokenizing ``text_col`` —
    the single-tokenize checkpoint path of mask_duplicate_spans."""
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def explode(t: pa.Table) -> pa.Table:
        if grams_col is not None:
            ghi, starts = _grams_from_list(t[grams_col])
            gh = ghi.view(np.uint64)
        else:
            gh, starts = _gram_hashes(t[text_col].to_pylist(), k, tokenize)
        uniq = _dedup_within_doc(gh, starts)
        u, c = np.unique(uniq, return_counts=True)
        return pa.table({
            "gram_hash": pa.array(u.view(np.int64)),
            "c": pa.array(c.astype(np.int64)),
            "gb": pa.array((u % nb).astype(np.int64)),
        })

    def count_fn(t: pa.Table) -> pa.Table:
        from ..functions.exchange import reduceat_sum

        u, sums = reduceat_sum(
            t["gram_hash"].to_numpy(zero_copy_only=False),
            t["c"].to_numpy(zero_copy_only=False))
        keep = sums >= min_docs
        return pa.table({"gram_hash": pa.array(u[keep]),
                         "n_docs": pa.array(sums[keep])})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return shuffle_groups(exploded, "gb", count_fn,
                          batch_format="pyarrow")


def _mask_doc(words: list[str], pos: np.ndarray, k: int,
              min_run: int, detok) -> tuple[str, int]:
    """Rewrite ONE doc given sorted duplicated-gram positions ``pos``.

    Maximal runs of consecutive positions (diff == 1) with run length
    >= ``min_run`` mask tokens [run_start, run_end + k - 1]."""
    if not len(pos):
        return detok(words), 0
    breaks = np.flatnonzero(np.diff(pos) != 1)
    run_starts = pos[np.r_[0, breaks + 1]]
    run_ends = pos[np.r_[breaks, len(pos) - 1]]
    ok = (run_ends - run_starts + 1) >= min_run
    if not ok.any():
        return detok(words), 0
    covered = np.zeros(len(words) + 1, dtype=np.int64)
    np.add.at(covered, run_starts[ok], 1)
    np.add.at(covered, np.minimum(run_ends[ok] + k, len(words)), -1)
    keep = np.cumsum(covered[:-1]) == 0
    n_masked = int(len(words) - keep.sum())
    return detok([w for w, m in zip(words, keep) if m]), n_masked


def _rewrite_batch(texts: list[str], hit_pos: list[np.ndarray], k: int,
                   min_run: int, tokenize=None,
                   detokenize=None) -> tuple[list[str], np.ndarray]:
    """Apply :func:`_mask_doc` across a batch; untouched docs keep their
    ORIGINAL text byte-identically (no whitespace normalization)."""
    from ..functions.tokenize import (whitespace_detokenize,
                                      whitespace_tokenize)
    tokenize = tokenize or whitespace_tokenize
    detok = detokenize or whitespace_detokenize
    out, n_masked = [], np.zeros(len(texts), dtype=np.int64)
    touched = [i for i, pos in enumerate(hit_pos) if len(pos)]
    words_touched = dict(zip(touched, tokenize(
        [texts[i] for i in touched])))
    for i, (t, pos) in enumerate(zip(texts, hit_pos)):
        if not len(pos):
            out.append(t)
            continue
        new, nm = _mask_doc(words_touched[i], pos, k, min_run, detok)
        out.append(new if nm else t)
        n_masked[i] = nm
    return out, n_masked


def mask_duplicate_spans(ds, text_col: str = "text", id_col: str = "doc_id",
                         k: int = 10, min_docs: int = 2,
                         min_span_tokens: int | None = None,
                         mode: str = "auto", out_col: str | None = None,
                         doc_types: dict | None = None,
                         broadcast_limit: int = 8_000_000,
                         tokenize=None, detokenize=None,
                         single_pass: bool = True):
    """Mask corpus-duplicated token spans in every document (see module
    docstring for semantics and the broadcast-vs-join scale trade).

    Adds ``n_masked_tokens``; the rewritten text lands in ``out_col``
    (default: in place). ``min_span_tokens`` defaults to ``k`` (any
    duplicated gram masks); Lee et al. use 50.

    ``mode="auto"`` (default) counts the duplicated-gram set ONCE (a
    hashes-only Dataset — the count is one metadata pass over it) and
    picks ``"broadcast"`` when it fits ``broadcast_limit`` (8 B/gram —
    the default 8M grams = 64 MB, the same object-store bound as
    ``dedup_against``), else ``"join"``. The dup-gram set is
    DATA-DEPENDENT (boilerplate-sized in practice, tens of GB on a
    pathological corpus), so an unguarded broadcast default would be a
    100-TB scale-killer — same rationale as ``dedup_against(mode=
    "auto")``.

    ``single_pass`` (default): tokenize+hash the corpus ONCE — the
    per-doc gram hashes ride a ``large_list<int64>`` checkpoint column
    (``materialize()``d, so the object store holds corpus + ~8 B/token
    and spills to disk past memory) that feeds BOTH the count pass and
    the rewrite pass. Gram hashing is the op's dominant linear cost
    (measured time-ratio 3.54 on a 5x data step — nearly pure linear),
    so this halves the linear term. ``single_pass=False`` restores the
    streaming two-scan shape (no checkpoint footprint, input lineage
    executes twice — tokenizing twice) for memory-constrained runs."""
    import ray

    min_span = max(min_span_tokens or k, k)
    min_run = min_span - k + 1
    dst = out_col or text_col
    src = ds
    grams_col = None
    if single_pass:
        src = ds.map_batches(
            lambda t: _attach_grams(t, text_col, k, tokenize),
            batch_format="pyarrow").materialize()
        grams_col = _GRAMS
    dup = duplicate_gram_hashes(
        src, text_col, k, min_docs, tokenize=tokenize,
        grams_col=grams_col).select_columns(["gram_hash"])
    if mode == "auto":
        # the dup Dataset is consumed twice in broadcast mode (count +
        # collect) and once as a join side — pin it so the gram-count
        # shuffle never re-executes
        dup = dup.materialize()
        mode = ("broadcast" if dup.count() <= broadcast_limit else "join")

    def _emit(t: pa.Table, texts_out: list[str],
              n_masked: np.ndarray) -> pa.Table:
        col = pa.array(texts_out, type=pa.string())
        if dst in t.column_names:
            t = t.set_column(t.column_names.index(dst), dst, col)
        else:
            t = t.append_column(dst, col)
        return t.append_column("n_masked_tokens", pa.array(n_masked))

    if mode == "broadcast":
        from ..functions.collect import collect_column_numpy

        blk_ref = ray.put(np.sort(collect_column_numpy(
            dup, "gram_hash", dtype=np.int64)))

        def rewrite(t: pa.Table) -> pa.Table:
            arr = ray.get(blk_ref)
            from ..functions.collect import sorted_isin

            if grams_col is not None:
                ghi, starts = _grams_from_list(t[grams_col])
                t = t.drop_columns([grams_col])
            else:
                gh, starts = _gram_hashes(t[text_col].to_pylist(), k,
                                          tokenize)
                ghi = gh.view(np.int64)
            texts = t[text_col].to_pylist()
            hit = sorted_isin(arr, ghi)
            hit_pos = [np.flatnonzero(hit[starts[d]:starts[d + 1]])
                       for d in range(len(texts))]
            return _emit(t, *_rewrite_batch(texts, hit_pos, k, min_run,
                                            tokenize, detokenize))

        return src.map_batches(rewrite, batch_format="pyarrow")

    if mode != "join":
        raise ValueError(f"unknown mode {mode!r}")

    from .join import equi_join

    def explode_pos(t: pa.Table) -> pa.Table:
        if grams_col is not None:
            ghi, starts = _grams_from_list(t[grams_col])
        else:
            gh, starts = _gram_hashes(t[text_col].to_pylist(), k, tokenize)
            ghi = gh.view(np.int64)
        doc_ids = t[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "gram_hash": pa.array(ghi),
            id_col: pa.array(np.repeat(doc_ids, np.diff(starts))),
            "pos": pa.array(
                np.arange(len(ghi), dtype=np.int64)
                - np.repeat(starts[:-1], np.diff(starts))),
        })

    # doc_types (col -> pa.DataType, ALL input columns) skips the
    # Dataset.schema() limit-probe on a lazy input — the same wasted
    # partial execution / Ray 2.49 cancel-race the asof/range joins'
    # left_types/right_types avoid (window.py _TypesView). The
    # single_pass checkpoint is materialized, so its schema is free.
    if doc_types is None:
        schema = (src if single_pass else ds).schema()
        doc_types = {n: ty for n, ty in zip(schema.names, schema.types)
                     if n != _GRAMS}
    id_type = doc_types[id_col]
    pos_src = (src.select_columns([id_col, grams_col])
               if grams_col is not None
               else ds.select_columns([id_col, text_col]))
    docs_src = src.drop_columns([grams_col]) if grams_col is not None else ds
    hits = equi_join(
        pos_src.map_batches(explode_pos, batch_format="pyarrow"),
        dup, on=["gram_hash"], how="left_semi",
        left_types={"gram_hash": pa.int64(), id_col: id_type,
                    "pos": pa.int64()},
        right_types={"gram_hash": pa.int64()},
    ).select_columns([id_col, "pos"])

    def build(docs: pd.DataFrame, hit_pos: list[np.ndarray]) -> pd.DataFrame:
        texts_out, n_masked = _rewrite_batch(docs[text_col].tolist(),
                                             hit_pos, k, min_run,
                                             tokenize, detokenize)
        out = docs.copy()
        out[dst] = texts_out
        out["n_masked_tokens"] = n_masked
        return out

    return copartition_doc_hits(
        docs_src, hits, id_col, doc_types, build,
        extra_types={} if dst in doc_types else {dst: pa.string()},
        appended_types={"n_masked_tokens": pa.int64()})


def copartition_doc_hits(ds, hits, id_col: str, doc_types: dict, build,
                         extra_types: dict | None = None,
                         appended_types: dict | None = None):
    """Co-partition documents with per-doc hit POSITIONS on ``id_col``
    in ONE tagged-union exchange, then rewrite each partition.

    ``hits`` is a Dataset of ``(id_col, pos:int64)`` rows; ``build(docs,
    hit_pos)`` receives the partition's doc frame (original columns) and
    an aligned list of sorted per-doc hit-position arrays, and returns
    the rewritten frame (original columns + ``extra_types`` +
    ``appended_types``). Shared by the join modes of
    :func:`mask_duplicate_spans` and ``text.strip_frequent_lines`` —
    the scale path when the duplicated set outgrows a broadcast."""
    from .window import grouped_apply

    extra_types = extra_types or {}
    appended_types = appended_types or {}
    names = list(doc_types)
    pay = [c for c in names if c != id_col]
    out_schema = {**doc_types, **extra_types, **appended_types}
    out_cols = names + list(extra_types) + list(appended_types)

    def pad_docs(t: pa.Table) -> pa.Table:
        t = t.append_column("pos", pa.nulls(len(t), type=pa.int64()))
        return t.append_column("side", pa.array(
            np.zeros(len(t), dtype=np.int8)))

    def pad_hits(t: pa.Table) -> pa.Table:
        for c in pay:
            t = t.append_column(c, pa.nulls(len(t), type=doc_types[c]))
        return t.append_column("side", pa.array(
            np.ones(len(t), dtype=np.int8)))

    cols = [id_col] + pay + ["pos", "side"]
    tagged = (ds.map_batches(pad_docs, batch_format="pyarrow")
              .select_columns(cols)
              .union(hits.map_batches(pad_hits, batch_format="pyarrow")
                     .select_columns(cols)))

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["side"] == 0].drop(columns=["side", "pos"])
        hitg = g[g["side"] == 1]
        pos_by_id: dict = {}
        if len(hitg):
            hs = hitg.sort_values([id_col, "pos"], kind="mergesort")
            for did, sub in hs.groupby(id_col, sort=False)["pos"]:
                pos_by_id[did] = sub.to_numpy(dtype=np.int64)
        ids = docs[id_col].tolist()
        hit_pos = [pos_by_id.get(i, np.empty(0, dtype=np.int64))
                   for i in ids]
        return build(docs, hit_pos)[out_cols]

    return grouped_apply(tagged, [id_col], fn, output_cols=out_cols,
                         out_schema=out_schema)
