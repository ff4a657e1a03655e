"""Unigram language-model quality scoring (CCNet-style perplexity proxy).

CCNet (Wenzek et al. 2020) ranks web documents by the perplexity of a
KenLM n-gram model trained on a clean reference corpus and keeps the
low-perplexity head. KenLM is not in this container, so the same
pipeline shape is implemented with a unigram LM trained ON a reference
Dataset — the engine-relevant parts (two-pass train, broadcast model,
vectorized scoring) are identical to what a KenLM-backed stage would do
and the model table is swappable.

Scale shape (100 TB corpus):
- TRAIN is one streaming pass: ``map_batches`` emits per-batch
  ``(token_hash, count)`` partials (``np.unique`` per batch — the
  combiner), ONE ``groupby.aggregate(Sum)`` over hash keys (the only
  shuffle, and it carries hashes+counts, never text), then a
  distributed sort+limit keeps the top-``vocab_size`` rows. Only the
  final ≤ ``vocab_size`` rows ever reach the driver.
- SCORE is map-only: the model broadcasts once via ``ray.put`` as a
  sorted uint64 hash array + aligned logprob array (plasma-shared,
  zero-copy per task); each batch probes it with ``searchsorted`` and
  reduces per-doc means with ``np.add.reduceat`` — no per-row Python.

Token hashing reuses the vectorized MinHash shingle kernel with k=1
(`dedup._batch_shingle_hashes`), so tokens are whitespace words hashed
with the same vectorized siphash + shingle-mix the dedup family uses
(the pure-Python differentials call the kernel rather than
reimplementing the hash).

Model: p(tok) = count/total for the top-V vocabulary; out-of-vocabulary
tokens score ``ln(alpha/total)`` (``alpha`` pseudo-occurrences — a
deterministic floor, not a fitted backoff). ``lm_logprob`` is the mean
per-token log-prob: higher = more reference-like; CCNet's "keep the
head" filter is :func:`lm_filter_stage` with a min bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .dedup import _batch_shingle_hashes


@dataclass(frozen=True)
class UnigramLM:
    """Broadcastable unigram model: vocab hashes (sorted) + logprobs."""

    hashes: np.ndarray      # sorted uint64 token hashes, len <= vocab_size
    logprob: np.ndarray     # float64 aligned with `hashes`
    oov_logprob: float
    total_tokens: int

    def score_counts(self, texts):
        return lm_score_counts(list(texts), self)


def _token_hash_counts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Batch-local combiner: unique token hashes + counts (k=1 shingles)."""
    sh, _starts = _batch_shingle_hashes(list(texts), k=1)
    if len(sh) == 0:
        return (np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    h, c = np.unique(sh, return_counts=True)
    return h, c.astype(np.int64)


def train_unigram_lm(ds, text_col: str = "text", vocab_size: int = 1 << 16,
                     alpha: float = 0.5) -> UnigramLM:
    """Two-pass distributed train: partial counts -> Sum groupby ->
    top-``vocab_size`` by (count desc, hash asc — deterministic ties).
    """
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def partial(t: pa.Table) -> pa.Table:
        h, c = _token_hash_counts(t[text_col].to_pylist())
        # sign-bit flip: the int64 view sorts in true uint64 hash order,
        # so the top-V tie-break (count desc, hash asc) is well-defined
        h_key = (h ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table({"h": pa.array(h_key), "c": pa.array(c),
                         "gb": pa.array((h % nb).astype(np.int64))})

    def sum_fn(t: pa.Table) -> pa.Table:
        from ..functions.exchange import reduceat_sum

        u, sums = reduceat_sum(t["h"].to_numpy(zero_copy_only=False),
                               t["c"].to_numpy(zero_copy_only=False))
        return pa.table({"h": pa.array(u), "c": pa.array(sums)})

    counts = shuffle_groups(
        ds.map_batches(partial, batch_format="pyarrow"), "gb", sum_fn,
        batch_format="pyarrow").materialize()
    total = int(counts.sum("c") or 0)
    top = counts.sort(["c", "h"], descending=[True, False]).limit(vocab_size)
    from ..functions.collect import collect_table

    tt = collect_table(top)
    if tt is None:
        tt = pa.table({"h": pa.array([], pa.int64()),
                       "c": pa.array([], pa.int64())})
    h = (tt["h"].to_numpy(zero_copy_only=False).view(np.uint64)
         ^ np.uint64(1 << 63))
    c = tt["c"].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(h)
    h, c = h[order], c[order]
    denom = float(max(total, 1))
    return UnigramLM(
        hashes=h,
        logprob=np.log(c / denom) if len(c) else np.array([], dtype=np.float64),
        oov_logprob=float(np.log(alpha / denom)),
        total_tokens=total,
    )


def lm_score_counts(texts: list[str], model: UnigramLM) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (n_tokens, mean token logprob) — one searchsorted probe
    over the whole batch's token hashes, per-doc reduction via reduceat."""
    sh, starts = _batch_shingle_hashes(list(texts), k=1)
    n_docs = len(texts)
    n_tok = np.diff(starts).astype(np.int64)
    if len(sh) == 0:
        return n_tok, np.full(n_docs, model.oov_logprob)
    if len(model.hashes):
        from ..functions.collect import sorted_isin

        hit, idx = sorted_isin(model.hashes, sh, return_pos=True)
        lp = np.where(hit, model.logprob[idx], model.oov_logprob)
    else:
        lp = np.full(len(sh), model.oov_logprob)
    # reduceat only at NON-empty doc starts: those indices are strictly
    # increasing and < len(lp), and each segment ends exactly at the next
    # non-empty doc's start (interleaved/trailing empty docs contribute
    # zero tokens), so the per-doc sums are exact. Empty docs take the
    # OOV floor.
    out = np.full(n_docs, model.oov_logprob)
    nz = n_tok > 0
    if nz.any():
        sums = np.add.reduceat(lp, starts[:-1][nz])
        out[nz] = sums / n_tok[nz]
    return n_tok, out


def lm_score(ds, model, text_col: str = "text",
             keep_text: bool = False):
    """Append ``lm_logprob`` (and ``n_lm_tokens``): map-only, model
    broadcast once via ``ray.put``. ``model`` is anything with
    ``score_counts(texts) -> (n_tok, mean_logprob)`` — UnigramLM or
    BigramLM drop in interchangeably."""
    import ray

    ref = ray.put(model)

    def score(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        n_tok, lp = m.score_counts(t[text_col].to_pylist())
        t = t if keep_text else t.drop_columns([text_col])
        return (t.append_column("n_lm_tokens", pa.array(n_tok))
                .append_column("lm_logprob", pa.array(lp)))

    return ds.map_batches(score, batch_format="pyarrow")


def lm_importance(ds, target, background,
                  text_col: str = "text", keep_text: bool = True):
    """DSIR-style importance weighting (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): per-doc mean token
    log-ratio ``log p_target(tok) - log p_background(tok)`` under two
    unigram LMs — train ``target`` on the wanted distribution (e.g.
    curated reference), ``background`` on the raw corpus, keep the high
    end (via :func:`select_top_tokens` on the emitted score or a plain
    filter). Map-only: both models broadcast once; one tokenize pass
    scores both."""
    import ray

    ref_t, ref_b = ray.put(target), ray.put(background)

    def score(t: pa.Table) -> pa.Table:
        mt, mb = ray.get(ref_t), ray.get(ref_b)
        texts = t[text_col].to_pylist()
        n_tok, lp_t = mt.score_counts(texts)
        _, lp_b = mb.score_counts(texts)
        if not keep_text:
            t = t.drop_columns([text_col])
        return (t.append_column("n_lm_tokens", pa.array(n_tok))
                .append_column("dsir_logratio", pa.array(lp_t - lp_b)))

    return ds.map_batches(score, batch_format="pyarrow")


def lm_filter_stage(ds, model, min_logprob: float,
                    text_col: str = "text"):
    """CCNet head-keep: drop documents whose mean token logprob under the
    reference model is below ``min_logprob``. Map-only gate; rows pass
    through with their original columns."""
    import ray

    ref = ray.put(model)

    def gate(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        _n, lp = m.score_counts(t[text_col].to_pylist())
        return t.filter(pa.array(lp >= min_logprob))

    return ds.map_batches(gate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# interpolated bigram LM (one step closer to CCNet's KenLM shape)
# ---------------------------------------------------------------------------

_BI_MIX = np.uint64(0x9E3779B185EBCA87)


def _bigram_combine(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit combine of adjacent token hashes
    (wrapping mul + xor — mirrored by the pure-Python differential)."""
    with np.errstate(over="ignore"):
        return (prev * _BI_MIX) ^ cur


@dataclass(frozen=True)
class BigramLM:
    """Interpolated bigram model over hashed whitespace tokens:

    ``p(w|v) = lam * c(v,w)/c(v) + (1-lam) * p_uni(w)``

    with ``p_uni`` the unigram head (+ alpha OOV floor), so the mixture
    is strictly positive and the first token of each document scores
    pure unigram. Same broadcast shape as :class:`UnigramLM`: two
    sorted hash arrays (uni/bi) + aligned count arrays —
    plasma-shareable, probed with searchsorted, no Python in the score
    path."""

    uni_hashes: np.ndarray    # sorted uint64, len <= vocab_size
    uni_counts: np.ndarray    # float64 raw counts aligned
    bi_hashes: np.ndarray     # sorted uint64 combined hashes
    bi_counts: np.ndarray     # float64 aligned
    total_tokens: int
    alpha: float
    lam: float

    def _uni_lookup(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(counts-with-alpha-floor, in-vocab mask) per token hash."""
        from ..functions.collect import sorted_isin

        if len(self.uni_hashes):
            hit, idx = sorted_isin(self.uni_hashes, h, return_pos=True)
            c = np.where(hit, self.uni_counts[idx], self.alpha)
        else:
            hit = np.zeros(len(h), dtype=bool)
            c = np.full(len(h), self.alpha)
        return c, hit

    def _p_uni(self, h: np.ndarray) -> np.ndarray:
        c, _hit = self._uni_lookup(h)
        return c / float(max(self.total_tokens, 1))

    def score_counts(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """Per-doc (n_tokens, mean token logprob) — vectorized: one
        tokenize pass, one unigram probe, one bigram probe."""
        from ..functions.collect import sorted_isin

        sh, starts = _batch_shingle_hashes(list(texts), k=1)
        n_docs = len(texts)
        n_tok = np.diff(starts).astype(np.int64)
        # empty docs take the same pure-unigram OOV floor as UnigramLM
        # (drop-in interchangeability: an empty doc must not score below
        # a doc of pure OOV garbage)
        oov = float(np.log(self.alpha / max(self.total_tokens, 1)))
        if len(sh) == 0:
            return n_tok, np.full(n_docs, oov)
        # ONE vocab probe for the whole batch; the context lookup below
        # slices it instead of re-probing N-1 of the same hashes
        c_all, hit_all = self._uni_lookup(sh)
        p_uni = c_all / float(max(self.total_tokens, 1))
        # token-level interpolated prob; first-token-of-doc = pure uni
        p = (1.0 - self.lam) * p_uni
        if len(sh) > 1:
            bh = _bigram_combine(sh[:-1], sh[1:])
            # context count c(v): the bigram term only fires when the
            # CONTEXT is in the unigram head (an OOV context has no
            # count — dividing by the alpha floor could yield p > 1)
            c_prev, prev_hit = c_all[:-1], hit_all[:-1]
            if len(self.bi_hashes):
                hit, idx = sorted_isin(self.bi_hashes, bh, return_pos=True)
                c_bi = np.where(hit, self.bi_counts[idx], 0.0)
            else:
                c_bi = np.zeros(len(bh))
            p_bi = np.where(prev_hit, np.minimum(c_bi / c_prev, 1.0), 0.0)
            # pairs crossing a doc boundary don't exist: token at a doc
            # start keeps pure-uni p (mask via is_start)
            is_start = np.zeros(len(sh), dtype=bool)
            is_start[starts[:-1][np.diff(starts) > 0]] = True
            contrib = np.zeros(len(sh))
            contrib[1:] = self.lam * p_bi
            contrib[is_start] = 0.0
            p = p + contrib
            # doc-start tokens score FULL unigram weight, not (1-lam)
            p[is_start] = p_uni[is_start]
        else:
            p = p_uni  # single token overall: pure unigram
        lp = np.log(p)
        out = np.full(n_docs, oov)
        nz = n_tok > 0
        if nz.any():
            sums = np.add.reduceat(lp, starts[:-1][nz])
            out[nz] = sums / n_tok[nz]
        return n_tok, out


def train_bigram_lm(ds, text_col: str = "text", vocab_size: int = 1 << 16,
                    bigram_size: int = 1 << 20, alpha: float = 0.5,
                    lam: float = 0.7) -> BigramLM:
    """One corpus scan emits kind-tagged (hash, count) partials for both
    orders; ONE hashes-only shuffle sums them; top-``vocab_size`` /
    top-``bigram_size`` heads collect (bounded by construction). Same
    scale shape as :func:`train_unigram_lm` — the bigram table is just a
    second bounded head riding the same exchange."""
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def partial(t: pa.Table) -> pa.Table:
        sh, starts = _batch_shingle_hashes(t[text_col].to_pylist(), k=1)
        hs, cs, kinds = [], [], []
        if len(sh):
            u, c = np.unique(sh, return_counts=True)
            hs.append(u); cs.append(c.astype(np.int64))
            kinds.append(np.zeros(len(u), dtype=np.int8))
        if len(sh) > 1:
            bh = _bigram_combine(sh[:-1], sh[1:])
            keep = np.ones(len(bh), dtype=bool)
            doc_starts = starts[1:-1]  # pair i pairs tokens (i, i+1)
            keep[doc_starts[(doc_starts > 0)
                            & (doc_starts < len(bh) + 1)] - 1] = False
            bh = bh[keep]
            if len(bh):
                u, c = np.unique(bh, return_counts=True)
                hs.append(u); cs.append(c.astype(np.int64))
                kinds.append(np.ones(len(u), dtype=np.int8))
        if not hs:
            return pa.table({"h": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int8()),
                             "gb": pa.array([], pa.int64())})
        h = np.concatenate(hs)
        h_key = (h ^ np.uint64(1 << 63)).view(np.int64)
        kind = np.concatenate(kinds)
        return pa.table({
            "h": pa.array(h_key),
            "c": pa.array(np.concatenate(cs)),
            "kind": pa.array(kind),
            # kind folds into the bucket so uni/bi keys never collide
            "gb": pa.array(((h + np.uint64(7919) * kind.astype(np.uint64))
                            % nb).astype(np.int64)),
        })

    def sum_fn(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False)
        # reduce on (kind, hash): one lexsort + reduceat
        order = np.lexsort((h, k))
        hk, kk, cc = h[order], k[order], c[order]
        first = np.ones(len(hk), dtype=bool)
        first[1:] = (hk[1:] != hk[:-1]) | (kk[1:] != kk[:-1])
        st = np.flatnonzero(first)
        sums = np.add.reduceat(cc, st) if len(st) else cc[:0]
        return pa.table({"h": pa.array(hk[st]), "c": pa.array(sums),
                         "kind": pa.array(kk[st].astype(np.int8))})

    counts = shuffle_groups(
        ds.map_batches(partial, batch_format="pyarrow"), "gb", sum_fn,
        batch_format="pyarrow").materialize()
    from ..functions.collect import collect_table

    def head(kind: int, size: int):
        sub = counts.filter(expr=f"kind == {kind}")
        top = sub.sort(["c", "h"], descending=[True, False]).limit(size)
        tt = collect_table(top)
        if tt is None or tt.num_rows == 0:
            return (np.array([], dtype=np.uint64),
                    np.array([], dtype=np.float64))
        h = (tt["h"].to_numpy(zero_copy_only=False).view(np.uint64)
             ^ np.uint64(1 << 63))
        c = tt["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(h)
        return h[order], c[order]

    uh, uc = head(0, vocab_size)
    bh, bc = head(1, bigram_size)
    # total over ALL unigram occurrences (not just the kept head)
    total = int(counts.filter(expr="kind == 0").sum("c") or 0)
    return BigramLM(uni_hashes=uh, uni_counts=uc, bi_hashes=bh,
                    bi_counts=bc, total_tokens=total, alpha=alpha,
                    lam=lam)


# ---------------------------------------------------------------------------
# TF-IDF document features (same hashed-vocab machinery)
# ---------------------------------------------------------------------------


def _doc_term_segments(sh: np.ndarray,
                       doc_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distinct-(doc, term) segmentation of a flat token-hash array:
    returns ``(d_u, h_u, tf_counts)`` — one row per distinct term per
    doc with its in-doc count — via one lexsort. Shared by the DF
    trainer and the TF-IDF scorer (one convention, one place)."""
    order = np.lexsort((sh, doc_of))
    d_s, h_s = doc_of[order], sh[order]
    first = np.ones(len(h_s), dtype=bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
    st = np.flatnonzero(first)
    seg_len = np.diff(np.r_[st, len(h_s)])
    return d_s[st], h_s[st], seg_len


@dataclass(frozen=True)
class DocFreqTable:
    """Broadcastable document-frequency head: sorted token hashes +
    df counts over ``n_docs`` documents. Tokens outside the head score
    idf as if df = ``df_floor`` (rare -> high idf, capped)."""

    hashes: np.ndarray
    df: np.ndarray
    n_docs: int
    df_floor: float = 1.0

    def idf(self, h: np.ndarray) -> np.ndarray:
        from ..functions.collect import sorted_isin

        if len(self.hashes):
            hit, idx = sorted_isin(self.hashes, h, return_pos=True)
            df = np.where(hit, self.df[idx], self.df_floor)
        else:
            df = np.full(len(h), self.df_floor)
        # smoothed idf: ln((1+N)/(1+df)) + 1 (sklearn's convention)
        return np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0


def train_doc_freq(ds, text_col: str = "text",
                   vocab_size: int = 1 << 20,
                   min_df: int = 1) -> DocFreqTable:
    """TRUE one-corpus-scan train: per-block partials carry both the
    doc-deduped term counts (kind 0) AND the block's document count
    (kind 1) through the SAME hashes-only exchange — no second
    ``ds.count()`` pass re-executing the input lineage. Head =
    top-``vocab_size`` by (df desc, hash asc); DF counting dedups
    within-doc repeats first (the frequent-line rule)."""
    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def partial(t: pa.Table) -> pa.Table:
        sh, starts = _batch_shingle_hashes(t[text_col].to_pylist(), k=1)
        n_block_docs = len(starts) - 1
        dc = pa.table({"h": pa.array([0], pa.int64()),
                       "c": pa.array([n_block_docs], pa.int64()),
                       "kind": pa.array([1], pa.int8()),
                       "gb": pa.array([int(nb) - 1], pa.int64())})
        if len(sh) == 0:
            return dc
        doc_of = np.repeat(np.arange(n_block_docs, dtype=np.int64),
                           np.diff(starts))
        _d_u, u, c = _doc_term_segments(sh, doc_of)
        # distinct terms per doc -> per-block DF partial
        u, c = np.unique(u, return_counts=True)
        h_key = (u ^ np.uint64(1 << 63)).view(np.int64)
        terms = pa.table({
            "h": pa.array(h_key),
            "c": pa.array(c.astype(np.int64)),
            "kind": pa.array(np.zeros(len(u), dtype=np.int8)),
            "gb": pa.array((u % nb).astype(np.int64)),
        })
        return pa.concat_tables([terms, dc])

    def sum_fn(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False)
        order = np.lexsort((h, k))
        hk, kk, cc = h[order], k[order], c[order]
        first = np.ones(len(hk), dtype=bool)
        first[1:] = (hk[1:] != hk[:-1]) | (kk[1:] != kk[:-1])
        st = np.flatnonzero(first)
        sums = np.add.reduceat(cc, st) if len(st) else cc[:0]
        hk, kk = hk[st], kk[st]
        keep = (kk == 1) | (sums >= min_df)  # min_df gates TERMS only
        return pa.table({"h": pa.array(hk[keep]),
                         "c": pa.array(sums[keep]),
                         "kind": pa.array(kk[keep].astype(np.int8))})

    counts = shuffle_groups(
        ds.map_batches(partial, batch_format="pyarrow"), "gb", sum_fn,
        batch_format="pyarrow").materialize()
    n_docs = int(counts.filter(expr="kind == 1").sum("c") or 0)
    counts = counts.filter(expr="kind == 0")
    top = counts.sort(["c", "h"], descending=[True, False]).limit(vocab_size)
    from ..functions.collect import collect_table

    tt = collect_table(top)
    if tt is None or tt.num_rows == 0:
        return DocFreqTable(hashes=np.array([], dtype=np.uint64),
                            df=np.array([], dtype=np.float64),
                            n_docs=n_docs)
    h = (tt["h"].to_numpy(zero_copy_only=False).view(np.uint64)
         ^ np.uint64(1 << 63))
    c = tt["c"].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(h)
    return DocFreqTable(hashes=h[order], df=c[order], n_docs=n_docs)


def tfidf_stage(ds, table: DocFreqTable, text_col: str = "text",
                keep_text: bool = True):
    """Append per-doc TF-IDF features: ``tfidf_mean`` / ``tfidf_max``
    over the doc's DISTINCT terms (tf = in-doc count / doc length) and
    ``n_distinct_terms``. Map-only; the DF head broadcasts once. The
    scores feed quality gates or :func:`..stages.pack.select_top_tokens`
    the same way ``lm_logprob`` does."""
    import ray

    ref = ray.put(table)

    def score(t: pa.Table) -> pa.Table:
        tab = ray.get(ref)
        texts = t[text_col].to_pylist()
        sh, starts = _batch_shingle_hashes(texts, k=1)
        n_docs = len(texts)
        mean_s = np.zeros(n_docs)
        max_s = np.zeros(n_docs)
        n_dist = np.zeros(n_docs, dtype=np.int64)
        if len(sh):
            doc_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                               np.diff(starts))
            d_u, h_u, seg_len = _doc_term_segments(sh, doc_of)
            doc_len = np.diff(starts).astype(np.float64)
            tf = seg_len / doc_len[d_u]
            w = tf * tab.idf(h_u)
            # per-doc mean/max over distinct terms (reduceat on the
            # distinct-term segments per doc)
            dst = np.flatnonzero(np.r_[True, d_u[1:] != d_u[:-1]])
            sums = np.add.reduceat(w, dst)
            maxs = np.maximum.reduceat(w, dst)
            cnts = np.diff(np.r_[dst, len(w)])
            docs_here = d_u[dst]
            mean_s[docs_here] = sums / cnts
            max_s[docs_here] = maxs
            n_dist[docs_here] = cnts
        if not keep_text:
            t = t.drop_columns([text_col])
        return (t.append_column("n_distinct_terms", pa.array(n_dist))
                .append_column("tfidf_mean", pa.array(mean_s))
                .append_column("tfidf_max", pa.array(max_s)))

    return ds.map_batches(score, batch_format="pyarrow")
