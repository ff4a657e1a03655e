"""Text-analysis stages: token counting, quality scoring, language ID,
document fingerprinting (winnowing).

All run as vectorized ``map_batches``; LangId is a callable class (actor
pool) because it holds compiled tables — the model-load-once pattern.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# token count + quality (SQL-oracle-able integer features)
# ---------------------------------------------------------------------------

STOPWORDS = ("a", "the")

# GPT2-style pretokenizer shape (contractions | space+letters |
# space+digits | space+punct | whitespace runs) — RE2-compatible, so the
# SAME pattern counts identically in Arrow and DuckDB (the oracle uses
# len(regexp_extract_all(text, ...)) with this exact string).
BPE_TOKEN_RE = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def token_count_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count + BPE-ish pretoken count, both vectorized."""
    n_tok = pc.list_value_length(pc.split_pattern(t[text_col], " "))
    n_bpe = pc.count_substring_regex(t[text_col], BPE_TOKEN_RE)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_tokens": pc.cast(n_tok, pa.int64()),
            "n_bpe_tokens": pc.cast(n_bpe, pa.int64()),
        }
    )


def quality_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer quality features: n_chars_calc, n_tokens, n_stop."""
    texts = t[text_col]
    n_chars = pc.cast(pc.utf8_length(texts), pa.int64())
    toks = pc.split_pattern(texts, " ")
    n_tok = pc.cast(pc.list_value_length(toks), pa.int64())
    # stopword count: flatten + is_in + per-row sum via list offsets
    flat = pc.list_flatten(toks)
    hit = pc.cast(pc.is_in(flat, value_set=pa.array(list(STOPWORDS))), pa.int8())
    lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    hits_np = hit.to_numpy(zero_copy_only=False)
    idx = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=idx[1:])
    n_stop = np.add.reduceat(hits_np, idx[:-1]).astype(np.int64) if len(lengths) else np.array([], dtype=np.int64)
    n_stop[lengths == 0] = 0
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_chars_calc": n_chars,
            "n_tokens": n_tok,
            "n_stop": pa.array(n_stop),
        }
    )


# ---------------------------------------------------------------------------
# language ID (stateful heuristic — actor pool)
# ---------------------------------------------------------------------------

_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is that it for".split()),
    "de": frozenset("der die das und ist ein eine nicht mit von".split()),
    "fr": frozenset("le la les et est une des que pour dans".split()),
    "es": frozenset("el la los y es una que de para con".split()),
}


class LangId:
    """Stopword-voting language identifier (n-gram-heuristic analogue).

    CJK detection by codepoint range; otherwise argmax of stopword hits
    with deterministic tiebreak on language code. Loaded once per actor.
    """

    def __init__(self):
        self.tables = {k: v for k, v in _LANG_STOPWORDS.items()}
        self.order = sorted(self.tables)
        # per-actor compiled value sets (model-load-once pattern)
        self._value_sets = {
            lang: pa.array(sorted(ws)) for lang, ws in self.tables.items()
        }

    def predict(self, text: str) -> str:
        """Scalar reference predictor (kept for tests/docs); __call__ is
        the vectorized equivalent — a differential test pins them equal."""
        if any("一" <= ch <= "鿿" for ch in text[:200]):
            return "zh"
        words = text.lower().split()
        best, best_score = "en", -1
        for lang in self.order:
            score = sum(1 for w in words if w in self.tables[lang])
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t["text"], "")
        n = len(texts)
        # CJK gate: any codepoint in [一..鿿] within the first 200 chars
        prefix = pc.utf8_slice_codeunits(texts, 0, 200)
        is_cjk = pc.greater(
            pc.count_substring_regex(prefix, "[一-鿿]"), 0
        ).to_numpy(zero_copy_only=False)
        # stopword votes: one flatten, one is_in per language, reduceat
        toks = pc.split_pattern_regex(pc.utf8_lower(texts), r"\s+")
        flat = pc.list_flatten(toks)
        lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        idx = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=idx[1:])
        scores = np.zeros((n, len(self.order)), dtype=np.int64)
        if len(flat):
            for j, lang in enumerate(self.order):
                hit = pc.cast(
                    pc.is_in(flat, value_set=self._value_sets[lang]), pa.int8()
                ).to_numpy(zero_copy_only=False)
                col = np.add.reduceat(hit, idx[:-1]).astype(np.int64)
                col[lengths == 0] = 0
                scores[:, j] = col
        # strict-> argmax in sorted-lang order == predict()'s first-max-wins
        order_arr = np.array(self.order)
        preds = order_arr[np.argmax(scores, axis=1)]
        preds = np.where(is_cjk, "zh", preds)
        return pa.table(
            {"doc_id": t["doc_id"], "lang_pred": pa.array(preds, type=pa.string())}
        )


# ---------------------------------------------------------------------------
# winnowing fingerprint (rolling hash)
# ---------------------------------------------------------------------------


_WINNOW_B = np.uint64(1099511628211)  # FNV-1a prime as polynomial base


@functools.lru_cache(maxsize=32)
def _poly_weights(k: int) -> np.ndarray:
    """[B^(k-1), ..., B, 1] in wrapping uint64 arithmetic."""
    w = np.empty(k, dtype=np.uint64)
    acc = 1
    for i in range(k - 1, -1, -1):
        w[i] = acc
        acc = (acc * 1099511628211) & ((1 << 64) - 1)  # wrapping mul
    return w


def _winnow_core(text: str, k: int = 8, window: int = 6) -> np.ndarray:
    """Winnowing fingerprints as a uint64 ndarray (no per-gram Python):
    rolling polynomial hash + sliding-window rightmost-argmin."""
    cps = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    n = len(cps)
    if n < k:
        # single gram = the whole (short) text; empty text hashes to 0
        hs = np.array(
            [(cps * _poly_weights(n)).sum(dtype=np.uint64) >> np.uint64(1)]
            if n
            else [np.uint64(0)],
            dtype=np.uint64,
        )
    else:
        win = np.lib.stride_tricks.sliding_window_view(cps, k)
        hs = (win * _poly_weights(k)).sum(axis=1, dtype=np.uint64) >> np.uint64(1)
    if len(hs) <= window:
        return hs.min(keepdims=True)
    wv = np.lib.stride_tricks.sliding_window_view(hs, window)
    # rightmost min per window: first min of the reversed window
    rev_arg = np.argmin(wv[:, ::-1], axis=1)
    j = np.arange(len(wv)) + (window - 1 - rev_arg)
    keep = np.r_[True, j[1:] != j[:-1]]  # drop consecutive re-picks
    return hs[j[keep]]


def winnow_fingerprints(text: str, k: int = 8, window: int = 6) -> list[int]:
    """Standard winnowing: k-gram hashes, per-window minimum (rightmost
    min kept), deduplicated in order. Deterministic: 64-bit polynomial
    codepoint hash (wrapping), >>1 so every fingerprint fits int64.
    Fully vectorized — rolling hash + sliding-window argmin in numpy,
    no per-gram hashlib calls (a pure-int differential test pins the
    numpy arithmetic to the scalar definition)."""
    return [int(x) for x in _winnow_core(text, k, window)]


def fingerprint_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    # per-doc loop over the vectorized core; count/min reduce in numpy,
    # no per-gram Python int materialization
    n_fp = []
    min_fp = []
    for x in t[text_col].to_pylist():
        fp = _winnow_core(x or "")
        n_fp.append(len(fp))
        min_fp.append(int(fp.min()) if len(fp) else 0)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_fp": pa.array(n_fp, type=pa.int64()),
            "min_fp": pa.array(min_fp, type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# PII scrubbing (training-data redaction pass)
# ---------------------------------------------------------------------------

#: (pattern, replacement) applied IN ORDER — all RE2 (Arrow and DuckDB
#: both run RE2, so ``regexp_replace(..., 'g')`` restates this exactly;
#: a differential test pins it). Email first so its digits can't be
#: half-eaten by the phone pattern.
PII_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    (r"\+\d[\d\- ]{7,}\d", "<PHONE>"),
)


def pii_scrub_batch(t: pa.Table, text_col: str = "text",
                    out_col: str | None = None) -> pa.Table:
    """Redact emails / IPv4s / international phone numbers in place
    (or into ``out_col``), plus a per-row redaction count.

    One count + one replace RE2 pass per pattern over the whole column —
    no per-row Python. Counts are taken against each pattern's own input
    (not the rewritten text), so pre-existing literal markers in a
    document never inflate them.
    """
    txt = t[text_col]
    n_red = None
    for pat, repl in PII_PATTERNS:
        c = pc.count_substring_regex(txt, pat)
        n_red = c if n_red is None else pc.add(n_red, c)
        txt = pc.replace_substring_regex(txt, pattern=pat, replacement=repl)
    dest = out_col or text_col
    if dest in t.column_names:
        t = t.set_column(t.column_names.index(dest), dest, txt)
    else:
        t = t.append_column(dest, txt)
    return t.append_column("n_redactions", pc.cast(n_red, pa.int64()))


def pii_scrub_stage(ds, text_col: str = "text", out_col: str | None = None):
    return ds.map_batches(
        lambda t: pii_scrub_batch(t, text_col, out_col),
        batch_format="pyarrow",
    )


def quality_filter_stage(ds, text_col: str = "text",
                         min_tokens: int = 5, max_tokens: int = 100_000,
                         min_stop_ratio: float = 0.0,
                         max_mean_token_len: float = 25.0):
    """Gopher-style document quality gate, composed from the vectorized
    quality features — map-only (filters inside the batch, no shuffle).

    Keeps rows with token count in [min_tokens, max_tokens], stopword
    ratio >= min_stop_ratio, and mean token length <= max_mean_token_len
    (the boilerplate/binary-junk heuristic). All four bounds are
    SQL-restatable over the same integer features ``quality_batch``
    emits, so a pipeline using this gate stays oracle-checkable.
    """
    def gate(t: pa.Table) -> pa.Table:
        q = quality_batch(t, text_col)
        n_tok = q["n_tokens"].to_numpy(zero_copy_only=False)
        n_chars = q["n_chars_calc"].to_numpy(zero_copy_only=False)
        n_stop = q["n_stop"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            stop_ratio = np.where(n_tok > 0, n_stop / n_tok, 0.0)
            # mean token length excludes the single-space separators
            mean_len = np.where(n_tok > 0, (n_chars - (n_tok - 1)) / n_tok, 0.0)
        keep = (
            (n_tok >= min_tokens)
            & (n_tok <= max_tokens)
            & (stop_ratio >= min_stop_ratio)
            & (mean_len <= max_mean_token_len)
        )
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# unicode normalization (cleaning pre-pass)
# ---------------------------------------------------------------------------

#: control + zero-width codepoints stripped by normalize_text_batch —
#: RE2 class shared verbatim with the DuckDB oracle restatement
#: (both engines run RE2, so rewrites are byte-identical). Keeps
#: \t \n \r; drops C0 controls, DEL, ZWSP/ZWNJ/ZWJ and the BOM.
CONTROL_CHAR_RE = (
    r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F"
    r"\x{200B}-\x{200D}\x{FEFF}]"
)


def normalize_text_batch(t: pa.Table, text_col: str = "text",
                         out_col: str | None = None,
                         collapse_spaces: bool = False) -> pa.Table:
    """Unicode NFC normalization + control/zero-width stripping —
    the canonicalization pre-pass of a cleaning chain (mojibake-safe
    dedup keys: 'café' composed and decomposed hash identically after
    this). Order: NFC first, then the strip (the documented contract;
    the DuckDB restatement is
    ``regexp_replace(nfc_normalize(text), CONTROL_CHAR_RE, '', 'g')``).
    ``collapse_spaces`` additionally squeezes space runs to one.

    NFC runs as the shared in-process DuckDB kernel, NOT
    ``pc.utf8_normalize``: pyarrow 16.1's NFC decomposes instead of
    composing (verified: NFC('\\u00e9') == NFD — 'e'+U+0301), so Arrow
    cannot produce true NFC here, and the DuckDB kernel matches the
    oracle bit-for-bit by construction. The strip is one Arrow RE2
    pass; no per-row Python anywhere."""
    from ..functions.duck import project

    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    txt = (project(pa.table({"t": col}),
                   "SELECT nfc_normalize(t) AS n FROM b")
           .column("n").combine_chunks().cast(pa.string()))
    txt = pc.replace_substring_regex(txt, pattern=CONTROL_CHAR_RE,
                                     replacement="")
    if collapse_spaces:
        txt = pc.replace_substring_regex(txt, pattern=r"  +",
                                         replacement=" ")
    dest = out_col or text_col
    if dest in t.column_names:
        return t.set_column(t.column_names.index(dest), dest, txt)
    return t.append_column(dest, txt)


def normalize_text_stage(ds, text_col: str = "text",
                         out_col: str | None = None,
                         collapse_spaces: bool = False):
    return ds.map_batches(
        lambda t: normalize_text_batch(t, text_col, out_col,
                                       collapse_spaces),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# repetition features (C4 dup-line fraction, Gopher top-2-gram fraction)
# ---------------------------------------------------------------------------

def repetition_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc repetition features, fully vectorized (no per-doc loop).

    - ``dup_line_frac``: fraction of NON-EMPTY lines that repeat an
      earlier line in the same document (C4's duplicate-line signal).
      Empty lines are excluded from numerator and denominator — they
      are paragraph separators, not content, and counting them flagged
      ordinary multi-paragraph prose as repetitive (review finding).
    - ``dup_line_char_frac``: fraction of characters living in those
      repeated lines (Gopher's character-weighted form).
    - ``top_2gram_frac``: occurrences of the doc's most frequent word
      2-gram over total 2-grams (Gopher's top-n-gram repetition proxy).

    Shape: line/2-gram hashes for the WHOLE batch concatenate into flat
    arrays; per-doc stats come from one ``np.lexsort`` + run-length pass
    (``reduceat``/``maximum.at``), so cost is O(total lines log lines)
    regardless of document count.
    """
    import pandas as pd

    from sagan_ray.stages.dedup import _batch_shingle_hashes

    n_docs = len(t)
    texts = t[text_col]
    lines = pc.split_pattern(texts, "\n")
    n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lines)
    dup_frac = np.zeros(n_docs, dtype=np.float64)
    dup_char_frac = np.zeros(n_docs, dtype=np.float64)
    if len(flat):
        lh = pd.util.hash_array(np.asarray(flat.to_pylist(), dtype=object))
        lchars = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_lines)
        # drop empty lines everywhere (see docstring)
        ne = lchars > 0
        lh, lchars, doc_of = lh[ne], lchars[ne], doc_of[ne]
        n_lines = np.zeros(n_docs, dtype=np.int64)
        np.add.at(n_lines, doc_of, 1)
        order = np.lexsort((lh, doc_of))
        d_s, h_s, c_s = doc_of[order], lh[order], lchars[order]
        first = np.ones(len(h_s), dtype=bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        n_dup = np.zeros(n_docs, dtype=np.int64)
        np.add.at(n_dup, d_s[~first], 1)
        dup_chars = np.zeros(n_docs, dtype=np.int64)
        np.add.at(dup_chars, d_s[~first], c_s[~first])
        tot_chars = np.zeros(n_docs, dtype=np.int64)
        np.add.at(tot_chars, doc_of, lchars)
        with np.errstate(divide="ignore", invalid="ignore"):
            dup_frac = np.where(n_lines > 0, n_dup / n_lines, 0.0)
            dup_char_frac = np.where(tot_chars > 0, dup_chars / tot_chars, 0.0)

    top2 = np.zeros(n_docs, dtype=np.float64)
    sh, starts = _batch_shingle_hashes(texts.to_pylist(), k=2)
    if len(sh):
        counts2 = np.diff(starts)
        doc2 = np.repeat(np.arange(n_docs, dtype=np.int64), counts2)
        order = np.lexsort((sh, doc2))
        d_s, h_s = doc2[order], sh[order]
        first = np.ones(len(h_s), dtype=bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        # run lengths of identical (doc, hash) runs
        run_starts = np.flatnonzero(first)
        run_len = np.diff(np.append(run_starts, len(h_s)))
        run_max = np.zeros(n_docs, dtype=np.int64)
        np.maximum.at(run_max, d_s[run_starts], run_len)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a single (possibly partial) gram carries no repetition signal
            top2 = np.where(counts2 > 1, run_max / counts2, 0.0)

    return pa.table(
        {
            "doc_id": t["doc_id"],
            "dup_line_frac": pa.array(dup_frac),
            "dup_line_char_frac": pa.array(dup_char_frac),
            "top_2gram_frac": pa.array(top2),
        }
    )


def repetition_filter_stage(ds, text_col: str = "text",
                            max_dup_line_frac: float = 0.3,
                            max_top_2gram_frac: float = 0.2):
    """Drop documents dominated by repetition (C4/Gopher bounds).

    Map-only: features compute batch-locally and the gate filters inside
    the batch — composes with `quality_filter_stage` without a shuffle.
    """
    def gate(t: pa.Table) -> pa.Table:
        r = repetition_batch(t, text_col)
        keep = (
            (r["dup_line_frac"].to_numpy(zero_copy_only=False) <= max_dup_line_frac)
            & (r["top_2gram_frac"].to_numpy(zero_copy_only=False) <= max_top_2gram_frac)
        )
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus-level duplicate-line removal (CCNet / RefinedWeb boilerplate step)
# ---------------------------------------------------------------------------

def frequent_line_hashes(ds, text_col: str = "text", min_count: int = 2,
                         min_chars: int = 10, sep: str = "\n"):
    """Dataset of ``(line_hash, n)`` for lines appearing in >= min_count
    DOCUMENTS across the corpus (cookie banners, nav bars, footers).

    Shape: docs explode to (line_hash, count) partials batch-locally —
    only uint64 hashes + counts ride the shuffle, never line text —
    then ONE coarse-bucket sort exchange with a vectorized
    sort+``reduceat`` sum per partition (NOT ``groupby().aggregate``:
    Ray's sort-aggregate builds per-group Python state, pathological at
    corpus-cardinality keys — same fix as duplicate_gram_hashes).
    ``min_chars`` skips short lines (blank separators, bullets) whose
    repetition is organic. Within-doc repeats count once (dedup before
    the explode) so a doc cannot promote its own line to "frequent".
    """
    import pandas as pd

    from ..functions.exchange import _n_buckets, shuffle_groups

    nb = np.uint64(_n_buckets())

    def explode(t: pa.Table) -> pa.Table:
        empty = pa.table({"line_hash": pa.array([], type=pa.int64()),
                          "c": pa.array([], type=pa.int64()),
                          "gb": pa.array([], type=pa.int64())})
        lines = pc.split_pattern(t[text_col], sep)
        flat = pc.list_flatten(lines)
        flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        keep = pc.greater_equal(pc.utf8_length(flat), min_chars)
        n_per = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(t), dtype=np.int64), n_per)
        mask = keep.to_numpy(zero_copy_only=False)
        if not mask.any():
            return empty
        # int64 VIEW of the uint64 siphash — a bijection, so counting /
        # matching semantics are unchanged (rewrite() views the same way)
        lh = pd.util.hash_array(
            np.asarray(flat.filter(keep).to_pylist(), dtype=object)
        )
        d = doc_of[mask]
        # count each (doc, line) once, then partial-count per block
        order = np.lexsort((lh, d))
        d_s, h_s = d[order], lh[order]
        first = np.ones(len(h_s), dtype=bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        u, c = np.unique(h_s[first], return_counts=True)
        return pa.table({"line_hash": pa.array(u.view(np.int64)),
                         "c": pa.array(c.astype(np.int64)),
                         "gb": pa.array((u % nb).astype(np.int64))})

    def count_fn(t: pa.Table) -> pa.Table:
        from ..functions.exchange import reduceat_sum

        u, sums = reduceat_sum(
            t["line_hash"].to_numpy(zero_copy_only=False),
            t["c"].to_numpy(zero_copy_only=False))
        keep2 = sums >= min_count
        return pa.table({"line_hash": pa.array(u[keep2]),
                         "n": pa.array(sums[keep2])})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return shuffle_groups(exploded, "gb", count_fn,
                          batch_format="pyarrow")


def strip_frequent_lines(ds, text_col: str = "text", min_count: int = 2,
                         min_chars: int = 10, out_col: str | None = None,
                         mode: str = "auto", id_col: str = "doc_id",
                         doc_types: dict | None = None,
                         broadcast_limit: int = 8_000_000,
                         sep: str = "\n"):
    """Rewrite each document with its corpus-frequent lines removed.

    Two passes over the corpus (count, then rewrite) — the counting
    pass ships hashes only. ``mode="broadcast"``: the frequent set is
    broadcast via ``ray.put`` as ONE sorted int64 array — at
    boilerplate thresholds it is vocabulary-sized, not corpus-sized
    (|set| <= total_lines/min_count), but that bound only holds if
    ``min_count`` scales with the corpus, so ``mode="auto"`` (default)
    counts the set first and switches to the fully-distributed
    ``mode="join"`` above ``broadcast_limit`` (8 B/line-hash — the
    ``dedup_against`` / ``mask_duplicate_spans`` auto-switch pattern).

    ``mode="join"``: line occurrences ship ``(line_hash, id, pos)``
    through a semi-join against the frequent set, surviving positions
    co-partition with the documents on ``id_col`` in ONE tagged
    exchange (``spans.copartition_doc_hits``), and each partition
    rewrites vectorized — nothing broadcasts. ``id_col``/``doc_types``
    are only used by the join path (doc_types: col -> pa.DataType for
    ALL input columns, skips the Dataset.schema() limit-probe).
    """
    import pandas as pd
    import ray

    from ..functions.collect import collect_column_numpy

    freq = frequent_line_hashes(ds, text_col, min_count, min_chars,
                                sep=sep)
    dst = out_col or text_col
    if mode == "auto":
        freq = freq.materialize()  # consumed by count + (collect | join)
        mode = ("broadcast" if freq.count() <= broadcast_limit else "join")
    if mode == "join":
        return _strip_frequent_lines_join(
            ds, freq, text_col, min_chars, dst, id_col, doc_types,
            sep=sep)
    if mode != "broadcast":
        raise ValueError(f"unknown mode {mode!r}")
    ref = ray.put(np.sort(collect_column_numpy(freq, "line_hash",
                                               dtype=np.int64)))

    def rewrite(t: pa.Table) -> pa.Table:
        blk = ray.get(ref)
        lines = pc.split_pattern(t[text_col], sep)
        flat = pc.list_flatten(lines)
        n_per = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        texts = []
        vals = flat.to_pylist()
        if vals:
            lh = pd.util.hash_array(
                np.asarray(vals, dtype=object)
            ).view(np.int64)
            from ..functions.collect import sorted_isin

            ok_len = np.array([len(v) < min_chars for v in vals])
            keep = ok_len | ~sorted_isin(blk, lh)  # short lines always stay
        else:
            keep = np.array([], dtype=bool)
        pos = 0
        for n in n_per:
            texts.append(sep.join(
                v for v, k in zip(vals[pos:pos + n], keep[pos:pos + n]) if k
            ))
            pos += n
        i = t.column_names.index(dst) if dst in t.column_names else None
        col = pa.array(texts, type=pa.string())
        return (t.set_column(i, dst, col) if i is not None
                else t.append_column(dst, col))

    return ds.map_batches(rewrite, batch_format="pyarrow")


def _strip_frequent_lines_join(ds, freq, text_col: str, min_chars: int,
                               dst: str, id_col: str,
                               doc_types: dict | None,
                               sep: str = "\n"):
    """Distributed mask pass of :func:`strip_frequent_lines`: nothing
    broadcasts. Line occurrences semi-join the frequent-hash set, hit
    POSITIONS co-partition with the docs on id, each partition rewrites
    vectorized. Hashing is bit-identical to the broadcast path (same
    ``pd.util.hash_array`` int64 view), so the two modes produce
    byte-identical rewrites (differential-tested)."""
    import pandas as pd

    from .join import equi_join
    from .spans import copartition_doc_hits

    if doc_types is None:
        schema = ds.schema()
        doc_types = dict(zip(schema.names, schema.types))
    id_type = doc_types[id_col]

    def explode_pos(t: pa.Table) -> pa.Table:
        lines = pc.split_pattern(t[text_col], sep)
        flat = pc.list_flatten(lines)
        flat = (flat.combine_chunks()
                if isinstance(flat, pa.ChunkedArray) else flat)
        n_per = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(t), dtype=np.int64), n_per)
        # position = line index WITHIN the doc (short lines count — the
        # rewrite drops by original index)
        pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(np.r_[0, np.cumsum(n_per)[:-1]], n_per))
        keep = pc.greater_equal(
            pc.utf8_length(flat), min_chars).to_numpy(zero_copy_only=False)
        vals = flat.filter(pa.array(keep)).to_pylist()
        lh = (pd.util.hash_array(np.asarray(vals, dtype=object))
              .view(np.int64) if vals else np.empty(0, dtype=np.int64))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "line_hash": pa.array(lh),
            id_col: pa.array(ids[doc_of[keep]]),
            "pos": pa.array(pos[keep]),
        })

    hits = equi_join(
        ds.select_columns([id_col, text_col]).map_batches(
            explode_pos, batch_format="pyarrow"),
        freq.select_columns(["line_hash"]), on=["line_hash"],
        how="left_semi",
        left_types={"line_hash": pa.int64(), id_col: id_type,
                    "pos": pa.int64()},
        right_types={"line_hash": pa.int64()},
    ).select_columns([id_col, "pos"])

    def build(docs: pd.DataFrame, hit_pos: list) -> pd.DataFrame:
        out_texts = []
        for txt, hp in zip(docs[text_col].tolist(), hit_pos):
            if not len(hp):
                out_texts.append(txt)  # untouched docs: byte-identical
                continue
            ls = (txt or "").split(sep)
            drop = set(hp.tolist())
            out_texts.append(sep.join(
                v for i, v in enumerate(ls) if i not in drop))
        out = docs.copy()
        out[dst] = out_texts
        return out

    return copartition_doc_hits(
        ds, hits, id_col, doc_types, build,
        extra_types={} if dst in doc_types else {dst: pa.string()})


# ---------------------------------------------------------------------------
# compression-ratio quality signal (Dolma/RefinedWeb-style heuristic)
# ---------------------------------------------------------------------------


def _deflate_ratios(texts, level: int):
    import zlib

    n = len(texts)
    ratios = np.zeros(n, dtype=np.float64)
    n_chars = np.zeros(n, dtype=np.int64)
    for i, s in enumerate(texts):
        if not s:
            continue
        raw = s.encode("utf-8", "replace")
        n_chars[i] = len(s)
        ratios[i] = len(zlib.compress(raw, level)) / len(raw)
    return n_chars, ratios


def compression_ratio_batch(t: pa.Table, text_col: str = "text",
                            level: int = 6) -> pa.Table:
    """(doc_id, n_chars, compression_ratio): deflate-compressed bytes /
    utf-8 bytes per document (stdlib zlib — one C call per doc, no
    Python-level loop work beyond dispatch).

    The published heuristic (used by Dolma / RefinedWeb-class cleaning):
    highly repetitive or templated text compresses far below prose
    (~ratio < 0.3), random/encrypted junk barely compresses (> 1.0 with
    header overhead). Empty docs report ratio 0."""
    n_chars, ratios = _deflate_ratios(t[text_col].to_pylist(), level)
    return pa.table({
        "doc_id": t["doc_id"],
        "n_chars": pa.array(n_chars),
        "compression_ratio": pa.array(ratios),
    })


def compression_filter_stage(ds, text_col: str = "text",
                             min_ratio: float = 0.25,
                             max_ratio: float = 1.1, level: int = 6):
    """Drop documents whose deflate ratio falls outside
    [min_ratio, max_ratio] — too repetitive (templated spam) or
    incompressible (binary junk pasted as text). Map-only gate; empty
    docs (ratio 0) drop with the repetitive band. Uses the SAME ratio
    kernel (and ``level``) as :func:`compression_ratio_batch`, so a
    threshold profiled from the signal stage gates consistently."""
    def gate(t: pa.Table) -> pa.Table:
        nc, r = _deflate_ratios(t[text_col].to_pylist(), level)
        keep = (nc > 0) & (r >= min_ratio) & (r <= max_ratio)
        return t.filter(pa.array(keep))

    return ds.map_batches(gate, batch_format="pyarrow")
