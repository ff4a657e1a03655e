"""Vectorized multi-rule matcher — the engine core.

Re-derives the reference's per-event predicate sequence (upstream
``src/processors/engine.c`` Sagan_Engine: a cheap ``Sagan_strstr``
literal search first, then program/facility/level gates → content →
pcre → meta_content → alert_time on the rows that hold the rule's
literal) as a per-BATCH evaluation in four steps:

1. **Literal index.** At ``make_matcher`` time each rule's required
   literals are derived as an AND of OR-lists (``_literal_groups``):
   every positive content, every meta_content list, and the longest
   top-level literal run of each pcre. Per batch, ONE ASCII-case-folded,
   overlapping Aho–Corasick pass over ``text`` finds every occurrence
   of every literal (``_LiteralIndex``).
2. **Per-rule rows.** A rule's candidate rows are the AND of its groups.
   The index only ever narrows by positive requirements; a rule with no
   group runs over every row.
3. **Verify.** ``rule_mask`` runs on the rule's own rows only, and skips
   the contents and meta_contents the index already decided; a rule
   with nothing else to test takes its rows as they are. Gates,
   containment, negations and RE2-runnable pcre run as
   ``pyarrow.compute`` kernels. A rule with a position-constrained
   content re-checks its (few) candidates with ``check_content_chain``,
   the one definition of the chain; a pcre RE2 cannot run, and every
   json_pcre, re-check theirs with the `regex` pattern ``compile_rule``
   built at load. Nothing is compiled per batch.
4. **One take.** All alert rows of a batch come from one ``take`` of the
   concatenated per-rule rows (url, …, sid, rev, msg, classification,
   priority); ``text`` is carried through BYTE-IDENTICAL (rows are
   taken and constant columns appended — never rewritten).

``make_matcher(rules)`` is the batch function. :func:`match_alerts`
builds it once per Ray session and rule set and ships it to the workers
as one object (``stages.ship``), so a task carries only its ref.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rules import Content, Rule
from ..schema import ALERTS_SCHEMA
from .ship import fetch, ship

# ---------------------------------------------------------------------------
# scalar chain semantics (candidates only — documented in rules.py)
# ---------------------------------------------------------------------------


def check_content_chain(text: str, contents: tuple[Content, ...],
                        raw: str | None = None) -> bool:
    prev_end = 0
    for c in contents:
        base = raw if (c.rawbytes and raw is not None) else text
        hay, pat = (base.lower(), c.pattern.lower()) if c.nocase else (base, c.pattern)
        if c.relative:
            start = prev_end + (c.distance or 0)
            stop = start + c.within if c.within is not None else len(base)
        else:
            start = c.offset or 0
            stop = start + c.depth if c.depth is not None else len(base)
        idx = hay.find(pat, max(start, 0))
        found = idx != -1 and idx < stop
        if c.negated:
            if found:
                return False
        else:
            if not found:
                return False
            prev_end = idx + len(pat)
    return True


# ---------------------------------------------------------------------------
# vectorized helpers
# ---------------------------------------------------------------------------


def _to_np_bool(arr) -> np.ndarray:
    a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    return np.asarray(a.fill_null(False), dtype=bool)


def _header_mask(batch: pa.Table, rule: Rule, n: int) -> np.ndarray:
    """Header (flow.c) gate: src spec -> host, dst spec -> lang; `<>`
    matches either orientation (mapping documented on rules.Header)."""
    hdr = rule.header
    cols = batch.column_names

    def side(spec, pattern, colname) -> np.ndarray:
        if spec.is_any:
            return np.ones(n, dtype=bool)
        if colname not in cols:
            return np.zeros(n, dtype=bool)  # fail closed
        hit = _to_np_bool(pc.match_substring_regex(batch[colname], pattern))
        return ~hit if spec.negated else hit

    fwd = side(hdr.src, rule._header_src_re, "host") & side(
        hdr.dst, rule._header_dst_re, "lang"
    )
    if hdr.bidirectional:
        rev = side(hdr.src, rule._header_src_re, "lang") & side(
            hdr.dst, rule._header_dst_re, "host"
        )
        fwd |= rev
    if hdr.proto != "any" and "proto" in cols:
        # syslog events carry no transport proto unless a parser added
        # one; gate only when the column exists (upstream Check_Flow
        # skips the test when liblognorm extracted no proto)
        fwd &= _to_np_bool(pc.equal(batch["proto"], hdr.proto))
    return fwd


def rule_mask(batch: pa.Table, rule: Rule, decided=()) -> np.ndarray:
    """Boolean keep-mask for one rule over one Arrow batch.

    Gate columns are REQUIRED: a rule that references a column the batch
    schema lacks matches nothing (fail closed — the reference's
    gate-must-match behavior). Enrichment predicates (country/blacklist)
    are included: the pipeline helpers auto-enrich pre-match whenever a
    rule needs those columns (see flagship.rules_need_enrichment).

    ``decided`` lists positive contents and meta_contents whose literal
    every row of ``batch`` is already known to hold (the matcher's
    literal index); their containment scans are skipped."""
    n = batch.num_rows
    mask = np.ones(n, dtype=bool)
    text = batch["text"]
    raw = batch["html_str"] if "html_str" in batch.column_names else None

    # --- gates (cheapest first; reference engine order) ---
    if rule.header is not None:
        mask &= _header_mask(batch, rule, n)
        if not mask.any():
            return mask
    # gate columns: a REAL syslog field wins when the frame carries it
    # (syslog/FIFO adapters); canonical-schema aliases otherwise
    # (webpages: program≈host, facility≈lang, level≈source) — the same
    # precedence parse_proto_program uses. Fail closed when neither
    # column exists.
    def _gate_col(real: str, alias: str):
        if real in batch.column_names:
            return batch[real]
        if alias in batch.column_names:
            return batch[alias]
        return None

    if rule.programs:
        col = _gate_col("program", "host")
        if col is None:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(
            pc.match_substring_regex(col, rule._program_re.pattern)
        )
        if not mask.any():
            return mask
    if rule.facility is not None:
        col = _gate_col("facility", "lang")
        if col is None:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(pc.equal(col, rule.facility))
        if not mask.any():
            return mask
    if rule.level is not None:
        col = _gate_col("level", "source")
        if col is None:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(pc.equal(col, rule.level))
        if not mask.any():
            return mask
    if rule.tag is not None:
        if "tag" not in batch.column_names:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(pc.equal(batch["tag"], rule.tag))
        if not mask.any():
            return mask
    if rule.event_ids:
        if "event_id" not in batch.column_names:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(
            pc.is_in(batch["event_id"], value_set=pa.array(list(rule.event_ids)))
        )
        if not mask.any():
            return mask

    # --- alert_time (vectorized temporal predicate; aetas analogue) ---
    if rule.alert_time is not None and "warc_ts" not in batch.column_names:
        return np.zeros(n, dtype=bool)
    if rule.alert_time is not None:
        ts = batch["warc_ts"]
        hour = np.asarray(pc.hour(ts).combine_chunks()
                          if isinstance(pc.hour(ts), pa.ChunkedArray) else pc.hour(ts))
        at = rule.alert_time
        if at.start_hour <= at.end_hour:
            hmask = (hour >= at.start_hour) & (hour < at.end_hour)
        else:
            # window wraps midnight (e.g. hours 2200-0600 — the
            # canonical 'alert only at night' aetas window): OR the
            # two half-windows, else the rule can never fire
            hmask = (hour >= at.start_hour) | (hour < at.end_hour)
        if len(at.days) < 7:
            dow = pc.day_of_week(ts)  # 0=Monday
            dow = np.asarray(dow.combine_chunks() if isinstance(dow, pa.ChunkedArray) else dow)
            dmask = np.isin(dow, list(at.days))
            hmask &= dmask
        mask &= hmask
        if not mask.any():
            return mask

    # --- contents ---
    # Every POSITIVE content is a necessary-containment prefilter even
    # when position-constrained (its window is a subset of the row), so
    # AND them all vectorized first; the scalar chain pass then verifies
    # positions (and negations) only on surviving candidates.
    needs_chain = any(c.constrained for c in rule.contents)
    for c in rule.contents:
        if c in decided:
            continue
        col = raw if (c.rawbytes and raw is not None) else text
        if not c.negated:
            mask &= _to_np_bool(pc.match_substring(col, c.pattern, ignore_case=c.nocase))
        elif not needs_chain:
            hit = _to_np_bool(pc.match_substring(col, c.pattern, ignore_case=c.nocase))
            mask &= ~hit
        if not mask.any():
            return mask
    if needs_chain and mask.any():
        # pull ONLY candidate rows off-heap (never the whole column)
        idxs = np.flatnonzero(mask)

        def _take(colv):
            return pc.take(
                colv.combine_chunks() if isinstance(colv, pa.ChunkedArray) else colv,
                pa.array(idxs),
            ).to_pylist()

        cand = _take(text)
        raw_cand = (_take(raw) if raw is not None and any(c.rawbytes for c in rule.contents)
                    else [None] * len(idxs))
        for i, t, rt in zip(idxs, cand, raw_cand):
            if not check_content_chain(t or "", rule.contents, rt):
                mask[i] = False
        if not mask.any():
            return mask

    # --- meta_content: OR over the expanded literal list ---
    for mc in rule.meta_contents:
        if mc in decided:
            continue
        any_hit = np.zeros(n, dtype=bool)
        for lit in mc.literals():
            any_hit |= _to_np_bool(pc.match_substring(text, lit, ignore_case=mc.nocase))
        mask &= any_hit
        if not mask.any():
            return mask

    # --- pcre: Arrow RE2 when compilable, Python regex re-check otherwise ---
    for p, crx, arrow_pat in zip(rule.pcres, rule._pcre_compiled, rule._pcre_arrow):
        if arrow_pat is not None:
            hit = _to_np_bool(pc.match_substring_regex(text, arrow_pat))
        else:
            hit = np.zeros(n, dtype=bool)
            idxs = np.flatnonzero(mask)
            cand = pc.take(
                text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text,
                pa.array(idxs),
            ).to_pylist()
            for i, t in zip(idxs, cand):
                if crx.search(t or ""):
                    hit[i] = True
        mask &= ~hit if p.negated else hit
        if not mask.any():
            return mask

    # --- enrichment-dependent predicates (country_code / blacklist) ---
    # Fail closed when the enrichment columns are absent; the pipeline
    # helpers auto-enrich pre-match when any rule needs them
    # (reference: geoip2.c / blacklist.c predicates run post-lookup).
    if rule.country_code is not None:
        if "country" not in batch.column_names:
            return np.zeros(n, dtype=bool)
        cc = rule.country_code
        hit = _to_np_bool(
            pc.is_in(batch["country"], value_set=pa.array(list(cc.codes)))
        )
        mask &= hit if cc.op == "is" else ~hit
        if not mask.any():
            return mask
    if rule.blacklist is not None:
        if "blacklisted" not in batch.column_names:
            return np.zeros(n, dtype=bool)
        mask &= _to_np_bool(batch["blacklisted"])
        if not mask.any():
            return mask

    # --- json matchers (flat {"k": v} payload column `props`) ---
    if rule.json_contents or rule.json_pcres or rule.json_metas:
        if "props" not in batch.column_names:
            return np.zeros(n, dtype=bool)
        # extract ONLY rows still masked (candidates after the cheap
        # vectorized gates), and ONLY the dotted paths the rule names —
        # one DuckDB json_extract_string pass for all paths
        # (jsonmap._extract_paths) instead of json.loads of the whole
        # object per row. Missing keys and malformed payloads yield
        # null, which fails every matcher — identical semantics to the
        # json_extract_string oracles (same engine).
        from ..sources.jsonmap import _extract_paths

        idxs = np.flatnonzero(mask)
        props_col = batch["props"]
        cand_arr = pc.take(
            props_col.combine_chunks()
            if isinstance(props_col, pa.ChunkedArray)
            else props_col,
            pa.array(idxs),
        )
        paths = (
            [p for p, _ in rule.json_contents]
            + [p for p, _ in rule.json_pcres]
            + [p for p, _, _ in rule.json_metas]
        )
        cols = _extract_paths(cand_arr, paths)
        it = iter(cols)
        sub = np.ones(len(idxs), dtype=bool)
        for (_, val), col in zip(rule.json_contents, it):
            sub &= _to_np_bool(pc.equal(col, val))
        for (_, p), rx, col in zip(rule.json_pcres, rule._json_pcre_compiled, it):
            vals = col.to_pylist()
            # a null extraction fails the matcher, negated or not
            sub &= np.fromiter(
                (v is not None and (rx.search(v) is None) == p.negated
                 for v in vals), dtype=bool, count=len(vals),
            )
        for (_, lits, nocase), col in zip(rule.json_metas, it):
            vals = pc.fill_null(col, "")
            if nocase:
                vals = pc.utf8_lower(vals)
                lits = tuple(x.lower() for x in lits)
            hit = np.zeros(len(idxs), dtype=bool)
            for lit in lits:
                hit |= _to_np_bool(pc.match_substring(vals, lit))
            sub &= hit
        mask[idxs[~sub]] = False
    return mask


_EXTRACT_FIELDS = ("src_ip", "dst_ip", "src_port", "hash_value", "extracted",
                   "proto")
_EMPTY_ALERTS = ALERTS_SCHEMA.empty_table()
for _f in _EXTRACT_FIELDS:
    _t = pa.int32() if _f == "src_port" else pa.string()
    _EMPTY_ALERTS = _EMPTY_ALERTS.append_column(_f, pa.array([], type=_t))


def _null_extraction(m: int) -> dict:
    return {f: pa.nulls(m, type=_EMPTY_ALERTS.schema.field(f).type)
            for f in _EXTRACT_FIELDS}


def _extraction_columns(rule: Rule, sub: pa.Table) -> dict | None:
    """normalize / parse_* extraction for matched rows (reference:
    liblognormalize.c + parsers/parse-*.c run only on rule match), or
    None for a rule that extracts nothing (all nulls)."""
    if not (rule.parse_src_ip or rule.parse_dst_ip or rule.parse_port
            or rule.parse_hash or rule.normalize or rule.parse_proto
            or rule.parse_proto_program or rule.default_proto is not None
            or rule.default_src_port is not None):
        return None
    import json as _json

    from ..functions import extract as fx

    cols = _null_extraction(sub.num_rows)
    if rule.parse_proto:
        cols["proto"] = fx.proto_from_text(sub["text"])
    elif rule.parse_proto_program:
        # the program-analogue column: `program` on FIFO frames, `host`
        # on the webpages schema (the program-gate convention)
        pcol = "program" if "program" in sub.column_names else "host"
        cols["proto"] = fx.proto_from_program(sub[pcol])
    def _apply_defaults(c: dict) -> dict:
        # parse-proto.c / parse-port.c: unparsed values fall back to the
        # rule's defaults (applied AFTER all parsers have run)
        if rule.default_proto is not None:
            c["proto"] = pc.fill_null(c["proto"], rule.default_proto)
        if rule.default_src_port is not None:
            c["src_port"] = pc.fill_null(
                c["src_port"], pa.scalar(rule.default_src_port, type=pa.int32())
            )
        return c

    if not (rule.parse_src_ip or rule.parse_dst_ip or rule.parse_port
            or rule.parse_hash or rule.normalize):
        return _apply_defaults(cols)
    texts = sub["text"].to_pylist()
    if rule.parse_src_ip:
        cols["src_ip"] = pa.array(
            fx.nth_ip(texts, rule.parse_src_ip), type=pa.string()
        )
    if rule.parse_dst_ip:
        cols["dst_ip"] = pa.array(
            fx.nth_ip(texts, rule.parse_dst_ip), type=pa.string()
        )
    if rule.parse_port:
        cols["src_port"] = pa.array(fx.first_port(texts), type=pa.int32())
    if rule.parse_hash:
        cols["hash_value"] = pa.array(
            fx.first_hash(texts, rule.parse_hash), type=pa.string()
        )
    if rule.normalize and rule._normalize_compiled is not None:
        rx = rule._normalize_compiled
        vals = []
        for t in texts:
            mm = rx.search(t or "")
            vals.append(_json.dumps(mm.groupdict(), sort_keys=True) if mm else None)
        cols["extracted"] = pa.array(vals, type=pa.string())
    return _apply_defaults(cols)


def _pcre_atom(p) -> tuple[str, bool] | None:
    """(literal, nocase) that every match of a non-negated pcre contains:
    its longest run of top-level literal characters, at least 3 long —
    the required-atom extraction of RE2's FilteredRE2, read with the
    stdlib regex parser. The pattern itself runs on RE2 or the `regex`
    module, so wherever the stdlib parser may read it differently this
    gives None: a pattern it warns about (a POSIX class such as
    ``[[:digit:]]`` reads as a set followed by the literal ``]``) or
    one with a top-level literal brace (RE2 reads ``{,3}`` as text, the
    `regex` module as a repeat, and ``{e<=1}`` as a fuzzy match). A
    top-level alternation, a negated or verbose (``/x``: RE2 would not
    strip its whitespace) pattern, or one the parser rejects gives None
    too."""
    import re as _stdre
    import warnings
    from re import _parser

    if p.negated or p.flags & _stdre.X:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            parsed = _parser.parse(p.pattern, p.flags)
    except (_stdre.error, FutureWarning, OverflowError, RecursionError):
        # syntax only the `regex` module or RE2 reads, a construct the
        # stdlib reads differently, a repeat count past the parser's
        # range, or nesting past Python's stack
        return None
    if (_parser.LITERAL, ord("{")) in parsed.data:
        return None
    best = run = ""
    for op, av in parsed:
        if op is _parser.LITERAL:
            run += chr(av)
            continue
        best, run = max(best, run, key=len), ""
    best = max(best, run, key=len)
    if len(best) < 3:
        return None
    return best, bool(parsed.state.flags & _stdre.I)


def _literal_groups(rule: Rule) -> list[tuple[tuple[str, ...], bool, object]]:
    """The rule's required literals as an AND of OR-lists
    ``[(literals, nocase, decides), ...]``: a row the rule matches holds
    at least one literal of every group. ``decides`` is the Content or
    MetaContent whose vectorized test in ``rule_mask`` is exactly "holds
    one of these literals" (positions are left to the chain check), or
    None for a pcre atom.

    Each positive content is a group even when position-constrained (its
    window is a subset of the row); rawbytes contents match another
    column, so they give none. Each meta_content OR-list is a group, and
    each non-negated pcre its required atom. A nocase group with a
    non-ASCII literal is left out: Unicode case folding maps the Kelvin
    sign (U+212A) to ``k`` and the long s (U+017F) to ``s``, which an
    ASCII-folded search would miss. A group holding an empty literal requires
    nothing. No group = the rule runs over every row."""
    groups = [((c.pattern,), c.nocase, c)
              for c in rule.contents if not c.negated and not c.rawbytes]
    groups += [(mc.literals(), mc.nocase, mc) for mc in rule.meta_contents]
    for p in rule.pcres:
        atom = _pcre_atom(p)
        if atom is not None:
            groups.append(((atom[0],), atom[1], None))
    return [g for g in groups if all(g[0])
            and not (g[1] and not all(x.isascii() for x in g[0]))]


def _union_prefilter_pattern(rules: list[Rule]) -> tuple[str | None, list[Rule], list[Rule]]:
    """ONE RE2 alternation that every row some literal-indexed rule
    matches contains: per rule, its most selective literal group (the
    one whose shortest literal is longest). Returns (pattern|None,
    literal-indexed rules, rules that run over every row). The matcher
    does not use it: it ANDs all of a rule's groups, pass rules' too,
    and counts every row with a non-ASCII byte as holding each nocase
    literal (``make_matcher``). So the rows this pattern matches, which
    the benchmark reports as ``match.prefilter_candidates``, hold one
    group of some rule, not the rows the matcher shortlists."""
    import re as _stdre

    lit_rules: list[Rule] = []
    unfiltered: list[Rule] = []
    alts: set[str] = set()
    for r in rules:
        groups = _literal_groups(r)
        if not groups:
            unfiltered.append(r)
            continue
        lit_rules.append(r)
        lits, nocase, _ = max(groups, key=lambda g: min(map(len, g[0])))
        for lit in lits:
            esc = _stdre.escape(lit)
            alts.add(f"(?i:{esc})" if nocase else esc)
    if not lit_rules:
        return None, [], rules
    return "|".join(sorted(alts)), lit_rules, unfiltered


_POLARS: list = []
_POLARS_LOCK = threading.Lock()


def _polars():
    """polars, imported on first use (so processes that never match a
    batch never load it) under a lock, with one warm call: its lazily
    re-exported submodules race under concurrent first use."""
    if not _POLARS:
        with _POLARS_LOCK:
            if not _POLARS:
                import polars as pl

                pl.from_arrow(pa.array(["x"])).str.extract_many(
                    ["x"], ascii_case_insensitive=True, overlapping=True,
                ).to_arrow(compat_level=pl.CompatLevel.oldest())
                _POLARS.append(pl)
    return _POLARS[0]


class _LiteralIndex:
    """The literal groups of a rule list over one shared literal set, so
    ONE Aho–Corasick pass per batch serves every rule.

    The pass is ASCII-case-folded and overlapping (polars
    ``str.extract_many``), so it reports every occurrence of every
    literal with the text it matched. A case-sensitive literal is held
    by the rows where that text equals it exactly; a nocase literal by
    the rows where it equals it after ASCII lowercasing, and by every row
    with a non-ASCII character (Arrow's ``ignore_case`` folds Unicode, an
    ASCII fold does not)."""

    def __init__(self, rules: list[Rule]):
        self.exact: dict[str, int] = {}
        self.folded: dict[str, int] = {}
        self.groups = []
        for r in rules:
            gs = []
            for lits, nocase, decides in _literal_groups(r):
                ids = [(self.folded if nocase else self.exact).setdefault(
                    _ascii_lower(x) if nocase else x,
                    len(self.exact) + len(self.folded)) for x in lits]
                gs.append((ids, nocase, decides))
            self.groups.append(gs)
        self.patterns = sorted({_ascii_lower(x) for x in self.exact}
                               | set(self.folded))

    def candidates(self, text: pa.Array) -> list[tuple[np.ndarray | None, list]]:
        """Per rule, (rows that hold one literal of each of its groups,
        the predicates that holding them decides on those rows), or
        (None, []) for a rule without groups: every row, nothing
        decided."""
        if not self.patterns:
            return [(None, [])] * len(self.groups)
        n = len(text)
        pl = _polars()
        found = pl.from_arrow(text).str.extract_many(
            self.patterns, ascii_case_insensitive=True, overlapping=True,
        ).to_arrow(compat_level=pl.CompatLevel.oldest())
        # every occurrence as (literal id, row): the matched texts are few
        # distinct strings, so map those, not the occurrences
        occ = pc.dictionary_encode(found.flatten())
        seen = occ.dictionary.to_pylist()
        code = np.asarray(occ.indices, dtype=np.int64)
        rows = np.asarray(found.value_parent_indices(), dtype=np.int64)
        ids = np.concatenate([
            np.array([self.exact.get(x, -1) for x in seen], dtype=np.int64)[code],
            np.array([self.folded.get(_ascii_lower(x), -1) for x in seen],
                     dtype=np.int64)[code]])
        rows = np.concatenate([rows, rows])[ids >= 0]
        ids = ids[ids >= 0]
        order = np.argsort(ids, kind="stable")
        lit_rows = np.split(rows[order], np.cumsum(np.bincount(
            ids, minlength=len(self.exact) + len(self.folded)))[:-1])
        wide = _non_ascii_rows(text) if self.folded else None
        out = []
        for groups in self.groups:
            if not groups:
                out.append((None, []))
                continue
            keep = np.ones(n, dtype=bool)
            for lit_ids, nocase, _ in groups:
                hit = np.zeros(n, dtype=bool)
                for k in lit_ids:
                    hit[lit_rows[k]] = True
                if nocase:
                    hit[wide] = True
                keep &= hit
            cand = np.flatnonzero(keep)
            # a non-ASCII candidate leaves its nocase groups undecided
            wide_cand = wide is not None and len(wide) > 0 and np.isin(wide, cand).any()
            out.append((cand, [d for _, nocase, d in groups
                               if d is not None and not (nocase and wide_cand)]))
        return out


def _non_ascii_rows(text: pa.Array) -> np.ndarray:
    """Rows of a string array that hold a byte >= 0x80, read off its
    data buffer (``pc.string_is_ascii`` costs ~10x more)."""
    if not pa.types.is_large_string(text.type):
        text = text.cast(pa.large_string())
    _validity, offsets, data = text.buffers()
    offs = np.frombuffer(offsets, dtype=np.int64)[text.offset:text.offset + len(text) + 1]
    if data is None:
        return np.empty(0, dtype=np.int64)
    high = np.flatnonzero(np.frombuffer(data, dtype=np.uint8)[offs[0]:offs[-1]] >= 0x80)
    return np.unique(np.searchsorted(offs, high + offs[0], side="right") - 1)


def _ascii_lower(s: str) -> str:
    return s.encode().lower().decode()


def _only_literals(rule: Rule) -> bool:
    """True when every predicate of the rule is a content or meta_content
    test that the literal index can decide: no gate, header, position,
    pcre, enrichment, JSON or alert_time test is left for ``rule_mask``
    (a test added to ``rule_mask`` must be named here too)."""
    return not (
        rule.header is not None or rule.programs or rule.facility is not None
        or rule.level is not None or rule.tag is not None or rule.event_ids
        or rule.alert_time is not None or rule.pcres
        or rule.country_code is not None or rule.blacklist is not None
        or rule.json_contents or rule.json_pcres or rule.json_metas
        or any(c.constrained for c in rule.contents))


def _rule_rows(batch: pa.Table, rule: Rule, rows: np.ndarray | None,
               decided: list) -> np.ndarray:
    """Rows of ``batch`` (from ``rows``, or all) the rule matches:
    ``rule_mask`` over those rows only, skipping the scans ``decided``
    lists. When ``decided`` holds every predicate of the rule, its rows
    are its matches."""
    if rows is None:
        return np.flatnonzero(rule_mask(batch, rule))
    if not len(rows) or (
            len(decided) == len(rule.contents) + len(rule.meta_contents)
            and _only_literals(rule)):
        return rows
    return rows[rule_mask(batch.take(rows), rule, decided=decided)]


# enrichment outputs ride along on alerts when present (EVE records carry
# geo fields in the reference's eve.c output)
_PASSTHROUGH = {"part_id": pa.string(), "country": pa.string(),
                "blacklisted": pa.bool_(), "intel_hit": pa.bool_()}
_CARRIED = ("url", "warc_ts", "host", "lang", "text")


def make_matcher(rules: list[Rule]):
    """Closure for ``map_batches``: webpages batch -> alerts batch.

    ``pass``-action rules run FIRST and suppress matching rows from all
    alert rules (Snort/Sagan pass semantics); ``alert``/``drop`` rules
    emit alert rows, rule by rule in rule-list order."""
    pass_rules = [r for r in rules if r.action == "pass"]
    rules = [r for r in rules if r.action != "pass"]
    index = _LiteralIndex(pass_rules + rules)
    # per-rule alert constants, in the canonical types; a batch's alerts
    # take them by rule position
    consts = pa.table({
        "sid": pa.array([r.sid for r in rules], type=pa.int64()),
        "rev": pa.array([r.rev for r in rules], type=pa.int32()),
        "msg": pa.array([r.msg for r in rules], type=pa.string()),
        "classification": pa.array([r.classtype for r in rules], type=pa.string()),
        "priority": pa.array([r.priority for r in rules], type=pa.int32()),
    })

    def match_batch(batch: pa.Table) -> pa.Table:
        if batch.column(0).num_chunks > 1:
            # readers deliver many-chunked tables; Arrow kernels over
            # fragmented columns cost ~3x — one contiguous copy up front
            batch = batch.combine_chunks()
        passthrough = [c for c in _PASSTHROUGH if c in batch.column_names]
        empty = _EMPTY_ALERTS
        for c in passthrough:
            empty = empty.append_column(c, pa.array([], type=_PASSTHROUGH[c]))
        if batch.num_rows == 0:
            return empty
        text = batch["text"]
        cands = index.candidates(text.chunk(0) if text.num_chunks == 1
                                 else text.combine_chunks())
        passed = np.zeros(batch.num_rows, dtype=bool)
        for pr, (rows, decided) in zip(pass_rules, cands):
            passed[_rule_rows(batch, pr, rows, decided)] = True
        fired: list[tuple[int, np.ndarray]] = []
        for j, (rule, (rows, decided)) in enumerate(zip(rules, cands[len(pass_rules):])):
            if passed.any():
                rows = np.flatnonzero(~passed) if rows is None else rows[~passed[rows]]
            hit = _rule_rows(batch, rule, rows, decided)
            if len(hit):
                fired.append((j, hit))
        if not fired:
            return empty
        return _alerts_table(batch, rules, fired, consts, passthrough)

    return match_batch


def _alerts_table(batch: pa.Table, rules: list[Rule],
                  fired: list[tuple[int, np.ndarray]], consts: pa.Table,
                  passthrough: list[str]) -> pa.Table:
    """All alert rows of a batch from ONE take of the concatenated
    per-rule rows (``fired``: rule position, its rows), and the per-rule
    constants from one take of ``consts``. ``text`` is taken, never
    rewritten."""
    counts = [len(rows) for _, rows in fired]
    need = list(_CARRIED) + passthrough
    if "program" in batch.column_names:
        need.append("program")
    taken = batch.select(need).take(np.concatenate([rows for _, rows in fired]))
    const = consts.take(np.repeat([j for j, _ in fired], counts))
    cols = {c: taken[c] for c in _CARRIED}
    cols.update(zip(const.column_names, const.columns))
    starts = np.cumsum(counts) - counts
    ex = [_extraction_columns(rules[j], taken.slice(s, k))
          for (j, _), s, k in zip(fired, starts, counts)]
    if any(e is not None for e in ex):
        ex = pa.concat_tables([pa.table(_null_extraction(k) if e is None else e)
                               for e, k in zip(ex, counts)])
    else:
        ex = pa.table(_null_extraction(taken.num_rows))
    cols.update((f, ex[f]) for f in _EXTRACT_FIELDS)
    cols.update((c, taken[c]) for c in passthrough)
    # one chunk out: downstream kernels over fragmented columns cost ~3x
    return pa.table(cols).combine_chunks()


# the input columns the matcher reads or carries onto alerts
_KEEP = ("url", "warc_ts", "host", "lang", "text", "source", "event_id",
         "props", "country", "blacklisted", "intel_hit", "part_id",
         "facility", "level", "program", "tag",
         "proto")  # header proto gate reads it (flow.c)


def match_alerts(ds, rules: list[Rule]):
    """webpages Dataset -> alerts Dataset, as ONE ``map_batches`` stage.

    Each batch is first cut to the columns the matcher needs, so html
    never reaches an alert or a shuffle — UNLESS a rule needs rawbytes
    matching, in which case html is cast to a latin-1-ish ``html_str``
    column for the match only. Both happen inside the stage's UDF,
    per batch, so building the stage reads no schema and executes
    nothing: a stateful stage upstream (the streaming seen-set gate)
    sees each block exactly once, on the real pass.

    The matcher is built by ``make_matcher`` and put in the object store
    once per Ray session and rule set (``ship.ship``, keyed on the loaded
    ``Rule`` objects); the UDF holds only its ref, and each worker
    process unpickles it once."""
    ref = ship(("match", *map(id, rules)),
               lambda: (any(c.rawbytes for r in rules for c in r.contents),
                        make_matcher(rules)),
               keep=rules)
    return ds.map_batches(partial(match_batch, ref), batch_format="pyarrow")


def match_batch(matcher_ref, t: pa.Table) -> pa.Table:
    """The match stage's UDF: cut ``t`` to the matcher's columns, add
    ``html_str`` when a rule needs rawbytes, match."""
    needs_raw, matcher = fetch(matcher_ref)
    names = t.column_names
    sub = t.select([c for c in _KEEP if c in names])
    if needs_raw and "html" in names:
        # latin-1, NOT a utf-8-validating cast: real html payloads
        # carry bytes >0x7F (0xFF etc.) that would raise
        # ArrowInvalid, and rules.py documents |hex| escapes as
        # latin-1 codepoints — every byte maps 1:1 to a char
        vals = [b.decode("latin-1") if b is not None else None
                for b in t["html"].to_pylist()]
        sub = sub.append_column("html_str", pa.array(vals, type=pa.string()))
    return matcher(sub)
