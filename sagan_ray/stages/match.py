"""Vectorized multi-rule matcher — the engine core.

Re-derives the reference's per-event predicate sequence (upstream
``src/processors/engine.c`` Sagan_Engine: program/facility/level gates →
content → pcre → meta_content → alert_time) as a per-BATCH evaluation:

* gates and unconstrained content/meta_content run as ``pyarrow.compute``
  kernels over the whole batch (the SSE2 ``Sagan_strstr`` analogue is
  Arrow's vectorized ``match_substring``),
* position-chained contents (offset/depth/distance/within) and
  non-RE2-compilable pcre fall back to a Python re-check over the (few)
  candidate rows that survived the vectorized prefilter — the
  Hyperscan-style literal-prefilter-then-verify pattern from the north
  star,
* each matched rule contributes alert rows (url, …, sid, rev, msg,
  classification, priority); ``text`` is carried through BYTE-IDENTICAL
  (we only filter rows and append constant columns — never rewrite).

Stateless: the compiled rule list is captured by closure and broadcast
with the task definition (rules are small). Use as
``ds.map_batches(make_matcher(rules), batch_format="pyarrow")``.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rules import Content, Rule
from ..schema import ALERTS_SCHEMA

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


def _chain_plan(rule: Rule) -> list[tuple]:
    """Flatten the content chain into plain tuples for the hot loop
    (dataclass attribute access per row per content costs ~10x).
    Cached ON the rule object — an id()-keyed dict would serve stale
    plans when ids are recycled after GC."""
    plan = getattr(rule, "_chain_plan_cache", None)
    if plan is None:
        plan = [
            (
                c.pattern.lower() if c.nocase else c.pattern,
                len(c.pattern),
                c.nocase,
                c.negated,
                c.relative,
                c.offset or 0,
                c.depth,
                c.distance or 0,
                c.within,
                c.rawbytes,
            )
            for c in rule.contents
        ]
        rule._chain_plan_cache = plan
    return plan


def _check_chain_fast(text: str, raw: str | None, plan: list[tuple]) -> bool:
    """Tuple-plan version of check_content_chain (identical semantics)."""
    prev_end = 0
    tlow = None
    for pat, plen, nocase, negated, relative, off, depth, dist, within, rawb in plan:
        base = raw if (rawb and raw is not None) else text
        if nocase:
            if base is text:
                if tlow is None:
                    tlow = text.lower()
                hay = tlow
            else:
                hay = base.lower()
        else:
            hay = base
        if relative:
            start = prev_end + dist
            stop = start + within if within is not None else len(base)
        else:
            start = off
            stop = start + depth if depth is not None else len(base)
        idx = hay.find(pat, start if start > 0 else 0)
        if idx != -1 and idx < stop:
            if negated:
                return False
            prev_end = idx + plen
        else:
            if not negated:
                return False
    return True


# ---------------------------------------------------------------------------
# vectorized helpers
# ---------------------------------------------------------------------------


def _to_np_bool(arr) -> np.ndarray:
    a = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    return np.asarray(a.fill_null(False), dtype=bool)


def _arrow_regex_pattern(p) -> str | None:
    """Python-flagged pattern -> RE2 pattern with inline flags, or None if
    RE2 can't compile it (checked once at first use, cached on the rule)."""
    import re as _stdre

    flag_chars = ""
    if p.flags & _stdre.I:
        flag_chars += "i"
    if p.flags & _stdre.S:
        flag_chars += "s"
    if p.flags & _stdre.M:
        flag_chars += "m"
    pat = f"(?{flag_chars})" + p.pattern if flag_chars else p.pattern
    try:
        pc.match_substring_regex(pa.array([""], type=pa.string()), pat)
        return pat
    except pa.ArrowInvalid:
        return None


_ARROW_PCRE_CACHE: dict[tuple[str, int], str | None] = {}


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


def rule_mask(batch: pa.Table, rule: Rule, text_col: str = "text") -> np.ndarray:
    """Boolean keep-mask for one rule over one Arrow batch.

    Gate columns are REQUIRED: a rule that references a column the batch
    schema lacks matches nothing (fail closed — the reference's
    gate-must-match behavior). Enrichment predicates (country/blacklist)
    are included: the pipeline helpers auto-enrich pre-match whenever a
    rule needs those columns (see flagship.rules_need_enrichment)."""
    n = batch.num_rows
    mask = np.ones(n, dtype=bool)
    text = batch[text_col]
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
        raw_cand = _take(raw) if (raw is not None and any(c.rawbytes for c in rule.contents)) else None
        plan = _chain_plan(rule)
        check = _check_chain_fast
        if raw_cand is None:
            for j, i in enumerate(idxs):
                if not check(cand[j] or "", None, plan):
                    mask[i] = False
        else:
            for j, i in enumerate(idxs):
                if not check(cand[j] or "", raw_cand[j], plan):
                    mask[i] = False
        if not mask.any():
            return mask

    # --- meta_content: OR over the expanded literal list ---
    for mc in rule.meta_contents:
        any_hit = np.zeros(n, dtype=bool)
        for lit in mc.literals():
            any_hit |= _to_np_bool(pc.match_substring(text, lit, ignore_case=mc.nocase))
        mask &= any_hit
        if not mask.any():
            return mask

    # --- pcre: Arrow RE2 when compilable, Python regex re-check otherwise ---
    for p, crx in zip(rule.pcres, rule._pcre_compiled):
        key = (p.pattern, p.flags)
        if key not in _ARROW_PCRE_CACHE:
            _ARROW_PCRE_CACHE[key] = _arrow_regex_pattern(p)
        arrow_pat = _ARROW_PCRE_CACHE[key]
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
        for (_, p), col in zip(rule.json_pcres, it):
            import re as _stdre

            rx = _stdre.compile(p.pattern, p.flags)
            vals = pc.fill_null(col, "").to_pylist()
            jm = np.fromiter(
                (rx.search(v) is not None for v in vals), dtype=bool,
                count=len(vals),
            )
            sub &= ~jm if p.negated else jm
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


def _extraction_columns(rule: Rule, sub: pa.Table, text_col: str) -> dict:
    """normalize / parse_* extraction for matched rows (reference:
    liblognormalize.c + parsers/parse-*.c run only on rule match)."""
    import json as _json

    from ..functions import extract as fx

    m = sub.num_rows
    cols: dict[str, pa.Array] = {
        "src_ip": pa.nulls(m, type=pa.string()),
        "dst_ip": pa.nulls(m, type=pa.string()),
        "src_port": pa.nulls(m, type=pa.int32()),
        "hash_value": pa.nulls(m, type=pa.string()),
        "extracted": pa.nulls(m, type=pa.string()),
        "proto": pa.nulls(m, type=pa.string()),
    }
    if rule.parse_proto:
        cols["proto"] = fx.proto_from_text(sub[text_col])
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
    texts = sub[text_col].to_pylist()
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


def _rule_prefilter_literals(rule: Rule) -> list[tuple[str, bool]] | None:
    """Literals such that ANY matching row must contain at least one
    (candidate-superset guarantee), or None if the rule has no such set
    (pure pcre/gate/time rules must be evaluated over the full batch).

    A positive content literal is containment-necessary even when
    position-constrained (the window is a subset of the row). A
    meta_content OR-list contributes all its literals. rawbytes contents
    match a different column, so they can't gate the text prefilter."""
    pos = [c for c in rule.contents if not c.negated and not c.rawbytes]
    if pos:
        best = max(pos, key=lambda c: len(c.pattern))
        return [(best.pattern, best.nocase)]
    if rule.meta_contents:
        mc = rule.meta_contents[0]
        return [(lit, mc.nocase) for lit in mc.literals()]
    return None


def _union_prefilter_pattern(rules: list[Rule]) -> tuple[str | None, list[Rule], list[Rule]]:
    """ONE RE2 alternation covering every literal-gated rule — the
    Hyperscan-style multi-pattern shortlist pass: a single vectorized
    scan shortlists candidate rows for ALL rules at once, so per-rule
    kernels touch only the (sparse) candidate subtable. Returns
    (pattern|None, literal_rules, unfiltered_rules)."""
    import re as _stdre

    lit_rules: list[Rule] = []
    unfiltered: list[Rule] = []
    alts: list[str] = []
    for r in rules:
        lits = _rule_prefilter_literals(r)
        if lits is None:
            unfiltered.append(r)
            continue
        lit_rules.append(r)
        for lit, nocase in lits:
            esc = _stdre.escape(lit)
            alts.append(f"(?i:{esc})" if nocase else esc)
    if not lit_rules:
        return None, [], rules
    pattern = "|".join(sorted(set(alts)))
    try:
        pc.match_substring_regex(pa.array([""], type=pa.string()), pattern)
    except pa.ArrowInvalid:
        return None, [], rules
    return pattern, lit_rules, unfiltered


def make_matcher(rules: list[Rule], text_col: str = "text"):
    """Closure for ``map_batches``: webpages batch -> alerts batch.

    ``pass``-action rules run FIRST and suppress matching rows from all
    alert rules (Snort/Sagan pass semantics); ``alert``/``drop`` rules
    emit alert rows."""
    pass_rules = [r for r in rules if r.action == "pass"]
    rules = [r for r in rules if r.action != "pass"]
    union_pattern, lit_rules, unfiltered_rules = _union_prefilter_pattern(rules)

    # enrichment outputs ride along on alerts when present (EVE records
    # carry geo fields in the reference's eve.c output)
    _PASSTHROUGH = {"part_id": pa.string(), "country": pa.string(),
                    "blacklisted": pa.bool_(), "intel_hit": pa.bool_()}

    def match_batch(batch: pa.Table) -> pa.Table:
        if batch.column(0).num_chunks > 1:
            # readers deliver many-chunked tables; Arrow kernels over
            # fragmented columns cost ~3x — one contiguous copy up front
            batch = batch.combine_chunks()
        n = batch.num_rows
        passthrough = [c for c in _PASSTHROUGH if c in batch.column_names]
        empty = _EMPTY_ALERTS
        for c in passthrough:
            empty = empty.append_column(c, pa.array([], type=_PASSTHROUGH[c]))
        if n == 0:
            return empty
        if pass_rules:
            drop = np.zeros(batch.num_rows, dtype=bool)
            for pr in pass_rules:
                drop |= rule_mask(batch, pr, text_col=text_col)
            if drop.any():
                batch = batch.filter(pa.array(~drop))
                if batch.num_rows == 0:
                    return empty
        out: list[pa.Table] = []
        # one multi-pattern shortlist pass, then per-rule work on the
        # candidate subtable only
        plan: list[tuple[Rule, pa.Table]] = []
        if union_pattern is not None:
            any_hit = _to_np_bool(
                pc.match_substring_regex(batch[text_col], union_pattern)
            )
            if any_hit.any():
                cand = batch.filter(pa.array(any_hit))
                plan.extend((r, cand) for r in lit_rules)
        else:
            plan.extend((r, batch) for r in lit_rules)
        plan.extend((r, batch) for r in unfiltered_rules)
        for rule, tbl in plan:
            mask = rule_mask(tbl, rule, text_col=text_col)
            if not mask.any():
                continue
            sub = tbl.filter(pa.array(mask))
            m = sub.num_rows
            ex = _extraction_columns(rule, sub, text_col)
            cols = {
                "url": sub["url"],
                "warc_ts": sub["warc_ts"],
                "host": sub["host"],
                "lang": sub["lang"],
                "text": sub["text"],
                "sid": pa.array(np.full(m, rule.sid, dtype=np.int64)),
                "rev": pa.array(np.full(m, rule.rev, dtype=np.int32)),
                "msg": pa.array([rule.msg] * m, type=pa.string()),
                "classification": pa.array([rule.classtype] * m, type=pa.string()),
                "priority": pa.array(np.full(m, rule.priority, dtype=np.int32)),
                **ex,
            }
            for c in passthrough:
                cols[c] = sub[c]
            out.append(pa.table(cols))
        if not out:
            return empty
        # one chunk out: per-rule emission would otherwise leave one
        # chunk PER RULE in every alert block, and downstream kernels
        # over fragmented columns cost ~3x
        return pa.concat_tables(out).combine_chunks()

    return match_batch


# the input columns the matcher reads or carries onto alerts
_KEEP = ("url", "warc_ts", "host", "lang", "text", "source", "event_id",
         "props", "country", "blacklisted", "intel_hit", "part_id",
         "facility", "level", "program", "tag",
         "proto")  # header proto gate reads it (flow.c)


def match_alerts(ds, rules: list[Rule], text_col: str = "text"):
    """webpages Dataset -> alerts Dataset, as ONE ``map_batches`` stage.

    Each batch is first cut to the columns the matcher needs, so html
    never reaches an alert or a shuffle — UNLESS a rule needs rawbytes
    matching, in which case html is cast to a latin-1-ish ``html_str``
    column for the match only. Both happen inside the stage's UDF,
    per batch, so building the stage reads no schema and executes
    nothing: a stateful stage upstream (the streaming seen-set gate)
    sees each block exactly once, on the real pass."""
    needs_raw = any(c.rawbytes for r in rules for c in r.contents)
    matcher = make_matcher(rules, text_col=text_col)

    def match_batch(t: pa.Table) -> pa.Table:
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

    return ds.map_batches(match_batch, batch_format="pyarrow")
