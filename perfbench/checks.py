"""Output checks: routed-row hashes, per-sid counts, an independent
DuckDB recount of the uncorrelated rules, and the pinned values.

``pins.json`` holds, per ``workload/seed/rows`` key, the per-sink
counts, the manifest total and the routed-row hash recorded at the
commit that defined the benchmark, plus the development and held-out
seeds later claims are made on. A mismatch prints the full outcome a
run produced; an intended change of the program's output is re-pinned
by editing ``pins.json`` by hand, so the edit shows in review.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def routed_hash(sink_dir: str) -> str:
    """sha256 over the routed (url, sid) rows, sorted first so block
    order and sink layout do not matter."""
    import pyarrow.dataset as pads

    t = pads.dataset(sink_dir, partitioning="hive").to_table(columns=["url", "sid"])
    h = hashlib.sha256()
    for u, s in sorted(zip(t["url"].to_pylist(), t["sid"].to_pylist())):
        h.update(f"{u}\x1f{s}\n".encode())
    return h.hexdigest()


def routed_sid_counts(sink_dir: str) -> dict[int, int]:
    import pyarrow.dataset as pads

    t = pads.dataset(sink_dir, partitioning="hive").to_table(columns=["sid"])
    counts = t.group_by("sid").aggregate([("sid", "count")])
    return dict(zip(counts["sid"].to_pylist(), counts["sid_count"].to_pylist()))


def outcome(manifest: dict, sink_dir: str) -> dict:
    """What a run produced, in the shape pins.json stores."""
    return {"sinks": dict(manifest["sinks"]), "total": manifest["total"],
            "routed_sha256": routed_hash(sink_dir)}


# ---- independent recount of uncorrelated rules ------------------------


def _lit(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _contains(pattern: str, nocase: bool) -> str:
    if nocase:
        return f"contains(lower(text), {_lit(pattern.lower())})"
    return f"contains(text, {_lit(pattern)})"


def _glob_regex(globs) -> str:
    return "|".join("^" + re.escape(g).replace(r"\*", ".*").replace(r"\?", ".") + "$"
                    for g in globs)


def rule_sql(rule) -> str | None:
    """A DuckDB predicate for a rule whose routed rows are exactly its
    pre-correlation matches, written from the rule's fields alone; None
    when the rule correlates, is silent, or uses a matcher this
    translation does not cover."""
    if (rule.action != "alert" or rule.noalert or rule.threshold or rule.after
            or rule.xbits or rule.header is not None or rule.level or rule.tag
            or rule.event_ids or rule.json_contents or rule.json_pcres
            or rule.json_metas or rule.country_code or rule.blacklist):
        return None
    preds = []
    for c in rule.contents:
        if c.constrained or c.rawbytes:
            return None
        p = _contains(c.pattern, c.nocase)
        preds.append(f"NOT {p}" if c.negated else p)
    for p in rule.pcres:
        if p.flags & ~re.IGNORECASE:
            return None
        rx = ("(?i)" if p.flags & re.IGNORECASE else "") + p.pattern
        preds.append(("NOT " if p.negated else "") + f"regexp_matches(text, {_lit(rx)})")
    for mc in rule.meta_contents:
        preds.append("(" + " OR ".join(_contains(x, mc.nocase) for x in mc.literals()) + ")")
    if rule.programs:
        preds.append(f"regexp_matches(host, {_lit(_glob_regex(rule.programs))})")
    if rule.facility is not None:
        preds.append(f"lang = {_lit(rule.facility)}")
    at = rule.alert_time
    if at is not None:
        op = "AND" if at.start_hour <= at.end_hour else "OR"
        preds.append(f"(hour(warc_ts) >= {at.start_hour} {op} hour(warc_ts) < {at.end_hour})")
        if len(at.days) < 7:
            days = ", ".join(str(d) for d in sorted(at.days))
            preds.append(f"isodow(warc_ts) - 1 IN ({days})")
    if not preds:
        return None
    return " AND ".join(preds)


def duckdb_sid_counts(files: list[str], rules) -> dict[int, int]:
    """Per-sid match counts of every translatable uncorrelated rule,
    counted by DuckDB over the input parquet."""
    import duckdb

    arms = [(r.sid, rule_sql(r)) for r in rules]
    arms = [(sid, sql) for sid, sql in arms if sql is not None]
    if not arms:
        return {}
    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        src = "read_parquet([" + ", ".join(_lit(f) for f in files) + "])"
        cols = ", ".join(f"count(*) FILTER (WHERE {sql})" for _sid, sql in arms)
        row = con.execute(f"SELECT {cols} FROM {src}").fetchone()
    finally:
        con.close()
    return {sid: int(n) for (sid, _sql), n in zip(arms, row)}


def recount_mismatches(files: list[str], rules, sink_dir: str) -> list[str]:
    want = duckdb_sid_counts(files, rules)
    got = routed_sid_counts(sink_dir)
    return [f"sid {sid}: routed {got.get(sid, 0)} != duckdb {n}"
            for sid, n in sorted(want.items()) if got.get(sid, 0) != n]


# ---- pins ---------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS) as f:
        return json.load(f)


def pin_key(workload: str, seed: int, rows: int) -> str:
    return f"{workload}/{seed}/{rows}"


def pin_mismatches(workload: str, seed: int, rows: int, got: dict) -> list[str]:
    want = load_pins()["outcomes"].get(pin_key(workload, seed, rows))
    if want is None or want == got:
        return []
    return [f"pinned {pin_key(workload, seed, rows)}: {want} != {got}"]

