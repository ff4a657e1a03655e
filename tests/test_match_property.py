"""Differential property test for the matcher: a NAIVE per-row
reference implementation (written straight from the frozen semantics in
rules.py, no shared code paths with the vectorized matcher beyond the
compiled IR) must agree with rule_mask on random texts and rules."""

import re

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagan_ray.rules import Content, MetaContent, Pcre, Rule, compile_rule, parse_rule
from sagan_ray.stages.match import make_matcher, rule_mask

WORDS = ["foo", "bar", "baz", "qux", "key", "value", "zap"]


def naive_match(text: str, host: str, lang: str, rule) -> bool:
    if rule.programs and not rule._program_re.match(host):
        return False
    if rule.facility is not None and lang != rule.facility:
        return False
    prev_end = 0
    for c in rule.contents:
        hay = text.lower() if c.nocase else text
        pat = c.pattern.lower() if c.nocase else c.pattern
        if c.relative:
            start = prev_end + (c.distance or 0)
            stop = start + c.within if c.within is not None else len(text)
        else:
            start = c.offset or 0
            stop = start + c.depth if c.depth is not None else len(text)
        idx = hay.find(pat, max(0, start))
        found = idx != -1 and idx < stop
        if c.negated:
            if found:
                return False
        else:
            if not found:
                return False
            prev_end = idx + len(pat)
    for mc in rule.meta_contents:
        if not any(
            (lit.lower() in text.lower() if mc.nocase else lit in text)
            for lit in mc.literals()
        ):
            return False
    for p, crx in zip(rule.pcres, rule._pcre_compiled):
        hit = bool(crx.search(text))
        if p.negated == hit:
            return False
    return True


content_st = st.builds(
    lambda w, nocase, neg, off, depth, dist, within, rel: {
        "w": w, "nocase": nocase, "neg": neg,
        "off": off, "depth": depth, "dist": dist, "within": within, "rel": rel,
    },
    st.sampled_from(WORDS),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10),
    st.one_of(st.none(), st.integers(1, 40)),
    st.integers(0, 5),
    st.one_of(st.none(), st.integers(1, 30)),
    st.booleans(),
)


def build_rule(contents, pcre_word, use_pcre):
    opts = ["sid:1"]
    first = True
    for c in contents:
        pat = c["w"].upper() if c["nocase"] else c["w"]
        neg = "!" if c["neg"] else ""
        opts.append(f'content:{neg}"{pat}"')
        if c["nocase"]:
            opts.append("nocase")
        if not first and c["rel"]:
            opts.append(f"distance:{c['dist']}")
            if c["within"] is not None:
                opts.append(f"within:{c['within']}")
        else:
            if c["off"]:
                opts.append(f"offset:{c['off']}")
            if c["depth"] is not None:
                opts.append(f"depth:{c['depth']}")
        first = False
    if use_pcre:
        opts.append(f'pcre:"/\\b{pcre_word}s?\\b/"')
    return parse_rule("alert any any any -> any any (" + "; ".join(opts) + ";)")


@settings(max_examples=120, deadline=None)
@given(
    st.lists(content_st, min_size=1, max_size=3),
    st.sampled_from(WORDS),
    st.booleans(),
    st.lists(
        st.lists(st.sampled_from(WORDS + ["XX", "yy"]), min_size=0, max_size=12),
        min_size=1,
        max_size=8,
    ),
)
def test_vectorized_matches_naive(contents, pcre_word, use_pcre, texts_words):
    rule = build_rule(contents, pcre_word, use_pcre)
    texts = [" ".join(ws) for ws in texts_words]
    n = len(texts)
    batch = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(n)]),
            "warc_ts": pa.array([1_700_000_000_000_000] * n, type=pa.timestamp("us")),
            "host": pa.array(["h"] * n),
            "lang": pa.array(["en"] * n),
            "text": pa.array(texts),
        }
    )
    got = rule_mask(batch, rule).tolist()
    want = [naive_match(t, "h", "en", rule) for t in texts]
    assert got == want, f"rule={rule} texts={texts}"


# ---------------------------------------------------------------------------
# make_matcher (literal index → per-rule rows → verify → one take) against
# rule_mask applied rule by rule to the whole batch
# ---------------------------------------------------------------------------

KELVIN, LONG_S = "\u212a", "\u017f"  # Kelvin sign, long s
LITS = ["val", "value", "key", "KEY", "scan", "Scan", "alu", "e",
        LONG_S + "can", KELVIN + "ey", "café"]
TEXT_WORDS = ["val", "value", "VALUE", "key", "Key", KELVIN + "ey", "scan",
              "SCAN", LONG_S + "can", "slow", "fast", "café", "CAFÉ",
              "valu", "x", "foo1bar", "foo]bar"]
PCRES = [r"\bval(ue)?\b", r"(slow|fast) scan", r"key\s*val", r"\b(val|key)\b",
         r"k.y", r"sc[a]n", r"value$", r"foo[[:digit:]]bar"]


def _content(lit, nocase, negated, pos):
    kw = {}
    if pos == "window":
        kw = {"offset": 1, "depth": 12}
    elif pos == "chain":
        kw = {"distance": 0, "within": 10}
    return Content(pattern=lit, nocase=nocase, negated=negated, **kw)


content_ir = st.builds(_content, st.sampled_from(LITS), st.booleans(),
                       st.booleans(), st.sampled_from(["free", "window", "chain"]))
meta_ir = st.builds(lambda vals, nocase: MetaContent("%sagan%", tuple(vals), nocase),
                    st.lists(st.sampled_from(LITS), min_size=1, max_size=3),
                    st.booleans())
pcre_ir = st.builds(
    lambda p, i, neg: Pcre(p, re.I if i else 0, f"/{p}/{'i' if i else ''}", neg),
    st.sampled_from(PCRES), st.booleans(), st.booleans())


@st.composite
def rule_ir(draw, sid):
    contents = draw(st.lists(content_ir, max_size=3))
    if contents and contents[0].relative:  # a chain needs a first content
        contents[0] = Content(contents[0].pattern, contents[0].nocase,
                              contents[0].negated)
    return compile_rule(Rule(
        sid=sid, msg=f"m{sid}", classtype="misc-activity",
        action=draw(st.sampled_from(["alert"] * 5 + ["pass"])),
        contents=tuple(contents),
        meta_contents=tuple(draw(st.lists(meta_ir, max_size=1))),
        pcres=tuple(draw(st.lists(pcre_ir, max_size=1)))))


text_st = st.one_of(
    st.none(), st.just(""),
    st.lists(st.sampled_from(TEXT_WORDS), max_size=8).map(" ".join))


def _batch(texts):
    n = len(texts)
    return pa.table({
        "url": pa.array([f"u{i}" for i in range(n)]),
        "warc_ts": pa.array([1_700_000_000_000_000] * n, type=pa.timestamp("us")),
        "host": pa.array(["h"] * n),
        "lang": pa.array(["en"] * n),
        "text": pa.array(texts, type=pa.string()),
    })


def _rows(t):
    return sorted(zip(t["url"].to_pylist(), t["sid"].to_pylist(),
                      t["text"].to_pylist()))


def _per_rule(batch, rules):
    """Pass rules drop their rows; then each alert rule's rule_mask over
    the whole remaining batch."""
    keep = np.ones(batch.num_rows, dtype=bool)
    for r in rules:
        if r.action == "pass":
            keep &= ~rule_mask(batch, r)
    batch = batch.filter(pa.array(keep))
    out = []
    for r in rules:
        if r.action != "pass":
            hit = batch.filter(pa.array(rule_mask(batch, r)))
            out += [(u, r.sid, t) for u, t in zip(hit["url"].to_pylist(),
                                                  hit["text"].to_pylist())]
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda k: st.tuples(*[rule_ir(1000 + i) for i in range(k)])),
       st.lists(text_st, min_size=1, max_size=12))
def test_index_never_changes_an_alert(rules, texts):
    batch = _batch(texts)
    assert _rows(make_matcher(list(rules))(batch)) == _per_rule(batch, rules)


def _rule(**kw):
    return compile_rule(Rule(sid=kw.pop("sid", 1), **kw))


@pytest.mark.parametrize("rule,text", [
    # Arrow's ignore_case folds Unicode: the Kelvin sign is a K, the long
    # s an s; an ASCII-folded index alone would miss both rows
    (_rule(contents=(Content("key", nocase=True),)), "a " + KELVIN + "ey"),
    (_rule(contents=(Content("scan", nocase=True),)), "slow " + LONG_S + "can"),
    (_rule(pcres=(Pcre(" scan", re.I, "/ scan/i"),)), "slow " + LONG_S + "can"),
    (_rule(meta_contents=(MetaContent("%sagan%", ("x", "scan"), True),)),
     LONG_S + "CAN"),
    # a nocase non-ASCII pattern matches a plain ASCII row
    (_rule(contents=(Content(LONG_S + "can", nocase=True),)), "SCAN it"),
    (_rule(contents=(Content("café", nocase=True),)), "CAFÉ"),
    # RE2 and the regex module read a POSIX class; the stdlib parser reads
    # a set and then the literal "]bar", which must not become the atom
    (_rule(pcres=(Pcre(r"foo[[:digit:]]bar", 0, "/foo[[:digit:]]bar/"),)),
     "foo1bar"),
    # the regex module reads a fuzzy match (RE2 rejects the lookbehind, so
    # the rule runs there), which "key" need not literally appear in
    (_rule(pcres=(Pcre(r"(?<=a)(?:key){e<=1}", 0, "/(?<=a)(?:key){e<=1}/"),)),
     "akez"),
])
def test_index_keeps_edge_rows(rule, text):
    batch = _batch([text, "plain words", None, ""])
    got = _rows(make_matcher([rule])(batch))
    assert got == _per_rule(batch, [rule])
    assert [u for u, _, _ in got] == ["u0"]
