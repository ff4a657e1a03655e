"""Matcher-stage unit tests over in-memory Arrow batches."""

import numpy as np
import pyarrow as pa
import pytest

from sagan_ray.rules import parse_rule, parse_rules
from sagan_ray.stages.match import make_matcher, rule_mask


def batch(texts, hosts=None, langs=None, ts=None):
    n = len(texts)
    hosts = hosts or ["h"] * n
    langs = langs or ["en"] * n
    ts = ts or [1_700_000_000_000_000 + i for i in range(n)]
    return pa.table(
        {
            "url": pa.array([f"https://{hosts[i]}/p/{i}" for i in range(n)]),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "host": pa.array(hosts),
            "lang": pa.array(langs),
            "text": pa.array(texts),
        }
    )


def test_content_and_negation():
    r = parse_rule('alert any any any -> any any (sid:1; content:"foo"; content:!"bar";)')
    b = batch(["a foo b", "foo bar", "nothing"])
    assert rule_mask(b, r).tolist() == [True, False, False]


def test_nocase():
    r = parse_rule('alert any any any -> any any (sid:1; content:"FOO"; nocase;)')
    b = batch(["xfoox", "xFOOx", "nope"])
    assert rule_mask(b, r).tolist() == [True, True, False]


def test_pcre_arrow_and_fallback():
    r = parse_rule(r'alert any any any -> any any (sid:1; pcre:"/\bERR-\d{4}\b/";)')
    b = batch(["ok ERR-0042 here", "ERR-12 too short", "fine"])
    assert rule_mask(b, r).tolist() == [True, False, False]
    # lookahead forces the Python fallback path
    r2 = parse_rule(r'alert any any any -> any any (sid:2; pcre:"/foo(?=bar)/";)')
    b2 = batch(["foobar", "foobaz"])
    assert rule_mask(b2, r2).tolist() == [True, False]


def test_pcre_verbose_flag_follows_python():
    """``/x`` ignores pattern whitespace: RE2 cannot, so the pattern is
    decided by the compiled Python regex on every path."""
    r = parse_rule('alert any any any -> any any (msg:"m"; sid:1; '
                   'pcre:"/foo bar/x"; classtype:bad-unknown;)')
    texts = ["foo bar", "foobar"]
    want = [bool(r._pcre_compiled[0].search(t)) for t in texts]
    assert want == [False, True]
    b = batch(texts)
    assert rule_mask(b, r).tolist() == want
    routed = make_matcher([r])(b)["url"].to_pylist()
    assert routed == [u for u, w in zip(b["url"].to_pylist(), want) if w]


def test_gates():
    r = parse_rule(
        'alert any any any -> any any (sid:1; program:"web*"; facility:"en"; content:"x";)'
    )
    b = batch(
        ["x", "x", "x"],
        hosts=["webserver", "mail", "webapp"],
        langs=["en", "en", "de"],
    )
    assert rule_mask(b, r).tolist() == [True, False, False]


def test_meta_content_or():
    rules, _ = parse_rules(
        "var W [aa, bb]\n"
        'alert any any any -> any any (sid:1; meta_content:"%sagan%",$W;)'
    )
    b = batch(["has aa", "has bb", "has cc"])
    assert rule_mask(b, rules[0]).tolist() == [True, True, False]


def test_alert_time_mask():
    r = parse_rule(
        "alert any any any -> any any (sid:1; content:\"x\"; "
        "alert_time: days 0123456, hours 0000-0600;)"
    )
    # 2024-01-01 03:00 UTC and 12:00 UTC
    t3 = 1_704_078_000_000_000
    t12 = 1_704_110_400_000_000
    b = batch(["x", "x"], ts=[t3, t12])
    assert rule_mask(b, r).tolist() == [True, False]


def test_chain_vectorized_prefilter():
    r = parse_rule(
        'alert any any any -> any any (sid:1; content:"key"; offset:0; depth:200; '
        'content:"value"; distance:1; within:120;)'
    )
    b = batch(["key then value", "keyvalue", "value only", "key " + "z" * 150 + " value"])
    assert rule_mask(b, r).tolist() == [True, False, False, False]


def test_matcher_emits_alert_rows():
    rules, _ = parse_rules(
        'alert any any any -> any any (msg:"m1"; sid:1; content:"foo"; classtype:bad-unknown;)\n'
        'alert any any any -> any any (msg:"m2"; sid:2; content:"bar"; classtype:misc-activity;)'
    )
    fn = make_matcher(rules)
    out = fn(batch(["foo", "foo bar", "baz"]))
    assert out.num_rows == 3  # sid1×2 + sid2×1
    got = sorted(zip(out["sid"].to_pylist(), out["url"].to_pylist()))
    assert [g[0] for g in got] == [1, 1, 2]
    assert set(out.column_names) >= {
        "url", "warc_ts", "host", "lang", "text", "sid", "rev", "msg",
        "classification", "priority",
    }
    # byte-identical text invariant: emitted text equals input text
    assert out["text"].to_pylist()[0] in ("foo", "foo bar")


def test_matcher_empty_schema_stable():
    rules, _ = parse_rules('alert any any any -> any any (sid:1; content:"zz";)')
    fn = make_matcher(rules)
    out = fn(batch(["a", "b"]))
    assert out.num_rows == 0
    assert "sid" in out.column_names


def test_json_content():
    r = parse_rule(
        'alert any any any -> any any (sid:1; json_content:".k","69";)'
    )
    b = batch(["x", "y"]).append_column(
        "props", pa.array(['{"k": 69}', '{"k": 5}'])
    )
    assert rule_mask(b, r).tolist() == [True, False]


def test_event_id_gate():
    r = parse_rule('alert any any any -> any any (sid:1; event_id:"4624,4625"; content:"x";)')
    b = batch(["x", "x", "x"]).append_column(
        "event_id", pa.array([4624, 1000, 4625], type=pa.int64())
    )
    assert rule_mask(b, r).tolist() == [True, False, True]


def _fresh_python(code: str) -> str:
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                          capture_output=True, text=True,
                          timeout=300).stdout.strip()


def test_make_matcher_does_not_load_polars():
    """Building the matcher (as the driver and a fresh set-up do) leaves
    polars unloaded; it is imported on the first batch."""
    assert _fresh_python(
        "import sys\n"
        "from sagan_ray.pipelines.flagship import DEFAULT_RULES\n"
        "from sagan_ray.rules import load_rules_file\n"
        "from sagan_ray.stages.match import make_matcher\n"
        "make_matcher(load_rules_file(DEFAULT_RULES))\n"
        "print('polars' in sys.modules)\n") == "False"


def test_fresh_matcher_from_four_threads():
    """Four threads calling a fresh matcher at once, in a process that
    has not imported polars yet, all get the single-threaded result."""
    assert _fresh_python(
        "import sys, threading\n"
        "import numpy as np\n"
        "from sagan_ray.pipelines.flagship import DEFAULT_RULES\n"
        "from sagan_ray.rules import load_rules_file\n"
        "from sagan_ray.stages.match import make_matcher\n"
        "from sagan_ray.synth import make_batch\n"
        "batch = make_batch(np.arange(2000), seed=1)\n"
        "matcher = make_matcher(load_rules_file(DEFAULT_RULES))\n"
        "go, got = threading.Barrier(4), []\n"
        "def run():\n"
        "    go.wait()\n"
        "    got.append(matcher(batch))\n"
        "sys.setswitchinterval(1e-6)\n"
        "ts = [threading.Thread(target=run) for _ in range(4)]\n"
        "[t.start() for t in ts]\n"
        "[t.join(timeout=120) for t in ts]\n"
        "sys.setswitchinterval(0.005)\n"
        "want = matcher(batch)\n"
        "print(len(got), any(t.is_alive() for t in ts), want.num_rows > 0,\n"
        "      all(g.equals(want) for g in got))\n"
    ) == "4 False True True"


# ---------------------------------------------------------------------------
# json_pcre: compiled at load on the pcre engine (the `regex` module)
# ---------------------------------------------------------------------------


def _props_batch(values):
    import json

    return batch([f"r{i}" for i in range(len(values))]).append_column(
        "props", pa.array([json.dumps({"k": v}) for v in values]))


def _json_pcre_mask(pcre, values):
    r = parse_rule(f'alert any any any -> any any (sid:1; json_pcre:".k", {pcre};)')
    return rule_mask(_props_batch(values), r).tolist()


def test_json_pcre():
    values = ["v12", "V7", "x", 5]
    assert _json_pcre_mask(r'"/^v\d+$/"', values) == [True, False, False, False]
    assert _json_pcre_mask(r'!"/^v\d+$/"', values) == [False, True, True, True]
    assert _json_pcre_mask(r'"/^v\d/i"', values) == [True, True, False, False]
    # a number reads as its JSON text
    assert _json_pcre_mask(r'"/^5$/"', values) == [False, False, False, True]


@pytest.mark.parametrize("pcre,want", [
    ('"/^v/"', [False, False, True, False]),
    ('!"/^v/"', [False, False, False, True]),
])
def test_json_pcre_missing_key_or_malformed_fails(pcre, want):
    """A row whose props lack the key or are not JSON fails a json_pcre,
    negated or not, as it fails a json_content."""
    props = ["{}", "not json", '{"k": "v"}', '{"k": "w"}']
    b = batch([f"r{i}" for i in range(4)]).append_column("props", pa.array(props))
    r = parse_rule(f'alert any any any -> any any (sid:1; json_pcre:".k", {pcre};)')
    assert rule_mask(b, r).tolist() == want
    r = parse_rule('alert any any any -> any any (sid:1; json_content:".k", "v";)')
    assert rule_mask(b, r).tolist() == [False, False, True, False]


@pytest.mark.parametrize("extra", [
    "", 'facility:"de";', 'program:"b*";', "alert_time: hours 0000-0100;",
    'pcre:"/foo$/";', 'content:"foo"; offset:0; depth:2;', 'content:!"bar";',
])
def test_index_decided_rule_keeps_its_other_tests(extra):
    """A rule whose literals the index decides takes the index's rows
    only when nothing else is left to test; any other test still runs."""
    texts = ["foo", "foo bar", "x foo", "nothing"]
    b = batch(texts, hosts=["a", "b", "b", "a"], langs=["en", "de", "de", "en"],
              ts=[0, 1, 3_600_000_000 * 5, 2])
    r = parse_rule(f'alert any any any -> any any (sid:1; content:"foo"; {extra})')
    want = [t for t, m in zip(texts, rule_mask(b, r)) if m]
    assert sorted(make_matcher([r])(b)["text"].to_pylist()) == sorted(want)


def test_json_pcre_unicode_property_as_pcre():
    """\\p{Lu} means the same in json_pcre as in pcre (one engine)."""
    values = ["Ax", "ax", "Éx"]
    assert _json_pcre_mask(r'"/\p{Lu}x/"', values) == [True, False, True]
    r = parse_rule(r'alert any any any -> any any (sid:1; pcre:"/\p{Lu}x/";)')
    assert rule_mask(batch(values), r).tolist() == [True, False, True]


def test_json_pcre_malformed_fails_at_load():
    with pytest.raises(ValueError, match="sid 3: bad regex"):
        parse_rule('alert any any any -> any any (sid:3; json_pcre:".a", "/[unclosed/";)')


def test_matcher_compiles_nothing_per_batch(monkeypatch):
    """compile_rule builds every regex the matcher runs: after one warm
    call (first-use imports), building a matcher and matching a batch
    compile nothing, on every regex path."""
    import json
    import re
    import sys

    import regex

    rules, _ = parse_rules("\n".join([
        'alert any any any -> any any (sid:1; pcre:"/ab+c/i";)',  # RE2
        # a backreference: RE2 rejects it, the `regex` pattern runs
        r'alert any any any -> any any (sid:2; pcre:"/(q)\1z/";)',
        r'alert any any any -> any any (sid:3; json_pcre:".k", "/^v\d/";)',
        'alert any any any -> any any (sid:4; program:"web*"; content:"hit";)',
        'alert any [web*] any -> any any (sid:5; content:"hit";)',
        r'alert any any any -> any any (sid:6; content:"user="; '
        r'normalize:"user=(?P<user>\w+)";)',
        'alert any any any -> any any (sid:7; content:"key"; content:"val"; '
        'distance:1;)',
    ]))
    b = batch(["xABBc", "qqz", "hit", "user=bob", "key val", "keyval"],
              hosts=["h", "h", "web1", "h", "h", "h"]).append_column(
        "props", pa.array([json.dumps({"k": v}) for v in
                           ["v1", "x", "x", "x", "x", "x"]]))
    want = make_matcher(rules)(b)
    assert sorted(zip(want["sid"].to_pylist(), want["text"].to_pylist())) == [
        (1, "xABBc"), (2, "qqz"), (3, "xABBc"), (4, "hit"), (5, "hit"),
        (6, "user=bob"), (7, "key val")]
    assert '{"user": "bob"}' in want["extracted"].to_pylist()

    def no_compile(*a, **k):
        raise AssertionError(f"regex compiled while matching: {a!r}")

    # the module-level re.search(...) forms compile through _compile.
    # Patched only around the match: pytest's own reporting runs re.sub.
    with monkeypatch.context() as m:
        for mod, name in ((re, "compile"), (re, "_compile"),
                          (regex, "compile"),
                          (sys.modules[regex.search.__module__], "_compile")):
            m.setattr(mod, name, no_compile)
        got = make_matcher(rules)(b)
    assert got.equals(want)
