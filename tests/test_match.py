"""Matcher-stage unit tests over in-memory Arrow batches."""

import numpy as np
import pyarrow as pa

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
