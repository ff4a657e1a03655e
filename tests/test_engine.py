"""Engine-config surface: ignore list, enrichment predicates, extraction
columns, user stages."""

import pyarrow as pa
import pytest

from sagan_ray.engine import EngineConfig, FnStage
from sagan_ray.rules import parse_rule, parse_rules
from sagan_ray.stages.ignore import make_ignore_filter
from sagan_ray.stages.match import make_matcher, rule_mask


def batch(texts, hosts=None, **extra):
    n = len(texts)
    hosts = hosts or ["h"] * n
    cols = {
        "url": pa.array([f"https://{hosts[i]}/p/{i}" for i in range(n)]),
        "warc_ts": pa.array(
            [1_700_000_000_000_000 + i for i in range(n)], type=pa.timestamp("us")
        ),
        "host": pa.array(hosts),
        "lang": pa.array(["en"] * n),
        "text": pa.array(texts),
    }
    cols.update(extra)
    return pa.table(cols)


def test_ignore_filter():
    f = make_ignore_filter(["DEBUG", "heartbeat"])
    out = f(batch(["a DEBUG line", "real event", "HeArTbEaT ping"]))
    assert out["text"].to_pylist() == ["real event"]


def test_country_code_predicate():
    r = parse_rule(
        'alert any any any -> any any (sid:1; content:"x"; '
        "country_code: track by_host, is [RU,CN];)"
    )
    b = batch(["x", "x", "x"], country=pa.array(["RU", "US", "CN"]))
    assert rule_mask(b, r).tolist() == [True, False, True]
    r2 = parse_rule(
        'alert any any any -> any any (sid:2; content:"x"; '
        "country_code: track by_host, isnot [RU,CN];)"
    )
    assert rule_mask(b, r2).tolist() == [False, True, False]


def test_blacklist_predicate():
    r = parse_rule('alert any any any -> any any (sid:1; content:"x"; blacklist;)')
    b = batch(["x", "x"], blacklisted=pa.array([True, False]))
    assert rule_mask(b, r).tolist() == [True, False]


def test_extraction_columns():
    rules, _ = parse_rules(
        'alert any any any -> any any (sid:1; content:"login"; parse_src_ip: 1; '
        'parse_port; parse_hash:"md5"; '
        'normalize:"user (?P<user>\\w+) from";)'
    )
    fn = make_matcher(rules)
    out = fn(
        batch(
            [
                "login user bob from 10.1.2.3:443 md5 "
                + "a" * 32,
                "no match here",
            ]
        )
    )
    assert out.num_rows == 1
    assert out["src_ip"].to_pylist() == ["10.1.2.3"]
    assert out["src_port"].to_pylist() == [443]
    assert out["hash_value"].to_pylist() == ["a" * 32]
    assert out["extracted"].to_pylist() == ['{"user": "bob"}']


def test_engine_config_composition(ray_session, tmp_path):
    import ray.data as rd

    rules_file = tmp_path / "r.rules"
    rules_file.write_text(
        'alert any any any -> any any (msg:"m"; sid:5; content:"evil"; '
        "classtype:bad-unknown;)\n"
    )
    ds = rd.from_arrow(
        batch(["evil deed", "IGNOREME evil", "benign", "evil again"])
    )
    seen = []
    cfg = EngineConfig(
        rules_files=[str(rules_file)],
        ignore_patterns=["IGNOREME"],
        post_stages=[FnStage("tap", lambda d: (seen.append(1), d)[1])],
    )
    manifest = cfg.run(ds, str(tmp_path / "out"))
    assert manifest["sinks"] == {"bad-unknown": 2}
    assert seen == [1]


def test_engine_from_yaml(ray_session, tmp_path):
    import ray.data as rd

    rules_file = tmp_path / "r.rules"
    rules_file.write_text(
        "var BADW [evil, wicked]\n"
        'alert any any any -> any any (msg:"m"; sid:9; '
        'meta_content:"%sagan%",$BADW; classtype:bad-unknown;)\n'
    )
    cfg_file = tmp_path / "engine.yaml"
    cfg_file.write_text(
        f"rules:\n  - {rules_file}\nignore:\n  - SKIPME\nwrite_eve: false\n"
    )
    from sagan_ray.engine import EngineConfig

    cfg = EngineConfig.from_yaml(str(cfg_file))
    ds = rd.from_arrow(batch(["evil x", "wicked y", "SKIPME evil", "fine"]))
    manifest = cfg.run(ds, str(tmp_path / "out"))
    assert manifest["sinks"] == {"bad-unknown": 2}


def _routed(out_dir, cols):
    from sagan_ray.stages.route import read_sink

    t = read_sink(str(out_dir / "sinks"))
    return sorted(t.select(cols).to_pylist(), key=lambda r: r["url"])


def test_engine_enrichment_placement(ray_session, tmp_path):
    """EngineConfig.run enriches BEFORE matching when a rule gates on an
    enrichment column (the country gate needs `country` to exist), and
    over the gated alert stream otherwise (the columns still arrive on
    every routed row)."""
    import ray.data as rd

    hosts = ["a.com", "b.com", "a.com", "c.com"]
    texts = ["evil one", "evil needle", "evil needle two", "evil three"]
    lookups = dict(geo={"a.com": "US", "b.com": "DE", "c.com": "FR"},
                   blacklist={"b.com"}, intel=["needle"])

    geo_rules = tmp_path / "geo.rules"
    geo_rules.write_text(
        'alert any any any -> any any (msg:"m"; sid:1; content:"evil"; '
        "country_code: track by_host, is [US]; classtype:bad-unknown;)\n"
    )
    cfg = EngineConfig(rules_files=[str(geo_rules)], enrich=True, **lookups)
    manifest = cfg.run(rd.from_arrow(batch(texts, hosts=hosts)),
                       str(tmp_path / "pre"))
    assert manifest["total"] == 2
    assert _routed(tmp_path / "pre", ["url", "country", "intel_hit"]) == [
        {"url": "https://a.com/p/0", "country": "US", "intel_hit": False},
        {"url": "https://a.com/p/2", "country": "US", "intel_hit": True},
    ]

    plain_rules = tmp_path / "plain.rules"
    plain_rules.write_text(
        'alert any any any -> any any (msg:"m"; sid:2; content:"evil"; '
        "classtype:bad-unknown;)\n"
    )
    cfg = EngineConfig(rules_files=[str(plain_rules)], enrich=True, **lookups)
    cfg.run(rd.from_arrow(batch(texts, hosts=hosts)), str(tmp_path / "post"))
    assert _routed(tmp_path / "post",
                   ["url", "country", "blacklisted", "intel_hit"]) == [
        {"url": "https://a.com/p/0", "country": "US",
         "blacklisted": False, "intel_hit": False},
        {"url": "https://a.com/p/2", "country": "US",
         "blacklisted": False, "intel_hit": True},
        {"url": "https://b.com/p/1", "country": "DE",
         "blacklisted": True, "intel_hit": True},
        {"url": "https://c.com/p/3", "country": "FR",
         "blacklisted": False, "intel_hit": False},
    ]


def test_preprune_bounds_hot_key():
    """Skew guard: a host with 50k rows in ONE bucket ships at most C
    rows per input batch into the shuffle (not 50k)."""
    import numpy as np
    import pyarrow as pa

    from sagan_ray.rules import parse_rule
    from sagan_ray.stages.correlate import correlation_plan

    rule = parse_rule(
        'alert any any any -> any any (sid:1; content:"x"; '
        "threshold: type limit, track by_host, count 2, seconds 3600;)"
    )
    n = 50_000
    batch = pa.table(
        {
            "sid": pa.array(np.full(n, 1), pa.int64()),
            "host": pa.repeat(pa.scalar("hot.example.com"), n),
            "url": [f"u{i}" for i in range(n)],
            # 1 ms apart: all 50k in the first hour's bucket
            "warc_ts": pa.array(np.arange(n) * 1_000, pa.timestamp("us")),
        }
    )
    out = correlation_plan([rule]).tag(batch)
    assert out.num_rows == 2  # C, not 50k
    assert sorted(out["url"].to_pylist()) == ["u0", "u1"]  # the earliest two


def test_pass_rule_suppresses():
    """Snort/Sagan pass action: matching rows are exempt from alerting."""
    from sagan_ray.rules import parse_rules
    from sagan_ray.stages.match import make_matcher

    rules, _ = parse_rules(
        'pass any any any -> any any (sid:100; content:"allowlisted";)\n'
        'alert any any any -> any any (msg:"m"; sid:101; content:"evil"; '
        "classtype:bad-unknown;)"
    )
    fn = make_matcher(rules)
    out = fn(batch(["evil thing", "allowlisted evil thing", "benign"]))
    assert out.num_rows == 1
    assert "allowlisted" not in out["text"].to_pylist()[0]


def test_fifo_parse_unit():
    import pyarrow as pa

    from sagan_ray.sources.readers import parse_fifo_batch

    b = pa.table({"text": pa.array([
        "h1|daemon|info|sshd|Failed password for root",
        "malformed line",
        "h2|auth|err|su|session opened",
    ])})
    out = parse_fifo_batch(b)
    assert out.num_rows == 2
    assert out["host"].to_pylist() == ["h1", "h2"]
    assert out["message"].to_pylist() == [
        "Failed password for root", "session opened",
    ]


def test_cli_check(tmp_path):
    import subprocess
    import sys

    good = tmp_path / "g.rules"
    good.write_text('alert any any any -> any any (content:"x"; sid:1;)\n')
    r = subprocess.run(
        [sys.executable, "-m", "sagan_ray", "check", "--rules", str(good)],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0 and '"ok": true' in r.stdout
    bad = tmp_path / "b.rules"
    bad.write_text('alert any any any -> any any (wat:"x"; sid:1;)\n')
    r = subprocess.run(
        [sys.executable, "-m", "sagan_ray", "check", "--rules", str(bad)],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 1 and "INVALID" in r.stderr


def test_from_yaml_rejects_unknown_keys(tmp_path):
    """A misspelled or retired key (enrich_concurrency) is an error that
    names the key, and `check --config` reports it as INVALID."""
    from sagan_ray.__main__ import main

    cfg_file = tmp_path / "engine.yaml"
    cfg_file.write_text("enrich: true\nenrich_concurrency: 8\nignroe:\n  - x\n")
    with pytest.raises(ValueError, match=r"\['enrich_concurrency', 'ignroe'\]"):
        EngineConfig.from_yaml(str(cfg_file))
    assert main(["check", "--config", str(cfg_file)]) == 1


@pytest.mark.parametrize("mode", [[], ["--follow"]])
def test_cli_run_refuses_streaming_only_config(tmp_path, capsys, mode):
    """Without --streaming the run uses only the config's rules, so a
    config that sets anything else is refused (exit 2) rather than
    silently half-applied."""
    from sagan_ray.__main__ import main

    (tmp_path / "bl.txt").write_text("bad.com\n")
    cfg_file = tmp_path / "engine.yaml"
    cfg_file.write_text(
        "ignore:\n  - SKIPME\nenrich: true\nblacklist_file: bl.txt\n"
        "write_eve: true\n"
    )
    rc = main(["run", "--input", str(tmp_path / "*.parquet"),
               "--out", str(tmp_path / "out"), "--config", str(cfg_file),
               *mode])
    assert rc == 2
    err = capsys.readouterr().err
    assert "['ignore', 'enrich', 'blacklist_file', 'write_eve']" in err
    assert not (tmp_path / "out").exists()
