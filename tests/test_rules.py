"""Rule-compiler unit tests (pure Python, no Ray)."""

import re

import pytest

from sagan_ray.rules import load_rules_file, parse_rule, parse_rules
from sagan_ray.pipelines.flagship import DEFAULT_RULES
from sagan_ray.stages.match import check_content_chain


def test_parse_basic():
    r = parse_rule(
        'alert any any any -> any any (msg:"hello"; content:"foo"; nocase; '
        'classtype:bad-unknown; sid:42; rev:3;)'
    )
    assert r.sid == 42 and r.rev == 3 and r.msg == "hello"
    assert r.classtype == "bad-unknown" and r.priority == 2
    assert len(r.contents) == 1 and r.contents[0].nocase


def test_parse_negated_and_chain():
    r = parse_rule(
        'alert any any any -> any any (msg:"m"; content:"a"; offset:5; depth:10; '
        'content:!"bad"; content:"b"; distance:2; within:8; sid:1;)'
    )
    a, neg, b = r.contents
    assert a.offset == 5 and a.depth == 10 and not a.relative
    assert neg.negated
    assert b.distance == 2 and b.within == 8 and b.relative


def test_hex_decode():
    r = parse_rule('alert any any any -> any any (content:"a|0A 0D|b"; sid:1;)')
    assert r.contents[0].pattern == "a\n\rb"


def test_pcre_flags_and_negation():
    r = parse_rule('alert any any any -> any any (pcre:"/ab+c/i"; pcre:!"/xyz/"; sid:1;)')
    assert r.pcres[0].flags & re.I and not r.pcres[0].negated
    assert r.pcres[1].negated
    assert r._pcre_compiled[0].search("xABBc")


def test_meta_content_var():
    rules, vt = parse_rules(
        "var WORDS [aa, bb, cc]\n"
        'alert any any any -> any any (meta_content:"x_%sagan%",$WORDS; sid:9;)'
    )
    assert vt["WORDS"] == ["aa", "bb", "cc"]
    assert rules[0].meta_contents[0].literals() == ("x_aa", "x_bb", "x_cc")


def test_threshold_after_xbits():
    r = parse_rule(
        "alert any any any -> any any (sid:5; "
        "threshold: type limit, track by_host, count 2, seconds 3600; "
        "xbits:set,mybit,track by_host,expire 600;)"
    )
    assert r.threshold.ttype == "limit" and r.threshold.count == 2
    assert r.threshold.seconds == 3600
    assert r.xbits[0].name == "mybit" and r.xbits[0].expire == 600

    r2 = parse_rule(
        "alert any any any -> any any (sid:6; after: track by_lang, count 5, seconds 60;)"
    )
    assert r2.after.count == 5 and r2.after.track == "by_lang"


def test_alert_time():
    r = parse_rule(
        'alert any any any -> any any (sid:7; alert_time: days 012345, hours 0800-1800;)'
    )
    assert r.alert_time.days == frozenset(range(6))
    assert (r.alert_time.start_hour, r.alert_time.end_hour) == (8, 18)


def test_program_glob():
    r = parse_rule('alert any any any -> any any (sid:8; program:"web*|api.example.com";)')
    assert r._program_re.match("webserver01")
    assert r._program_re.match("api.example.com")
    assert not r._program_re.match("mail.example.com")


def test_default_rules_file_loads():
    rules = load_rules_file(DEFAULT_RULES)
    assert len(rules) == 12
    sids = {r.sid for r in rules}
    assert sids == set(range(1000001, 1000013))


def test_content_chain_semantics():
    r = parse_rule(
        'alert any any any -> any any (sid:1; content:"key"; offset:0; depth:200; '
        'content:"value"; distance:1; within:120;)'
    )
    assert check_content_chain("key xx value", r.contents)
    # value starts immediately after key (distance 1 => gap required)
    assert not check_content_chain("keyvalue", r.contents)
    assert check_content_chain("key value", r.contents)  # gap of 1 (the space)
    assert not check_content_chain("value key", r.contents)
    # key beyond depth
    assert not check_content_chain((" " * 201) + "key value", r.contents)
    # value beyond within window
    assert not check_content_chain("key" + (" " * 125) + "value", r.contents)


def test_snort_compat_options():
    """Snort-compatible surface: flowbits alias (set/isset + bare
    noalert), informational options (reference/metadata/gid/
    fast_pattern/target) accepted and ignored."""
    rules, _ = parse_rules(
        'alert any any any -> any any (sid:1; msg:"t"; content:"x"; '
        "reference:url,example.com/a; metadata:author foo; fast_pattern; "
        "gid:1; rev:7; flowbits:set,brute.force; classtype:misc-activity;)\n"
        'alert any any any -> any any (sid:2; content:"y"; '
        "flowbits:isset,brute.force; classtype:misc-activity;)\n"
        'alert any any any -> any any (sid:3; content:"z"; '
        "flowbits:noalert; classtype:misc-activity;)"
    )
    assert rules[0].xbits[0].action == "set"
    assert rules[0].xbits[0].name == "brute.force"
    assert rules[1].xbits[0].action == "isset"
    assert rules[2].noalert and not rules[2].xbits


# ---------------------------------------------------------------------------
# load-time errors: a bad option fails in parse_rule, not in a worker
# ---------------------------------------------------------------------------

BAD_GATES = [
    ("threshold: type limit, track by_host, count 1, seconds 0;",
     "sid 7: threshold seconds 0 < 1"),
    ("after: track by_host, count 1, seconds 0;", "sid 7: after seconds 0 < 1"),
    ("threshold: type limit, track by_host, count -1, seconds 60;",
     "sid 7: threshold count -1 < 0"),
    ("after: track by_host, count -2, seconds 60;", "sid 7: after count -2 < 0"),
    ("threshold: type threshold, track by_host, count 0, seconds 60;",
     "sid 7: threshold count 0 < 1"),
    ("threshold: type limt, track by_host, count 1, seconds 60;",
     "sid 7: unknown threshold type 'limt'"),
]

BAD_MODIFIERS = [
    ('nocase; content:"a";', "nocase without content"),
    ('rawbytes; content:"a";', "rawbytes without content"),
    ('content:"a"; xbits:set;', "xbits:set without a name"),
    ('content:"a"; xbits:set,,track by_host;', "without a name"),
    ('content:"a"; xbits:set,b,track;', "xbits option 'track' without a value"),
    ('content:"a"; flowbits:isset,b,expire;', "flowbits option 'expire' without a value"),
]


@pytest.mark.parametrize("opts,msg", BAD_GATES)
def test_gate_values_rejected_at_load(opts, msg):
    """A gate that would divide by zero (seconds 0), keep every row
    (type threshold, count 0) or be read as another type fails at load,
    naming the sid even when it is written after the gate."""
    with pytest.raises(ValueError, match=re.escape(msg)):
        parse_rule(f'alert any any any -> any any (content:"x"; {opts} sid:7;)')


def test_gate_boundary_values_parse():
    for opts in ("threshold: type limit, track by_host, count 0, seconds 1;",
                 "threshold: type suppress, track by_host, count 0, seconds 1;",
                 "threshold: type threshold, track by_host, count 1, seconds 1;",
                 "after: track by_host, count 0, seconds 1;"):
        parse_rule(f'alert any any any -> any any (content:"x"; {opts} sid:7;)')


BAD_PCRE_FLAGS = [
    ('pcre:"/abc/R";', "sid 7: unsupported pcre flag 'R'"),
    ('pcre:"/abc/iU";', "sid 7: unsupported pcre flag 'U'"),
    ('pcre:"/abc/B";', "sid 7: unsupported pcre flag 'B'"),
    ('json_pcre:".a", "/abc/q";', "sid 7: unsupported pcre flag 'q'"),
]


@pytest.mark.parametrize("opts,msg", BAD_PCRE_FLAGS)
def test_pcre_flag_rejected_at_load(opts, msg):
    """A pcre flag outside i/s/m/x fails at load, naming the sid even
    when it is written after the pcre (it was dropped, so /abc/R matched
    abc anywhere)."""
    with pytest.raises(ValueError, match=re.escape(msg)):
        parse_rule(f"alert any any any -> any any ({opts} sid:7;)")
    parse_rule('alert any any any -> any any (pcre:"/abc/ismx"; sid:7;)')


@pytest.mark.parametrize("opts,msg", BAD_MODIFIERS)
def test_modifier_without_target_rejected(opts, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        parse_rule(f"alert any any any -> any any ({opts} sid:8;)")


def test_json_meta_nocase_before_its_matcher():
    """Like meta_nocase, a json_meta_nocase written before its
    json_meta_content modifies that matcher, and only that one."""
    r = parse_rule(
        'alert any any any -> any any (sid:1; json_meta_nocase; '
        'json_meta_content:".a", WARN; json_meta_content:".b", CRIT;)'
    )
    assert [nc for _, _, nc in r.json_metas] == [True, False]


@pytest.mark.parametrize("opts", [
    o for o, _ in BAD_GATES + BAD_MODIFIERS + BAD_PCRE_FLAGS] + [
    'json_pcre:".a", "/[unclosed/";', 'pcre:"/(?P<x/";'])
def test_cli_check_reports_invalid(tmp_path, capsys, opts):
    from sagan_ray.__main__ import main

    f = tmp_path / "f.rules"
    f.write_text(f"alert any any any -> any any ({opts} sid:9;)\n")
    assert main(["check", "--rules", str(f)]) == 1
    assert capsys.readouterr().err.startswith("INVALID: ")
