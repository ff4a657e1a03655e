"""Compiled stage state goes to the workers as one object per Ray
session and rule set (``stages.ship``): the match UDF carries a ref, not
the matcher; two passes build the matcher once; a new Ray session in
the same process ships afresh."""

import shutil

import pyarrow as pa
import ray
import ray.cloudpickle as cloudpickle
import ray.data as rd

from sagan_ray.pipelines.flagship import load_default_rules, run_streaming
from sagan_ray.sources.webpages import webpages_from_documents
from sagan_ray.stages import match
from sagan_ray.synth_rules import synth_ruleset

SF = "/root/testdata/sf0.001"


def _pass(rules, out):
    shutil.rmtree(out, ignore_errors=True)
    return run_streaming(webpages_from_documents(SF), rules, out)


def _match_udf(rules):
    """The UDF ``match_alerts`` hands ``map_batches``."""
    return match.match_alerts(rd.from_items([{"x": 1}]), rules)._logical_plan.dag._fn


def test_two_passes_build_the_matcher_once(ray_session, tmp_path, monkeypatch):
    calls = []
    make = match.make_matcher

    def counted(rules):
        calls.append(len(rules))
        return make(rules)

    monkeypatch.setattr(match, "make_matcher", counted)
    rules = load_default_rules()
    first = _pass(rules, str(tmp_path / "a"))
    second = _pass(list(rules), str(tmp_path / "a"))
    assert first["total"] == second["total"] == 2373
    assert first == second
    assert calls == [len(rules)]


def test_match_udf_carries_a_ref_not_the_matcher(ray_session):
    """At 4 000 rules the matcher pickles to about 2 MB; the UDF that
    every execution pickles stays under 1 KB, and the shipped matcher
    gives what the matcher gives in this process."""
    rules = synth_ruleset(4000)
    udf = _match_udf(rules)
    assert len(cloudpickle.dumps(udf)) < 1024

    t = pa.table({"url": [f"u{i}" for i in range(3)],
                  "warc_ts": pa.array([None] * 3, type=pa.timestamp("us")),
                  "host": ["h"] * 3, "lang": ["en"] * 3,
                  "text": [r.contents[0].pattern if r.contents else "x"
                           for r in rules[:3]]})
    want = match.make_matcher(rules)(t)
    got = pa.concat_tables(ray.get(
        match.match_alerts(rd.from_arrow(t), rules).to_arrow_refs()))
    key = [("url", "ascending"), ("sid", "ascending")]
    assert want.num_rows > 0
    assert got.select(["url", "sid"]).sort_by(key).equals(
        want.select(["url", "sid"]).sort_by(key))


def test_new_session_ships_afresh(ray_session, tmp_path):
    """After ``ray.shutdown()`` and ``ray.init()`` in one process, a pass
    over the same rule objects succeeds and its UDF holds a ref put in
    the new session, not the old one's."""
    rules = load_default_rules()
    assert _pass(rules, str(tmp_path / "a"))["total"] == 2373
    old_ref = _match_udf(rules).args[0]
    ray.shutdown()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    new_ref = _match_udf(rules).args[0]
    assert new_ref is not old_ref
    assert _pass(rules, str(tmp_path / "b"))["total"] == 2373
    assert _match_udf(rules).args[0] is new_ref
