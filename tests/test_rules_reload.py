"""Dynamic rule reload in the daemon (the upstream SIGHUP analogue):
editing a .rules file between waves applies to the NEXT wave only —
completed partitions keep their alerts (lineage skip), new files match
with the new set, and a broken edit keeps the old set alive."""
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq


def _docs(ids_texts):
    return pa.table({
        "doc_id": pa.array([i for i, _ in ids_texts], type=pa.int64()),
        "text": pa.array([t for _, t in ids_texts], type=pa.string()),
        "lang": pa.array(["en"] * len(ids_texts)),
        "source": pa.array(["h01"] * len(ids_texts)),
        "n_chars": pa.array([len(t) for _, t in ids_texts],
                            type=pa.int64()),
    })


_R1 = ('alert any any any -> any any (msg:"spark v1"; content:"spark"; '
       "classtype:misc-activity; sid:9100001; rev:1;)\n")
_R2 = _R1 + (
    'alert any any any -> any any (msg:"table v2"; content:"table"; '
    "classtype:policy-violation; sid:9100002; rev:1;)\n")


def test_follow_directory_reloads_rules(ray_session, tmp_path):
    from sagan_ray.pipelines.flagship import follow_directory

    rules_file = tmp_path / "live.rules"
    rules_file.write_text(_R1)
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # wave1: one spark doc AND one table doc — under v1 only spark fires
    pq.write_table(_docs([(1, "spark engine notes"),
                          (2, "a table of contents")]),
                   str(inp / "wave1.parquet"))

    def choreograph(it, _manifest):
        if it == 1:
            # SIGHUP analogue: extend the live rule set + land new data
            rules_file.write_text(_R2)
            os.utime(rules_file)  # ensure a fresh mtime on fast FS
            pq.write_table(_docs([(3, "another table mention")]),
                           str(inp / "wave2.parquet"))

    m = follow_directory(str(inp), run_dir, rules=None, poll_s=0.05,
                         max_iterations=2,
                         rules_paths=[str(rules_file)],
                         on_wave=choreograph)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table().to_pandas()
    routed["doc"] = routed["url"].str.rsplit("/", n=1).str[-1].astype(int)
    by_sid = routed.groupby("sid")["doc"].apply(
        lambda s: sorted(s.tolist())).to_dict()
    # wave1 matched under v1: spark only — doc 2's 'table' did NOT fire
    # (its partition completed before the reload; upstream semantics)
    assert by_sid.get(9100001) == [1]
    # wave2 matched under v2: the new sid fired on the NEW file only
    assert by_sid.get(9100002) == [3]
    assert m["total"] == 2


def test_reload_failure_keeps_old_rules(ray_session, tmp_path):
    from sagan_ray.pipelines.flagship import follow_directory

    rules_file = tmp_path / "live.rules"
    rules_file.write_text(_R1)
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    pq.write_table(_docs([(1, "spark one")]), str(inp / "w1.parquet"))

    def choreograph(it, _manifest):
        if it == 1:
            rules_file.write_text("this is : not ; a rule (")
            os.utime(rules_file)
            pq.write_table(_docs([(2, "spark two")]),
                           str(inp / "w2.parquet"))

    m = follow_directory(str(inp), run_dir, rules=None, poll_s=0.05,
                         max_iterations=2,
                         rules_paths=[str(rules_file)],
                         on_wave=choreograph)
    # the broken edit was ignored: wave2 still matched with the OLD set
    assert m["total"] == 2


_META = ('alert any any any -> any any (msg:"new source seen"; '
         'content:"deploy"; classtype:misc-activity; sid:9200001; rev:1; '
         "dynamic_load:{path};)\n")
_EXTRA = ('alert any any any -> any any (msg:"dyn table"; content:"table"; '
          "classtype:policy-violation; sid:9200002; rev:1;)\n")


def test_dynamic_load_fires_at_wave_end(ray_session, tmp_path):
    """Upstream dynamic-rules.c at-detection semantics, quantized to
    wave boundaries: the meta rule fires in wave 1, its rules file
    loads at wave end, and the loaded sid matches from wave 2 on."""
    from sagan_ray.pipelines.flagship import follow_directory
    from sagan_ray.rules import parse_rules

    extra = tmp_path / "extra.rules"
    extra.write_text(_EXTRA)
    rules, _ = parse_rules(_R1 + _META.format(path=extra))
    assert any(r.dynamic_load == str(extra) for r in rules)

    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # wave1: the meta trigger fires; 'table' has NO rule yet
    pq.write_table(_docs([(1, "deploy of spark"),
                          (2, "a table of contents")]),
                   str(inp / "wave1.parquet"))

    def choreograph(it, _manifest):
        if it == 1:
            pq.write_table(_docs([(3, "another table mention")]),
                           str(inp / "wave2.parquet"))

    m = follow_directory(str(inp), run_dir, rules=rules, poll_s=0.05,
                         max_iterations=2, on_wave=choreograph)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table().to_pandas()
    routed["doc"] = routed["url"].str.rsplit("/", n=1).str[-1].astype(int)
    by_sid = routed.groupby("sid")["doc"].apply(
        lambda s: sorted(s.tolist())).to_dict()
    # wave1: meta (9200001 on doc 1) + base spark rule (doc 1) fired;
    # doc 2's 'table' did not (rule not yet loaded, partition completed)
    assert by_sid.get(9200001) == [1]
    # wave2: the dynamically-loaded sid fired on the NEW file only
    assert by_sid.get(9200002) == [3]
    assert m["total"] == 3  # spark(1), meta(1), dyn-table(3)


def test_dynamic_load_not_triggered_without_detection(ray_session,
                                                      tmp_path):
    from sagan_ray.pipelines.flagship import follow_directory
    from sagan_ray.rules import parse_rules

    extra = tmp_path / "extra.rules"
    extra.write_text(_EXTRA)
    rules, _ = parse_rules(_R1 + _META.format(path=extra))
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # no 'deploy' anywhere: the meta rule never fires
    pq.write_table(_docs([(1, "spark only"), (2, "a table here")]),
                   str(inp / "w1.parquet"))

    def choreograph(it, _m):
        if it == 1:
            pq.write_table(_docs([(3, "table again")]),
                           str(inp / "w2.parquet"))

    m = follow_directory(str(inp), run_dir, rules=rules, poll_s=0.05,
                         max_iterations=2, on_wave=choreograph)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table().to_pandas()
    # 9200002 never loaded -> 'table' docs never matched
    assert 9200002 not in set(routed["sid"])
    assert m["total"] == 1  # spark doc 1 only


def test_dynamic_load_parse_error_skipped_once(ray_session, tmp_path):
    from sagan_ray.pipelines.flagship import follow_directory
    from sagan_ray.rules import parse_rules

    extra = tmp_path / "broken.rules"
    extra.write_text("this is : not ; a rule (")
    rules, _ = parse_rules(_R1 + _META.format(path=extra))
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    pq.write_table(_docs([(1, "deploy spark")]), str(inp / "w1.parquet"))

    def choreograph(it, _m):
        if it == 1:
            pq.write_table(_docs([(2, "spark two")]),
                           str(inp / "w2.parquet"))

    # broken dynamic file: logged + skipped, daemon keeps serving
    m = follow_directory(str(inp), run_dir, rules=rules, poll_s=0.05,
                         max_iterations=2, on_wave=choreograph)
    assert m["total"] == 3  # spark(1,2) + meta(1); no crash


def test_dynamic_load_survives_empty_checkpoint(ray_session, tmp_path):
    """Review finding (r5): a wave where NOTHING fires leaves only
    empty part_id dirs under ckpt — the sid probe must not crash the
    daemon (pads.dataset then has no 'sid' field to filter on)."""
    from sagan_ray.pipelines.flagship import follow_directory
    from sagan_ray.rules import parse_rules

    extra = tmp_path / "extra.rules"
    extra.write_text(_EXTRA)
    rules, _ = parse_rules(_META.format(path=extra))  # dynamic rule ONLY
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # nothing matches anything: ckpt holds only empty partition dirs
    pq.write_table(_docs([(1, "no trigger here")]),
                   str(inp / "w1.parquet"))
    m = follow_directory(str(inp), run_dir, rules=rules, poll_s=0.05,
                         max_iterations=2)
    assert m["total"] == 0  # and no ArrowInvalid from the sid probe


def test_mtime_reload_keeps_dynamic_rules(ray_session, tmp_path):
    """Review finding (r5): editing the BASE rules file after a
    dynamic_load fired must NOT discard the dynamically-loaded rules —
    the reload re-applies every triggered dynamic file on top."""
    from sagan_ray.pipelines.flagship import follow_directory

    extra = tmp_path / "extra.rules"
    extra.write_text(_EXTRA)
    base = tmp_path / "live.rules"
    base.write_text(_R1 + _META.format(path=extra))
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # wave1 fires the meta rule -> extra.rules loads at wave end
    pq.write_table(_docs([(1, "deploy of spark")]),
                   str(inp / "w1.parquet"))

    def choreograph(it, _m):
        if it == 1:
            # touch the BASE file (unrelated edit) -> mtime reload
            base.write_text(_R1 + _META.format(path=extra) + "\n# edit\n")
            os.utime(base)
            pq.write_table(_docs([(2, "another table mention")]),
                           str(inp / "w2.parquet"))

    follow_directory(str(inp), run_dir, rules=None, poll_s=0.05,
                     max_iterations=2, rules_paths=[str(base)],
                     on_wave=choreograph)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table().to_pandas()
    # the dynamically-loaded sid still matched AFTER the base reload
    assert 9200002 in set(routed["sid"])


def test_dynamic_load_reapplied_after_restart(ray_session, tmp_path):
    """Review finding (r5): a daemon restarted into an existing run_dir
    must re-apply dynamic files whose triggers fired in PREVIOUS runs
    BEFORE the first wave — otherwise that wave checkpoints its
    partitions with base rules only, permanently."""
    from sagan_ray.pipelines.flagship import follow_directory
    from sagan_ray.rules import parse_rules

    extra = tmp_path / "extra.rules"
    extra.write_text(_EXTRA)
    rules, _ = parse_rules(_R1 + _META.format(path=extra))
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    # first daemon run: meta fires in wave 1
    pq.write_table(_docs([(1, "deploy of spark")]),
                   str(inp / "w1.parquet"))
    follow_directory(str(inp), run_dir, rules=rules, poll_s=0.05,
                     max_iterations=1)
    # RESTART (fresh rule objects, dyn_loaded empty) with a new file
    # landing in the FIRST post-restart wave
    pq.write_table(_docs([(2, "a table of contents")]),
                   str(inp / "w2.parquet"))
    rules2, _ = parse_rules(_R1 + _META.format(path=extra))
    follow_directory(str(inp), run_dir, rules=rules2, poll_s=0.05,
                     max_iterations=1)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table().to_pandas()
    # the dynamically-loaded sid matched the first post-restart wave
    assert 9200002 in set(routed["sid"])


def test_dynamic_load_relative_path_resolves_to_rules_file(tmp_path):
    """A relative dynamic_load: resolves against the declaring rules
    file, not the process cwd."""
    from sagan_ray.rules import load_rules_file

    sub = tmp_path / "rulesdir"
    sub.mkdir()
    (sub / "base.rules").write_text(_META.format(path="extra.rules"))
    (sub / "extra.rules").write_text(_EXTRA)
    rules = load_rules_file(str(sub / "base.rules"))
    dyn = [r for r in rules if r.dynamic_load][0]
    assert dyn.dynamic_load == str(sub / "extra.rules")


def _limit_rule(count: int, msg: str = "hash flood") -> str:
    return (f'alert any any any -> any any (msg:"{msg}"; content:"hash"; '
            "classtype:suspicious-traffic; sid:9300001; rev:1; "
            f"threshold: type limit, track by_host, count {count}, "
            "seconds 3600;)\n")


_PLAIN = ('alert any any any -> any any (msg:"spark"; content:"spark"; '
          "classtype:misc-activity; sid:9300002; rev:1;)\n")


def _reload_waves(tmp_path, monkeypatch, edits):
    """follow_directory over one landed file holding three ``hash`` hits
    by one host within one hour, with ``edits[it]`` (rules text, and
    whether an unrelated file lands) applied after wave ``it``. Returns
    the per-wave totals and how often stage B routed in each wave."""
    from sagan_ray.pipelines import flagship

    routes: list[int] = []
    real_route = flagship.route_alerts

    def counting_route(*a, **kw):
        routes[-1] += 1
        return real_route(*a, **kw)

    monkeypatch.setattr(flagship, "route_alerts", counting_route)
    rules_file = tmp_path / "live.rules"
    rules_file.write_text(edits[0][0])
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(_docs([(1, "hash one"), (2, "hash two"),
                          (3, "hash three")]), str(inp / "w1.parquet"))
    totals: list[int] = []
    routes.append(0)

    def choreograph(it, manifest):
        totals.append(manifest["total"])
        routes.append(0)
        if it in edits:
            text, land = edits[it]
            rules_file.write_text(text)
            os.utime(rules_file, ns=(it * 10**9, it * 10**9))
            if land:
                pq.write_table(_docs([(100 + it, "nothing to see")]),
                               str(inp / f"w{it + 1}.parquet"))

    flagship.follow_directory(str(inp), str(tmp_path / "run"), rules=None,
                              poll_s=0, max_iterations=len(edits),
                              rules_paths=[str(rules_file)],
                              on_wave=choreograph)
    return totals, routes[:-1]


def test_reload_without_new_file_regates(ray_session, tmp_path, monkeypatch):
    """A reload from `limit, count 1` to `count 2` with no new file
    re-gates the checkpoint in that wave: totals [1, 2, 2], not
    [1, 1, 2] (the old skip waited for an unrelated file to land)."""
    totals, routes = _reload_waves(tmp_path, monkeypatch, {
        0: (_limit_rule(1), False),
        1: (_limit_rule(2), False),
        2: (_limit_rule(2), True),
    })
    assert totals == [1, 2, 2]
    assert routes == [1, 1, 1]


def test_reload_deleting_threshold_rule_regates(ray_session, tmp_path,
                                                monkeypatch):
    """Deleting the threshold rule re-gates: its checkpointed alerts
    no longer have a limit, so all three route."""
    totals, routes = _reload_waves(tmp_path, monkeypatch, {
        0: (_limit_rule(1) + _PLAIN, False),
        1: (_PLAIN, False),
    })
    assert totals == [1, 3]
    assert routes == [1, 1]


def test_msg_only_reload_does_not_regate(ray_session, tmp_path, monkeypatch):
    """A reload that changes only a msg leaves the rules fingerprint,
    so stage B is skipped and the previous manifest stands."""
    from sagan_ray.pipelines.flagship import rules_fingerprint
    from sagan_ray.rules import parse_rules

    def fp(text):
        return rules_fingerprint(parse_rules(text)[0])

    assert fp(_limit_rule(1)) == fp(_limit_rule(1, msg="renamed"))
    assert fp(_limit_rule(1)) != fp(_limit_rule(2))
    totals, routes = _reload_waves(tmp_path, monkeypatch, {
        0: (_limit_rule(1), False),
        1: (_limit_rule(1, msg="renamed"), False),
    })
    assert totals == [1, 1]
    assert routes == [1, 0]


def test_msg_only_reload_routes_the_new_msg(ray_session, tmp_path):
    """A reload that changes only a rule's msg matches the next wave's
    file under the new msg: the shipped matcher is keyed on the loaded
    rules, not on the gate's rules fingerprint (which ignores msg)."""
    from sagan_ray.pipelines.flagship import follow_directory

    rules_file = tmp_path / "live.rules"
    rules_file.write_text(_R1)
    inp = tmp_path / "in"
    inp.mkdir()
    run_dir = str(tmp_path / "run")
    pq.write_table(_docs([(1, "spark one")]), str(inp / "w1.parquet"))

    def choreograph(it, _manifest):
        if it == 1:
            rules_file.write_text(_R1.replace("spark v1", "spark renamed"))
            os.utime(rules_file)
            pq.write_table(_docs([(2, "spark two")]), str(inp / "w2.parquet"))

    m = follow_directory(str(inp), run_dir, rules=None, poll_s=0.05,
                         max_iterations=2, rules_paths=[str(rules_file)],
                         on_wave=choreograph)
    routed = pads.dataset(os.path.join(run_dir, "sinks"),
                          partitioning="hive").to_table()
    by_doc = {u.rsplit("/", 1)[-1]: msg for u, msg in
              zip(routed["url"].to_pylist(), routed["msg"].to_pylist())}
    assert by_doc == {"1": "spark v1", "2": "spark renamed"}
    assert m["total"] == 2
