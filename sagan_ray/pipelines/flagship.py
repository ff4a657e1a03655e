"""The flagship parse → match → enrich → correlate → route pipeline.

Ray-Data restatement of the reference daemon's steady-state path
(upstream ``src/sagan.c`` main loop → ``src/processor.c`` worker batches
→ ``src/processors/engine.c`` predicate sequence → ``src/output.c``
fan-out; see SURVEY.md §3.1):

    read_parquet_clean: read tasks planned from footers, sized to the
        host: min(files, max(CPUs, footer bytes / block size))
      → map_batches(parse) → [map_batches(enrich): rule gates on it]
      → map_batches(match, rules) → materialize (the alert stream)
          read through match: one fused task per read task
      → gate (threshold/after + xbits), one plan list correlate.gate_plans:
          [fused], or [correlation, xbits] when a rule mixes the families
          size ≤ target_max_block_size:
            map_batches(every plan, batch_size=stream rows): one task
          larger, per plan: tagged groupby(gb).map_groups(gate) ∪ bypass rows
      → [map_batches(enrich): otherwise]
      → write_parquet(partition_cols=[classification]) → manifest.json

The gate's plan is chosen by :func:`gate_alerts` from the stream's size
against Ray's own block-size target, so no setting selects it. The
daemon's stage B reads that size and the row count off the checkpoint's
footers, so a wave is 2 executions (the checkpoint write, then read +
gate + route), and it switches to the exchange by itself once its
lifetime checkpoint grows past one block.

Stage order and enrichment placement are decided in one function,
:func:`_compose_alerts`, used by :func:`alerts_pipeline` and by
``EngineConfig.build_alerts``. Enrichment is one task-mode
``map_batches`` stage: each worker process builds its lookup
structures, and opens the mmdb reader when one is configured, once.

The matcher, the gate plans and the lookup tables are built on the
driver once per Ray session and rule set (tables: per content) and
reach the workers as one object each (``stages/ship.py``); every UDF
holds only that object's ref.

Two-stage checkpointed variant (:func:`run_flagship`): stage A
(parse+match — the expensive scan) checkpoints alerts per input-file
partition with lineage records; stage B (correlate+route — orders of
magnitude smaller) re-runs from checkpoints. A killed run resumes by
replaying only partitions without a lineage record.
"""

from __future__ import annotations

import os

import pyarrow as pa_mod
import pyarrow.parquet as pq

from ..rules import Rule, load_rules_file
from ..sources.webpages import derive_batch
from ..stages import correlate
from ..stages.enrich import default_lookups, enrich_stage
from ..stages.ignore import ignore_stage
from ..stages.match import match_alerts
from ..stages.route import route_alerts, sink_manifest
from ..state import lineage


DEFAULT_RULES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests",
    "fixtures",
    "rules",
    "web.rules",
)


def load_default_rules() -> list[Rule]:
    return load_rules_file(DEFAULT_RULES)


def rules_need_enrichment(rules: list[Rule]) -> bool:
    """True when some rule GATES on an enrichment column (country_code /
    blacklist) — detectable at compile time, decides enrich placement."""
    return any(r.country_code is not None or r.blacklist is not None for r in rules)


def alerts_pipeline(webpages_ds, rules: list[Rule], enrich: bool = False):
    """webpages Dataset -> routed-ready alerts Dataset, enriched from the
    fixture lookup tables when ``enrich``.

    The alert stream is MATERIALIZED after the match stage: correlation
    and xbits each branch the stream (plain / correlated / state rows),
    and without pinning, every branch would re-execute the expensive
    parse+match scan. Alerts are orders of magnitude smaller than the
    input (the reduced set), so pinning them in the object store is the
    intended pattern; at sizes where even alerts don't fit, use
    ``run_flagship`` which checkpoints them to parquet instead."""
    return _compose_alerts(webpages_ds, rules,
                           lookups=default_lookups() if enrich else None)


def _compose_alerts(ds, rules: list[Rule], lookups=None,
                    ignore_patterns=(), pre_stages=(), post_stages=()):
    """The one place that decides stage order and enrichment placement:
    ignore → [enrich] → pre_stages → match → gate → [enrich] → post_stages.

    ``lookups`` is the ``(geo, blacklist, intel)`` triple, or None for no
    enrichment; the stages are ``Dataset -> Dataset`` callables. When a
    rule GATES on an enrichment column, enrichment must run over the
    full input pre-match; otherwise the columns are only decoration for
    the routed records, so it runs over the (orders-of-magnitude
    smaller) gated alert stream.

    ``enrich_stage``, ``match_alerts`` and ``gate_alerts`` are looked up
    as this module's globals at call time, so a tracer that patches them
    here sees every layer."""
    if ignore_patterns:
        ds = ignore_stage(ds, ignore_patterns)
    pre_enrich = lookups is not None and rules_need_enrichment(rules)
    if pre_enrich:
        ds = enrich_stage(ds, *lookups)
    for stage in pre_stages:
        ds = stage(ds)
    alerts = gate_alerts(match_alerts(ds, rules), rules)
    if lookups is not None and not pre_enrich:
        alerts = enrich_stage(alerts, *lookups)
    for stage in post_stages:
        alerts = stage(alerts)
    return alerts


def gate_alerts(alerts, rules: list[Rule]):
    """Apply correlation + xbits, with the plan chosen by the size of the
    alert stream.

    A stream at or under the ``target_max_block_size`` of the
    ``DataContext`` it runs under (Ray's own block-size target; ``None``
    means unbounded) is gated in ONE task
    (``correlate.gate_in_one_task``): the whole stream is one batch, so
    every logical group is already whole and no exchange is needed.

    A larger stream takes the tagged hash exchange
    (``correlate.apply_correlation_fused``), once per plan of
    ``correlate.gate_plans``: the fused single-shuffle plan when no rule
    mixes threshold/after with xbits, else correlation, then xbits.

    The size and row count are taken before ``noalert`` rows are dropped
    (an upper bound of what is gated, so the one-task rule stays safe),
    from Ray's plan when it carries them: a footer-planned checkpoint
    read is gated inside the execution that routes it. Only a stream
    of unknown size (the streaming match output) is materialized first,
    which also pins it against the gate's branches re-running the match."""
    needs_branching = any(r.threshold or r.after or r.xbits for r in rules)
    if not needs_branching:
        return _drop_noalert(alerts, rules)
    if not _size_known(alerts):
        alerts = alerts.materialize()
    size, rows = alerts.size_bytes(), alerts.count()
    alerts = _drop_noalert(alerts, rules)
    block_bytes = alerts.context.target_max_block_size
    if block_bytes is None or size <= block_bytes:
        return correlate.gate_in_one_task(alerts, rules, rows)
    # looked up in the module at call time, so a tracer that patches
    # correlate.apply_correlation_fused sees the exchange
    return correlate.apply_correlation_fused(alerts, rules)


def _size_known(ds) -> bool:
    """True when Ray's logical plan already carries ``ds``'s byte size
    and row count (a footer-planned read, a materialized Dataset), so
    ``size_bytes()`` and ``count()`` run nothing. Ray reads a known size
    from ``infer_metadata()`` of the plan's last operator and otherwise
    executes the whole plan, but has no public predicate for which case
    applies; this reads the same internal metadata.
    ``tests/test_read_parquet.py::test_footer_read_sizes_without_executing``
    fails if a Ray upgrade moves it."""
    meta = ds._logical_plan.dag.infer_metadata()
    return meta.size_bytes is not None and meta.num_rows is not None


def _drop_noalert(alerts, rules: list[Rule]):
    """`noalert` rules never route, with or without xbits. Xbits
    set-rules keep their rows here: the correlation stage consumes them
    as state events and excludes them from routing itself."""
    drop = [r.sid for r in rules if r.noalert and not r.xbits]
    if not drop:
        return alerts
    import pyarrow as pa
    import pyarrow.compute as pc

    sids = pa.array(drop, type=pa.int64())

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.invert(pc.is_in(t["sid"], value_set=sids).combine_chunks())
        )

    return alerts.map_batches(flt, batch_format="pyarrow")


def rules_fingerprint(rules: list[Rule]) -> str:
    """sha256 over what stage B reads of a rule set: each rule's sid,
    gate options (threshold, after, xbits), ``noalert`` and classtype.
    A reload that changes one of them re-gates the checkpoint; one that
    changes only a ``msg`` does not."""
    import hashlib
    import json as _json

    key = sorted((r.sid, r.classtype, r.noalert, repr(r.threshold),
                  repr(r.after), repr(r.xbits)) for r in rules)
    return hashlib.sha256(_json.dumps(key).encode()).hexdigest()


CHUNK_FILES = 64  # input files per stage-A Dataset run (see run_flagship)


def run_flagship(
    input_files: list[str],
    run_dir: str,
    rules: list[Rule] | None = None,
    derive_from_documents: bool = True,
    fail_after_partitions: int | None = None,
    pre_stage=None,
) -> dict:
    """Checkpointed end-to-end run over parquet input files.

    ``pre_stage`` (Dataset -> Dataset, optional) runs after parse and
    before matching — the hook for map-only admission stages in daemon
    mode, e.g. ``state.seen.incremental_dedup`` with a set of shard
    actors that persist across ``follow_directory`` iterations (content
    arriving twice in later files is dropped before it can re-alert).
    Caveat: a STATEFUL pre_stage interacts with crash-resume — a chunk
    that died after feeding the seen-set but before checkpointing will
    drop its rows as dups on replay; restart the shard actors together
    with a fresh run_dir (or use an idempotent pre_stage) when resuming.

    Stage A streams CHUNKS of up to ``CHUNK_FILES`` unfinished input
    files through one Dataset run each (files within a chunk process in
    parallel; per-row ``part_id`` tags keep the checkpoint layout
    partition-addressed), recording lineage after each chunk. Chunking
    bounds replay-on-failure to one chunk while keeping the driver loop
    short — at 10^12 rows the loop is #files/64 iterations, not #files.

    Stage B (gate + route over every checkpointed alert) is skipped,
    returning the last manifest, only when both its ``lineage_hash`` and
    its ``rules_fingerprint`` (:func:`rules_fingerprint`) are unchanged:
    a rule reload re-gates even when no new file landed.

    ``fail_after_partitions`` is test-only fault injection: raise after
    checkpointing that many partitions (the resume test kills at ~50%).
    Returns the sink manifest.
    """
    import ray.data as rd

    rules = rules or load_default_rules()
    os.makedirs(run_dir, exist_ok=True)

    all_pids = [lineage.partition_id(f) for f in sorted(input_files)]
    assert len(set(all_pids)) == len(all_pids), "partition_id collision"
    done = lineage.completed_partitions(run_dir)
    todo = [(lineage.partition_id(f), f) for f in sorted(input_files)
            if lineage.partition_id(f) not in done]
    chunk_files = (CHUNK_FILES if fail_after_partitions is None
                   else min(CHUNK_FILES, fail_after_partitions))

    # ---- stage A: parse + match, chunked + checkpointed per partition ----
    ckpt_base = os.path.join(run_dir, "ckpt")
    n_done = 0
    for c0 in range(0, len(todo), chunk_files):
        chunk = todo[c0 : c0 + chunk_files]
        pid_by_path = {f: pid for pid, f in chunk}
        for pid, _f in chunk:
            lineage.clear_stale_partition(run_dir, pid)
        from sagan_ray.sources import read_parquet_clean

        ds = read_parquet_clean([f for _pid, f in chunk], include_paths=True)

        def tag_part(batch: pa_mod.Table) -> pa_mod.Table:
            paths = batch["path"].to_pylist()
            pids = [pid_by_path[p] for p in paths]
            return batch.drop_columns(["path"]).append_column(
                "part_id", pa_mod.array(pids, type=pa_mod.string())
            )

        ds = ds.map_batches(tag_part, batch_format="pyarrow")
        if derive_from_documents:
            ds = ds.map_batches(derive_batch, batch_format="pyarrow")
        if pre_stage is not None:
            ds = pre_stage(ds)
        alerts = match_alerts(ds, rules)
        os.makedirs(ckpt_base, exist_ok=True)
        alerts.write_parquet(ckpt_base, partition_cols=["part_id"])
        for pid, f in chunk:
            ckpt = os.path.join(ckpt_base, f"part_id={pid}")
            n_alerts = (
                sum(
                    pq.read_metadata(os.path.join(ckpt, p)).num_rows
                    for p in os.listdir(ckpt)
                    if p.endswith(".parquet")
                )
                if os.path.isdir(ckpt)
                else 0
            )
            if n_alerts == 0:
                os.makedirs(ckpt, exist_ok=True)  # zero-alert partition
            lineage.record_partition(
                run_dir,
                {
                    "partition_id": pid,
                    "input_file": os.path.basename(f),
                    "rows_in": pq.read_metadata(f).num_rows,
                    "alerts": n_alerts,
                    "status": "done",
                },
            )
            n_done += 1
        if fail_after_partitions is not None and n_done >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {n_done} partitions")

    # ---- stage B: correlate + route over all checkpointed alerts ----
    # Skip entirely when neither the checkpoint state nor what stage B
    # reads of the rules changed since the last completed run (manifest
    # written LAST, so a killed stage B never leaves a matching hash
    # behind).
    import hashlib
    import json as _json

    done_now = lineage.completed_partitions(run_dir)
    lineage_hash = hashlib.sha256(
        _json.dumps(sorted(done_now.items()), sort_keys=True).encode()
    ).hexdigest()
    rules_fp = rules_fingerprint(rules)
    manifest_path = os.path.join(run_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prev = _json.load(f)
        if (prev.get("lineage_hash") == lineage_hash
                and prev.get("rules_fingerprint") == rules_fp):
            return prev

    ckpt_root = os.path.join(run_dir, "ckpt")
    from sagan_ray.sources import read_parquet_clean

    # the read's footers give gate_alerts the checkpoint's size and rows,
    # so it reads, gates and routes in the route's one execution
    alerts = gate_alerts(read_parquet_clean(ckpt_root), rules)
    # stale-sink cleanup happens inside route_alerts (its own rmtree —
    # one canonical cleanup, no drifting copy here)
    # sinks carry part_id so the manifest records per-partition sink
    # counts (north-star lineage shape) and replays stay addressable
    manifest = route_alerts(alerts, run_dir,
                            partition_cols=["classification", "part_id"])
    manifest["lineage_hash"] = lineage_hash
    manifest["rules_fingerprint"] = rules_fp
    with open(manifest_path, "w") as f:
        _json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def follow_directory(
    input_dir: str,
    run_dir: str,
    rules: list[Rule] | None = None,
    poll_s: float = 5.0,
    max_iterations: int | None = None,
    derive_from_documents: bool = True,
    pattern: str = "*.parquet",
    pre_stage=None,
    rules_paths: list[str] | None = None,
    reload_rules=None,
    on_wave=None,
) -> dict:
    """Daemon-mode analogue of the reference's FIFO tail: poll
    ``input_dir`` for parquet files and run the checkpointed pipeline
    over whatever is new. Each iteration is a :func:`run_flagship` call,
    so completed partitions are skipped via lineage, a kill mid-wave
    resumes exactly, and correlation stays globally correct because
    stage B always re-gates over ALL checkpointed alerts (late-arriving
    files can change window outcomes — the batch-mode answer to the
    reference's mutable mmap state).

    Stops after ``max_iterations`` (None = until a ``STOP`` file appears
    in ``run_dir``). Returns the last manifest.

    Dynamic rule reload (the upstream SIGHUP-reload analogue —
    src/sagan.c's re-read of the rule set on signal, minus the signal):
    when ``rules_paths`` is given, every poll stats those files and, on
    any mtime/size change, reloads the rule set before the next wave —
    via ``reload_rules()`` if given (e.g. ``EngineConfig.load_rules``,
    which carries var tables / classification maps), else by re-parsing
    ``rules_paths`` directly. Reload semantics match upstream: the NEW
    set applies to waves from then on; already-checkpointed partitions
    keep the alerts their rule set produced (completed partitions are
    skipped by lineage), while the stage-B correlation gate always
    re-runs over ALL checkpointed alerts with the CURRENT thresholds.
    A reload that fails to parse logs and keeps the old set — a typo'd
    edit must not kill a running daemon.

    At-detection ``dynamic_load`` (upstream dynamic-rules.c: a meta
    rule whose firing loads a named rules file immediately): quantized
    to wave boundaries — after each wave, any rule carrying
    ``dynamic_load:`` whose sid appears in the stage-A checkpoint has
    its file loaded ONCE (new sids only), and the expanded set applies
    from the next wave on. Mid-wave mutation stays out by design: a Ray
    retry replays a block, and a replay under a different rule set than
    the first attempt breaks exactly-once checkpoint semantics. A file
    that fails to parse is logged, skipped, and never retried (the
    upstream, too, loads per detection at most once per trigger).

    ``on_wave(iteration, manifest)`` (optional) fires after every wave
    — metrics hooks, or test choreography."""
    import glob as _glob
    import time as _time

    def _load_from_paths():
        from ..rules import load_rules_file

        out: list[Rule] = []
        for p in rules_paths:
            out.extend(load_rules_file(p))
        return out

    def _fingerprint():
        fps = []
        for p in rules_paths or ():
            try:
                st = os.stat(p)
                fps.append((p, st.st_mtime_ns, st.st_size))
            except FileNotFoundError:
                fps.append((p, None, None))
        return tuple(fps)

    if rules is None and rules_paths:
        rules = (reload_rules or _load_from_paths)()
    rules = rules or load_default_rules()
    rules_fp = _fingerprint()
    dyn_loaded: set[str] = set()
    probed_pids: set[str] = set()
    fired_sids: set[int] = set()

    def _dynamic_reload(current: list[Rule]) -> list[Rule]:
        # wave-end dynamic_load: checkpoint sids are the fired-set
        # (stage A keeps noalert matches too, so a silent meta rule
        # still triggers). INCREMENTAL probe: only partition dirs not
        # yet scanned are read (one sid column per NEW wave, never the
        # whole run history again — a long-lived daemon's probe cost
        # stays proportional to the wave, not to its lifetime), and the
        # distinct sids accumulate so rules loaded later still see
        # triggers that fired earlier.
        dyn = {r.sid: r.dynamic_load for r in current
               if r.dynamic_load and r.dynamic_load not in dyn_loaded}
        ckpt_root = os.path.join(run_dir, "ckpt")
        if not dyn or not os.path.isdir(ckpt_root):
            return current
        import pyarrow.dataset as pads

        new_dirs = [d for d in sorted(os.listdir(ckpt_root))
                    if d.startswith("part_id=") and d not in probed_pids]
        if new_dirs:
            # pads.dataset takes FILE paths when given a list; a wave
            # where nothing fired leaves empty part dirs (no files)
            files = []
            for d in new_dirs:
                pdir = os.path.join(ckpt_root, d)
                files += [os.path.join(pdir, f)
                          for f in sorted(os.listdir(pdir))
                          if f.endswith(".parquet")]
            if files:
                fired_sids.update(
                    pads.dataset(files, format="parquet")
                    .to_table(columns=["sid"])["sid"].to_pylist())
            probed_pids.update(new_dirs)
        out = list(current)
        for sid, path in dyn.items():
            if sid not in fired_sids:
                continue
            dyn_loaded.add(path)  # at most once, even on a parse error
            out = _extend_from(out, path)
        return out

    def _extend_from(current: list[Rule], path: str) -> list[Rule]:
        import logging

        from ..rules import load_rules_file

        have = {r.sid for r in current}
        try:
            return current + [r for r in load_rules_file(path)
                              if r.sid not in have]
        except Exception as e:
            logging.getLogger(__name__).warning(
                "dynamic_load of %s failed: %s", path, e)
            return current
    # restart probe: a daemon resuming into an existing run_dir must
    # re-apply dynamic files whose triggers fired in PREVIOUS runs
    # before the first wave — otherwise the first post-restart wave
    # matches with base rules only and its partitions checkpoint as
    # complete, making the missed matches permanent.
    rules = _dynamic_reload(rules)
    manifest: dict = {}
    it = 0
    while True:
        if rules_paths:
            nfp = _fingerprint()
            if nfp != rules_fp:
                try:
                    rules = (reload_rules or _load_from_paths)()
                    # an edit to the BASE files must not discard rules a
                    # fired dynamic_load already brought in: re-apply
                    # every triggered dynamic file on top of the fresh
                    # base set (sid-deduped; a now-broken file logs and
                    # contributes nothing)
                    for p in sorted(dyn_loaded):
                        rules = _extend_from(rules, p)
                    rules_fp = nfp
                except Exception as e:  # keep serving with the old set
                    import logging

                    logging.getLogger(__name__).warning(
                        "rule reload failed, keeping %d old rules: %s",
                        len(rules), e)
                    rules_fp = nfp  # don't re-raise every poll
        files = sorted(_glob.glob(os.path.join(input_dir, pattern)))
        if files:
            manifest = run_flagship(
                files, run_dir, rules,
                derive_from_documents=derive_from_documents,
                pre_stage=pre_stage,
            )
            rules = _dynamic_reload(rules)
        it += 1
        if on_wave is not None:
            on_wave(it, manifest)
        if max_iterations is not None and it >= max_iterations:
            return manifest
        if os.path.exists(os.path.join(run_dir, "STOP")):
            return manifest
        _time.sleep(poll_s)


def run_streaming(webpages_ds, rules: list[Rule], out_dir: str,
                  enrich: bool = False) -> dict:
    """Single-pass streaming variant (no checkpoint): used by bench —
    one Dataset execution end-to-end, sinks partitioned by classification."""
    alerts = alerts_pipeline(webpages_ds, rules, enrich=enrich)
    return route_alerts(alerts, out_dir)
