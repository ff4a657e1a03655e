"""CLI: run the engine like the reference daemon is run.

    python -m sagan_ray run --input '/data/*.parquet' --out /runs/r1 \
        [--config engine.yaml] [--rules extra.rules] [--streaming] \
        [--num-cpus 32]

Checkpointed by default (resume by re-running with the same --out);
--streaming does a single-pass run without lineage. Only --streaming
applies the whole --config; the checkpointed and --follow modes use its
rules and vars alone, so they refuse (exit 2) a config that sets ignore,
enrich, lookup files, write_eve, syslog or smtp. This entry point
OWNS the Ray session (guarded init) — library code never does.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _load_config(args):
    from .engine import EngineConfig

    cfg = EngineConfig.from_yaml(args.config) if args.config else EngineConfig()
    if args.rules:
        cfg.rules_files = list(cfg.rules_files) + args.rules
    return cfg


def _streaming_only_keys(cfg) -> list[str]:
    """The config keys set in ``cfg`` that only ``EngineConfig.run`` (the
    --streaming path) applies; the checkpointed and --follow modes use
    the rules alone."""
    settings = {
        "ignore": cfg.ignore_patterns, "enrich": cfg.enrich,
        "geo_file": cfg.geo, "blacklist_file": cfg.blacklist,
        "intel_file": cfg.intel, "write_eve": cfg.write_eve,
        "syslog": cfg.syslog, "smtp": cfg.smtp,
    }
    return [k for k, v in settings.items() if v]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="sagan_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run the parse->match->route pipeline")
    run.add_argument("--input", required=True, help="parquet path/glob of webpages")
    run.add_argument("--out", required=True, help="run directory")
    run.add_argument("--config", help="engine.yaml (rules/ignore/enrich)")
    run.add_argument("--rules", action="append", default=[], help="extra .rules file")
    run.add_argument("--streaming", action="store_true",
                     help="single-pass, no checkpoint/lineage")
    run.add_argument("--raw-documents", action="store_true",
                     help="input is a documents table; derive webpages")
    run.add_argument("--num-cpus", type=int, default=None)
    run.add_argument("--follow", action="store_true",
                     help="daemon mode: poll --input's directory for new files")
    run.add_argument("--poll-seconds", type=float, default=5.0)
    chk = sub.add_parser("check", help="validate config + rules (the `sagan -T` analogue)")
    chk.add_argument("--config", help="engine.yaml")
    chk.add_argument("--rules", action="append", default=[], help=".rules file")
    pk = sub.add_parser("peek", help="inspect a run's lineage/manifest (sagan-peek analogue)")
    pk.add_argument("--run", required=True, help="run directory")
    cl = sub.add_parser(
        "clean", help="training-data cleaning chain over a documents table"
    )
    cl.add_argument("--input", required=True, help="parquet path/glob (doc_id, text[, url])")
    cl.add_argument("--out", required=True, help="output parquet directory")
    cl.add_argument("--url-col", default=None,
                    help="url column for URL-level dedup (off by default)")
    cl.add_argument("--eval-file", default=None,
                    help="newline-delimited eval texts for decontamination")
    cl.add_argument("--min-tokens", type=int, default=5)
    cl.add_argument("--near-dup-threshold", type=float, default=0.8)
    cl.add_argument("--boilerplate-min-count", type=int, default=None)
    cl.add_argument("--normalize", action="store_true",
                    help="unicode NFC + control-strip before all gates")
    cl.add_argument("--span-min-docs", type=int, default=None,
                    help="mask token spans duplicated across >= N docs")
    cl.add_argument("--run-dir", default=None,
                    help="checkpoint directory: each chain unit writes "
                         "parquet + a lineage record there and a rerun "
                         "resumes from the last completed unit")
    cl.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    if args.cmd == "peek":
        from .state import lineage as _lin

        done = _lin.completed_partitions(args.run)
        manifest = {}
        mp = os.path.join(args.run, "manifest.json")
        if os.path.exists(mp):
            with open(mp) as f:
                manifest = json.load(f)
        rows_in = sum(r.get("rows_in", 0) for r in done.values())
        alerts = sum(r.get("alerts", 0) for r in done.values())
        per_rule = {}
        sink_dir = os.path.join(args.run, "sinks")
        if os.path.isdir(sink_dir):
            from .stages.route import rule_stats

            per_rule = {str(k): v for k, v in rule_stats(sink_dir).items()}
        print(json.dumps({
            "partitions_done": len(done),
            "rows_in": rows_in,
            "alerts_checkpointed": alerts,
            "alert_rate": round(alerts / rows_in, 4) if rows_in else None,
            "sinks": manifest.get("sinks", {}),
            "per_rule": per_rule,
            "routed_total": manifest.get("total"),
        }, sort_keys=True))
        return 0

    if args.cmd == "check":
        try:
            cfg = _load_config(args)
            rules = cfg.load_rules()
        except (ValueError, OSError) as e:
            print(f"INVALID: {e}", file=sys.stderr)
            return 1
        sids = [r.sid for r in rules]
        dupes = {s for s in sids if sids.count(s) > 1}
        if dupes:
            print(f"INVALID: duplicate sids {sorted(dupes)}", file=sys.stderr)
            return 1
        print(json.dumps({
            "ok": True,
            "rules": len(rules),
            "correlated": sum(1 for r in rules if r.threshold or r.after),
            "xbits": sum(1 for r in rules if r.xbits),
        }))
        return 0

    if args.cmd == "run":
        # the config is validated before a Ray session exists: a bad
        # config must fail fast and leave no session behind
        try:
            cfg = _load_config(args)
        except ValueError as e:
            print(f"INVALID: {e}", file=sys.stderr)
            return 2
        dropped = [] if args.streaming else _streaming_only_keys(cfg)
        if dropped:
            print(f"--config keys {dropped} apply only with --streaming; "
                  "the checkpointed and --follow modes would drop them",
                  file=sys.stderr)
            return 2

    import ray

    if not ray.is_initialized():
        # honor a job-runner-provided cluster (`ray job submit` sets
        # RAY_ADDRESS): attach instead of starting a local instance;
        # num_cpus is only meaningful when we own a local session
        addr = os.environ.get("RAY_ADDRESS", "local")
        kw = {"num_cpus": args.num_cpus} if addr == "local" else {}
        ray.init(
            address=addr,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **kw,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        if args.cmd == "clean":
            from .pipelines.cleaning import clean_corpus
            from .sources import read_parquet_clean

            files = sorted(glob.glob(args.input))
            if not files:
                print(f"no input files match {args.input!r}", file=sys.stderr)
                return 2
            # rows_in from parquet footers — a Dataset.count() here
            # would pay a full extra scan purely for the report line
            import pyarrow.parquet as _pqm

            n_in = sum(_pqm.read_metadata(f).num_rows for f in files)
            eval_texts = None
            if args.eval_file:
                with open(args.eval_file) as f:
                    eval_texts = [ln.rstrip("\n") for ln in f if ln.strip()]
            kw = dict(
                url_col=args.url_col,
                eval_texts=eval_texts,
                min_tokens=args.min_tokens,
                boilerplate_min_count=args.boilerplate_min_count,
                near_dup_threshold=args.near_dup_threshold,
                normalize=args.normalize,
                span_min_docs=args.span_min_docs,
            )
            if args.run_dir:
                from .pipelines.cleaning import clean_corpus_run

                out = clean_corpus_run(files, args.run_dir, **kw)
            else:
                out = clean_corpus(read_parquet_clean(files), **kw)
            out.write_parquet(args.out)
            import pyarrow.parquet as _pq

            n_out = sum(
                _pq.read_metadata(os.path.join(args.out, p)).num_rows
                for p in os.listdir(args.out) if p.endswith(".parquet")
            )
            print(json.dumps({"rows_in": n_in, "rows_out": n_out,
                              "dropped": n_in - n_out, "out": args.out}))
            return 0

        files = sorted(glob.glob(args.input))
        if not files:
            print(f"no input files match {args.input!r}", file=sys.stderr)
            return 2
        if args.streaming:
            import ray.data as rd

            from .sources.webpages import derive_batch

            from .sources import read_parquet_clean

            ds = read_parquet_clean(files)
            if args.raw_documents:
                ds = ds.map_batches(derive_batch, batch_format="pyarrow")
            manifest = cfg.run(ds, args.out)
        elif args.follow:
            import os as _os

            from .pipelines.flagship import follow_directory

            manifest = follow_directory(
                _os.path.dirname(files[0]), args.out, cfg.load_rules(),
                poll_s=args.poll_seconds,
                derive_from_documents=args.raw_documents,
                # dynamic reload (SIGHUP analogue): edit a .rules file
                # while the daemon runs and the next wave uses it
                rules_paths=list(cfg.rules_files) or None,
                reload_rules=cfg.load_rules,
            )
        else:
            from .pipelines.flagship import run_flagship

            manifest = run_flagship(
                files, args.out, cfg.load_rules(),
                derive_from_documents=args.raw_documents,
            )
        print(json.dumps(manifest))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
