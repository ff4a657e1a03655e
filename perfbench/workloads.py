"""The benchmark's workloads, both over ``tests/fixtures/rules/web.rules``.

``stream_web12``  run_streaming(enrich=True): every streaming layer
                  works (read, match, enrich, correlate, route); the
                  checkpoint is bypassed.
``daemon_waves``  follow_directory over waves of landed files, then a
                  kill-and-resume of run_flagship: the checkpointed
                  path (checkpoint writes, lineage, stage-B re-gate);
                  enrich is bypassed.

Each ``measure_*`` function runs one workload for a time budget and
returns a :class:`Result`. Every attempted pass or wave is an op; an
exception or an output-check mismatch fails it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

from . import checks
from .session import HostSpeed, Interval
from .trace import Tracer, traced

COLS = ["url", "warc_ts", "text", "lang", "host", "doc_id"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "stream" | "daemon"
    enrich: bool
    rows: int  # total input rows
    files: int  # input files (daemon: one per wave, landed in turn)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream_web12", "stream", True, 48_000, 4),
        Workload("daemon_waves", "daemon", False, 45_000, 3),
    )
}


def load_rules():
    """The rule set, loaded and compiled by the program's rule loader."""
    from sagan_ray.pipelines import flagship
    from sagan_ray.rules import load_rules_file

    return load_rules_file(flagship.DEFAULT_RULES)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)  # reported on stderr only
    outcome: dict | None = None  # routed output, in pins.json's shape

    def op(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _rounded(xs) -> list[float]:
    return [round(x, 3) for x in xs]


def _brief(e: BaseException) -> str:
    lines = str(e).strip().splitlines()
    return f"{type(e).__name__}: {lines[-1][:300] if lines else ''}"


# ---- streaming workloads -------------------------------------------------


def stream_pass(files, rules, out_dir, enrich) -> dict:
    from sagan_ray import sources
    from sagan_ray.pipelines import flagship

    ds = sources.read_parquet_clean(files, columns=COLS)
    return flagship.run_streaming(ds, rules, out_dir, enrich=enrich)


def measure_stream(w: Workload, files: list[str], rules, work: str,
                   seconds: float) -> Result:
    """A first pass, which warms the workers and whose output is checked
    in full, then timed passes until ``seconds`` have passed (at least
    three). Every pass writes into the previous pass's output
    directory, as a re-run after a crash does, and must reproduce the
    first pass's counts; the last must reproduce its routed rows.

    A streaming pass is one wave over the whole input and has no
    checkpoint, so its resume is a full re-run: ``wave_latency_p50_s``,
    ``wave_latency_last_s`` and ``resume_s`` all report the median
    timed pass, in reference seconds (:class:`HostSpeed`, probed before
    each timed pass and after the last)."""
    res = Result()
    out = _fresh(os.path.join(work, "out"))
    sinks = os.path.join(out, "sinks")
    manifest = stream_pass(files, rules, out, w.enrich)
    res.outcome = checks.outcome(manifest, sinks)
    res.op(checks.recount_mismatches(files, rules, sinks))
    want = {k: res.outcome[k] for k in ("sinks", "total")}

    passes: list[float] = []
    speed = HostSpeed()
    t_start = time.perf_counter()
    while res.attempted < 4 or time.perf_counter() - t_start < seconds:  # first + 3
        what = f"pass {res.attempted + 1}"
        speed.sample()
        try:
            with Interval() as iv:
                manifest = stream_pass(files, rules, out, w.enrich)
        except Exception as e:  # a failed pass is a failed op, not a crash
            res.op([f"{what}: {_brief(e)}"])
            continue
        got = {"sinks": manifest["sinks"], "total": manifest["total"]}
        if res.op([] if got == want else [f"{what}: {got} != {want}"]):
            passes.append(iv.wall)
    speed.sample()
    if not passes:
        raise RuntimeError("streaming passes failed: " + "; ".join(res.problems))
    if checks.routed_hash(sinks) != res.outcome["routed_sha256"]:
        # the last pass's op fails: its routed rows differ from the first pass's
        res.failed += 1
        res.problems.append("routed rows of the last pass differ from the first pass")

    every = statistics.median(passes) * speed.scale()
    res.metrics.update(
        rows_per_s=w.rows / every,
        alerts_routed=res.outcome["total"],
        wave_latency_p50_s=every,
        wave_latency_last_s=every,
        resume_s=every,
    )
    res.info.update(passes=_rounded(passes), probes=_rounded(speed.probes))
    return res


def trace_stream(w: Workload, files: list[str], rules, work: str,
                 seconds: float, tr: Tracer) -> Result:
    """An untimed warm-up pass, then untraced and traced passes in turn
    (at least two of each) until ``seconds`` have passed; per-layer
    figures are medians over traced passes, overhead is traced minus
    untraced median wall time."""
    res = Result()
    out = _fresh(os.path.join(work, "out"))
    manifest = stream_pass(files, rules, out, w.enrich)
    res.outcome = {"sinks": manifest["sinks"], "total": manifest["total"]}
    plain: list[float] = []
    per_pass: list[dict[str, float]] = []
    speed = HostSpeed()
    t_start = time.perf_counter()
    while True:
        _fresh(out)
        speed.sample()
        if len(plain) <= len(per_pass):
            t0 = time.perf_counter()
            manifest = stream_pass(files, rules, out, w.enrich)
            plain.append(time.perf_counter() - t0)
        else:
            tr.counts, tr.read_paths = {}, []
            with traced(tr), tr.span("pass") as root:
                manifest = stream_pass(files, rules, out, w.enrich)
            per_pass.append(_layer_metrics(tr, [root["id"]]))
        got = {"sinks": manifest["sinks"], "total": manifest["total"]}
        res.op([] if got == res.outcome else [f"pass {res.attempted + 1}: {got} != {res.outcome}"])
        if len(per_pass) >= 2 and time.perf_counter() - t_start > seconds:
            break
    res.metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    res.metrics["trace.overhead_s"] = (res.metrics["trace.wall_s"]
                                       - statistics.median(plain))
    res.metrics["host.probe_s"] = speed.probe_s()
    return res


# ---- checkpointed daemon ------------------------------------------------


def _land(src: str, dst_dir: str) -> str:
    dst = os.path.join(dst_dir, os.path.basename(src))
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)
    return dst


def daemon_waves(files: list[str], rules, work: str, tr: Tracer | None = None):
    """Land ``files`` one per wave into a watched directory driven by
    ``follow_directory(poll_s=0)``; each wave's latency runs from the
    landing of its file to that wave's ``on_wave``. Closed loop, one
    producer: the next file lands only when the previous wave is done.

    Returns (wave latencies in seconds, manifests, wave-2 routed hash, wave root
    span ids, run dir)."""
    from sagan_ray.pipelines import flagship

    in_dir = _fresh(os.path.join(work, "in"))
    run_dir = _fresh(os.path.join(work, "run"))
    lat: list[float] = []
    manifests: list[dict] = []
    roots: list[int] = []
    hashes: dict[int, str] = {}
    landed: list[float] = []

    def open_wave(k: int) -> None:
        _land(files[k], in_dir)
        if tr is not None:
            tr.wave = f"w{k + 1:02d}"
            roots.append(tr.start("wave")["id"])
        landed.append(time.perf_counter())

    def on_wave(it: int, manifest: dict) -> None:
        lat.append(time.perf_counter() - landed[-1])
        if tr is not None:
            tr.end(tr.spans[roots[-1]])
            tr.wave = None
        manifests.append(manifest)
        if it == 2:
            hashes[2] = checks.routed_hash(os.path.join(run_dir, "sinks"))
        if it < len(files):
            open_wave(it)

    open_wave(0)
    with traced(tr) if tr is not None else contextlib.nullcontext():
        flagship.follow_directory(in_dir, run_dir, rules, poll_s=0,
                                  max_iterations=len(files),
                                  derive_from_documents=False, on_wave=on_wave)
    return lat, manifests, hashes.get(2), roots, run_dir


def resume_leg(files: list[str], rules, work: str, res: Result,
               tr: Tracer | None = None):
    """run_flagship over two landed files, killed after the first
    partition, then re-run: returns (seconds of the re-run, manifest,
    run dir, root span id)."""
    from sagan_ray.pipelines import flagship
    from sagan_ray.state import lineage

    in_dir = _fresh(os.path.join(work, "in_resume"))
    run_dir = _fresh(os.path.join(work, "run_resume"))
    landed = [_land(f, in_dir) for f in files[:2]]
    try:
        flagship.run_flagship(landed, run_dir, rules, derive_from_documents=False,
                              fail_after_partitions=1)
        res.op(["fail_after_partitions=1 did not stop run_flagship"])
    except RuntimeError as e:
        n = len(lineage.completed_partitions(run_dir))
        res.op([] if "injected failure" in str(e) and n == 1
               else [f"killed run: {_brief(e)}, {n} lineage records"])
    root = None
    with Interval() as iv:
        if tr is not None:
            tr.wave = "resume"
            with traced(tr), tr.span("resume") as sp:
                manifest = flagship.run_flagship(landed, run_dir, rules,
                                                 derive_from_documents=False)
            root = sp["id"]
            tr.wave = None
        else:
            manifest = flagship.run_flagship(landed, run_dir, rules,
                                             derive_from_documents=False)
    return iv.wall, manifest, run_dir, root


def measure_daemon(w: Workload, files: list[str], rules, work: str,
                   seconds: float) -> Result:
    """A run_streaming pass over all the files first (it warms the
    workers and is the reference output, itself checked by a DuckDB
    recount), then daemon sequences (waves, then the kill-and-resume
    leg) until ``seconds`` have passed, at least three; latencies are
    medians over sequences, in reference seconds (:class:`HostSpeed`,
    probed before each sequence and after the last)."""
    res = Result()
    out = _fresh(os.path.join(work, "stream_ref"))
    m = stream_pass(files, rules, out, enrich=False)
    res.outcome = checks.outcome(m, os.path.join(out, "sinks"))
    res.op(checks.recount_mismatches(files, rules, os.path.join(out, "sinks")))

    seqs: list[dict] = []
    speed = HostSpeed()
    t_start = time.perf_counter()
    while len(seqs) < 3 or time.perf_counter() - t_start < seconds:
        speed.sample()
        seq_work = _fresh(os.path.join(work, f"seq{len(seqs)}"))
        lat, manifests, wave2_hash, _roots, run_dir = daemon_waves(files, rules, seq_work)
        res.attempted += len(lat) - 1  # waves before the last; it is judged here
        final = checks.outcome(manifests[-1], os.path.join(run_dir, "sinks"))
        res.op([] if final == res.outcome
               else [f"daemon {final} != run_streaming {res.outcome}"])

        resume, m, rdir, _root = resume_leg(files, rules, seq_work, res)
        got = checks.outcome(m, os.path.join(rdir, "sinks"))
        want = {"sinks": manifests[1]["sinks"], "total": manifests[1]["total"],
                "routed_sha256": wave2_hash}
        res.op([] if got == want else [f"resumed run: {got} != wave 2 {want}"])
        seqs.append({"waves": lat, "resume": resume})
        shutil.rmtree(seq_work, ignore_errors=True)
    speed.sample()

    k = speed.scale()
    res.metrics.update(
        rows_per_s=statistics.median(w.rows / (sum(s["waves"]) * k) for s in seqs),
        alerts_routed=res.outcome["total"],
        wave_latency_p50_s=statistics.median(x for s in seqs for x in s["waves"]) * k,
        wave_latency_last_s=statistics.median(s["waves"][-1] for s in seqs) * k,
        resume_s=statistics.median(s["resume"] for s in seqs) * k,
    )
    res.info.update(sequences=[{"waves": _rounded(s["waves"]), "resume": round(s["resume"], 3)}
                               for s in seqs], probes=_rounded(speed.probes))
    return res


def trace_daemon(w: Workload, files: list[str], rules, work: str,
                 seconds: float, tr: Tracer) -> Result:
    """A warm-up run_streaming pass over the files, then one untraced and
    one traced daemon sequence (waves + resume)."""
    res = Result()
    m = stream_pass(files, rules, _fresh(os.path.join(work, "warm")), enrich=False)
    res.outcome = {"sinks": m["sinks"], "total": m["total"]}
    walls, roots = [], []
    speed = HostSpeed()
    for name, t in (("plain", None), ("traced", tr)):
        seq_work = _fresh(os.path.join(work, name))
        speed.sample()
        lat, manifests, _h, wave_roots, _d = daemon_waves(files, rules, seq_work, t)
        resume, rm, _d, root = resume_leg(files, rules, seq_work, res, t)
        res.attempted += len(lat) - 1  # waves before the last; it is judged here
        got = {"sinks": manifests[-1]["sinks"], "total": manifests[-1]["total"]}
        res.op([] if got == res.outcome else [f"{name} daemon: {got} != {res.outcome}"])
        got = {"sinks": rm["sinks"], "total": rm["total"]}
        want = {"sinks": manifests[1]["sinks"], "total": manifests[1]["total"]}
        res.op([] if got == want else [f"{name} resumed run: {got} != wave 2 {want}"])
        walls.append(sum(lat) + resume)
        roots = wave_roots + [root]
    plain = walls[0]
    res.metrics = _layer_metrics(tr, roots)
    res.metrics["host.probe_s"] = speed.probe_s()
    res.metrics["trace.overhead_s"] = res.metrics["trace.wall_s"] - plain
    return res


def kernel_baseline(files: list[str], rules) -> tuple[float, int]:
    """``make_matcher(rules)`` applied in this process, without Ray, to the
    Arrow tables the read layer produced from ``files`` (one block per
    file): returns (seconds, rows the union prefilter shortlists)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from sagan_ray.stages import match

    tables = [pq.read_table(f, columns=COLS) for f in files]
    matcher = match.make_matcher(rules)
    t0 = time.perf_counter()
    for t in tables:
        matcher(t)
    kernel_s = time.perf_counter() - t0
    # the program's own union pattern (a private helper: the benchmark
    # reads the plan, it does not re-derive it)
    pattern, _lit, _rest = match._union_prefilter_pattern(
        [r for r in rules if r.action != "pass"])
    if pattern is None:
        return kernel_s, sum(t.num_rows for t in tables)
    return kernel_s, sum(pc.sum(pc.match_substring_regex(t["text"], pattern)).as_py() or 0
                         for t in tables)


# ---- per-layer metrics from a trace ---------------------------------------


def _layer_metrics(tr: Tracer, roots: list[int]) -> dict[str, float]:
    st = tr.self_times(roots)
    c = tr.counts
    out = {k: c.get(k, 0) for k in (
        "sources.read.rows", "sources.read.bytes", "match.rows_in",
        "match.alerts_out", "enrich.rows", "correlate.rows_in",
        "correlate.shuffled_rows", "correlate.rows_out", "route.rows",
        "route.bytes_written", "route.files_written",
        "checkpoint.bytes_written", "checkpoint.files_written",
        "lineage.records")}
    out["correlate.keep_ratio"] = (c["correlate.rows_out"] / c["correlate.rows_in"]
                                   if c.get("correlate.rows_in") else 0.0)
    for layer in ("sources.read", "match", "enrich", "correlate", "route",
                  "checkpoint", "lineage"):
        out[f"{layer}.busy_s"] = st.get(layer, 0.0)
    for key in [k for k in st if k.startswith("regate.")]:
        label = key.split(".", 1)[1]
        out[f"regate.busy_s.{label}"] = st[key]
        out[f"regate.rows_in.{label}"] = c.get(f"regate.{label}.rows_in", 0)
    out["pipeline.self_s"] = st.get("pipeline", 0.0)
    out["trace.count_s"] = st.get("trace.count", 0.0)
    out["trace.wall_s"] = sum(tr.spans[r]["end"] - tr.spans[r]["start"] for r in roots)
    return out
