"""Spans and counts recorded from outside the program.

:class:`Tracer` keeps spans (name, start, end, parent, run id) and
counts in memory and writes them as JSON at exit. :func:`traced` wraps
the public functions of each layer for the duration of a ``with``
block: every wrapper materializes the Dataset the function returns
inside its span, so the span covers execution rather than plan
building. Counting work runs in ``trace.count`` spans, so the self
times of all spans add up to the traced wall time.

Span names and the layer (metric prefix) each one is charged to:

====================  ==========================================
``sources.read``      ``sources.read_parquet_clean`` on input files
``match``             ``stages.match.match_alerts``
``enrich``            ``stages.enrich.enrich_stage``
``correlate``         ``flagship.gate_alerts`` on a streaming pass
``correlate.fused``   ``stages.correlate.apply_correlation_fused``
``route``             ``stages.route.route_alerts``
``checkpoint.write``  stage A's ``write_parquet`` of the match output
``lineage.record``    ``state.lineage.record_partition``
``regate.read``       stage B's read of the checkpoint
``regate``            ``flagship.gate_alerts`` in stage B
``regate.fused``      ``apply_correlation_fused`` in stage B
``trace.count``       counting done by the tracer itself
====================  ==========================================
"""

from __future__ import annotations

import contextlib
import json
import os
import time

# span name -> layer that its self time is charged to; a root span's own
# self time (time in this process and the framework that no layer span
# covers) is charged to "pipeline"
LAYER_OF = {
    "sources.read": "sources.read",
    "match": "match",
    "enrich": "enrich",
    "correlate": "correlate",
    "correlate.fused": "correlate",
    "route": "route",
    "checkpoint.write": "checkpoint",
    "lineage.record": "lineage",
    "regate.read": "regate",
    "regate": "regate",
    "regate.fused": "regate",
    "trace.count": "trace.count",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        # label of the daemon wave (``w01``…, ``resume``) being run;
        # None on a streaming pass
        self.wave: str | None = None
        self.last_read_rows = 0
        self.read_paths: list[str] = []  # input files the read layer saw
        self._stack: list[int] = []

    def start(self, name: str) -> dict:
        """Open a span under the innermost open one; close it with
        :meth:`end`."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "wave": self.wave,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.remove(rec["id"])

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.start(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self, root_ids: list[int]) -> dict[str, float]:
        """Self time per layer over the trees under ``root_ids``; the
        roots' own self time is reported as ``pipeline``."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        roots = set(root_ids)
        out: dict[str, float] = {}
        for s in self.spans:
            root = s["id"]
            while self.spans[root]["parent"] is not None:
                root = self.spans[root]["parent"]
            if root not in roots:
                continue
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            layer = "pipeline" if s["id"] in roots else LAYER_OF[s["name"]]
            if layer == "regate":
                layer = f"regate.{s['wave']}"
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: str, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "metrics": metrics,
                       "spans": self.spans}, f, indent=1)


def _tree_bytes_files(path: str) -> tuple[int, int]:
    nbytes = nfiles = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                nbytes += os.path.getsize(os.path.join(root, f))
                nfiles += 1
    return nbytes, nfiles


def _sid_rows(ds, sids: set[int]) -> int:
    import pyarrow as pa
    import pyarrow.compute as pc

    if not sids:
        return 0
    value_set = pa.array(sorted(sids), type=pa.int64())
    n = 0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        n += pc.sum(pc.is_in(b["sid"], value_set=value_set)).as_py() or 0
    return n


@contextlib.contextmanager
def traced(tr: Tracer):
    """Patch each layer's public functions with span-recording wrappers
    for the duration of the block; the originals are restored on exit."""
    import sagan_ray.sources as sources
    import sagan_ray.stages.correlate as correlate
    from sagan_ray.pipelines import flagship
    from sagan_ray.state import lineage

    def f(mod, name):
        return orig[(mod, name)]

    def read(paths, **kw):
        is_ckpt = isinstance(paths, str) and os.path.basename(paths) == "ckpt"
        with tr.span("regate.read" if is_ckpt else "sources.read"):
            ds = f(sources, "read_parquet_clean")(paths, **kw).materialize()
        if not is_ckpt:
            tr.read_paths += [paths] if isinstance(paths, str) else list(paths)
            with tr.span("trace.count"):
                tr.last_read_rows = ds.count()
                tr.add("sources.read.rows", tr.last_read_rows)
                tr.add("sources.read.bytes", ds.size_bytes())
        return ds

    def match(ds, rules, *a, **kw):
        with tr.span("match"):
            out = f(flagship, "match_alerts")(ds, rules, *a, **kw).materialize()
        with tr.span("trace.count"):
            tr.add("match.rows_in", tr.last_read_rows)
            tr.add("match.alerts_out", out.count())
        write = out.write_parquet

        def checkpoint_write(path, *wa, **wkw):
            # stage A checkpoints the match output it was handed
            with tr.span("trace.count"):
                before = _tree_bytes_files(path)
            with tr.span("checkpoint.write"):
                write(path, *wa, **wkw)
            with tr.span("trace.count"):
                after = _tree_bytes_files(path)
                tr.add("checkpoint.bytes_written", after[0] - before[0])
                tr.add("checkpoint.files_written", after[1] - before[1])

        out.write_parquet = checkpoint_write
        return out

    def enrich(ds, *a, **kw):
        with tr.span("enrich"):
            out = f(flagship, "enrich_stage")(ds, *a, **kw).materialize()
        with tr.span("trace.count"):
            tr.add("enrich.rows", out.count())
        return out

    def gate(alerts, rules):
        # stage B of a daemon wave re-gates every checkpointed alert: its
        # time is charged to that wave's regate layer, its counts also
        # to correlate
        from sagan_ray.stages.correlate import corr_specs, xbit_specs

        name = "correlate" if tr.wave is None else "regate"
        with tr.span("trace.count"):
            n_in = alerts.count()
            tr.add("correlate.rows_in", n_in)
            if tr.wave is not None:
                tr.add(f"regate.{tr.wave}.rows_in", n_in)
            sids = set(corr_specs(rules)) | set(xbit_specs(rules))
            tr.add("correlate.shuffled_rows", _sid_rows(alerts, sids))
        with tr.span(name):
            out = f(flagship, "gate_alerts")(alerts, rules).materialize()
        with tr.span("trace.count"):
            tr.add("correlate.rows_out", out.count())
        return out

    def fused(alerts, rules):
        name = "correlate.fused" if tr.wave is None else "regate.fused"
        with tr.span(name):
            return f(correlate, "apply_correlation_fused")(alerts, rules).materialize()

    def route(alerts, out_dir, *a, **kw):
        with tr.span("route"):
            manifest = f(flagship, "route_alerts")(alerts, out_dir, *a, **kw)
        with tr.span("trace.count"):
            nbytes, nfiles = _tree_bytes_files(os.path.join(out_dir, "sinks"))
            tr.add("route.rows", manifest["total"])
            tr.add("route.bytes_written", nbytes)
            tr.add("route.files_written", nfiles)
        return manifest

    def record(run_dir, rec):
        with tr.span("lineage.record"):
            f(lineage, "record_partition")(run_dir, rec)
        tr.add("lineage.records", 1)

    wrappers = {
        (sources, "read_parquet_clean"): read,
        (flagship, "match_alerts"): match,
        (flagship, "enrich_stage"): enrich,
        (flagship, "gate_alerts"): gate,
        (flagship, "route_alerts"): route,
        (correlate, "apply_correlation_fused"): fused,
        (lineage, "record_partition"): record,
    }
    orig = {key: getattr(*key) for key in wrappers}
    for (mod, name), w in wrappers.items():
        setattr(mod, name, w)
    try:
        yield tr
    finally:
        for (mod, name), fn in orig.items():
            setattr(mod, name, fn)
