"""Golden end-to-end + resume idempotence (SURVEY.md §5.3–5.4)."""

import os
import re
import shutil
import uuid

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from sagan_ray.functions import exchange
from sagan_ray.pipelines.flagship import load_default_rules, run_flagship, run_streaming
from sagan_ray.sources import read_parquet_clean
from sagan_ray.sources.webpages import derive_batch, webpages_from_documents
from sagan_ray.stages.match import make_matcher, match_alerts

SF = "/root/testdata/sf0.001"

# Frozen golden per-sink counts for the sf0.001-derived webpages run.
# Independently cross-checked against the DuckDB oracle (run
# `python tools/check_oracles.py /root/testdata/sf0.001 wp_route_counts`).
# Any change here is a semantics change.
GOLDEN = {
    "attempted-recon": 58,
    "bad-unknown": 465,
    "correlated-attack": 557,  # after count 1 (sid 1000008) + xbits (1000011)
    "misc-activity": 218,
    "policy-violation": 152,
    "suspicious-traffic": 381,
    "web-application-activity": 542,
}


@pytest.fixture()
def part_files(tmp_path):
    t = pq.read_table(f"{SF}/documents.parquet")
    files = []
    for i in range(4):
        f = str(tmp_path / f"docs_{i}.parquet")
        pq.write_table(t.slice(i * 125, 125), f)
        files.append(f)
    return files


def _sorted_rowset(sink_dir):
    t = pads.dataset(sink_dir, partitioning="hive").to_table()
    cols = ["url", "sid", "classification"]
    return t.select(cols).sort_by([(c, "ascending") for c in cols])


def test_golden_counts(ray_session, tmp_path):
    out = str(tmp_path / "run")
    ds = webpages_from_documents(SF)
    manifest = run_streaming(ds, load_default_rules(), out)
    assert manifest["sinks"] == GOLDEN


def test_text_byte_identical_per_url(ray_session, tmp_path):
    """The judged per-row invariant: every routed row's text equals the
    input row's text for the same url, byte for byte."""
    out = str(tmp_path / "run")
    ds = webpages_from_documents(SF)
    run_streaming(ds, load_default_rules(), out)
    routed = pads.dataset(os.path.join(out, "sinks"), partitioning="hive").to_table()
    # ONE to_pandas() call: evaluating the Dataset once per column would
    # zip urls from one run against texts from another, and Ray's block
    # order is not stable across runs
    pdf = webpages_from_documents(SF).select_columns(["url", "text"]).to_pandas()
    orig = dict(zip(pdf["url"], pdf["text"]))
    for u, t in zip(routed["url"].to_pylist(), routed["text"].to_pylist()):
        assert t == orig[u]


def test_resume_idempotence(ray_session, part_files, tmp_path):
    run_a = str(tmp_path / "a")
    run_b = str(tmp_path / "b")
    rules = load_default_rules()
    m_a = run_flagship(part_files, run_a, rules)

    with pytest.raises(RuntimeError, match="injected failure"):
        run_flagship(part_files, run_b, rules, fail_after_partitions=2)
    # only 2 lineage records so far
    recs = [f for f in os.listdir(os.path.join(run_b, "_lineage")) if f.endswith(".json")]
    assert len(recs) == 2
    m_b = run_flagship(part_files, run_b, rules)
    assert m_a == m_b
    assert _sorted_rowset(os.path.join(run_a, "sinks")).equals(
        _sorted_rowset(os.path.join(run_b, "sinks"))
    )


def test_rerun_skips_completed(ray_session, part_files, tmp_path):
    run_dir = str(tmp_path / "r")
    rules = load_default_rules()
    m1 = run_flagship(part_files, run_dir, rules)
    # second run: all partitions complete -> stage A does nothing, stage B
    # rebuilds from checkpoints; manifest identical
    ckpt_mtime = {
        d: os.path.getmtime(os.path.join(run_dir, "ckpt", d))
        for d in os.listdir(os.path.join(run_dir, "ckpt"))
    }
    m2 = run_flagship(part_files, run_dir, rules)
    assert m1 == m2
    for d, mt in ckpt_mtime.items():
        assert os.path.getmtime(os.path.join(run_dir, "ckpt", d)) == mt


def _write_webpages(tmp_path, layout):
    """sf0.001's webpages written as parquet: 4 files, 1 file, or a
    hive-partitioned checkpoint-style directory of 3 part dirs x 2
    files. Returns (what to read, the files written)."""
    t = derive_batch(pq.read_table(f"{SF}/documents.parquet"))
    if layout == "files":
        files = [str(tmp_path / f"w{i}.parquet") for i in range(4)]
    elif layout == "one_file":
        files = [str(tmp_path / "w.parquet")]
    else:
        files = [str(tmp_path / "ckpt" / f"part_id=p{i // 2}" / f"{i}.parquet")
                 for i in range(6)]
    step = -(-t.num_rows // len(files))
    for i, f in enumerate(files):
        os.makedirs(os.path.dirname(f), exist_ok=True)
        pq.write_table(t.slice(i * step, step), f)
    return (str(tmp_path / "ckpt") if layout == "hive" else files), files


@pytest.mark.parametrize("layout", ["files", "one_file", "hive"])
def test_read_rule_fuses_read_and_match(ray_session, tmp_path, monkeypatch,
                                        layout):
    """With at least as many files as CPUs the read and the match run as
    ONE fused operator, one task per file (a hive directory counts its
    files, not its part dirs); one file still splits, to one block per
    CPU. Every case routes the rows the matcher gives in one process."""
    import ray

    monkeypatch.setattr(exchange, "cluster_cpus", lambda: 4)
    rules = load_default_rules()
    paths, files = _write_webpages(tmp_path, layout)
    alerts = match_alerts(read_parquet_clean(paths), rules).materialize()
    ops = re.findall(r"Operator \d+ (\S+): (\d+) tasks executed",
                     alerts.stats())
    if layout == "one_file":
        assert ops == [("ReadParquet->SplitBlocks(4)", "1"),
                       ("MapBatches(match_batch)", "4")]
    else:
        [(op, tasks)] = ops
        assert op.startswith("ReadParquet->")
        assert op.endswith("MapBatches(match_batch)")
        assert int(tasks) == len(files)
    assert alerts.num_blocks() == max(len(files), 4)

    want = make_matcher(rules)(pa.concat_tables(pq.read_table(f) for f in files))
    key = ["url", "sid"]
    got = pa.concat_tables(ray.get(alerts.to_arrow_refs()))
    got = got.select(key).sort_by([(c, "ascending") for c in key])
    assert got.equals(want.select(key).sort_by([(c, "ascending") for c in key]))


def test_match_stage_builds_without_executing(ray_session):
    """Building the match stage runs nothing upstream of it: no schema
    probe executes the (here raising) stage before it."""
    import ray.data as rd

    def boom(t):
        raise RuntimeError("executed while the plan was built")

    ds = rd.from_arrow(derive_batch(pq.read_table(f"{SF}/documents.parquet")))
    match_alerts(ds.map_batches(boom, batch_format="pyarrow"),
                 load_default_rules())


def test_run_flagship_pre_stage_sees_each_block_once(ray_session, part_files,
                                                     tmp_path):
    """A stateful pre_stage sees every input row exactly once, in one
    call per input block (one block per file): no probe runs it on a
    block before the real pass."""
    marks = tmp_path / "marks"
    marks.mkdir()

    def pre(ds):
        def mark(t):
            (marks / f"{t.num_rows}_{uuid.uuid4().hex}").touch()
            return t

        return ds.map_batches(mark, batch_format="pyarrow")

    run_dir = str(tmp_path / "run")
    manifest = run_flagship(part_files, run_dir, pre_stage=pre)
    rows = [int(m.split("_")[0]) for m in os.listdir(marks)]
    assert sum(rows) == sum(pq.read_metadata(f).num_rows for f in part_files)
    assert len(rows) == len(part_files)
    assert manifest["sinks"] == GOLDEN
