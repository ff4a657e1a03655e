"""The parquet read contract of ``sources.read_parquet_clean``: planned
from file listings and footers, one read task per file, no sampling
tasks, and the columns ``ray.data.read_parquet`` gives."""

import os
import warnings

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sagan_ray.pipelines.flagship import load_default_rules, run_flagship, run_streaming
from sagan_ray.rules import parse_rule
from sagan_ray.sources import read_parquet_clean
from sagan_ray.sources.webpages import webpages_from_documents

SF = "/root/testdata/sf0.001"


def _blocks(ds) -> list[pa.Table]:
    import ray

    return [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]


def _rows(ds) -> pa.Table:
    return pa.concat_tables(_blocks(ds))


@pytest.fixture()
def layout(tmp_path):
    """Two pandas-written files in a flat dir, and the same frame under
    ``k=a/j=1`` and ``k=b/j=2`` dirs."""
    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    for sub in ("flat/f1", "flat/f2", "hive/k=a/j=1/p", "hive/k=b/j=2/p"):
        os.makedirs(os.path.dirname(tmp_path / sub), exist_ok=True)
        df.to_parquet(tmp_path / f"{sub}.parquet")
    return tmp_path


@pytest.fixture()
def executions(monkeypatch):
    """Counts Ray Data executions (``StreamingExecutor.execute`` calls)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        calls.append(1)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


def test_no_fragment_sampling_task(ray_session, tmp_path, monkeypatch):
    """A stream pass and a daemon wave plan their reads without Ray's
    fragment sampler (remote tasks the driver waits on)."""
    from ray.data._internal.datasource import parquet_datasource

    def boom(*a, **kw):
        raise AssertionError("fragment sampling ran")

    monkeypatch.setattr(parquet_datasource, "sample_fragments", boom)
    m = run_streaming(webpages_from_documents(SF), load_default_rules(),
                      str(tmp_path / "stream"))
    assert sum(m["sinks"].values()) == 2373
    t = pq.read_table(f"{SF}/documents.parquet")
    files = [str(tmp_path / f"d{i}.parquet") for i in range(2)]
    for i, f in enumerate(files):
        pq.write_table(t.slice(i * 250, 250), f)
    m = run_flagship(files, str(tmp_path / "run"))
    assert sum(m["sinks"].values()) > 0


def test_columns_project(ray_session, layout, executions):
    ds = read_parquet_clean(str(layout / "flat"), columns=["b"])
    assert ds.schema().names == ["b"]
    assert not executions  # the schema comes from the footers
    t = _rows(ds)
    assert t.column_names == ["b"]
    assert sorted(t["b"].to_pylist()) == ["x", "x", "y", "y", "z", "z"]


@pytest.mark.parametrize("what,names", [
    ("flat/f1.parquet", ["a", "b", "path"]),
    ("hive/k=a/j=1/p.parquet", ["a", "b", "path", "k", "j"]),
])
def test_include_paths_columns(ray_session, layout, what, names):
    """``path`` follows the file's columns, then the ``k=v`` dirs, as
    ``ray.data.read_parquet`` orders them."""
    f = str(layout / what)
    ds = read_parquet_clean([f], include_paths=True)
    assert ds.schema().names == names
    t = _rows(ds)
    assert t.column_names == names
    assert set(t["path"].to_pylist()) == {f}


@pytest.mark.parametrize("as_files", [False, True])
def test_hive_columns_are_strings(ray_session, layout, as_files):
    root = layout / "hive"
    paths = ([str(root / "k=a/j=1/p.parquet"), str(root / "k=b/j=2/p.parquet")]
             if as_files else str(root))
    ds = read_parquet_clean(paths)
    want = pa.schema([("a", pa.int64()), ("b", pa.string()),
                      ("k", pa.string()), ("j", pa.string())])
    assert ds.schema().base_schema.equals(want)
    for t in _blocks(ds):
        assert t.schema.equals(want)
    t = _rows(ds)
    assert sorted(zip(t["k"].to_pylist(), t["j"].to_pylist())) == (
        [("a", "1")] * 3 + [("b", "2")] * 3)


def test_no_pandas_metadata(ray_session, layout):
    assert b"pandas" in pq.read_schema(layout / "flat/f1.parquet").metadata
    for paths in (str(layout / "flat"), str(layout / "hive")):
        ds = read_parquet_clean(paths, include_paths=True)
        assert not ds.schema().base_schema.metadata
        for t in _blocks(ds):
            assert not t.schema.metadata


def test_all_empty_checkpoint_reads_zero_rows(ray_session, tmp_path):
    """A checkpoint of zero-alert partitions (``part_id=`` dirs, no
    files) reads as 0 rows, without a warning."""
    for pid in ("p0", "p1"):
        os.makedirs(tmp_path / "ckpt" / f"part_id={pid}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert read_parquet_clean(str(tmp_path / "ckpt")).count() == 0


def test_daemon_wave_without_alerts(ray_session, tmp_path):
    """Stage B over a checkpoint of zero-alert partitions routes 0 rows."""
    f = str(tmp_path / "d.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 50), f)
    rules = [parse_rule('alert any any any -> any any '
                        '(msg:"never"; content:"zz-never-present-zz"; sid:9;)')]
    m = run_flagship([f], str(tmp_path / "run"), rules)
    assert sum(m["sinks"].values()) == 0


@pytest.mark.parametrize("block_bytes", [4096], indirect=True)
def test_row_groups_read_at_small_block_target(ray_session, tmp_path, block_bytes):
    """A file of 3 row groups read at a block target far below its size
    returns every row, cut into blocks below the file size."""
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    f = str(tmp_path / "rg.parquet")
    pq.write_table(t, f, row_group_size=-(-t.num_rows // 3))
    assert pq.ParquetFile(f).num_row_groups == 3
    blocks = _blocks(read_parquet_clean(f))
    assert len(blocks) > 3
    got = pa.concat_tables(blocks).sort_by("doc_id")
    assert got.equals(t.sort_by("doc_id"))


def test_executions_per_pass(ray_session, tmp_path, executions):
    """An untraced stream pass runs 2 Ray Data executions (the alert
    stream's materialize, the sink write); a daemon wave with new alerts
    runs 3 (the checkpoint write, stage B's materialize, the sink
    write). A change that adds one fails here."""
    ds = webpages_from_documents(SF)
    run_streaming(ds, load_default_rules(), str(tmp_path / "stream"))
    assert len(executions) == 2
    executions.clear()
    f = str(tmp_path / "d.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), f)
    m = run_flagship([f], str(tmp_path / "run"))
    assert sum(m["sinks"].values()) > 0
    assert len(executions) == 3
