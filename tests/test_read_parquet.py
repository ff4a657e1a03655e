"""The parquet read contract of ``sources.read_parquet_clean``: planned
from file listings and footers, read tasks sized to the host, no
sampling tasks, and the columns ``ray.data.read_parquet`` gives; and
the stage-B gate planned from the checkpoint's footers."""

import os
import re
import warnings

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sagan_ray.pipelines import flagship
from sagan_ray.pipelines.flagship import load_default_rules, run_flagship, run_streaming
from sagan_ray.rules import parse_rule
from sagan_ray.sources import read_parquet_clean
from sagan_ray.sources.parquet import list_files
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
    """Records Ray Data executions (``StreamingExecutor.execute`` calls),
    each as the names of the physical operators it runs."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *a, **kw):
        ops, todo = [], [dag]
        while todo:
            op = todo.pop()
            ops.append(op.name)
            todo += op.input_dependencies
        calls.append(ops)
        return execute(self, dag, *a, **kw)

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
    runs 2 (the checkpoint write, and the sink write, which reads and
    gates the checkpoint in the same execution). A change that adds one
    fails here."""
    ds = webpages_from_documents(SF)
    run_streaming(ds, load_default_rules(), str(tmp_path / "stream"))
    assert len(executions) == 2
    executions.clear()
    f = str(tmp_path / "d.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), f)
    m = run_flagship([f], str(tmp_path / "run"))
    assert sum(m["sinks"].values()) > 0
    assert len(executions) == 2


def _small_files(tmp_path, n: int) -> list[str]:
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    files = [str(tmp_path / f"s{i}.parquet") for i in range(n)]
    step = -(-t.num_rows // n)
    for i, f in enumerate(files):
        pq.write_table(t.slice(i * step, step), f)
    return files


def _footer_bytes(files: list[str]) -> int:
    """Uncompressed bytes of ``files``' row groups, from their footers."""
    metas = [pq.read_metadata(f) for f in files]
    return sum(m.row_group(i).total_byte_size
               for m in metas for i in range(m.num_row_groups))


def _ops(ds) -> list[tuple[str, str]]:
    """(operator, tasks executed) of a materialized Dataset."""
    return re.findall(r"Operator \d+ (\S+): (\d+) tasks executed", ds.stats())


def test_more_files_than_cpus_pack_into_cpu_tasks(ray_session, tmp_path):
    """7 small files on 4 CPUs read in 4 tasks, each fused with the map
    after it, with no ``SplitBlocks``; every row is read once."""
    def _twice(t: pa.Table) -> pa.Table:
        return t.append_column("twice", pa.compute.multiply(t["doc_id"], 2))

    files = _small_files(tmp_path, 7)
    ds = read_parquet_clean(files).map_batches(_twice, batch_format="pyarrow")
    ds = ds.materialize()
    assert _ops(ds) == [("ReadParquet->MapBatches(_twice)", "4")]
    assert ds.num_blocks() == 4
    got = sorted(_rows(ds)["doc_id"].to_pylist())
    assert got == sorted(pq.read_table(f"{SF}/documents.parquet")["doc_id"].to_pylist())


def test_fewer_files_than_cpus_still_split(ray_session, tmp_path):
    """2 files on 4 CPUs read in one task each, split to 4 blocks."""
    ds = read_parquet_clean(_small_files(tmp_path, 2)).materialize()
    assert _ops(ds) == [("ReadParquet->SplitBlocks(2)", "2")]
    assert ds.num_blocks() == 4


def test_packed_task_unifies_schemas(ray_session, tmp_path):
    """Files whose schemas differ (one carries an extra column, one sits
    in a ``k=v`` dir) read in ONE task give the rows, columns and types
    of the same files read one task each; the packed task declares the
    unified schema."""
    base = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    files = [str(tmp_path / "f0.parquet"), str(tmp_path / "f1.parquet"),
             str(tmp_path / "k=v" / "f2.parquet")]
    os.makedirs(tmp_path / "k=v")
    base.to_parquet(files[0])
    base.assign(c=[0.5, 1.5, 2.5]).to_parquet(files[1])
    base.to_parquet(files[2])

    want = pa.schema([("a", pa.int64()), ("b", pa.string()),
                      ("c", pa.float64()), ("k", pa.string())])

    def read(n):
        ds = read_parquet_clean(files, override_num_blocks=n)
        assert ds.schema().base_schema.equals(want)
        ds = ds.materialize()
        assert [int(t) for _op, t in _ops(ds)] == [n]
        # blocks of different files concatenate in any order
        t = pa.concat_tables(_blocks(ds), promote_options="permissive")
        return t.select(want.names).sort_by([(c, "ascending") for c in "abk"])

    packed, per_file = read(1), read(3)
    assert packed.schema.equals(want)
    assert packed.equals(per_file)
    assert packed.num_rows == 9
    assert packed["c"].null_count == 6 and packed["k"].null_count == 6


def test_footer_read_sizes_without_executing(ray_session, tmp_path, executions):
    """``size_bytes()`` and ``count()`` of a footer-planned read come from
    the footers and run no execution; a map after the read hides them
    (the case ``flagship._size_known`` tells apart, on Ray's internal
    plan metadata: this fails if a Ray upgrade moves it)."""
    files = _small_files(tmp_path, 3)
    ds = read_parquet_clean(files)
    assert flagship._size_known(ds)
    assert ds.count() == sum(pq.read_metadata(f).num_rows for f in files)
    assert ds.size_bytes() == _footer_bytes(files)
    assert not executions
    assert not flagship._size_known(ds.map_batches(lambda t: t,
                                                   batch_format="pyarrow"))
    assert flagship._size_known(ds.materialize())


def _exchange_ops(execs) -> set[str]:
    """The tagged exchange's operators among the executed ones: the sort
    of ``groupby`` and the ``map_groups`` of the plan's ``gate``."""
    return {op for ops in execs for op in ops} & {"Sort", "MapBatches(gate)"}


def test_stage_b_plan_on_both_sides_of_the_block_size(ray_session, tmp_path,
                                                      executions, monkeypatch):
    """A daemon wave over the sf0.001 input gates its checkpoint in one
    task at the default block size (2 executions: the checkpoint write,
    then read + gate + route), and through the tagged exchange once the
    block size is below the checkpoint's footer bytes. Both route the
    same manifest and rows."""
    import pyarrow.dataset as pads
    import ray.data as rd

    f = str(tmp_path / "d.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), f)

    def wave(name):
        executions.clear()
        run_dir = str(tmp_path / name)
        m = run_flagship([f], run_dir)
        rows = pads.dataset(os.path.join(run_dir, "sinks"),
                            partitioning="hive").to_table()
        return m, rows.sort_by([("url", "ascending"), ("sid", "ascending")]), list(executions)

    m_one, rows_one, execs = wave("one_task")
    assert m_one["total"] == 2373
    assert len(execs) == 2
    assert not _exchange_ops(execs)

    ckpt_bytes = _footer_bytes(list_files(str(tmp_path / "one_task" / "ckpt")))
    monkeypatch.setattr(rd.DataContext.get_current(), "target_max_block_size",
                        ckpt_bytes // 2)
    m_ex, rows_ex, execs = wave("exchange")
    assert _exchange_ops(execs) == {"Sort", "MapBatches(gate)"}
    assert m_ex == m_one
    assert rows_ex.equals(rows_one)


def test_noalert_rule_adds_no_sizing_execution(ray_session, tmp_path, executions):
    """A rule set with a non-xbits ``noalert`` rule (dropped before the
    gate) still gates stage B inside the routing execution."""
    f = str(tmp_path / "d.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), f)
    rules = load_default_rules() + [parse_rule(
        'alert any any any -> any any (msg:"quiet"; content:"the"; '
        'classtype:misc-activity; noalert; sid:9001;)')]
    m = run_flagship([f], str(tmp_path / "run"), rules)
    assert len(executions) == 2
    ckpt = read_parquet_clean(str(tmp_path / "run" / "ckpt"), columns=["sid"])
    assert 9001 in _rows(ckpt)["sid"].to_pylist()  # matched, then dropped
    assert m["sinks"] == run_flagship([f], str(tmp_path / "plain"))["sinks"]
