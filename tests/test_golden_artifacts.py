"""Golden artifact files (FIXTURES.md §5): committed per-sink counts and
an order-insensitive routed-row-set hash; EVE sink; regenerated each run
and compared to the committed copies."""

import hashlib
import json
import os

import pyarrow.dataset as pads
import pytest

from sagan_ray.engine import EngineConfig
from sagan_ray.pipelines.flagship import load_default_rules, run_streaming
from sagan_ray.sources.webpages import webpages_from_documents

SF = "/root/testdata/sf0.001"
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def routed_hash(sink_dir: str) -> str:
    t = pads.dataset(sink_dir, partitioning="hive").to_table()
    rows = sorted(zip(t["url"].to_pylist(), t["sid"].to_pylist()))
    h = hashlib.sha256()
    for u, s in rows:
        h.update(f"{u}\x1f{s}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("golden_run"))
    ds = webpages_from_documents(SF)
    run_streaming(ds, load_default_rules(), out)
    return out


def test_manifest_matches_committed(run_dir):
    with open(os.path.join(GOLDEN_DIR, "manifest.json")) as f:
        golden = json.load(f)
    with open(os.path.join(run_dir, "manifest.json")) as f:
        got = json.load(f)
    assert got == golden


def test_routed_hash_matches_committed(run_dir):
    with open(os.path.join(GOLDEN_DIR, "routed_hash.json")) as f:
        golden = json.load(f)
    assert routed_hash(os.path.join(run_dir, "sinks")) == golden["sha256"]


def test_eve_ndjson_sink(ray_session, tmp_path):
    cfg = EngineConfig(write_eve=True)
    out = str(tmp_path / "eve_run")
    manifest = cfg.run(webpages_from_documents(SF), out)
    eve_dir = os.path.join(out, "eve")
    lines = 0
    for f in os.listdir(eve_dir):
        with open(os.path.join(eve_dir, f)) as fh:
            for line in fh:
                rec = json.loads(line)
                assert "sid" in rec and "url" in rec and "classification" in rec
                lines += 1
    assert lines == manifest["total"]


def test_eve_tee_retry_rewrites_its_file(ray_session, tmp_path, monkeypatch):
    """A route task whose worker dies right after its EVE tee wrote a
    file is retried by Ray, and the retry rewrites the same path
    (``route._sink_token``: the task id survives the retry, the call
    sequence restarts in the new process): the EVE lines equal the
    routed rows, with no duplicate file."""
    from sagan_ray.pipelines.flagship import alerts_pipeline
    from sagan_ray.stages import route

    flag = str(tmp_path / "killed.json")
    tee = route._eve_tee

    def dying_tee(eve_dir):
        inner = tee(eve_dir)

        def once(batch):
            before = set(os.listdir(eve_dir))
            out = inner(batch)
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:  # a later attempt or another task
                return out
            os.write(fd, json.dumps(sorted(set(os.listdir(eve_dir)) - before))
                     .encode())
            os.close(fd)
            os._exit(1)  # the worker dies after the write

        return once

    monkeypatch.setattr(route, "_eve_tee", dying_tee)
    out = str(tmp_path / "run")
    alerts = alerts_pipeline(webpages_from_documents(SF), load_default_rules())
    manifest = route.route_alerts(alerts, out, write_eve=True)
    assert manifest["total"] == 2373

    with open(flag) as f:
        killed_files = json.load(f)
    eve_dir = os.path.join(out, "eve")
    assert killed_files and set(killed_files) <= set(os.listdir(eve_dir))
    eve = []
    for name in os.listdir(eve_dir):
        with open(os.path.join(eve_dir, name)) as fh:
            eve += [json.loads(line) for line in fh]
    routed = pads.dataset(os.path.join(out, "sinks"), partitioning="hive").to_table()
    assert sorted((r["url"], r["sid"]) for r in eve) == sorted(
        zip(routed["url"].to_pylist(), routed["sid"].to_pylist()))


def _parquet_files(sink_dir: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(root, f), sink_dir)
                  for root, _dirs, files in os.walk(sink_dir)
                  for f in files if f.endswith(".parquet"))


def test_sink_write_retry_rewrites_its_files(run_dir, tmp_path, monkeypatch):
    """A route task whose worker dies inside the parquet write, after it
    wrote part of its rows, is retried by Ray; the retry writes the same
    file names (Ray's write uuid and task index survive the retry), so
    no duplicate or partial sink rows remain: the manifest, routed hash
    and file count equal an uninterrupted run's."""
    import ray.data.dataset
    from ray.data._internal.datasource.parquet_datasink import ParquetDatasink

    flag = str(tmp_path / "killed.json")

    class DyingSink(ParquetDatasink):
        def _write_parquet_files(self, tables, filename, *args):
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:  # a later attempt or another task
                return super()._write_parquet_files(tables, filename, *args)
            half = [t.slice(0, t.num_rows // 2) for t in tables]
            super()._write_parquet_files(half, filename, *args)
            written = [os.path.relpath(os.path.join(root, f), self.path)
                       for root, _dirs, files in os.walk(self.path)
                       for f in files]  # this class pickles by value
            os.write(fd, json.dumps(written).encode())
            os.close(fd)
            os._exit(1)  # the worker dies inside the write

    monkeypatch.setattr(ray.data.dataset, "ParquetDatasink", DyingSink)
    out = str(tmp_path / "run")
    manifest = run_streaming(webpages_from_documents(SF), load_default_rules(), out)

    with open(flag) as f:
        killed_files = json.load(f)
    sinks = os.path.join(out, "sinks")
    assert killed_files and set(killed_files) <= set(_parquet_files(sinks))
    with open(os.path.join(run_dir, "manifest.json")) as f:
        assert manifest == json.load(f)
    assert manifest["total"] == 2373
    assert routed_hash(sinks) == routed_hash(os.path.join(run_dir, "sinks"))
    assert len(_parquet_files(sinks)) == len(
        _parquet_files(os.path.join(run_dir, "sinks")))


def test_fast_log_sink(ray_session, tmp_path):
    import ray.data as rd

    from sagan_ray.stages.route import write_fast_log

    sink = pads.dataset  # noqa: F841 (imported at module top)
    # reuse the routed parquet from a tiny streaming run
    out = str(tmp_path / "r")
    ds = webpages_from_documents(SF)
    manifest = run_streaming(ds, load_default_rules(), out)
    alerts = rd.read_parquet(os.path.join(out, "sinks"))
    fast_dir = str(tmp_path / "fast")
    write_fast_log(alerts, fast_dir)
    lines = []
    for f in os.listdir(fast_dir):
        with open(os.path.join(fast_dir, f)) as fh:
            lines.extend(fh.read().splitlines())
    assert len(lines) == manifest["total"]
    assert "[**]" in lines[0] and "[Classification:" in lines[0]
