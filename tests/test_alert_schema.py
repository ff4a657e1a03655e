"""The alert stream keeps the canonical alert types without a cast pass:
the matcher's output, empty or not and with or without the passthrough
columns, and the routed sink files under both gate plans and both
enrichment placements."""
import glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sagan_ray.pipelines.flagship import alerts_pipeline, load_default_rules
from sagan_ray.rules import parse_rules
from sagan_ray.stages import match
from sagan_ray.stages.route import route_alerts
from sagan_ray.synth import make_batch

# ALERTS_SCHEMA, then the extraction columns, then what enrichment and
# the checkpoint add
CANON = {f.name: f.type for f in match._EMPTY_ALERTS.schema}
CANON.update({"part_id": pa.string(), "country": pa.string(),
              "blacklisted": pa.bool_(), "intel_hit": pa.bool_()})

# gates on an enrichment column, so enrichment runs before the match
_GEO = ('alert any any any -> any any (msg:"geo spark"; content:"spark"; '
        "country_code: track by_host, is [US,DE]; classtype:bad-unknown; "
        "sid:1000099; rev:1;)\n")


def _webpages(rows: int) -> pa.Table:
    return make_batch(np.arange(rows), seed=1).drop_columns(["html"])


def _assert_canonical(schema: pa.Schema) -> None:
    for f in schema:
        assert f.type == CANON[f.name], f"{f.name}: {f.type}"


@pytest.mark.parametrize("passthrough", [False, True])
def test_matcher_schema_is_canonical(passthrough):
    batch = _webpages(2000)
    if passthrough:
        n = batch.num_rows
        batch = (batch.append_column("part_id", pa.array(["p0"] * n))
                 .append_column("country", pa.array(["US"] * n))
                 .append_column("blacklisted", pa.array([False] * n))
                 .append_column("intel_hit", pa.array([True] * n)))
    matcher = match.make_matcher(load_default_rules())
    full, empty = matcher(batch), matcher(batch.slice(0, 0))
    assert full.num_rows > 0 and empty.num_rows == 0
    assert full.schema.equals(empty.schema)
    _assert_canonical(full.schema)
    assert ("country" in full.column_names) == passthrough
    assert "html" not in full.column_names


@pytest.mark.parametrize("block_bytes", [None, 16384],
                         ids=["one_block", "shuffle"], indirect=True)
@pytest.mark.parametrize("placement", ["post_gate", "pre_match"])
def test_routed_sink_schema_is_canonical(ray_session, tmp_path, block_bytes,
                                         placement):
    import ray.data as rd

    rules = load_default_rules()
    if placement == "pre_match":
        rules = rules + parse_rules(_GEO)[0]
    alerts = alerts_pipeline(rd.from_arrow(_webpages(3000)), rules,
                             enrich=True).materialize()
    shuffled = re.findall(r"Operator \d+ (Sort|MapGroups)\b", alerts.stats())
    assert bool(shuffled) == (block_bytes is not None)
    manifest = route_alerts(alerts, str(tmp_path))
    assert manifest["total"] > 0
    files = glob.glob(os.path.join(str(tmp_path), "sinks", "**", "*.parquet"),
                      recursive=True)
    assert files
    want = set(CANON) - {"classification", "part_id"}
    for f in files:
        schema = pq.read_schema(f)
        assert set(schema.names) == want
        _assert_canonical(schema)
