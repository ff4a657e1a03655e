"""sagan_ray — a Ray-Data-native parse → enrich → route → aggregate engine.

A from-scratch re-derivation of the query/data-processing capabilities of
Sagan (Quadrant Information Security's log analysis & correlation engine;
see SURVEY.md for the public upstream anchors), re-expressed as
``ray.data.Dataset`` pipelines:

* vectorized rule matching (content / pcre / meta_content) via
  ``map_batches`` over zero-copy Arrow batches,
* enrichment (GeoIP-analogue, blacklist, intel) as one task-mode stage
  whose lookup tables (and mmdb reader) are built once per worker process,
* threshold / after correlation via ``groupby((sid, host, bucket))``,
* fan-out routing to per-classification sinks with a counts manifest,
* per-partition lineage records and checkpoint/resume.

Nothing in this package calls ``ray.init`` / ``ray.shutdown`` — sessions
are owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
