"""Enrichment: geo / blacklist / intel lookups as one task-mode stage.

Reference: per-thread handles / in-memory tables probed per event —
GeoIP2 (``src/geoip2.c`` GeoIP2_Lookup_Country), IP/host blacklist
(``src/processors/blacklist.c``), Zeek intel sets
(``src/processors/zeek-intel.c``), DNS cache (``src/dns.c``).

Here: ONE task-mode ``map_batches`` stage (no actor pool). The small
sides go to the object store as one object, once per Ray session and
table content (``stages.ship``, the broadcast-join pattern); each
worker process gets it once and builds one :class:`Enrich` with
numpy-friendly lookup structures — and opens the mmdb reader, when one
is given — once; every batch is a vectorized probe. No shuffle ever.

Adds columns: ``country`` (geo by host, lang fallback), ``blacklisted``
(bool), ``intel_hit`` (bool, any intel indicator substring present in
text — the zeek-intel analogue).
"""

from __future__ import annotations

import hashlib
import pickle
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ship import fetch, ship


class Enrich:
    def __init__(self, geo: dict, blacklist, intel,
                 mmdb_path: str | None = None):
        self.geo: dict[str, str] = geo or {}
        self.blacklist: frozenset[str] = frozenset(blacklist or ())
        self.intel: tuple[str, ...] = tuple(intel or ())
        # real GeoIP2 path (upstream src/geoip2.c GeoIP2_Lookup_Country):
        # the .mmdb reader opens ONCE per worker process from a local file
        # path (mmdb files are node-local artifacts, not broadcast
        # payloads); when maxminddb isn't installed the broadcast dict
        # remains the only source — same `country` column contract
        self.mmdb = None
        if mmdb_path:
            try:
                import maxminddb

                self.mmdb = maxminddb.open_database(mmdb_path)
            except ImportError:
                self.mmdb = None

    def _country(self, key: str | None) -> str | None:
        """country for one DISTINCT host/addr: broadcast dict first,
        then the mmdb reader (IP-shaped keys) when one is open."""
        v = self.geo.get(key)
        if v is None and self.mmdb is not None and key:
            try:
                rec = self.mmdb.get(key)
            except Exception:  # non-IP host strings
                rec = None
            if rec:
                v = (rec.get("country") or {}).get("iso_code")
        return v

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        # factorize hosts (low-cardinality) so dict probes run once per
        # DISTINCT host, not once per row; pd.factorize is hash-based
        # O(n) — np.unique on object strings is O(n log n) comparisons
        hosts = np.asarray(batch["host"].to_pandas(), dtype=object)
        langs = np.asarray(batch["lang"].to_pandas(), dtype=object)
        geo = self.geo
        inv, uh = pd.factorize(hosts, use_na_sentinel=False)
        mapped = np.array(
            [self._country(h) if self.mmdb is not None else geo.get(h)
             for h in uh],
            dtype=object,
        )
        country = mapped[inv]
        missing = country == None  # noqa: E711  (vectorized null check)
        if missing.any():
            fb = np.array(
                [geo.get(l) or "ZZ" for l in langs[missing]], dtype=object
            )
            country[missing] = fb
        bl = self.blacklist
        bl_u = np.array([h in bl for h in uh], dtype=bool)
        blacklisted = bl_u[inv]
        if self.intel:
            hit = np.zeros(batch.num_rows, dtype=bool)
            for lit in self.intel:
                hit |= np.asarray(
                    pc.match_substring(batch["text"], lit).combine_chunks().fill_null(False),
                    dtype=bool,
                )
        else:
            hit = np.zeros(batch.num_rows, dtype=bool)
        return (
            batch.append_column("country", pa.array(country.tolist(), type=pa.string()))
            .append_column("blacklisted", pa.array(blacklisted))
            .append_column("intel_hit", pa.array(hit))
        )


def enrich_stage(ds, geo: dict, blacklist: set, intel: list,
                 mmdb_path: str | None = None):
    """Attach the enrichment stage to a Dataset: plain ``map_batches``
    tasks over one shipped copy of the lookup tables. Tasks reserve
    nothing, so the stage pipelines with the match stage — measured
    14.9 s vs 18.3 s for an actor pool on the 32 M-row enriched
    flagship.

    The tables (and ``mmdb_path``) are put in the object store once per
    Ray session and content (``ship.ship``): they are plain mutable
    containers, so the key is a digest of their pickle, not their
    identity. Each worker process builds its :class:`Enrich` (and opens
    the mmdb reader, when ``mmdb_path`` names one) once per shipped
    copy, not per batch."""
    tables = (dict(geo), set(blacklist), list(intel), mmdb_path)
    digest = hashlib.blake2b(pickle.dumps(tables), digest_size=16).digest()
    ref = ship(("enrich", digest), lambda: tables)
    return ds.map_batches(partial(enrich_batch, ref), batch_format="pyarrow")


def enrich_batch(tables_ref, t: pa.Table) -> pa.Table:
    return fetch(tables_ref, lambda tables: Enrich(*tables))(t)


class DnsCache:
    """DNS-cache-shaped lookup actor (reference ``src/dns.c``: resolve
    once, serve from an in-memory cache thereafter).

    The resolver table is broadcast once (``ray.put``); each actor holds
    it plus a per-actor hit/miss counter — the cache IS the actor state,
    so a host resolves at most once per actor regardless of how many
    batches mention it. Unknown hosts resolve to None (NXDOMAIN)."""

    def __init__(self, table_ref):
        import ray

        table = ray.get(table_ref) if isinstance(table_ref, ray.ObjectRef) else table_ref
        self.table: dict[str, str] = dict(table or {})
        self.cache: dict[str, str | None] = {}
        self.hits = 0
        self.misses = 0

    def resolve(self, host: str) -> str | None:
        if host in self.cache:
            self.hits += 1
            return self.cache[host]
        self.misses += 1
        ip = self.table.get(host)
        self.cache[host] = ip
        return ip

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        hosts = np.asarray(batch["host"].to_pandas(), dtype=object)
        # factorize, not np.unique: unique sorts with '<' and raises
        # TypeError on a null host (Enrich.__call__ has the same fix)
        inv, uh = pd.factorize(hosts, use_na_sentinel=False)
        resolved = np.array(
            [self.resolve(h) if isinstance(h, str) else None
             for h in np.asarray(uh, dtype=object)], dtype=object)
        return batch.append_column(
            "resolved_ip", pa.array(resolved[inv].tolist(), type=pa.string())
        )


def dns_stage(ds, table: dict[str, str], concurrency: int = 2):
    import ray

    ref = ray.put(dict(table))
    return ds.map_batches(
        DnsCache,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )


def default_dns_table(hosts: list[str] | None = None) -> dict[str, str]:
    """Deterministic, SQL-expressible resolver fixture:
    src{i}.example.com -> 10.0.{i % 256}.1."""
    import re

    if hosts is None:
        hosts = [f"src{i}.example.com" for i in range(20)]
    out = {}
    for h in hosts:
        m = re.search(r"(\d+)", h)
        i = int(m.group(1)) if m else 0
        out[h] = f"10.0.{i % 256}.1"
    return out


def compile_cidrs(cidrs: list[str]):
    """CIDR list -> compiled intervals: sorted (start, end) uint32
    arrays for IPv4 (the vectorized searchsorted fast path) plus a
    sorted python-int interval list for IPv6 (128-bit doesn't fit numpy;
    v6 hits bisect per distinct address, which is rare traffic anyway).

    The reference keeps its blacklist as a sorted CIDR table and binary-
    searches per event (``src/processors/blacklist.c``)."""
    import ipaddress

    v4 = []
    v6 = []
    for c in cidrs:
        net = ipaddress.ip_network(c, strict=False)
        iv = (int(net.network_address), int(net.broadcast_address))
        (v4 if net.version == 4 else v6).append(iv)
    v4.sort()
    v6.sort()
    if v4:
        starts, ends = zip(*v4)
        s4 = np.array(starts, dtype=np.uint32)
        e4 = np.array(ends, dtype=np.uint32)
    else:
        s4 = np.array([], dtype=np.uint32)
        e4 = np.array([], dtype=np.uint32)
    return s4, e4, tuple(v6)


def ips_in_cidrs(ips: list[str | None], starts: np.ndarray,
                 ends: np.ndarray, v6_ivals: tuple = ()) -> np.ndarray:
    """Membership mask of textual IPs against compiled CIDR intervals."""
    import bisect

    n = len(ips)
    out = np.zeros(n, dtype=bool)
    vals = np.zeros(n, dtype=np.uint32)
    ok = np.zeros(n, dtype=bool)
    v6_starts = [iv[0] for iv in v6_ivals]
    for i, s in enumerate(ips):
        if not s:
            continue
        if ":" in s:
            if v6_ivals:
                import ipaddress

                try:
                    v = int(ipaddress.IPv6Address(s))
                except ValueError:
                    continue
                j = bisect.bisect_right(v6_starts, v) - 1
                if j >= 0 and v <= v6_ivals[j][1]:
                    out[i] = True
            continue
        parts = s.split(".")
        if len(parts) != 4:
            continue
        try:
            p0, p1, p2, p3 = (int(x) for x in parts)
        except ValueError:
            continue
        if max(p0, p1, p2, p3) > 255 or min(p0, p1, p2, p3) < 0:
            # IPV4_RE admits 0-999 octets; a '999.1.1.1' token is not a
            # real IPv4 — without this guard the uint32 assignment
            # wraps (numpy 1.x, false blacklist hits) or raises
            # OverflowError (numpy 2.x, kills the batch)
            continue
        vals[i] = (p0 << 24) | (p1 << 16) | (p2 << 8) | p3
        ok[i] = True
    if len(starts):
        idx = np.searchsorted(starts, vals, side="right") - 1
        valid = ok & (idx >= 0)
        out[valid] |= vals[valid] <= ends[idx[valid]]
    return out


def default_lookups(hosts: list[str] | None = None):
    """Deterministic fixture lookup tables (FIXTURES.md §3): every Nth
    host maps to a country / blacklist so join hit-rates are known.

    For the documents-derived webpages the hosts are src{i}.example.com;
    geo assigns country by i % 5, blacklist takes i % 7 == 0.
    """
    countries = ["US", "DE", "FR", "CN", "RU"]
    geo: dict[str, str] = {}
    blacklist: set[str] = set()
    if hosts is None:
        hosts = [f"src{i}.example.com" for i in range(20)]
    for h in hosts:
        import re

        m = re.search(r"(\d+)", h)
        i = int(m.group(1)) if m else 0
        geo[h] = countries[i % 5]
        if i % 7 == 0:
            blacklist.add(h)
    intel = ["needle-alpha"]
    return geo, blacklist, intel
