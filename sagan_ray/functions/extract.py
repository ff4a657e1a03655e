"""Field-extraction kernels (reference parsers re-derived).

Upstream anchors (capability, not code): ``src/parsers/parse-ip.c``
(Parse_IP — Nth IP-looking token), ``src/parsers/parse-port.c``,
``src/parsers/parse-hash.c`` (first hex token of the right length),
``parse-proto.c`` / ``parse-proto-program.c``. All re-expressed as batch
kernels over Arrow string arrays; ``normalize`` (liblognormalize.c) runs
the rule's own compiled regex in ``stages.match``.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

IPV4_RE = re.compile(r"(?<![\d.])((?:\d{1,3}\.){3}\d{1,3})(?![\d.])")
# IPv6 candidate tokens (hex+colons, token-bounded); compressed forms
# (::) make a closed-form regex error-prone, so candidates are validated
# with ipaddress (parse-ip.c accepts both families in message order).
IPV6_CAND_RE = re.compile(
    r"(?<![0-9A-Fa-f:.])([0-9A-Fa-f]{0,4}:[0-9A-Fa-f:]{1,38})(?![0-9A-Fa-f:.])"
)


def _ips_in_order(text: str) -> list[str]:
    import ipaddress

    found: list[tuple[int, str]] = []
    for m in IPV4_RE.finditer(text):
        found.append((m.start(), m.group(1)))
    for m in IPV6_CAND_RE.finditer(text):
        tok = m.group(1)
        if ":" not in tok:
            continue
        try:
            ipaddress.IPv6Address(tok)
        except ValueError:
            continue
        found.append((m.start(), tok))
    found.sort()
    return [ip for _pos, ip in found]
PORT_RE = re.compile(r"(?:\d{1,3}\.){3}\d{1,3}:(\d{1,5})|port\s+(\d{1,5})", re.I)
HASH_RES = {
    "md5": re.compile(r"\b[0-9a-fA-F]{32}\b"),
    "sha1": re.compile(r"\b[0-9a-fA-F]{40}\b"),
    "sha256": re.compile(r"\b[0-9a-fA-F]{64}\b"),
}


def nth_ip(texts: list[str | None], n: int = 1) -> list[str | None]:
    """Nth IP-looking token per text (1-based, v4 or v6 in message
    order), None if absent."""
    out: list[str | None] = []
    for t in texts:
        if t is None:
            out.append(None)
            continue
        found = _ips_in_order(t)
        out.append(found[n - 1] if len(found) >= n else None)
    return out


def first_port(texts: list[str | None]) -> list[int | None]:
    out: list[int | None] = []
    for t in texts:
        if t is None:
            out.append(None)
            continue
        m = PORT_RE.search(t)
        out.append(int(m.group(1) or m.group(2)) if m else None)
    return out


def first_hash(texts: list[str | None], kind: str) -> list[str | None]:
    rx = HASH_RES[kind]
    out: list[str | None] = []
    for t in texts:
        if t is None:
            out.append(None)
            continue
        m = rx.search(t)
        out.append(m.group(0).lower() if m else None)
    return out


# parse-proto.c: first protocol keyword in the message decides, fixed
# priority order; parse-proto-program.c: the reporting program implies
# the protocol via a static table.
PROTO_KEYWORDS = ("tcp", "udp", "icmp")
PROGRAM_PROTO_MAP = {
    "sshd": "tcp", "httpd": "tcp", "nginx": "tcp", "ftpd": "tcp",
    "smtpd": "tcp", "named": "udp", "ntpd": "udp", "snmpd": "udp",
    "dhcpd": "udp",
}


def proto_from_text(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized keyword scan -> proto column (None if no keyword).

    One Arrow regex pass per keyword; priority = PROTO_KEYWORDS order
    (SQL mirror: CASE WHEN regexp_matches(text,'\\btcp\\b') THEN 'tcp' …).
    """
    n = len(texts)
    out = pc.cast(pa.nulls(n), pa.string())
    for kw in reversed(PROTO_KEYWORDS):  # earlier keywords overwrite later
        hit = pc.match_substring_regex(texts, rf"\b{kw}\b", ignore_case=True)
        out = pc.if_else(pc.fill_null(hit, False), pa.scalar(kw), out)
    return out


def proto_from_program(programs: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Program name -> proto via the static table (None when unknown)."""
    vals = [
        PROGRAM_PROTO_MAP.get((p or "").split("/")[0].lower())
        for p in programs.to_pylist()
    ]
    return pa.array(vals, type=pa.string())
