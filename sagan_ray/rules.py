"""Rule DSL compiler — Sagan/Snort-flavored rules → immutable Python IR.

Re-derives the public rule-option surface of the reference (upstream
``src/rules.c`` Load_Rules compiles ``.rules`` text into a global
``rulestruct[]`` array; option semantics documented in the Sagan User
Guide and the Snort/Suricata rule-language docs it deliberately mirrors).
No Ray: rules are compiled ONCE, where they load, and broadcast to
workers (closure capture / actor ctor args), mirroring the reference's
load-once-then-read-only array. ``compile_rule`` is the only place a
rule's regexes are built: each ``pcre`` and ``json_pcre`` on the `regex`
module (so ``\\p{Lu}`` means the same in both, and a malformed pattern
fails at load), each pcre's RE2 form for the Arrow kernel (or None when
RE2 cannot run it), the ``normalize`` regex, the ``program`` globs and
the header globs. The matcher runs only these compiled forms.

Load-time errors (``ValueError``; the regex, flag and gate errors name
the sid): a malformed ``pcre``/``json_pcre``, or one with a flag other
than ``i``/``s``/``m``/``x`` (Snort's ``R``, ``U``, ``B`` … are not
implemented, and dropping them would change what matches); ``nocase``,
``rawbytes``, ``offset``, ``depth``, ``distance`` or ``within`` with no
``content`` before it; an xbits option without a name, or a ``track``
/ ``expire`` without a value; a ``threshold`` ``type`` other than
``limit``/``suppress``/``threshold``; ``seconds`` below 1, a negative
``count``, or a ``count`` below 1 with ``type threshold``.

Supported options (SURVEY.md §2.2–2.7):
  msg, sid, rev, classtype, priority, program, facility, level,
  content (+ nocase / offset / depth / distance / within / negation),
  pcre, meta_content (+ meta_nocase, var lists), json_content, json_pcre,
  event_id, normalize (named-group regex), parse_src_ip, parse_port,
  parse_hash, alert_time, threshold (limit|suppress|threshold), after, xbits,
  country_code, blacklist, noalert.

Semantics notes (frozen here because /root/reference is empty — these are
OUR documented definitions, tested in tests/test_rules.py):
  * content position chain: an absolute content must START in
    ``[offset, offset+depth)`` (depth=∞ if absent); a relative content
    (distance/within present) must START in
    ``[prev_end+distance, prev_end+distance+within)``.
  * hex escapes ``|0A 0D|`` decode to the corresponding latin-1 chars.
  * meta_content fires if ANY value of the var list matches (OR-list).
  * header nets map to host allowlists via the var table (``$HOME_NET``).
"""

from __future__ import annotations

import re as _stdre
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

try:  # the `regex` module (PCRE-ish) if present; stdlib re otherwise
    import regex as _re
except ImportError:  # pragma: no cover
    _re = _stdre

# ---------------------------------------------------------------------------
# IR dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Content:
    pattern: str
    nocase: bool = False
    negated: bool = False
    offset: int | None = None
    depth: int | None = None
    distance: int | None = None
    within: int | None = None
    rawbytes: bool = False  # match against the raw payload (html), not text

    @property
    def relative(self) -> bool:
        return self.distance is not None or self.within is not None

    @property
    def constrained(self) -> bool:
        return (
            self.offset is not None
            or self.depth is not None
            or self.relative
        )


@dataclass(frozen=True)
class Pcre:
    pattern: str
    flags: int  # python re flags
    raw: str  # original /re/flags text (for oracle generation)
    negated: bool = False


@dataclass(frozen=True)
class MetaContent:
    template: str  # contains %sagan%
    values: tuple[str, ...]
    nocase: bool = False

    def literals(self) -> tuple[str, ...]:
        return tuple(self.template.replace("%sagan%", v) for v in self.values)


@dataclass(frozen=True)
class Threshold:
    ttype: str  # "limit" | "suppress" | "threshold" (every count-th)
    track: str  # "by_host" | "by_lang" | "by_src" (alias of by_host)
    count: int
    seconds: int


@dataclass(frozen=True)
class After:
    track: str
    count: int
    seconds: int


@dataclass(frozen=True)
class Xbits:
    action: str  # set | unset | isset | isnotset
    name: str
    track: str  # by_host | by_lang
    expire: int | None = None  # seconds


@dataclass(frozen=True)
class AlertTime:
    days: frozenset[int]  # 0=Monday … 6=Sunday (ISO, matches DuckDB dayofweek-1)
    start_hour: int
    end_hour: int  # window is [start_hour, end_hour) in hours of day


@dataclass(frozen=True)
class CountryCode:
    track: str
    op: str  # "is" | "isnot"
    codes: tuple[str, ...]


@dataclass(frozen=True)
class HostSpec:
    """One side of a rule header: a glob allowlist over an endpoint
    column, optionally negated. ``globs=()`` means ``any``."""

    globs: tuple[str, ...] = ()
    negated: bool = False

    @property
    def is_any(self) -> bool:
        return not self.globs


@dataclass(frozen=True)
class Header:
    """Compiled rule header (reference: ``src/flow.c`` Check_Flow).

    Documented mapping for the single-endpoint log data model (SURVEY
    §2.7: "header nets map to host/lang allowlists via the var table"):
    the SRC spec gates the ``host`` column, the DST spec gates the
    ``lang`` column (the facility-analogue), ``<>`` matches either
    orientation. ``proto`` gates a ``proto`` column when one exists;
    syslog-style events carry no transport protocol, so absent the
    column a non-any proto is a no-op — exactly upstream's behavior
    where Check_Flow only tests protos liblognorm actually extracted.
    Ports are parsed but ignored (no port column in the data model)."""

    proto: str = "any"
    src: HostSpec = HostSpec()
    src_port: str = "any"
    dst: HostSpec = HostSpec()
    dst_port: str = "any"
    bidirectional: bool = False

    @property
    def is_any(self) -> bool:
        return self.src.is_any and self.dst.is_any and self.proto == "any"


@dataclass
class Rule:
    sid: int
    rev: int = 1
    msg: str = ""
    classtype: str = "unknown"
    priority: int = 3
    action: str = "alert"
    # gates (cheap prefilters, evaluated first — reference engine order)
    programs: tuple[str, ...] = ()  # host glob patterns, |-separated in DSL
    facility: str | None = None  # → lang column
    level: str | None = None  # → source-like column
    tag: str | None = None  # → tag column (syslog tag gate)
    # matchers
    contents: tuple[Content, ...] = ()
    pcres: tuple[Pcre, ...] = ()
    meta_contents: tuple[MetaContent, ...] = ()
    json_contents: tuple[tuple[str, str], ...] = ()  # (json key path, value)
    json_pcres: tuple[tuple[str, Pcre], ...] = ()
    # (path, literal OR-list, nocase) — meta_content against a json key
    json_metas: tuple[tuple[str, tuple[str, ...], bool], ...] = ()
    event_ids: tuple[int, ...] = ()
    # header (flow.c analogue; None == `any any any -> any any`)
    header: Header | None = None
    # extraction
    normalize: str | None = None  # named-group regex
    parse_src_ip: int | None = None
    parse_dst_ip: int | None = None
    parse_port: bool = False
    parse_hash: str | None = None
    parse_proto: bool = False  # proto from message keywords
    parse_proto_program: bool = False  # proto from the program column
    default_proto: str | None = None  # fills proto when parsers find none
    default_src_port: int | None = None  # fills src_port when unparsed
    # predicates
    alert_time: AlertTime | None = None
    country_code: CountryCode | None = None
    blacklist: str | None = None  # track
    # correlation
    threshold: Threshold | None = None
    after: After | None = None
    xbits: tuple[Xbits, ...] = ()
    noalert: bool = False
    # per-rule mail routing (upstream smtp.c `email:` option); None =
    # the sink's default address
    email: str | None = None
    # at-detection rule loading (upstream dynamic-rules.c
    # `dynamic_load: /path.rules`): when this rule fires, the engine
    # loads the named rules file. Batch analogue: follow_directory
    # loads it at wave END, once — never mid-wave, because a retried
    # block must re-match under the exact rule set its wave started
    # with (Ray task retries are replays, not continuations).
    dynamic_load: str | None = None
    # compiled artifacts (filled by compile_rule)
    _pcre_compiled: tuple = field(default=(), repr=False)
    _pcre_arrow: tuple = field(default=(), repr=False)  # RE2 pattern | None
    _json_pcre_compiled: tuple = field(default=(), repr=False)
    _normalize_compiled: object = field(default=None, repr=False)
    _program_re: object = field(default=None, repr=False)
    _header_src_re: object = field(default=None, repr=False)
    _header_dst_re: object = field(default=None, repr=False)


# default classification map (reference: classification.config shipped with
# the rule corpus; name -> priority)
CLASSIFICATIONS: dict[str, int] = {
    "not-suspicious": 3,
    "unknown": 3,
    "bad-unknown": 2,
    "attempted-recon": 2,
    "web-application-activity": 2,
    "web-application-attack": 1,
    "attempted-admin": 1,
    "policy-violation": 1,
    "suspicious-traffic": 2,
    "correlated-attack": 1,
    "misc-activity": 3,
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_HEX_RE = _stdre.compile(r"\|([0-9A-Fa-f ]+)\|")


def _decode_hex(pattern: str) -> str:
    """Decode Snort-style |0A 0D| hex escapes to latin-1 chars."""

    def sub(m: _stdre.Match) -> str:
        hx = m.group(1).replace(" ", "")
        return bytes.fromhex(hx).decode("latin-1")

    return _HEX_RE.sub(sub, pattern)


def _split_options(body: str) -> list[str]:
    """Split an option body on ';' respecting double quotes and backslash."""
    parts, cur, in_q, esc = [], [], False, False
    for ch in body:
        if esc:
            cur.append(ch)
            esc = False
            continue
        if ch == "\\":
            cur.append(ch)
            esc = True
            continue
        if ch == '"':
            in_q = not in_q
            cur.append(ch)
            continue
        if ch == ";" and not in_q:
            parts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _unquote(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == '"' and v[-1] == '"':
        v = v[1:-1]
    return v


_PCRE_FLAG_MAP = {"i": _stdre.I, "s": _stdre.S, "m": _stdre.M, "x": _stdre.X}


def _parse_pcre(raw: str) -> Pcre:
    raw = _unquote(raw)
    negated = raw.startswith("!")
    if negated:
        raw = _unquote(raw[1:])
    if not (raw.startswith("/") and "/" in raw[1:]):
        raise ValueError(f"bad pcre: {raw!r}")
    end = raw.rfind("/")
    pat, flag_s = raw[1:end], raw[end + 1 :]
    flags = 0
    for f in flag_s:
        flags |= _PCRE_FLAG_MAP.get(f, 0)
    return Pcre(pattern=pat, flags=flags, raw=raw, negated=negated)


def _parse_kv_list(val: str) -> dict[str, str]:
    """'type limit, track by_host, count 3, seconds 3600' -> dict."""
    out: dict[str, str] = {}
    for piece in val.split(","):
        toks = piece.strip().split(None, 1)
        if len(toks) == 2:
            out[toks[0]] = toks[1].strip()
        elif len(toks) == 1 and toks[0]:
            out[toks[0]] = ""
    return out


def _parse_host_spec(tok: str, var_table: dict[str, list[str]]) -> HostSpec:
    """`any` | `$VAR` | `[a,b,!c]` | `item` | `!spec` -> HostSpec."""
    tok = tok.strip()
    negated = tok.startswith("!")
    if negated:
        tok = tok[1:].strip()
    if tok.lower() == "any" or not tok:
        return HostSpec(negated=negated) if negated else HostSpec()
    if tok.startswith("$"):
        vals = var_table.get(tok[1:])
        if vals is None:
            raise ValueError(f"undefined header var {tok}")
        items = tuple(vals)
    elif tok.startswith("[") and tok.endswith("]"):
        items = tuple(x.strip() for x in tok[1:-1].split(",") if x.strip())
    else:
        items = (tok,)
    if not negated and any(x.lower() == "any" for x in items):
        # `var HOME_NET [any]` is the standard open config — an `any`
        # member makes the allowlist match-all
        return HostSpec()
    return HostSpec(globs=items, negated=negated)


def _parse_header(header_s: str, var_table: dict[str, list[str]]) -> Header | None:
    """`proto src sport (->|<>) dst dport` -> Header (None if all-any).

    Bracketed lists may contain spaces, so tokenize with bracket depth.
    """
    s = header_s.strip()
    if not s:
        return None
    toks: list[str] = []
    cur: list[str] = []
    depth = 0
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                toks.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        toks.append("".join(cur))
    if not toks:
        return None
    if toks[0].lower() in ("any", "tcp", "udp", "icmp", "ip", "syslog"):
        proto = toks[0].lower()
        # `syslog` is the transport designator of every Sagan rule, not
        # a constraint; `ip` matches every IP proto — both are any here
        proto = "any" if proto in ("syslog", "ip") else proto
        toks = toks[1:]
    else:
        proto = "any"
    if len(toks) not in (0, 5):
        raise ValueError(f"bad rule header {header_s!r} (need 5 tokens after proto)")
    if not toks:
        hdr = Header(proto=proto)
        return None if hdr.is_any else hdr
    src, sport, direction, dst, dport = toks
    if direction not in ("->", "<>"):
        raise ValueError(f"bad header direction {direction!r}")
    hdr = Header(
        proto=proto,
        src=_parse_host_spec(src, var_table),
        src_port=sport.lower(),
        dst=_parse_host_spec(dst, var_table),
        dst_port=dport.lower(),
        bidirectional=direction == "<>",
    )
    return None if hdr.is_any else hdr


def parse_rule(line: str, var_table: dict[str, list[str]] | None = None) -> Rule:
    """Parse one 'alert ... ( options )' line into a Rule."""
    var_table = var_table or {}
    m = _stdre.match(r"^\s*(alert|drop|pass)\b([^(]*)\((.*)\)\s*$", line, _stdre.S)
    if not m:
        raise ValueError(f"unparseable rule: {line[:120]!r}")
    action, header_s, body = m.group(1), m.group(2), m.group(3)

    r = Rule(sid=0, action=action)
    r.header = _parse_header(header_s, var_table)
    contents: list[Content] = []
    pcres: list[Pcre] = []
    metas: list[MetaContent] = []
    xbits: list[Xbits] = []
    jsonc: list[tuple[str, str]] = []
    jsonp: list[tuple[str, Pcre]] = []
    jsonm: list[tuple[str, tuple[str, ...], bool]] = []
    # a *_nocase written BEFORE its matcher modifies the NEXT matcher,
    # not whichever happens to be last at rule end
    pending_meta_nocase = pending_json_nocase = False

    for opt in _split_options(body):
        if ":" in opt:
            key, val = opt.split(":", 1)
        else:
            key, val = opt, ""
        key = key.strip()
        val = val.strip()

        if key == "msg":
            r.msg = _unquote(val)
        elif key == "sid":
            r.sid = int(val)
        elif key == "rev":
            r.rev = int(val)
        elif key == "classtype":
            r.classtype = val
            r.priority = CLASSIFICATIONS.get(val, 3)
        elif key == "priority":
            r.priority = int(val)
        elif key == "email":
            r.email = _unquote(val)
        elif key == "dynamic_load":
            r.dynamic_load = _unquote(val)
        elif key == "program":
            pats = _unquote(val)
            r.programs = tuple(p.strip() for p in pats.split("|") if p.strip())
        elif key == "facility":
            r.facility = _unquote(val)
        elif key == "level":
            r.level = _unquote(val)
        elif key == "tag":
            r.tag = _unquote(val)
        elif key == "content":
            raw = _unquote(val)
            negated = raw.startswith("!")
            if negated:
                raw = _unquote(raw[1:])
            contents.append(Content(pattern=_decode_hex(raw), negated=negated))
        elif key in ("nocase", "rawbytes", "offset", "depth", "distance", "within"):
            if not contents:
                raise ValueError(f"{key} without content")
            v = True if key in ("nocase", "rawbytes") else int(val)
            contents[-1] = Content(**{**contents[-1].__dict__, key: v})
        elif key == "pcre":
            pcres.append(_parse_pcre(val))
        elif key == "meta_content":
            # meta_content:"tpl_%sagan%", $VAR;   or inline list a|b|c
            parts = val.split(",", 1)
            tpl = _unquote(parts[0])
            if len(parts) < 2:
                raise ValueError("meta_content needs a value list")
            ref = parts[1].strip()
            if ref.startswith("$"):
                values = tuple(var_table.get(ref[1:], ()))
                if not values:
                    raise ValueError(f"undefined var {ref}")
            else:
                values = tuple(_unquote(ref).split("|"))
            metas.append(MetaContent(template=_decode_hex(tpl), values=values,
                                     nocase=pending_meta_nocase))
            pending_meta_nocase = False
        elif key == "meta_nocase":
            if metas:
                last = metas[-1]
                metas[-1] = MetaContent(last.template, last.values, nocase=True)
            else:
                pending_meta_nocase = True
        elif key == "json_content":
            path, jv = val.split(",", 1)
            jsonc.append((_unquote(path), _unquote(jv)))
        elif key == "json_pcre":
            path, jv = val.split(",", 1)
            jsonp.append((_unquote(path), _parse_pcre(jv)))
        elif key == "json_meta_content":
            # json_meta_content:".path", $VAR;  or  ".path", a|b|c
            path, ref = val.split(",", 1)
            ref = ref.strip()
            if ref.startswith("$"):
                values = tuple(var_table.get(ref[1:], ()))
                if not values:
                    raise ValueError(f"undefined var {ref}")
            else:
                values = tuple(_unquote(ref).split("|"))
            jsonm.append((_unquote(path), values, pending_json_nocase))
            pending_json_nocase = False
        elif key == "json_meta_nocase":
            if jsonm:
                pth, vals_, _nc = jsonm[-1]
                jsonm[-1] = (pth, vals_, True)
            else:
                pending_json_nocase = True
        elif key == "event_id":
            r.event_ids = tuple(int(x) for x in _unquote(val).split(",") if x.strip())
        elif key == "normalize":
            r.normalize = _unquote(val) if val else None
        elif key == "parse_src_ip":
            r.parse_src_ip = int(val) if val else 1
        elif key == "parse_dst_ip":
            r.parse_dst_ip = int(val) if val else 2
        elif key == "parse_port":
            r.parse_port = True
        elif key == "parse_hash":
            r.parse_hash = _unquote(val)
        elif key == "parse_proto":
            r.parse_proto = True
        elif key == "parse_proto_program":
            r.parse_proto_program = True
        elif key == "default_proto":
            r.default_proto = _unquote(val).lower()
        elif key == "default_src_port":
            r.default_src_port = int(val)
        elif key == "alert_time":
            kv = _parse_kv_list(_unquote(val))
            days = frozenset(int(c) for c in kv.get("days", "0123456"))
            hrs = kv.get("hours", "0000-2400")
            a, b = hrs.split("-")
            r.alert_time = AlertTime(days=days, start_hour=int(a) // 100, end_hour=int(b) // 100)
        elif key == "threshold":
            kv = _parse_kv_list(val)
            r.threshold = Threshold(
                ttype=kv.get("type", "limit"),
                track=kv.get("track", "by_host"),
                count=int(kv.get("count", "1")),
                seconds=int(kv.get("seconds", "3600")),
            )
        elif key == "after":
            kv = _parse_kv_list(val)
            r.after = After(
                track=kv.get("track", "by_host"),
                count=int(kv.get("count", "1")),
                seconds=int(kv.get("seconds", "3600")),
            )
        elif key in ("xbits", "flexbits", "flowbits"):
            # flexbits is the xbits predecessor (src/flexbit-mmap.c);
            # same surface here
            toks = [t.strip() for t in val.split(",")]
            if toks[0] == "noalert" and len(toks) == 1:
                # Snort-style `flowbits:noalert;` — suppress output,
                # keep matching for state
                r.noalert = True
                continue
            if len(toks) < 2 or not toks[1]:
                raise ValueError(f"{key}:{val} without a name")
            action_x, name = toks[0], toks[1]
            track = "by_host"
            expire = None
            for t in toks[2:]:
                kv_x = t.split(None, 1)
                if t.startswith(("track", "expire")) and len(kv_x) < 2:
                    raise ValueError(f"{key} option {t!r} without a value")
                if t.startswith("track"):
                    track = kv_x[1].strip()
                elif t.startswith("expire"):
                    expire = int(kv_x[1])
            xbits.append(Xbits(action=action_x, name=name, track=track, expire=expire))
        elif key == "country_code":
            m2 = _stdre.search(r"\b(isnot|is)\s*\[([^\]]*)\]", val)
            if not m2:
                raise ValueError(f"bad country_code: {val!r}")
            op, codes_s = m2.group(1), m2.group(2)
            codes = tuple(c.strip() for c in codes_s.split(",") if c.strip())
            tm = _stdre.search(r"track\s+(\S+)", val)
            r.country_code = CountryCode(
                track=tm.group(1).rstrip(",") if tm else "by_host", op=op, codes=codes
            )
        elif key == "blacklist":
            r.blacklist = val or "by_host"
        elif key == "noalert":
            r.noalert = True
        elif key in ("reference", "metadata", "flowbits_noalert",
                     "fast_pattern", "gid", "sid_map", "target"):
            pass  # informational / optimizer hints (the union-literal
            # prefilter already multi-patterns every content)
        else:
            raise ValueError(f"unknown rule option {key!r} (sid-in-progress {r.sid})")

    r.contents = tuple(contents)
    r.pcres = tuple(pcres)
    r.meta_contents = tuple(metas)
    r.xbits = tuple(xbits)
    r.json_contents = tuple(jsonc)
    r.json_pcres = tuple(jsonp)
    r.json_metas = tuple(jsonm)
    if r.sid == 0:
        raise ValueError("rule missing sid")
    for p in (*r.pcres, *(p for _, p in r.json_pcres)):
        for f in p.raw[p.raw.rfind("/") + 1:]:
            if f not in _PCRE_FLAG_MAP:
                raise ValueError(f"sid {r.sid}: unsupported pcre flag {f!r} "
                                 f"in {p.raw!r}")
    _check_gates(r)
    return compile_rule(r)


def _check_gates(r: Rule) -> None:
    """Reject threshold/after values the gate would divide by or read
    as another type (correlate buckets rows by ``seconds`` and keeps
    every ``count``-th row of a ``type threshold``)."""
    for opt, g in (("threshold", r.threshold), ("after", r.after)):
        if g is None:
            continue
        ttype = getattr(g, "ttype", None)
        if ttype not in (None, "limit", "suppress", "threshold"):
            raise ValueError(f"sid {r.sid}: unknown threshold type {ttype!r}")
        if g.seconds < 1:
            raise ValueError(f"sid {r.sid}: {opt} seconds {g.seconds} < 1")
        low = 1 if ttype == "threshold" else 0
        if g.count < low:
            raise ValueError(f"sid {r.sid}: {opt} count {g.count} < {low}")


def compile_rule(r: Rule) -> Rule:
    """Compile every regex the matcher runs (once, at load — the
    reference compiles PCRE at rule load in Load_Rules)."""

    def compile_re(pattern: str, flags: int = 0):
        try:
            return _re.compile(pattern, flags)
        except _re.error as e:
            raise ValueError(f"sid {r.sid}: bad regex {pattern!r}: {e}") from None

    r._pcre_compiled = tuple(compile_re(p.pattern, p.flags) for p in r.pcres)
    r._pcre_arrow = tuple(_arrow_regex_pattern(p) for p in r.pcres)
    r._json_pcre_compiled = tuple(compile_re(p.pattern, p.flags)
                                  for _, p in r.json_pcres)
    if r.normalize:
        r._normalize_compiled = compile_re(r.normalize)
    if r.programs:
        r._program_re = _stdre.compile(_glob_alternation(r.programs))
    if r.header is not None:
        r._header_src_re = _glob_alternation(r.header.src.globs)
        r._header_dst_re = _glob_alternation(r.header.dst.globs)
    return r


def _arrow_regex_pattern(p: Pcre) -> str | None:
    """Python-flagged pattern -> RE2 pattern with inline flags, or None if
    RE2 can't run it. RE2 has no verbose mode, so an ``x`` pattern is
    left to Python."""
    if p.flags & _stdre.X:
        return None
    flag_chars = "".join(c for c, f in (("i", _stdre.I), ("s", _stdre.S),
                                        ("m", _stdre.M)) if p.flags & f)
    pat = f"(?{flag_chars})" + p.pattern if flag_chars else p.pattern
    try:
        pc.match_substring_regex(pa.array([""], type=pa.string()), pat)
        return pat
    except pa.ArrowInvalid:
        return None


def _glob_alternation(globs: tuple[str, ...]) -> str | None:
    """Glob list -> one anchored RE2 alternation PATTERN (Arrow-kernel
    ready), or None for `any`."""
    if not globs:
        return None
    alts = [
        "^" + _stdre.escape(g).replace(r"\*", ".*").replace(r"\?", ".") + "$"
        for g in globs
    ]
    return "|".join(alts)


def parse_rules(
    text: str, var_table: dict[str, list[str]] | None = None
) -> tuple[list[Rule], dict[str, list[str]]]:
    """Parse a rules file: ``var NAME [a, b, c]`` lines + rule lines.

    Returns (rules, var_table). Lines may be continued with a trailing
    backslash; '#' comments and blanks ignored.
    """
    var_table = dict(var_table or {})
    rules: list[Rule] = []
    logical: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        logical.append(pending + line)
        pending = ""
    for line in logical:
        if line.startswith("var "):
            _, name, val = line.split(None, 2)
            vals = [v.strip() for v in val.strip("[]").split(",") if v.strip()]
            var_table[name] = vals
        else:
            rules.append(parse_rule(line, var_table))
    return rules, var_table


def load_rules_file(path: str, var_table: dict[str, list[str]] | None = None) -> list[Rule]:
    import os

    with open(path) as f:
        rules, _ = parse_rules(f.read(), var_table)
    # a relative dynamic_load: resolves against the DECLARING rules
    # file, not the daemon's cwd (same convention as the engine's
    # blacklist_file/intel_file _resolve)
    base = os.path.dirname(os.path.abspath(path))
    for r in rules:
        if r.dynamic_load and not os.path.isabs(r.dynamic_load):
            r.dynamic_load = os.path.join(base, r.dynamic_load)
    return rules
