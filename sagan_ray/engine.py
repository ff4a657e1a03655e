"""User-facing engine config — the ``sagan.yaml`` analogue.

Reference surface (upstream ``etc/sagan.yaml`` + ``src/config-yaml.c``
Load_YAML_Config): rules files, ignore list, processor toggles, output
sinks. Ours is a small dataclass + a composable Stage protocol so users
can insert their own ``map_batches`` steps between the built-ins
(SURVEY.md §2.9).

    cfg = EngineConfig(rules_files=["my.rules"],
                       ignore_patterns=["DEBUG"],
                       enrich=True)
    manifest = cfg.run(webpages_ds, out_dir)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable


#: top-level keys ``EngineConfig.from_yaml`` accepts; any other is an error
_YAML_KEYS = ("rules", "vars", "ignore", "enrich", "write_eve", "syslog",
              "smtp", "geo_file", "blacklist_file", "intel_file")


@runtime_checkable
class Stage(Protocol):
    """A user-insertable pipeline stage."""

    name: str

    def apply(self, ds):  # Dataset -> Dataset
        ...


@dataclass
class FnStage:
    name: str
    fn: Callable

    def apply(self, ds):
        return self.fn(ds)


@dataclass
class EngineConfig:
    rules_files: list[str] = field(default_factory=list)
    var_table: dict[str, list[str]] = field(default_factory=dict)
    ignore_patterns: list[str] = field(default_factory=list)
    enrich: bool = False
    geo: dict = field(default_factory=dict)
    blacklist: set = field(default_factory=set)
    intel: list = field(default_factory=list)
    pre_stages: list[Stage] = field(default_factory=list)   # before match
    post_stages: list[Stage] = field(default_factory=list)  # after gating
    write_eve: bool = False
    # network re-emit sinks (stages/emit.py): fire-and-forget fan-outs
    # AFTER the authoritative parquet sinks; yaml keys `syslog:
    # {host, port, facility}` and `smtp: {host, port, mail_from,
    # mail_to, min_priority}` (smtp transport injectable in code)
    syslog: dict | None = None
    smtp: dict | None = None

    @classmethod
    def from_yaml(cls, path: str) -> "EngineConfig":
        """Load the sagan.yaml-analogue config file. Recognized keys:
        rules (list of file paths), vars (name -> list), ignore (list of
        substrings), enrich (bool), write_eve (bool), syslog / smtp
        (re-emit sink settings), and lookup-table files mirroring
        upstream's processor config: geo_file (CSV ``host,country``),
        blacklist_file (one host or CIDR per line), intel_file (one
        indicator substring per line — the zeek-intel TSV analogue).
        Enrichment is a single task-mode stage with no tuning keys: each
        worker process builds the lookup tables, and opens an mmdb
        reader when one is given, once.

        Raises ``ValueError`` naming every unrecognized top-level key (a
        misspelled or retired setting must not be dropped silently)."""
        import yaml

        with open(path) as f:
            raw = yaml.safe_load(f) or {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a mapping of keys")
        unknown = sorted(set(raw) - set(_YAML_KEYS))
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}; "
                             f"recognized: {list(_YAML_KEYS)}")
        cfg = cls(
            rules_files=list(raw.get("rules", [])),
            var_table={k: list(v) for k, v in (raw.get("vars") or {}).items()},
            ignore_patterns=list(raw.get("ignore", [])),
            enrich=bool(raw.get("enrich", False)),
            write_eve=bool(raw.get("write_eve", False)),
        )
        if raw.get("syslog"):
            cfg.syslog = dict(raw["syslog"])
        if raw.get("smtp"):
            cfg.smtp = dict(raw["smtp"])
        base = os.path.dirname(os.path.abspath(path))

        def _resolve(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        if raw.get("geo_file"):
            with open(_resolve(raw["geo_file"])) as f:
                for line in f:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    host, _, country = line.partition(",")
                    cfg.geo[host.strip()] = country.strip()
        if raw.get("blacklist_file"):
            with open(_resolve(raw["blacklist_file"])) as f:
                cfg.blacklist = {
                    line.strip() for line in f
                    if line.strip() and not line.startswith("#")
                }
        if raw.get("intel_file"):
            with open(_resolve(raw["intel_file"])) as f:
                cfg.intel = [
                    line.strip() for line in f
                    if line.strip() and not line.startswith("#")
                ]
        return cfg

    def load_rules(self):
        from .rules import load_rules_file

        rules = []
        for f in self.rules_files:
            rules.extend(load_rules_file(f, self.var_table))
        if not rules:
            from .pipelines.flagship import load_default_rules

            rules = load_default_rules()
        return rules

    def build_alerts(self, ds, rules=None):
        from .pipelines.flagship import _compose_alerts

        rules = rules if rules is not None else self.load_rules()
        return _compose_alerts(
            ds, rules,
            lookups=(self.geo, self.blacklist, self.intel) if self.enrich else None,
            ignore_patterns=self.ignore_patterns,
            pre_stages=[st.apply for st in self.pre_stages],
            post_stages=[st.apply for st in self.post_stages],
        )

    def run(self, ds, out_dir: str) -> dict:
        from .stages.route import route_alerts

        # parse the ruleset ONCE: the re-emit phase's sid->email map
        # must come from the SAME rules that produced the alerts (an
        # edit between phases would otherwise desynchronize them)
        rules = self.load_rules()
        manifest = route_alerts(self.build_alerts(ds, rules=rules),
                                out_dir, write_eve=self.write_eve)
        if self.syslog or self.smtp:
            # re-emit from the authoritative parquet sinks, STREAMED:
            # ray.data.read_parquet over the hive-partitioned sink dir
            # feeds the emitter actor pools block by block — the routed
            # set (~25% of input at flagship rates, with url/msg
            # payloads) never materializes on the driver
            from .sources import read_parquet_clean

            routed = read_parquet_clean(os.path.join(out_dir, "sinks"))
            if self.syslog:
                from .stages.emit import syslog_sink

                manifest["syslog"] = syslog_sink(routed, **self.syslog)
            if self.smtp:
                from .stages.emit import smtp_sink

                smtp_kwargs = dict(self.smtp)
                if "email_by_sid" not in smtp_kwargs:
                    # per-rule `email:` routing straight from the ruleset
                    smtp_kwargs["email_by_sid"] = {
                        r.sid: r.email for r in rules if r.email}
                manifest["smtp"] = smtp_sink(routed, **smtp_kwargs)
        return manifest
