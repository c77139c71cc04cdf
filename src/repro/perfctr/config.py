"""nanoBench counter-configuration files (Section III-J).

"The performance events to be measured are specified in a configuration
file ... the events are not hard-coded, which makes it easy to adapt
nanoBench to future CPUs, as only a new configuration file has to be
created."

File syntax (one event per line, ``#`` comments)::

    # cfg_Skylake.txt
    0E.01 UOPS_ISSUED.ANY
    A1.01 UOPS_DISPATCHED_PORT.PORT_0
    D1.01 MEM_LOAD_RETIRED.L1_HIT

The code may be omitted when the name is known to the catalogue.  When
a configuration lists more events than there are programmable counters,
nanoBench runs the benchmark multiple times with different counter
assignments — :func:`split_into_groups` computes that partition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .events import PerfEvent, event_catalog, find_event

_LINE_RE = re.compile(
    r"^(?:(?P<code>[0-9A-Fa-f]{2}\.[0-9A-Fa-f]{2})\s+)?(?P<name>[A-Za-z0-9_.]+)$"
)


@dataclass(frozen=True)
class ConfigDiagnostic:
    """One file:line-precise finding from a configuration scan."""

    line: int  # 1-based; 0 = whole-file findings
    message: str
    filename: Optional[str] = None
    severity: str = "error"  # "error" or "warning"

    def location(self) -> str:
        if self.filename:
            return "%s:%d" % (self.filename, self.line)
        return "line %d" % (self.line,)

    def describe(self) -> str:
        if self.line == 0 and self.filename is None:
            return self.message
        if self.line == 0:
            return "%s: %s" % (self.filename, self.message)
        return "%s: %s" % (self.location(), self.message)


def _located(message: str, line: int, filename: Optional[str]) -> str:
    """The message prefixed with its location (old format when no file)."""
    if filename:
        return "%s:%d: %s" % (filename, line, message)
    return "line %d: %s" % (line, message)


@dataclass(frozen=True)
class CounterConfig:
    """A parsed configuration: the ordered list of events to measure."""

    events: Tuple[PerfEvent, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(event.name for event in self.events)


def parse_config(text: str, catalog: Dict[str, PerfEvent],
                 filename: Optional[str] = None) -> CounterConfig:
    """Parse configuration *text* against an event *catalog*.

    The first malformed or unknown line raises a :class:`ConfigError`
    whose message pins the failure to its exact location —
    ``file.txt:7: ...`` when *filename* is given, ``line 7: ...``
    otherwise.  For a full non-raising scan of every problem at once,
    see :func:`collect_config_diagnostics`.
    """
    events: List[PerfEvent] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise ConfigError(_located(
                "cannot parse %r" % (raw.strip(),), line_number, filename
            ))
        name = match.group("name")
        try:
            event = find_event(catalog, name)
        except KeyError:
            code = match.group("code")
            if code is None:
                raise ConfigError(_located(
                    "unknown event %r" % (name,), line_number, filename
                ))
            try:
                event = find_event(catalog, code)
            except KeyError:
                raise ConfigError(_located(
                    "unknown event %r (code %s)" % (name, code),
                    line_number, filename
                ))
        if event not in events:
            events.append(event)
    if not events:
        if filename:
            raise ConfigError(
                "%s: configuration contains no events" % (filename,)
            )
        raise ConfigError("configuration contains no events")
    return CounterConfig(tuple(events))


def collect_config_diagnostics(
    text: str, catalog: Dict[str, PerfEvent],
    filename: Optional[str] = None,
) -> List[ConfigDiagnostic]:
    """Scan a whole configuration and report every problem at once.

    Unlike :func:`parse_config` (which stops at the first error), this
    keeps going, so a user fixing a config file sees all broken lines
    in one pass.  Duplicate events and name/code mismatches against the
    catalogue are reported as warnings (the parser tolerates both).
    """
    diagnostics: List[ConfigDiagnostic] = []
    seen: Dict[str, int] = {}
    n_events = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if not match:
            diagnostics.append(ConfigDiagnostic(
                line_number, "cannot parse %r" % (raw.strip(),), filename
            ))
            continue
        name = match.group("name")
        code = match.group("code")
        event = None
        try:
            event = find_event(catalog, name)
        except KeyError:
            if code is None:
                diagnostics.append(ConfigDiagnostic(
                    line_number, "unknown event %r" % (name,), filename
                ))
                continue
            try:
                event = find_event(catalog, code)
            except KeyError:
                diagnostics.append(ConfigDiagnostic(
                    line_number,
                    "unknown event %r (code %s)" % (name, code), filename
                ))
                continue
        n_events += 1
        if code is not None and event.code != code.upper():
            diagnostics.append(ConfigDiagnostic(
                line_number,
                "code %s does not match catalogue code %s for %s"
                % (code, event.code, event.name),
                filename, severity="warning",
            ))
        if event.name in seen:
            diagnostics.append(ConfigDiagnostic(
                line_number,
                "duplicate event %s (first listed on line %d)"
                % (event.name, seen[event.name]),
                filename, severity="warning",
            ))
        else:
            seen[event.name] = line_number
    if not n_events:
        diagnostics.append(ConfigDiagnostic(
            0, "configuration contains no events", filename
        ))
    return diagnostics


def parse_config_file(path: str, catalog: Dict[str, PerfEvent]) -> CounterConfig:
    """Parse a configuration file; diagnostics carry ``path:line``."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    return parse_config(text, catalog, filename=path)


def format_config(config: CounterConfig) -> str:
    """Render a configuration back to file syntax."""
    return "\n".join("%s %s" % (e.code, e.name) for e in config.events) + "\n"


def split_into_groups(events: Sequence[PerfEvent],
                      n_programmable: int) -> List[Tuple[PerfEvent, ...]]:
    """Partition core events into counter-sized measurement groups.

    Uncore events do not occupy core programmable counters and are
    appended to the first group.
    """
    if n_programmable < 1:
        raise ConfigError("need at least one programmable counter")
    core = [e for e in events if not e.uncore]
    uncore = [e for e in events if e.uncore]
    groups: List[Tuple[PerfEvent, ...]] = []
    for start in range(0, len(core), n_programmable):
        groups.append(tuple(core[start:start + n_programmable]))
    if uncore:
        if groups:
            groups[0] = groups[0] + tuple(uncore)
        else:
            groups.append(tuple(uncore))
    return groups


# ----------------------------------------------------------------------
# Shipped default configurations (Section III-J: "we provide
# configuration files with all events for all recent Intel
# microarchitectures, and the AMD Zen microarchitecture").
# ----------------------------------------------------------------------

def default_config(family: str, n_cboxes: int = 0,
                   include_uncore: bool = False) -> CounterConfig:
    """The full shipped configuration for a family."""
    catalog = event_catalog(family, n_cboxes)
    events = [e for e in catalog.values() if include_uncore or not e.uncore]
    return CounterConfig(tuple(events))


def example_skylake_config() -> CounterConfig:
    """The events of the paper's Section III-A example output."""
    catalog = event_catalog("SKL")
    names = [
        "UOPS_ISSUED.ANY",
        "UOPS_DISPATCHED_PORT.PORT_0",
        "UOPS_DISPATCHED_PORT.PORT_1",
        "UOPS_DISPATCHED_PORT.PORT_2",
        "UOPS_DISPATCHED_PORT.PORT_3",
        "MEM_LOAD_RETIRED.L1_HIT",
        "MEM_LOAD_RETIRED.L1_MISS",
    ]
    return CounterConfig(tuple(catalog[name] for name in names))
