"""OpenMetrics text exposition for :class:`MetricsRegistry`.

:func:`render_openmetrics` encodes a registry in the OpenMetrics text
format (the Prometheus exposition format's standardized successor) so
the campaign service's ``GET /metrics`` can be scraped by stock
collectors.  The encoding is *deterministic*: metric families are
emitted in sorted order, every float is formatted by one canonical rule,
and no timestamps are attached — rendering the same registry twice
yields byte-identical text, which is what lets CI diff scrapes and what
keeps the exposition layer inside the telemetry invariant (it only ever
reads the registry).

Mapping from registry families to OpenMetrics types:

* counters   → ``counter`` (sample suffix ``_total``);
* gauges     → ``gauge``;
* histograms → ``histogram`` (cumulative ``_bucket{le="..."}`` samples,
  a ``+Inf`` bucket, ``_count`` and ``_sum``);
* timers     → ``summary`` (``_count`` and ``_sum`` only — timers carry
  no quantile sketch).

Registry names are slash-separated (``service/jobs_completed``); every
character outside ``[a-zA-Z0-9_:]`` is mangled to ``_`` and the result
is prefixed with ``repro_``.  Two registry names that mangle to the
same exposition name are a hard error rather than a silent collision.

:func:`parse_openmetrics` is the matching strict parser.  It exists so
CI can validate a live scrape without pulling in an external client
library: it checks the grammar line by line, the ``# EOF`` terminator,
type/sample consistency, cumulative bucket monotonicity, and histogram
count/``+Inf`` agreement.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.telemetry.registry import MetricsRegistry

#: Content type advertised for (and required of) OpenMetrics scrapes.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Prefix applied to every mangled metric name.
NAME_PREFIX = "repro_"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_MANGLE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: suffixes a sample name may carry, per family type.
_TYPE_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum"),
    "summary": ("_count", "_sum"),
}


def mangle_name(name: str) -> str:
    """Map a registry metric name onto a valid OpenMetrics name."""
    mangled = NAME_PREFIX + _MANGLE_RE.sub("_", name)
    if not _NAME_RE.match(mangled):
        raise TelemetryError(f"cannot mangle metric name {name!r}")
    return mangled


def format_value(value: float) -> str:
    """Canonical number formatting: one spelling per value.

    Integral floats render without an exponent or trailing zeros
    (``3``, not ``3.0``), everything else via ``repr`` (shortest
    round-trip representation), so the exposition text is deterministic
    across renders and Python versions >= 3.1.
    """
    if isinstance(value, bool):
        raise TelemetryError(f"boolean is not a metric value: {value!r}")
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render ``registry`` as deterministic OpenMetrics text.

    The output ends with the mandatory ``# EOF`` line.  Families appear
    in sorted mangled-name order; within a histogram, buckets appear in
    ascending ``le`` order.
    """
    snapshot = registry.to_dict()
    families: Dict[str, Tuple[str, str, List[str]]] = {}

    def add_family(raw_name: str, om_type: str, lines: List[str]) -> None:
        name = mangle_name(raw_name)
        if name in families:
            other_raw, other_type, _ = families[name]
            raise TelemetryError(
                f"metric name collision after mangling: {raw_name!r} "
                f"({om_type}) and {other_raw!r} ({other_type}) both "
                f"map to {name!r}"
            )
        families[name] = (raw_name, om_type, lines)

    for raw, value in snapshot["counters"].items():
        name = mangle_name(raw)
        add_family(raw, "counter", [f"{name}_total {format_value(value)}"])
    for raw, value in snapshot["gauges"].items():
        name = mangle_name(raw)
        add_family(raw, "gauge", [f"{name} {format_value(float(value))}"])
    for raw, hist in snapshot["histograms"].items():
        name = mangle_name(raw)
        lines = []
        cumulative = 0
        for edge, count in zip(hist["edges"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{format_value(float(edge))}"}} '
                f"{cumulative}"
            )
        cumulative += hist["counts"][-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_count {hist['count']}")
        lines.append(f"{name}_sum {format_value(float(hist['total']))}")
        add_family(raw, "histogram", lines)
    for raw, timer in snapshot["timers"].items():
        name = mangle_name(raw)
        add_family(
            raw,
            "summary",
            [
                f"{name}_count {timer['count']}",
                f"{name}_sum {format_value(float(timer['total_seconds']))}",
            ],
        )

    out: List[str] = []
    for name in sorted(families):
        raw_name, om_type, lines = families[name]
        out.append(f"# TYPE {name} {om_type}")
        out.append(f"# HELP {name} registry metric {raw_name}")
        out.extend(lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------- #
# Strict parsing (CI-side validation)
# ---------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^(?P<name>[^=]+)="(?P<value>(?:[^"\\]|\\.)*)"$')


def _parse_number(text: str, lineno: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise TelemetryError(
            f"line {lineno}: invalid sample value {text!r}"
        ) from exc


def _parse_labels(text: Optional[str], lineno: int) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    for part in text.split(","):
        match = _LABEL_RE.match(part)
        if match is None:
            raise TelemetryError(f"line {lineno}: malformed label {part!r}")
        name = match.group("name")
        if not _LABEL_NAME_RE.match(name):
            raise TelemetryError(
                f"line {lineno}: invalid label name {name!r}"
            )
        if name in labels:
            raise TelemetryError(
                f"line {lineno}: duplicate label {name!r}"
            )
        labels[name] = (
            match.group("value")
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
    return labels


def _base_family(name: str, families: Dict[str, Dict[str, Any]]) -> str:
    """Resolve a sample name to its declared family, suffix-aware."""
    for suffix in ("_total", "_bucket", "_count", "_sum", ""):
        if suffix and not name.endswith(suffix):
            continue
        base = name[: len(name) - len(suffix)] if suffix else name
        if base in families:
            allowed = _TYPE_SUFFIXES[families[base]["type"]]
            if suffix in allowed:
                return base
    raise TelemetryError(f"sample {name!r} matches no declared family")


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse OpenMetrics text; raise TelemetryError on any
    grammar or consistency violation.

    Returns ``{family_name: {"type": ..., "samples": [(sample_name,
    labels, value), ...]}}``.  Validations: a single final ``# EOF``,
    ``# TYPE`` before any of a family's samples, valid metric/label
    names, sample suffixes consistent with the declared type, histogram
    buckets cumulative/non-decreasing with a ``+Inf`` bucket equal to
    ``_count``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise TelemetryError("exposition must end with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if line == "# EOF":
            raise TelemetryError(f"line {lineno}: '# EOF' before end of text")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise TelemetryError(f"line {lineno}: malformed TYPE line")
            _, _, name, om_type = parts
            if not _NAME_RE.match(name):
                raise TelemetryError(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            if om_type not in _TYPE_SUFFIXES:
                raise TelemetryError(
                    f"line {lineno}: unsupported metric type {om_type!r}"
                )
            if name in families:
                raise TelemetryError(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            families[name] = {"type": om_type, "samples": []}
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise TelemetryError(f"line {lineno}: malformed HELP line")
            continue
        if line.startswith("#"):
            raise TelemetryError(
                f"line {lineno}: unknown comment directive {line!r}"
            )
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise TelemetryError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"), lineno)
        value = _parse_number(match.group("value"), lineno)
        base = _base_family(name, families)
        families[base]["samples"].append((name, labels, value))
    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, Dict[str, Any]]) -> None:
    for base, family in families.items():
        if family["type"] != "histogram":
            continue
        buckets: List[Tuple[float, float]] = []
        count: Optional[float] = None
        for name, labels, value in family["samples"]:
            if name == f"{base}_bucket":
                if "le" not in labels:
                    raise TelemetryError(
                        f"histogram {base!r} bucket missing 'le' label"
                    )
                buckets.append((_parse_number(labels["le"], 0), value))
            elif name == f"{base}_count":
                count = value
        if not buckets or not math.isinf(buckets[-1][0]):
            raise TelemetryError(
                f"histogram {base!r} must end with a +Inf bucket"
            )
        edges = [edge for edge, _ in buckets]
        counts = [c for _, c in buckets]
        if edges != sorted(edges):
            raise TelemetryError(
                f"histogram {base!r} buckets not in ascending le order"
            )
        if counts != sorted(counts):
            raise TelemetryError(
                f"histogram {base!r} bucket counts are not cumulative"
            )
        if count is None:
            raise TelemetryError(f"histogram {base!r} missing _count sample")
        if counts[-1] != count:
            raise TelemetryError(
                f"histogram {base!r}: +Inf bucket {counts[-1]} != "
                f"_count {count}"
            )
