#!/usr/bin/env python
"""Fold benchmark telemetry into one perf-trend artifact.

Usage: PYTHONPATH=src python tools/bench_report.py \
           [--results-dir results] [--out BENCH_3.json]

The benchmark harness (``benchmarks/conftest.py``) drops one metrics
registry per figure under ``results/metrics/<bench>.json``.  This tool
merges them, derives the headline quantities (parity-cache hit rate,
per-dimension 3DP correction counts, trial/failure totals) and writes a
single JSON document that CI uploads as the ``BENCH_3`` artifact, so
perf trends can be diffed across commits.

The document is deterministic: sorted keys, no timestamps, no host
information — two runs of the same code produce byte-identical
artifacts (trend tooling stamps them on ingest).

Schema 2 folds histogram metrics into the derived sections: every
histogram in a source registry contributes bucket counts (via the
registry snapshot) plus a deterministic quantile summary
(count/total/mean/min/max/p50/p90/p99) under ``derived.histograms``,
so latency-shaped distributions are trendable without wall-clock
values entering the artifact.

``bench_engine_hotpath`` additionally drops a timing sidecar at
``<results-dir>/hotpath_speedup.json``.  Wall-clock numbers never enter
the BENCH artifact (that would break its determinism); instead this tool
re-checks the sidecar's measured speedup against its recorded threshold
and fails the build when the incremental hot path has regressed.
``bench_sampling_speedup`` drops ``bench_sampling_speedup.json`` the
same way: its importance-vs-naive trial-reduction factor is re-checked
against the recorded floor here, so a variance regression in the
sampler fails the build even if the bench assertion itself is skipped.
``bench_replay_throughput`` drops ``bench_replay_throughput.json``:
its replayed-requests/sec number is re-checked against the recorded
floor (and its worker-identity flag re-asserted) the same way.
The batch-kernel leg of ``bench_engine_hotpath`` drops
``batch_speedup.json``: its batch-vs-scalar serial speedup is re-checked
against the recorded floor, and its byte-identity flag re-asserted, so a
batch-path perf or exactness regression fails the build.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, NamedTuple

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.errors import TelemetryError  # noqa: E402
from repro.telemetry.files import write_json_atomic  # noqa: E402
from repro.telemetry.registry import MetricsRegistry  # noqa: E402
from repro.telemetry.stats import derived_stats, load_metrics_file  # noqa: E402

#: v2: ``derived.histograms`` (per-histogram deterministic quantile
#: summaries) joined the per-source and merged sections.
ARTIFACT_SCHEMA = 2


def build_report(metrics_dir: Path) -> Dict[str, Any]:
    """Assemble the artifact document from ``<metrics_dir>/*.json``."""
    sources: Dict[str, Any] = {}
    registries = []
    for path in sorted(metrics_dir.glob("*.json")):
        registry = load_metrics_file(path)
        registries.append(registry)
        sources[path.stem] = {
            "derived": derived_stats(registry),
            "metrics": registry.to_dict(),
        }
    merged = MetricsRegistry.merge_all(registries)
    return {
        "artifact": "BENCH",
        "schema": ARTIFACT_SCHEMA,
        "sources": sources,
        "merged": {
            "derived": derived_stats(merged),
            "metrics": merged.to_dict(),
        },
    }


class Sidecar(NamedTuple):
    """One timing sidecar a bench drops next to its metrics.

    ``value`` must reach the recorded ``floor`` and ``identity`` must
    hold.  The messages are formatted with ``value`` and ``floor``.
    """

    file: str
    value: str
    floor: str
    identity: str
    #: Name in the "unreadable ... sidecar" message.
    name: str
    broken_identity: str
    regressed: str
    passed: str


SIDECARS: Dict[str, Sidecar] = {
    "hotpath": Sidecar(
        "hotpath_speedup.json", "speedup", "threshold", "results_identical",
        "hotpath",
        "hotpath bench reported non-identical results",
        "incremental hot path regressed to {value:.2f}x "
        "(threshold {floor:.1f}x)",
        "hotpath speedup {value:.2f}x (threshold {floor:.1f}x)",
    ),
    "sampling": Sidecar(
        "bench_sampling_speedup.json", "trial_reduction", "threshold",
        "estimates_consistent", "sampling",
        "importance and naive estimates disagree beyond combined "
        "uncertainty",
        "importance sampling trial reduction fell to {value:.1f}x "
        "(threshold {floor:.1f}x)",
        "sampling trial reduction {value:.1f}x (threshold {floor:.1f}x)",
    ),
    "replay": Sidecar(
        "bench_replay_throughput.json", "requests_per_sec", "threshold",
        "results_identical", "replay",
        "replay bench reported worker-count-dependent results",
        "replay throughput regressed to {value:.0f} req/s "
        "(floor {floor:.0f} req/s)",
        "replay throughput {value:.0f} req/s (floor {floor:.0f} req/s)",
    ),
    "batch": Sidecar(
        "batch_speedup.json", "speedup", "threshold", "results_identical",
        "batch",
        "batch bench reported results diverging from the scalar engine",
        "batch trial kernel regressed to {value:.2f}x over the scalar "
        "loop (threshold {floor:.1f}x)",
        "batch kernel speedup {value:.2f}x (threshold {floor:.1f}x)",
    ),
}


def check_sidecar(results_dir: Path, sidecar: Sidecar) -> int:
    """Enforce one sidecar's recorded floor, if its bench ran.

    Returns 0 when the sidecar is absent (the bench did not run) or its
    value meets the floor with the identity flag set; 1 on regression,
    a broken identity, or a mangled sidecar.
    """
    path = results_dir / sidecar.file
    if not path.is_file():
        return 0
    try:
        data = json.loads(path.read_text())
        value = float(data[sidecar.value])
        floor = float(data[sidecar.floor])
        identical = bool(data[sidecar.identity])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"bench_report: unreadable {sidecar.name} sidecar {path}: "
              f"{exc}", file=sys.stderr)
        return 1
    if not identical:
        print(f"bench_report: {sidecar.broken_identity}", file=sys.stderr)
        return 1
    if value < floor:
        print("bench_report: " + sidecar.regressed.format(value=value,
                                                          floor=floor),
              file=sys.stderr)
        return 1
    print("bench_report: " + sidecar.passed.format(value=value, floor=floor),
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", default=str(_REPO_ROOT / "results"),
                        help="benchmark output directory (default: results)")
    parser.add_argument("--out", default="BENCH_3.json",
                        help="artifact path (default: BENCH_3.json)")
    args = parser.parse_args(argv)

    metrics_dir = Path(args.results_dir) / "metrics"
    if not metrics_dir.is_dir():
        print(f"bench_report: no metrics directory at {metrics_dir} "
              "(run the benchmarks with REPRO_BENCH_TELEMETRY=1 first)",
              file=sys.stderr)
        return 2
    try:
        report = build_report(metrics_dir)
    except TelemetryError as exc:
        print(f"bench_report: {exc}", file=sys.stderr)
        return 2
    if not report["sources"]:
        print(f"bench_report: {metrics_dir} holds no metrics files",
              file=sys.stderr)
        return 2
    write_json_atomic(Path(args.out), report)
    print(f"bench_report: wrote {args.out} "
          f"({len(report['sources'])} source(s))", file=sys.stderr)
    return max(
        check_sidecar(Path(args.results_dir), sidecar)
        for sidecar in SIDECARS.values()
    )


if __name__ == "__main__":
    raise SystemExit(main())
