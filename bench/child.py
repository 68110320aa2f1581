"""One benchmark process, started fresh for every repetition.

``python -m bench.child campaign WORKLOAD SEED SCALE [--trace-out FILE]``
    Imports the program, prints ``{"ready": true}``, runs one repetition
    of a campaign workload and prints its measurements as one JSON line.
``python -m bench.child serve STORE_DIR [--trace-out FILE]``
    Runs ``repro serve`` on a fresh store until SIGTERM has drained it,
    then prints its peak RSS (and, traced, its per-layer metrics).

With ``--trace-out`` the process wraps the program's layers
(:mod:`bench.layers`) before any work and writes its spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


def _emit(document: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(trace_out: Optional[str]):
    if trace_out is None:
        return None
    from bench import layers

    return layers.install()


def campaign(workload: str, seed: int, scale: int, trace_out: Optional[str]) -> int:
    from bench.workloads import CheckFailed, calibrate, campaign_calls, digest

    calls = campaign_calls(workload, seed, scale)
    recorder = _tracer(trace_out)
    _emit({"ready": True})
    report: Dict[str, Any] = {"calls_s": [], "cal_s": [], "units": 0}
    answers: List[Any] = []
    try:
        cal = calibrate()
        for call in calls:
            started = time.perf_counter()
            raw = call.run()
            report["calls_s"].append(time.perf_counter() - started)
            cal_after = calibrate()
            report["cal_s"].append((cal + cal_after) / 2)
            cal = cal_after
            answers.append(call.answer(raw))
            report["units"] += call.units
        report["digest"] = digest(answers)
    except CheckFailed as exc:
        report["error"] = str(exc)
    report["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        report["layers"] = recorder.metrics()
        recorder.dump(Path(trace_out), workload=workload, seed=seed)
    _emit(report)
    return 1 if "error" in report else 0


def serve(store: str, trace_out: Optional[str]) -> int:
    recorder = _tracer(trace_out)
    from repro.cli import main

    code = main([
        "serve", "--port", "0", "--slots", "1", "--process-budget", "1",
        "--quiet", "--store-dir", store,
    ])
    report: Dict[str, Any] = {"code": code, "peak_rss_mb": _peak_rss_mb()}
    if recorder is not None:
        report["layers"] = recorder.metrics()
        recorder.dump(Path(trace_out), workload="service")
    _emit(report)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    sub = parser.add_subparsers(dest="mode", required=True)
    camp = sub.add_parser("campaign")
    camp.add_argument("workload")
    camp.add_argument("seed", type=int)
    camp.add_argument("scale", type=int)
    camp.add_argument("--trace-out", default=None)
    srv = sub.add_parser("serve")
    srv.add_argument("store")
    srv.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "campaign":
        return campaign(args.workload, args.seed, args.scale, args.trace_out)
    return serve(args.store, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
