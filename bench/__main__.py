"""The repository benchmark: ``python -m bench`` from the repository root.

Runs the workloads of ``BENCHMARK.json`` against the program under
``src/`` and prints every end-to-end metric by name, with its unit and
sample count, after checking the program's answers.

    python -m bench                          all workloads, seed 0
    python -m bench --workload fig18 --seed 3 --seconds 15
    python -m bench --trace                  per-layer metrics (traced run)
    python -m bench --smoke                  every workload once, tiny sizes
    python -m bench --json out.json          also write the results
    python -m bench --compare a.json b.json  apply the bounds to two results
    python -m bench --pin 0 1 2              pin answer digests for seeds

Repetitions are fresh child processes, interleaved round-robin across
the selected workloads so host drift hits every workload alike; they
repeat until ``--seconds`` per workload have passed (at least
``MIN_REPS`` rounds).  With one workload selected, the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics (``--trace 1``: the ``per_layer`` metrics).

Exit status: 0 when every answer checked out, 1 when a repetition failed
or an answer disagreed, 2 when the program is missing or the arguments
are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.workloads import (
    CAMPAIGN,
    REFERENCE_CAL_S,
    WORKLOADS,
    campaign_rep,
    service_rep,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

#: Rounds run even when ``--seconds`` has already passed.
MIN_REPS = 3
#: A round that would end more than this long after the ``--seconds``
#: budget is not started (keeps a single-workload run under 180 s).
OVERRUN_S = 100.0
SMOKE_SCALE = 20


class BenchError(Exception):
    """The benchmark cannot run here (usage or environment error)."""


def load_spec() -> Dict[str, Any]:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}") from exc


def load_expected() -> Dict[str, Dict[str, str]]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def program_env() -> Dict[str, str]:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no package at {src / 'repro'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return dict(os.environ, PYTHONPATH=str(src))


# ---------------------------------------------------------------------- #
# Measuring
# ---------------------------------------------------------------------- #
def run_rep(name: str, seed: int, scale: int, env: Dict[str, str],
            trace: bool):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_out = OUT_DIR / f"trace-{name}.json" if trace else None
    if WORKLOADS[name][0] == CAMPAIGN:
        return campaign_rep(name, seed, scale, ROOT, env, trace_out)
    return service_rep(name, seed, scale, ROOT, env, OUT_DIR, trace_out)


def measure(names: List[str], seed: int, seconds: float, scale: int,
            env: Dict[str, str], min_reps: int, trace: bool):
    """Round-robin untraced repetitions until the budget is spent; then,
    with ``trace``, one traced repetition per workload."""
    reps: Dict[str, list] = {name: [] for name in names}
    budget = seconds * len(names)
    started = time.perf_counter()
    rounds, longest = 0, 0.0
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= min_reps and elapsed >= budget:
            break
        if rounds and elapsed + longest > budget + OVERRUN_S:
            break
        round_started = time.perf_counter()
        for name in names:
            reps[name].append(run_rep(name, seed, scale, env, trace=False))
        longest = max(longest, time.perf_counter() - round_started)
        rounds += 1
    traced = {
        name: run_rep(name, seed, scale, env, trace=True) for name in names
    } if trace else {}
    return reps, traced


def rescaled(seconds: float, cal_s: float) -> float:
    """Host seconds at the reference host speed (see bench.workloads)."""
    return seconds * REFERENCE_CAL_S / cal_s


def best_calls(reps: list) -> List[float]:
    """Best rescaled time of each call position over the repetitions:
    every repetition repeats the same calls on the same inputs, and on a
    shared host contention only ever adds time."""
    return [
        min(times)
        for times in zip(*(map(rescaled, r.calls_s, r.cal_s) for r in reps))
    ]


def end_to_end(reps: list) -> Dict[str, Tuple[float, int]]:
    """metric -> (value, sample count) over error-free repetitions."""
    best = best_calls(reps)
    samples = len(best) * len(reps)
    setup = [rescaled(r.setup_s, r.setup_cal_s) for r in reps]
    return {
        # Median: spawn and import are paid on every run.
        "setup_s": (statistics.median(setup), len(reps)),
        "work_per_s": (reps[0].units / sum(best), samples),
        "call_p50_ms": (statistics.median(best) * 1e3, samples),
        "peak_rss_mb": (
            statistics.median(r.peak_rss_mb for r in reps), len(reps)
        ),
    }


def split_spread(reps: list) -> Dict[str, float]:
    """How far each metric moves between the odd and the even
    repetitions, as a share of its value (0 with fewer than 2)."""
    full = end_to_end(reps)
    if len(reps) < 2:
        return {metric: 0.0 for metric in full}
    even, odd = end_to_end(reps[0::2]), end_to_end(reps[1::2])
    return {
        metric: abs(even[metric][0] - odd[metric][0]) / value
        for metric, (value, _) in full.items()
    }


def summarize(name: str, seed: int, scale: int, reps: list, traced,
              expected: Dict[str, Dict[str, str]],
              spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's result: correctness, end-to-end and layer metrics."""
    everything = reps + ([traced] if traced is not None else [])
    ok = [r for r in everything if r.error is None]
    errors = {r.error for r in everything if r.error is not None}
    pinned = expected.get(name, {}).get(str(seed)) if scale == 1 else None
    reference = pinned if pinned is not None else (ok[0].digest if ok else "")
    failed = sum(r.failed for r in everything)
    for rep in ok:
        if rep.digest != reference:
            failed += rep.attempted
            errors.add(f"answer digest {rep.digest[:12]} != {reference[:12]}")
    attempted = sum(r.attempted for r in everything)
    timed = [r for r in reps if r.error is None and r.digest == reference]
    result: Dict[str, Any] = {
        "correct": failed == 0 and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "digest": reference,
        "verified": "pinned" if pinned is not None else "unverified",
        "repetitions": len(reps),
        "errors": sorted(errors),
        "metrics": {},
        "layers": {},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if timed:
        spreads = split_spread(timed)
        for metric, (value, samples) in end_to_end(timed).items():
            result["metrics"][metric] = {
                "value": value,
                "unit": units[metric],
                "samples": samples,
                "spread": spreads[metric],
            }
    if traced is not None:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = dict(traced.layers or {})
        if timed and traced.error is None:
            traced_wall = sum(map(rescaled, traced.calls_s, traced.cal_s))
            values["trace.overhead_frac"] = (
                traced_wall / sum(best_calls(timed)) - 1.0
            )
        for metric, unit in layer_units.items():
            result["layers"][metric] = {"value": values.get(metric), "unit": unit}
    return result


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "missing"
    return f"{value:.6g}"


def print_report(name: str, result: Dict[str, Any], unit_of_work: str) -> None:
    print(
        f"{name}: {result['repetitions']} repetitions, "
        f"{result['attempted'] - result['failed']}/{result['attempted']} ok "
        f"(error_rate {result['error_rate']:.3g}), "
        f"digest {result['digest'][:12]} ({result['verified']})"
    )
    for error in result["errors"]:
        print(f"  error: {error}")
    for metric, entry in result["metrics"].items():
        note = f"  [{unit_of_work}s]" if metric == "work_per_s" else ""
        print(
            f"  {metric:<14} {_fmt(entry['value']):>12} {entry['unit']:<6}"
            f" n={entry['samples']:<5} spread {entry['spread']:.1%}{note}"
        )
    for metric, entry in result["layers"].items():
        print(f"  {metric:<40} {_fmt(entry['value']):>12} {entry['unit']}")


def result_line(result: Dict[str, Any], trace: bool) -> str:
    """The machine-read last line of a single-workload run."""
    section = result["layers"] if trace else result["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in section.items()
        },
    })


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #
def run_bench(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    env = program_env()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    reps, traced = measure(names, args.seed, seconds, 1, env,
                           MIN_REPS, bool(args.trace))
    expected = load_expected()
    results = {
        name: summarize(name, args.seed, 1, reps[name], traced.get(name),
                        expected, spec)
        for name in names
    }
    for name in names:
        print_report(name, results[name], WORKLOADS[name][1])
    if args.json:
        Path(args.json).write_text(json.dumps({
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")
    if len(names) == 1:
        print(result_line(results[names[0]], bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


def smoke(spec: Dict[str, Any]) -> int:
    """Every workload twice at tiny sizes plus once traced: every metric
    of BENCHMARK.json must print with its unit, and the answers must
    agree across repetitions and with tracing on."""
    env = program_env()
    started = time.perf_counter()
    reps, traced = measure(list(WORKLOADS), 0, 0.0, SMOKE_SCALE, env, 2, True)
    problems: List[str] = []
    for name in WORKLOADS:
        result = summarize(name, 0, SMOKE_SCALE, reps[name], traced[name],
                           {}, spec)
        print_report(name, result, WORKLOADS[name][1])
        problems += [f"{name}: {error}" for error in result["errors"]]
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric in spec[section]:
                entry = result[key].get(metric["name"])
                if entry is None or entry["value"] is None:
                    problems.append(f"{name}: {metric['name']} not measured")
                elif entry["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} unit mismatch")
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'ok' if not problems else 'FAILED'} in {elapsed:.1f} s")
    return 0 if not problems else 1


def pin(seeds: List[int]) -> int:
    """Record each workload's answer digest for ``seeds``."""
    env = program_env()
    expected = load_expected()
    status = 0
    for seed in seeds:
        for name in WORKLOADS:
            rep = run_rep(name, seed, 1, env, trace=False)
            if rep.error is not None:
                print(f"pin: {name} seed {seed}: {rep.error}")
                status = 1
                continue
            expected.setdefault(name, {})[str(seed)] = rep.digest
            print(f"pin: {name} seed {seed}: {rep.digest}")
    EXPECTED_PATH.write_text(json.dumps(
        {name: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
         for name, d in sorted(expected.items())},
        indent=1,
    ) + "\n")
    return status


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Apply the ``end_to_end`` bounds of BENCHMARK.json to two results.

    Per metric: ``worse``/``better`` when B moved past the bound, ``same``
    within it, ``unresolved`` when either run's split spread (odd against
    even repetitions) exceeds the bound.  Exits 1 when a metric got worse, the answers differ, or
    either run failed.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for name in [n for n in a if n in b]:
        ra, rb = a[name], b[name]
        cells, verdicts = [], set()
        if not (ra["correct"] and rb["correct"]):
            verdicts.add("failed")
        elif ra["digest"] != rb["digest"]:
            verdicts.add("answers differ")
        for metric, info in bounds.items():
            ma, mb = ra["metrics"].get(metric), rb["metrics"].get(metric)
            if ma is None or mb is None:
                verdicts.add("failed")
                continue
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if info["better"] == "lower" else -change
            bound = info["bound"]
            if max(ma["spread"], mb["spread"]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "same"
            verdicts.add(verdict)
            cells.append(f"{metric} {change:+.1%} {verdict}")
        row = next(
            (v for v in ("failed", "answers differ", "worse", "unresolved",
                         "better") if v in verdicts),
            "same",
        )
        if row in ("failed", "answers differ", "worse"):
            status = 1
        print(f"{name:<15} {row:<14} " + "; ".join(cells))
    return status


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; all inputs derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced repetition per workload and "
                             "report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes; checks that "
                             "every metric prints and answers are stable")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the results to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json results against the bounds")
    parser.add_argument("--pin", nargs="+", type=int, metavar="SEED",
                        help="record answer digests for these seeds in "
                             "bench/expected.json")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.smoke:
            return smoke(spec)
        if args.pin:
            return pin(args.pin)
        return run_bench(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
