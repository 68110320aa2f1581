"""The benchmark's workloads: what one repetition runs and what it answers.

Campaign workloads (``fig18``, ``fig18-batch``, ``hotpath-stress``,
``replay-zipfian``) run inside a fresh child process
(:mod:`bench.child`); :func:`campaign_calls` lists the calls one
repetition makes.  Reliability and replay campaigns go through
``repro.cli.main`` because the CLI flags are the interface users script.

Service workloads (``service-miss``, ``service-hit``) run a server child
and drive it from this process with one closed-loop client
(:func:`service_rep`): the next request is sent only after the previous
round trip completed.

Every campaign root seed is ``derive_seed(seed, workload, leg, index)``, so
``--seed`` alone fixes the inputs.  Each repetition's answer is reduced
to a sha256 digest over canonical JSON; see :func:`digest`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

CAMPAIGN = "campaign"
SERVICE = "service"

#: Workload name -> (kind, unit of work counted by ``work_per_s``).
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "fig18": (CAMPAIGN, "trial"),
    "fig18-batch": (CAMPAIGN, "trial"),
    "hotpath-stress": (CAMPAIGN, "trial"),
    "replay-zipfian": (CAMPAIGN, "replayed request"),
    "service-miss": (SERVICE, "round trip"),
    "service-hit": (SERVICE, "round trip"),
}

TSV_FIT = "1430"

# Campaign repetitions are many short campaigns rather than one long one:
# the host's speed drifts over seconds, and only the best time of short,
# identical calls stays steady (see README.md).

#: fig18 legs: (leg, scheme flags, campaigns of FIG18_TRIALS per repetition).
FIG18_LEGS = (
    ("symbol", ("--scheme", "symbol-across-channels", "--tsv-swap", "4"), 2),
    ("citadel", ("--scheme", "citadel"), 12),
    ("3dp", ("--scheme", "3dp", "--tsv-swap", "4"), 2),
)
FIG18_TRIALS = 2000
FIG18_SHARD = 1000
#: fig18-batch: the Citadel point, plus the 3DP-only point whose failing
#: trials take the batch kernel's fallback path.
FIG18_BATCH_LEGS = (
    ("citadel", ("--scheme", "citadel"), 6),
    ("3dp", ("--scheme", "3dp", "--tsv-swap", "4"), 2),
)
FIG18_BATCH_TRIALS = 12000
FIG18_BATCH_SHARD = 2500

#: hotpath-stress: the bit/word FIT multiplier that gives dozens of live
#: faults per trial, and a scrub every quarter lifetime so DDS re-exposure
#: and ``rebuild`` run mid-trial.
STRESS_SMALL_FAULT_SCALE = 1000
STRESS_SCRUB_HOURS = 15330.0
STRESS_CALLS = 10
STRESS_TRIALS = 30
STRESS_SHARD = 15

#: replay-zipfian: one shard of REPLAY_TRIALS per campaign.
REPLAY_CALLS = 6
REPLAY_TRIALS = 8
REPLAY_REQUESTS = 1024
REPLAY_CORES = 4

#: Service campaigns are the Fig. 18 3DP + TSV-Swap point: unlike Citadel
#: at 200 trials, its answers carry failures, so their digest depends on
#: what was simulated.
SERVICE_SCHEME = "3dp"
#: service-miss: distinct specs, each computed once.
MISS_SPECS = 40
#: service-hit: specs computed untimed, then re-fetched ``HIT_ROUNDS`` times.
HIT_SPECS = 10
HIT_ROUNDS = 20
SERVICE_TRIALS = 200
SERVICE_SHARD = 100
POLL_INTERVAL_S = 0.005
REQUEST_TIMEOUT_S = 60.0
#: How long a child that has reported (or been sent SIGTERM) may take to exit.
EXIT_TIMEOUT_S = 10.0


#: The host's speed drifts by up to ~1.45x for tens of seconds at a time
#: (see README.md).  Every timed call is therefore paired with the time of
#: this fixed loop, measured just before and after it by the same process,
#: and reported rescaled to a host on which the loop takes
#: REFERENCE_CAL_S.
CALIBRATION_ITERS = 80_000
REFERENCE_CAL_S = 0.005


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i * i
    return time.perf_counter() - started


class CheckFailed(Exception):
    """The program answered, but the answer broke an invariant."""


def sized(n: int, scale: int, floor: int = 1) -> int:
    return max(floor, n // scale)


def digest(answers: List[Any]) -> str:
    """sha256 over the canonical JSON of a repetition's answers."""
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Campaign workloads (run inside bench.child)
# ---------------------------------------------------------------------- #
@dataclass
class Call:
    """One timed call into the program and how to read its answer."""

    units: int
    run: Callable[[], Any]
    answer: Callable[[Any], Any]


def _cli(argv: List[str]) -> Callable[[], str]:
    def run() -> str:
        from repro.cli import main

        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        if code != 0:
            raise CheckFailed(
                f"repro {' '.join(argv)} exited {code}: "
                f"{stderr.getvalue()[-400:]}"
            )
        return stdout.getvalue()
    return run


def _reliability_answer(trials: int) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """``result`` minus ``manifest``; the ``campaign`` block is dropped."""
    def answer(result: Dict[str, Any]) -> Dict[str, Any]:
        result = {k: v for k, v in result.items() if k != "manifest"}
        if result["trials"] != trials:
            raise CheckFailed(f"ran {result['trials']} of {trials} trials")
        failures = result["failures"]
        if not 0 <= failures <= trials or len(
            result["failure_times_hours"]
        ) != failures:
            raise CheckFailed(f"inconsistent failure count {failures}")
        if not 0.0 < result["stratum_weight"] <= 1.0:
            raise CheckFailed(f"stratum weight {result['stratum_weight']}")
        return result
    return answer


def _reliability(argv: List[str], trials: int) -> Call:
    check = _reliability_answer(trials)
    return Call(
        units=trials,
        run=_cli(["reliability", *argv, "--trials", str(trials), "--json"]),
        answer=lambda stdout: check(json.loads(stdout)["result"]),
    )


def _batch_flag() -> List[str]:
    """``--batch`` while the reliability parser still defines it; the
    same campaign keeps running once the batch path is automatic."""
    from repro.cli import build_parser

    _, unknown = build_parser().parse_known_args(["reliability", "--batch"])
    return [] if unknown else ["--batch"]


def _stress_rates():
    from repro.faults.rates import TABLE_I_8GB_FIT, FailureRates
    from repro.faults.types import FaultKind

    die_fit = {
        kind: (
            (transient * STRESS_SMALL_FAULT_SCALE,
             permanent * STRESS_SMALL_FAULT_SCALE)
            if kind in (FaultKind.BIT, FaultKind.WORD)
            else (transient, permanent)
        )
        for kind, (transient, permanent) in TABLE_I_8GB_FIT.items()
    }
    return FailureRates(die_fit=die_fit, tsv_device_fit=float(TSV_FIT))


def _hotpath(seed: int, trials: int, telemetry_check: bool) -> Call:
    """3DP + TSV-Swap + DDS at stress rates; the CLI cannot express them.

    Stress campaigns almost never fail, so their answer alone says little
    about what was simulated.  With ``telemetry_check`` the campaign is
    re-run untimed with the deterministic engine telemetry on: its answer
    must not change, and its counters (faults sampled, 3DP peels per
    dimension, TSV-Swap and DDS decisions) join the digest.
    """
    from repro.core.parity3dp import make_3dp
    from repro.reliability.experiments import run_campaign
    from repro.stack.geometry import StackGeometry

    geometry = StackGeometry()
    rates = _stress_rates()
    check = _reliability_answer(trials)

    def run(collect_metrics: bool = False):
        return run_campaign(
            geometry, rates, make_3dp(geometry), trials, seed,
            min_faults=2, workers=1, shard_size=STRESS_SHARD,
            tsv_swap_standby=4, use_dds=True,
            scrub_interval_hours=STRESS_SCRUB_HOURS,
            collect_metrics=collect_metrics,
        )

    def answer(result) -> Dict[str, Any]:
        document = check(result.to_dict())
        if not telemetry_check:
            return document
        observed = check(run(collect_metrics=True).to_dict())
        metrics = observed.pop("metrics")
        if observed != document:
            raise CheckFailed("engine telemetry changed a stress answer")
        return {**document, "metrics": metrics}

    return Call(units=trials, run=run, answer=answer)


def _replay_answer(trials: int, requests: int) -> Callable[[str], Dict[str, Any]]:
    """The full ``--json`` document."""
    def answer(stdout: str) -> Dict[str, Any]:
        document = json.loads(stdout)
        replay = document["replay"]
        replayed = document["reliability"]["trials"]
        if replayed != trials:
            raise CheckFailed(f"replayed {replayed} of {trials} trials")
        if replay["requests_per_trial"] != requests:
            raise CheckFailed(
                f"{replay['requests_per_trial']} requests per trial, "
                f"expected {requests}"
            )
        if len(replay["exec_cycles"]) != trials:
            raise CheckFailed("one exec_cycles sample per trial expected")
        return document
    return answer


def campaign_calls(workload: str, seed: int, scale: int) -> List[Call]:
    """The calls one repetition of a campaign workload makes, in order."""
    from repro.rng import derive_seed

    def call_seed(leg: str, index: int) -> str:
        return str(derive_seed(seed, workload, leg, index))

    if workload == "fig18":
        return [
            _reliability(
                [*flags, "--tsv-fit", TSV_FIT,
                 "--shard-size", str(FIG18_SHARD), "--seed", call_seed(leg, i)],
                sized(FIG18_TRIALS, scale),
            )
            for leg, flags, calls in FIG18_LEGS
            for i in range(calls)
        ]
    if workload == "fig18-batch":
        batch = _batch_flag()
        return [
            _reliability(
                [*flags, "--tsv-fit", TSV_FIT,
                 "--shard-size", str(FIG18_BATCH_SHARD),
                 "--seed", call_seed(leg, i), *batch],
                sized(FIG18_BATCH_TRIALS, scale),
            )
            for leg, flags, calls in FIG18_BATCH_LEGS
            for i in range(calls)
        ]
    if workload == "hotpath-stress":
        return [
            _hotpath(int(call_seed("stress", i)), sized(STRESS_TRIALS, scale),
                     telemetry_check=i == 0)
            for i in range(STRESS_CALLS)
        ]
    if workload == "replay-zipfian":
        trials = sized(REPLAY_TRIALS, scale)
        requests = sized(REPLAY_REQUESTS, scale)
        return [
            Call(
                units=trials * requests * REPLAY_CORES,
                run=_cli([
                    "replay", "--scheme", "citadel", "--workload", "zipfian",
                    "--cores", str(REPLAY_CORES), "--requests", str(requests),
                    "--trials", str(trials), "--shard-size", str(REPLAY_TRIALS),
                    "--tsv-fit", TSV_FIT, "--seed", call_seed("replay", i),
                    "--json",
                ]),
                answer=_replay_answer(trials, requests * REPLAY_CORES),
            )
            for i in range(REPLAY_CALLS)
        ]
    raise ValueError(f"not a campaign workload: {workload}")


# ---------------------------------------------------------------------- #
# Repetitions, seen from the load-generating process
# ---------------------------------------------------------------------- #
@dataclass
class Rep:
    """One repetition's measurements, whatever ran it."""

    setup_s: float = 0.0
    #: Calibration time just before the spawn.  Once the child is ready
    #: it starts working, and a calibration then would compete with it.
    setup_cal_s: float = 0.0
    #: Host time of each timed call (a campaign, or one round trip).
    calls_s: List[float] = field(default_factory=list)
    #: Calibration time around each call.
    cal_s: List[float] = field(default_factory=list)
    #: Units of work completed by the timed calls.
    units: int = 0
    digest: str = ""
    peak_rss_mb: float = 0.0
    attempted: int = 1
    failed: int = 0
    error: Optional[str] = None
    layers: Optional[Dict[str, Optional[float]]] = None


class Child:
    """A benchmark child process whose output pipes are read by threads,
    so a hung or crashed child can never block the parent."""

    def __init__(self, args: List[str], root: Path, env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", *args],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.stdout: "queue.Queue[Optional[str]]" = queue.Queue()
        self.stderr: "queue.Queue[Optional[str]]" = queue.Queue()
        self.stderr_tail: List[str] = []
        self._readers = [
            threading.Thread(target=self._pump, daemon=True,
                             args=(self.proc.stdout, self.stdout, None)),
            threading.Thread(target=self._pump, daemon=True,
                             args=(self.proc.stderr, self.stderr,
                                   self.stderr_tail)),
        ]
        for reader in self._readers:
            reader.start()

    @staticmethod
    def _pump(pipe, lines: "queue.Queue[Optional[str]]",
              tail: Optional[List[str]]) -> None:
        for line in pipe:
            if tail is not None:
                tail.append(line)
                del tail[:-20]
            lines.put(line)
        lines.put(None)

    def line(self, lines: "queue.Queue[Optional[str]]") -> str:
        """The next line, or CheckFailed once the child closed the pipe
        or ``REQUEST_TIMEOUT_S`` passed without one."""
        try:
            line = lines.get(timeout=REQUEST_TIMEOUT_S)
        except queue.Empty:
            raise CheckFailed("benchmark child stopped answering") from None
        if line is None:
            raise CheckFailed(
                "benchmark child exited early: "
                + "".join(self.stderr_tail)[-400:]
            )
        return line

    def report(self) -> Dict[str, Any]:
        """The child's final JSON line."""
        return json.loads(self.line(self.stdout))

    def stop(self) -> int:
        """Wait for the child, killing it if it will not end; returns its
        exit code."""
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=REQUEST_TIMEOUT_S)
        self.proc.stdout.close()
        self.proc.stderr.close()
        return self.proc.returncode


def campaign_rep(
    workload: str,
    seed: int,
    scale: int,
    root: Path,
    env: Dict[str, str],
    trace_out: Optional[Path],
) -> Rep:
    """One repetition of a campaign workload in a fresh child process."""
    args = ["campaign", workload, str(seed), str(scale)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    cal_before = calibrate()
    child = Child(args, root, env)
    rep = Rep()
    try:
        if child.report() != {"ready": True}:
            raise CheckFailed("benchmark child sent no ready signal")
        rep.setup_s = time.perf_counter() - child.started
        rep.setup_cal_s = cal_before
        report = child.report()
        rep.error = report.get("error")
        rep.calls_s = report["calls_s"]
        rep.cal_s = report["cal_s"]
        rep.units = report["units"]
        rep.digest = report.get("digest", "")
        rep.peak_rss_mb = report["peak_rss_mb"]
        rep.layers = report.get("layers")
    except (CheckFailed, KeyError, ValueError) as exc:
        rep.error = rep.error or f"{type(exc).__name__}: {exc}"
    finally:
        code = child.stop()
    if code != 0 and rep.error is None:
        rep.error = f"benchmark child exited with code {code}"
    if rep.error is not None:
        rep.failed = 1
    return rep


_LISTENING = re.compile(r"listening on (http://[\w.\-]+:\d+)")


def _service_specs(workload: str, seed: int, scale: int):
    from repro.rng import derive_seed
    from repro.service.jobs import CampaignSpec

    count = (
        sized(MISS_SPECS, scale, floor=2) if workload == "service-miss"
        else sized(HIT_SPECS, scale, floor=2)
    )
    return [
        CampaignSpec(
            scheme=SERVICE_SCHEME,
            tsv_swap=4,
            trials=sized(SERVICE_TRIALS, scale, floor=10),
            shard_size=SERVICE_SHARD,
            tsv_fit=float(TSV_FIT),
            seed=derive_seed(seed, workload, f"spec{i}"),
        )
        for i in range(count)
    ]


def _round_trip(client, spec, expect_hit: bool) -> Tuple[float, Dict[str, Any]]:
    """submit -> wait -> fetch; returns (host seconds, result document)."""
    started = time.perf_counter()
    job = client.submit(spec)
    client.wait(job["id"], timeout_s=REQUEST_TIMEOUT_S,
                poll_interval_s=POLL_INTERVAL_S)
    document = client.result_document(job["id"])
    elapsed = time.perf_counter() - started
    if bool(job["cache_hit"]) != expect_hit:
        raise CheckFailed(
            f"job {job['id']}: cache_hit={job['cache_hit']}, "
            f"expected {expect_hit}"
        )
    result = document["result"]
    if result["trials"] != spec.effective_trials:
        raise CheckFailed(
            f"job {job['id']} ran {result['trials']} of "
            f"{spec.effective_trials} trials"
        )
    return elapsed, result


def _service_url(child: Child) -> str:
    """The address ``repro serve --port 0`` reports on stderr."""
    while True:
        match = _LISTENING.search(child.line(child.stderr))
        if match is not None:
            return match.group(1)


def _drive(client, workload: str, seed: int, scale: int, rep: Rep) -> None:
    """The closed loop: one client, one outstanding request at a time."""
    from repro.errors import ReproError

    specs = _service_specs(workload, seed, scale)
    answers: List[Dict[str, Any]] = []
    if workload == "service-hit":
        for spec in specs:  # populate the store, untimed
            answers.append(_round_trip(client, spec, expect_hit=False)[1])
        plan = [(spec, True, answers[i])
                for _ in range(sized(HIT_ROUNDS, scale, floor=2))
                for i, spec in enumerate(specs)]
    else:
        plan = [(spec, False, None) for spec in specs]
    cal = calibrate()
    for spec, expect_hit, expected in plan:
        rep.attempted += 1
        try:
            elapsed, result = _round_trip(client, spec, expect_hit)
            if expected is not None and result != expected:
                raise CheckFailed(f"hit on {spec.spec_hash()} changed")
        except (ReproError, CheckFailed, KeyError) as exc:
            rep.failed += 1
            rep.error = str(exc)
            continue
        cal_after = calibrate()
        rep.calls_s.append(elapsed)
        rep.cal_s.append((cal + cal_after) / 2)
        cal = cal_after
        rep.units += 1
        if expected is None:
            answers.append(result)
    rep.digest = digest([
        {k: v for k, v in result.items() if k != "manifest"}
        for result in answers
    ])


def service_rep(
    workload: str,
    seed: int,
    scale: int,
    root: Path,
    env: Dict[str, str],
    work_dir: Path,
    trace_out: Optional[Path],
) -> Rep:
    """Start a server child on a fresh store and drive it closed-loop.

    Set-up runs from the parent's spawn to the first ``/readyz`` 200.
    """
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    store = work_dir / f"store-{os.getpid()}-{time.monotonic_ns()}"
    args = ["serve", str(store)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    rep = Rep(attempted=0)
    cal_before = calibrate()
    child = Child(args, root, env)
    try:
        client = ServiceClient(_service_url(child), timeout_s=REQUEST_TIMEOUT_S)
        while not client.readyz().get("ready"):
            if time.perf_counter() - child.started > REQUEST_TIMEOUT_S:
                raise CheckFailed("service never became ready")
            time.sleep(0.002)
        rep.setup_s = time.perf_counter() - child.started
        rep.setup_cal_s = cal_before
        _drive(client, workload, seed, scale, rep)
    except (ReproError, CheckFailed) as exc:
        rep.error = str(exc)
    finally:
        # SIGTERM drains the service; only then does it report.
        if child.proc.poll() is None:
            child.proc.send_signal(signal.SIGTERM)
        try:
            report = child.report()
            rep.peak_rss_mb = report["peak_rss_mb"]
            rep.layers = report.get("layers")
        except (CheckFailed, KeyError, ValueError) as exc:
            rep.error = rep.error or f"server report: {exc}"
        code = child.stop()
        shutil.rmtree(store, ignore_errors=True)
    if code != 0:
        rep.error = rep.error or f"server exited with code {code}"
    if rep.error is not None and rep.failed == 0:
        rep.attempted = max(1, rep.attempted)
        rep.failed = rep.attempted
    return rep
