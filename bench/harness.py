"""Timed rounds, the per-operation time limit, checking and the metric rules."""

from __future__ import annotations

import collections
import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from walkfluct.errors import WalkfluctError

# |value - ref| <= CHECK_FACTOR * (abs_err + ref_err) passes
CHECK_FACTOR = 6.0
# Monte Carlo values are scaled to the time they would need for this error
MC_TARGET_ERR = 1e-3
TAIL_BEYOND = 10
# the probe's median time on the development machine in its fast mode
# (2 cores, Python 3.11.7, numpy 2.4.6); scaled times read in that machine's seconds
PROBE_REF_S = 0.0055
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 5

_SMALL = np.linspace(0.0, 1.0, 64)
_MEDIUM = np.linspace(0.1, 5.0, 4096) * (1.0 + 0.5j)


def probe() -> float:
    """Seconds for a fixed mix of pure-Python, small and medium numpy and RNG work.

    It never calls walkfluct, so a change to the package cannot move it; it
    moves only with the machine's speed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    x = _SMALL
    for _ in range(100):
        x = np.sqrt(x * x + 1.0) - 0.5
    y = _MEDIUM
    for _ in range(8):
        y = np.log(1.0 - 0.5 * np.exp(-y)) / (y + 1.0) + _MEDIUM
    np.random.Generator(np.random.Philox(key=7)).exponential(1.0, 40_000).sum()
    return time.perf_counter() - t0


class MachineSpeed:
    """Scale from wall seconds to seconds at the probe's reference speed.

    Shared small machines switch between speed modes that differ by up to 2x
    every few seconds, and a pure-Python loop, a numpy kernel and a walkfluct
    call slow down together.  The probe runs at most every PROBE_EVERY_S and the
    scale uses the median of its last PROBE_WINDOW times.
    """

    def __init__(self) -> None:
        self._times: collections.deque[float] = collections.deque(maxlen=PROBE_WINDOW)
        self._last = -math.inf

    def scale(self) -> float:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._times.append(probe())
            self._last = time.perf_counter()
        return PROBE_REF_S / statistics.median(self._times)

    def scale_now(self) -> float:
        """A fresh scale from PROBE_WINDOW probes in a row."""
        for _ in range(PROBE_WINDOW):
            self._times.append(probe())
        self._last = time.perf_counter()
        return PROBE_REF_S / statistics.median(self._times)


PASS, KNOWN, FAIL = "pass", "known", "fail"
TIME_LIMIT = "time limit"


class OpTimeout(BaseException):
    """SIGALRM fired: the operation ran past its time limit.

    A BaseException, not an Exception: contour._eval_density retries a density
    pointwise after any Exception, which would swallow an Exception-based alarm
    and leave the call running.
    """


def _alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    """One executed operation."""

    op: int               # index into the round's op list
    round: int
    traced: bool
    latency: float
    raw: Any = None
    error: str | None = None
    typed: bool = False   # the error is a WalkfluctError or the time limit
    status: str = ""
    ratio: float = 0.0    # max |value - ref| / (abs_err + ref_err) over readings
    abs_err: float = 0.0
    scale: float = 1.0    # MachineSpeed scale when the operation ran

    @property
    def ref_latency(self) -> float:
        return self.latency * self.scale


def execute(op, index: int, rnd: int, limit: float, *, tracer=None,
            op_id: int | None = None, speed: MachineSpeed | None = None) -> Record:
    rec = Record(index, rnd, tracer is not None, 0.0)
    if speed is not None:
        rec.scale = speed.scale()
    t0 = time.perf_counter()
    try:
        with time_limit(limit):
            if tracer is None:
                rec.raw = op.call()
            else:
                with tracer.operation(op_id):
                    rec.raw = op.call()
    except OpTimeout:
        rec.error, rec.typed = TIME_LIMIT, True
    except Exception as exc:  # noqa: BLE001 - every failure is recorded and scored
        rec.error = f"{type(exc).__name__}: {exc}"
        rec.typed = isinstance(exc, WalkfluctError)
    rec.latency = time.perf_counter() - t0
    return rec


def check(records: list[Record], ops) -> None:
    """Classify every record against its reference (outside the timed region)."""
    for rec in records:
        op = ops[rec.op]
        if rec.error is not None:
            rec.status = KNOWN if (op.known and rec.typed) else FAIL
            continue
        try:
            readings = op.check(rec.raw)
        except Exception as exc:  # noqa: BLE001 - a result that cannot be read fails
            rec.error, rec.status = f"check: {type(exc).__name__}: {exc}", FAIL
            continue
        if not readings:
            rec.error, rec.status = "check: no values returned", FAIL
            continue
        rec.ratio = max(abs(v - r) / (e + re) for v, e, r, re in readings)
        rec.abs_err = max(e for _, e, _, _ in readings)
        if math.isfinite(rec.ratio) and rec.ratio <= CHECK_FACTOR:
            rec.status = PASS
        else:
            rec.status = FAIL
            rec.error = f"value misses its reference: ratio {rec.ratio:.3g}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it.

    The value is the 11th largest sample, so exactly ten lie above it; with
    fewer than 11 samples no percentile qualifies and the maximum is returned
    with percentile 100.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(records: list[Record], ops, rounds: int, limit: float) -> dict:
    """The end-to-end metrics of the untraced rounds (setup_s and rss added by the caller).

    Times are in reference-speed seconds (Record.ref_latency).  The rate and the
    Monte Carlo cost are totals over whole rounds.  Failed operations are scored
    at the time limit.  Operations that hit their documented baseline defect
    count against pass_frac but stay out of the latency percentiles, where
    their fixed share would pin the tail.
    """
    lat = [r.ref_latency if r.status == PASS else limit for r in records
           if r.status != KNOWN]
    passed = sum(r.status == PASS for r in records)
    mc_s = sum(r.ref_latency * ((r.abs_err / MC_TARGET_ERR) ** 2 if ops[r.op].mc else 1.0)
               for r in records if r.status == PASS)
    # an operation cut by the limit cost the limit itself, whatever the speed mode
    spent = sum(limit if r.error == TIME_LIMIT else r.ref_latency for r in records)
    tail_v, tail_p, n = tail(lat) if lat else (limit, 100.0, 0)
    return {
        "points_per_s": (passed / spent, "1/s"),
        "point_p50_s": (statistics.median(lat) if lat else limit, "s"),
        "point_tail_s": (tail_v, "s"),
        "pass_frac": (passed / len(records), "1"),
        "mc_s_at_1e-3": (mc_s / rounds, "s"),
        "_tail": (tail_p, n),
    }
