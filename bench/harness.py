"""Running ops one after another: time budget, checks, digest, traffic.

Ops run in a closed loop with one client: the next op starts when the
previous one has returned and been checked. Each op is one call into the
library, timed alone; the oracle check that follows is not timed.

On a shared machine the CPU speed drifts by 20-40 % over tens of seconds
and minutes, which no run length averages out. So every op is preceded by
a fixed reference loop, and op times are reported at the reference speed:
scaled by REFERENCE_S over the median time of the reference loop around
the op. A run makes several passes over the same ops, and the metrics use
each op's fastest scaled time. The unscaled times are kept and printed.
"""

import gc
import hashlib
import signal
import statistics
import time


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM when it overruns its time budget.

    A BaseException, so that library code catching Exception cannot
    swallow it.
    """


# Time of one reference loop at the reference speed; about its median on
# the 2-vCPU Xeon VM where the benchmark was defined (1.2-2.0 ms there).
REFERENCE_S = 0.0015
_NEIGHBOURS = 5  # reference loops on each side of an op that set its speed


def reference_loop():
    """Seconds taken by a fixed piece of pure-Python arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def reference_speed(samples=5):
    """REFERENCE_S over the median of a few reference loops run now."""
    return REFERENCE_S / statistics.median(reference_loop() for _ in range(samples))


def _on_alarm(_signum, _frame):
    raise OpTimeout()


def timed(fn, budget_s):
    """(status, result or error text, seconds) of ``fn()``.

    The budget is a one-shot interval timer on this process, so no thread
    or process is started per op. Status is ok, timeout, exit or error.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            result = fn()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except OpTimeout:
        return "timeout", f"over the {budget_s} s budget", time.perf_counter() - start
    except SystemExit as exc:
        return "exit", f"SystemExit({exc.code})", time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - any library error is a failed op
        return "error", f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return "ok", result, end - start


class Runner:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, workload, lib, ops, digest_ops, tracer=None):
        self.workload = workload
        self.lib = lib
        self.ops = ops
        self.digest_ops = digest_ops
        self.tracer = tracer
        self.seconds = []       # time of every attempted op
        self.references = []    # time of the reference loop before each of them
        self.indices = []       # op index of each of them
        self.failures = {}      # kind -> count
        self.failed_ops = set()
        self.first_problem = None
        self.traffic = {}
        self._digest = hashlib.sha256()
        self._digested = 0

    def run(self, index, corrupt=None):
        """Run op ``index``; True when it checked correct.

        ``corrupt`` alters the result before the check; the self-test uses
        it to show that a wrong result counts as a failed op.
        """
        op = self.ops[index]
        budget = self.workload.budget_s

        def call():
            if self.tracer is None:
                return self.workload.call(self.lib, op)
            with self.tracer.op(index):
                return self.workload.call(self.lib, op)

        # Each op starts from a collected heap, so the garbage collections
        # inside it do not depend on what the ops before it allocated.
        gc.collect()
        self.references.append(reference_loop())
        status, result, seconds = timed(call, budget)
        canonical = f"FAILED {status}"
        if status == "ok":
            if corrupt is not None:
                result = corrupt(result)
            try:
                problem, canonical, traffic = self.workload.check(op, result)
            except Exception as exc:  # noqa: BLE001 - a malformed result is a mismatch
                problem, traffic = f"check raised {type(exc).__name__}: {exc}", {}
            if problem is not None:
                status, result = "mismatch", problem
            for key, value in traffic.items():
                self.traffic.setdefault(key, []).append(value)
        self.seconds.append(seconds)
        self.indices.append(index)
        if status != "ok":
            self.failed_ops.add(index)
            self.failures[status] = self.failures.get(status, 0) + 1
            if self.first_problem is None:
                self.first_problem = f"op {index}: {status}: {result}"
        if self._digested < self.digest_ops and index == self._digested:
            self._digest.update(f"{index}\t{canonical}\n".encode())
            self._digested += 1
        return status == "ok"

    @property
    def attempted(self):
        return len(self.seconds)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def digest(self):
        """sha256 of the canonical outputs of the first ``digest_ops`` ops, in op order."""
        part = "" if self._digested == self.digest_ops else f" (partial: {self._digested} ops)"
        return f"sha256 {self._digest.hexdigest()} over ops 0-{self.digest_ops - 1}{part}"

    def best_times(self, scaled=True):
        """Each op's fastest time, at the reference speed when ``scaled``.

        An op that failed in any pass counts as taking its full budget.
        """
        best = {}
        for j, (index, seconds) in enumerate(zip(self.indices, self.seconds)):
            if index in self.failed_ops:
                best[index] = max(seconds, self.workload.budget_s)
                continue
            if scaled:
                around = self.references[max(0, j - _NEIGHBOURS):j + _NEIGHBOURS + 1]
                seconds *= REFERENCE_S / statistics.median(around)
            best[index] = min(seconds, best.get(index, seconds))
        return list(best.values())

    def end_to_end(self, scaled=True):
        """Throughput of completed ops and percentiles, over the fastest times."""
        best_ms = [s * 1000.0 for s in self.best_times(scaled)]
        return {
            "ops_per_s": (len(best_ms) - len(self.failed_ops)) / (sum(best_ms) / 1000.0),
            "op_p50_ms": statistics.median(best_ms),
            "op_p90_ms": statistics.quantiles(best_ms, n=10, method="inclusive")[8],
        }

    def traffic_summary(self):
        parts = []
        for key, values in self.traffic.items():
            lo, hi, mean = min(values), max(values), statistics.fmean(values)
            parts.append(f"{key} {lo:g}-{hi:g} (mean {mean:.4g})")
        return "; ".join(parts)
