"""CPU-speed calibration taken alongside the validation it normalizes.

On a shared machine the CPU a benchmark gets can run at half speed for a
minute or more while a neighbour is busy, and no number of repetitions
inside one run averages that out.  So every validating process (the
iteration itself, or each campaign worker) times a fixed reference kernel
every ``INTERVAL_S`` of validation: before and after each function, and
inside a long one at its next solver query.  A function's time to verdict
is then also reported in *reference seconds*: each stretch of it between
samples is scaled by ``REFERENCE_S`` over the kernel's time around that
stretch, i.e. what it would have taken on a CPU that runs the kernel in
exactly ``REFERENCE_S``.  Time spent sampling inside a function is taken
out of its time to verdict.

The kernel shares nothing with the program, so a change to the program
moves its reference seconds exactly as it moves its measured seconds; only
the machine's speed cancels out.  It is interpreter work of the program's
kind: dictionary probes into a table of about a megabyte, and hashing of
short-lived tuples.
"""

from __future__ import annotations

import random
import time

#: nominal duration of one kernel run (the reference CPU's speed).
REFERENCE_S = 0.002
#: validation time after which the next sample is taken.
INTERVAL_S = 0.25
#: environment variable naming the directory campaign workers write their
#: samples to (set by the measured iteration before workers spawn).
SAMPLE_DIR_ENV = "PERFBENCH_SAMPLE_DIR"

_TABLE_SIZE = 32_768
_PROBES = 9_000


class Calibrator:
    """The reference kernel and the samples taken in one process.

    The kernel's table holds only integers, so the garbage collector never
    scans it and it does not slow the program it runs beside.
    """

    def __init__(self) -> None:
        rng = random.Random(2021)
        keys = [rng.randrange(1 << 30) for _ in range(2 * _TABLE_SIZE)]
        self._table = {key: key * 2654435761 & 0xFFFFFFFF for key in keys[:_TABLE_SIZE]}
        self._probes = [keys[rng.randrange(len(keys))] for _ in range(_PROBES)]
        self.latest = 0.0
        self._taken_at = float("-inf")
        #: (paused, resumed, kernel seconds) per sample taken inside the
        #: function being validated; None between functions.
        self._marks: list[tuple[float, float, float]] | None = None
        self.kernel()  # first touches of the table run slow

    def kernel(self) -> int:
        table = self._table
        mixed = 0
        for key in self._probes:
            value = table.get(key)
            if value is None:
                value = hash((key, mixed & 7))
            mixed ^= value + (key & 7)
        return mixed

    def sample(self) -> float:
        """Time the kernel now (best of three runs, which sheds a stray
        interrupt) and return that time."""
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - started)
        self.latest = min(runs)
        self._taken_at = time.perf_counter()
        return self.latest

    def sample_if_due(self) -> float:
        """The latest sample, taken afresh if ``INTERVAL_S`` has passed."""
        if time.perf_counter() - self._taken_at >= INTERVAL_S:
            return self.sample()
        return self.latest

    def sample_inside(self) -> None:
        """Take a due sample inside the function being validated."""
        if self._marks is not None and time.perf_counter() - self._taken_at >= INTERVAL_S:
            paused = time.perf_counter()
            kernel = self.sample()
            self._marks.append((paused, self._taken_at, kernel))

    def watch_solver(self) -> None:
        """Let every solver query take a due sample inside a function:
        queries come every few milliseconds in all of the pipeline's long
        stretches (KEQ's path exploration as well as SAT solving)."""
        from repro.smt.solver import Solver, SolverSession

        for cls, method in ((Solver, "check_sat"), (SolverSession, "check")):
            original = getattr(cls, method)

            def watched(*args, _original=original, **kwargs):
                self.sample_inside()
                return _original(*args, **kwargs)

            setattr(cls, method, watched)

    def wrap(self, validate, samples: dict):
        """``validate`` with samples around it; records in ``samples`` each
        function's ``[effective kernel seconds, seconds spent sampling
        inside it]``."""

        def calibrated(module, name, *args, **kwargs):
            before = self.sample_if_due()
            started = time.perf_counter()
            marks = self._marks = [(started, started, before)]
            try:
                return validate(module, name, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._marks = None
                samples[name] = _effective(marks, ended, self.sample_if_due())

        return calibrated


def _effective(marks: list, ended: float, after: float) -> list[float]:
    """The kernel time that scales a function's whole measured time as its
    stretches between samples are scaled, each by the mean of the samples
    at its two ends; and the time spent sampling inside it."""
    kernels = [kernel for _, _, kernel in marks] + [after]
    stops = [paused for paused, _, _ in marks[1:]] + [ended]
    measured = scaled = 0.0
    for index, ((_, resumed, _), stopped) in enumerate(zip(marks, stops)):
        stretch = stopped - resumed
        measured += stretch
        scaled += stretch * 2 / (kernels[index] + kernels[index + 1])
    sampling = sum(resumed - paused for paused, resumed, _ in marks[1:])
    if not scaled:  # too short for the clock to see
        return [(kernels[0] + kernels[-1]) / 2, sampling]
    return [measured / scaled, sampling]


def scale(kernel_s: float) -> float:
    """Factor turning measured seconds into reference seconds."""
    return REFERENCE_S / kernel_s
