"""Host-speed calibration for timings on a shared machine.

On a shared host the interpreter's speed drifts by tens of percent within
seconds, which swamps differences between program versions. A fixed
pure-Python loop timed just before and just after a measurement tracks
that drift. Every timing the benchmark reports is therefore scaled to a
reference host: the measured wall time times ``NOMINAL_MS`` over the mean
time of the two loops around it. The raw wall times are printed
alongside.
"""

import time

# Wall time of calibration_ms()'s loop on the reference host.
NOMINAL_MS = 10.0
LOOP = 8_000


def calibration_ms() -> float:
    """Milliseconds a fixed loop takes now. It does what the verifier's
    inner loops do: build tuples, probe a dict, test cells, grow a set,
    freeze and sort it; a loop of plain integer arithmetic tracks the
    verifier's speed on this host less closely."""
    start = time.perf_counter()
    rows = set()
    env = {}
    for i in range(LOOP):
        row = (i & 255, i >> 3, None)
        env["a"] = row[0]
        if env["a"] is not None and row[1] != -1:
            rows.add(row + (i & 15,))
    sorted(frozenset(rows))
    return (time.perf_counter() - start) * 1000.0


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two calibrations into
    reference-host time."""
    return 2.0 * NOMINAL_MS / (before + after)
