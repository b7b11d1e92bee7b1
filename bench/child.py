"""Run one ``hapaxchain`` CLI call untraced and record when it got going.

Usage: python child.py STAMP_FILE [CLI ARGS...]

The parent notes the monotonic clock just before it spawns this process.
``ready`` is taken once ``hapaxchain.cli`` is imported (so ready minus
spawn is the set-up every CLI call pays) and ``end`` once the command
returns.  With no CLI arguments the process only imports and exits.

From before the import until the command returns, a timer interrupts
the process every ``REF_INTERVAL_S`` to run a fixed pure-Python loop,
and records when it ran and how long it took.  These speed samples are
taken in the same process, on the same CPU, at the same time as the
work they sit between, so the parent can tell how fast the machine ran
during each interval (see ``speed_scaled`` in run.py).
"""

import json
import signal
import sys
import time

REF_INTERVAL_S = 0.1
REF_LOOP_ITERATIONS = 20_000


def reference_loop() -> int:
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i % 7
    return total


class SpeedProbe:
    """SIGALRM handler: times ``reference_loop`` and keeps (start, duration)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def __call__(self, signum, frame) -> None:
        start = time.monotonic()
        reference_loop()
        self.samples.append((start, time.monotonic() - start))


def main() -> int:
    stamp_file, argv = sys.argv[1], sys.argv[2:]
    probe = SpeedProbe()
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    import hapaxchain.cli

    ready = time.monotonic()
    code = 0
    try:
        if argv:
            hapaxchain.cli.main.main(args=argv, prog_name="hapaxchain", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        end = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(stamp_file, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "end": end, "module": hapaxchain.cli.__file__,
                       "speed_samples": probe.samples}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
