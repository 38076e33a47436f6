"""Run one convground CLI command in this fresh interpreter and report on it.

Usage: python3 child.py RESULT_JSON TRACE -- CLI_ARGV...

The command's stdout and stderr pass through unchanged. RESULT_JSON receives
the monotonic time at which ``convground.cli`` finished importing (the
parent took the time just before spawning this process), the wall seconds
of the ``main(argv)`` call, its exit code, the peak resident memory of this
process and, with TRACE set to 1, the layer spans of the call.
"""

import sys
import time

import convground.cli

IMPORTED_AT = time.monotonic()


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    Not ``ru_maxrss``: Linux carries the parent's high-water mark over an
    exec into the child, so that would count the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    import json
    import traceback

    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    tracer = None
    missing: list[str] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    start = time.monotonic()
    try:
        code = convground.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # The benchmark records a crashing command as failed and keeps going.
        traceback.print_exc()
        code = 1
    command_s = time.monotonic() - start
    sys.stdout.flush()

    record = {
        "imported_at": IMPORTED_AT,
        "command_s": command_s,
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "module_file": convground.cli.__file__,
    }
    if tracer is not None:
        record["trace"] = {**tracer.dump(), "missing": missing}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
