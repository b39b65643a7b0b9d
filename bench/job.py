"""One measured process: import the program, then run a workload's job.

Usage: ``job.py MODE SPEC RESULT SPAWN_NS``.  ``MODE`` is ``calibrate``
(start-up, ``import numpy`` and fixed stdlib work, no import of the
program), ``import`` (set-up only), ``plain`` (the CLI commands through
``repostminer.cli.main``) or ``traced`` (the same CLI commands with the
library calls timed, see ``traced.py``).  SPEC is a JSON file with the
workload name and its commands, RESULT the JSON file this process writes
once it is done, and SPAWN_NS the parent's ``time.monotonic_ns()`` just
before it started this process, so that set-up time includes interpreter
start-up.
"""

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """High-water resident set of this process alone, in MiB.  ``ru_maxrss``
    is the fallback; it can include the parent's size at fork."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_s() -> float:
    """User plus system CPU of this process, all threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import re
    try:
        with open("/proc/self/maps") as f:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _calibration_work() -> None:
    """Fixed pure-Python work of the kinds the jobs do: write and parse CSV
    rows, parse ISO-8601 timestamps, group into a dict and sort."""
    import csv
    import io
    from datetime import datetime
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(20_000):
        writer.writerow([f"c{i // 10}", f"u{i * 7919 % 300:03d}",
                         f"2024-01-{1 + i % 28:02d}T{i % 24:02d}:{i % 60:02d}:"
                         f"{i * 13 % 60:02d}+00:00"])
    buf.seek(0)
    groups: dict[str, list[tuple[str, float]]] = {}
    for trace, account, stamp in csv.reader(buf):
        groups.setdefault(trace, []).append((account, datetime.fromisoformat(stamp).timestamp()))
    sorted(groups.items(), key=lambda kv: kv[1][0][1])


def main() -> None:
    mode, spec_path, result_path, spawn_ns = sys.argv[1:5]
    if mode == "calibrate":
        # Start-up, numpy and fixed stdlib work are the same on every commit:
        # they gauge the machine's speed, in a process that never imports
        # the program.
        import numpy  # noqa: F401
        _calibration_work()
        with open(result_path, "w") as f:
            json.dump({"calibration_s": (time.monotonic_ns() - int(spawn_ns)) / 1e9}, f)
        return
    import repostminer
    from repostminer import cli
    result: dict[str, object] = {"setup_s": (time.monotonic_ns() - int(spawn_ns)) / 1e9}
    with open(spec_path) as f:
        spec = json.load(f)
    if mode == "import":
        import numpy
        result.update(python=sys.version.split()[0], numpy=numpy.__version__,
                      blas_threads=_blas_threads(), version=repostminer.__version__)
    elif mode == "plain":
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for argv in spec["commands"]:
            code = cli.main(argv)
            if code != 0:
                sys.exit(f"repostminer {argv[0]} exited with {code}")
        result.update(job_s=time.perf_counter() - t0, job_cpu_s=_cpu_s() - cpu0,
                      peak_rss_mb=_peak_rss_mb())
    elif mode == "traced":
        import traced
        cpu0, t0 = _cpu_s(), time.perf_counter()
        tracer = traced.run(spec["workload"], spec["commands"])
        result.update(job_s=time.perf_counter() - t0, job_cpu_s=_cpu_s() - cpu0,
                      peak_rss_mb=_peak_rss_mb(), spans=tracer.spans,
                      counts=traced.counts(tracer))
    else:
        sys.exit(f"unknown mode {mode!r}")
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
