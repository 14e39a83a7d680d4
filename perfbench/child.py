"""One pass of a workload in a fresh interpreter.

Usage: child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; on Linux that clock is shared between processes, so set-up time is
measured from interpreter start until `import witsenhausen.cli` returns.
The spec names the commands, the expected source directory, whether to
trace, which calibration kernel to time, and where to write the result JSON.
"""
import json
import sys
import time

spawned = float(sys.argv[2])
import witsenhausen.cli as cli  # noqa: E402

imported = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.special import log_ndtr  # noqa: E402

_GRID = numpy.linspace(-12.0, 12.0, 2001)
# kernel runs per pass, shared out over the boundaries between commands
KERNEL_RUNS = 6


def cpu_kernel() -> float:
    """Seconds taken by a fixed mix of cache-resident interpreter and NumPy work.

    It mirrors the hot loops of the quadrature and optimizer workloads:
    scalar Python arithmetic, log_ndtr/exp over 2001-node arrays, and random
    draws in small batches. Like memory_kernel, it does not touch the
    program, so a change to the program cannot change its time; only the
    machine's speed can.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 80_000):
        acc += math.log(i) / i
    for _ in range(180):
        l = log_ndtr(0.7 * _GRID)
        acc += float(numpy.sum(numpy.exp(l) * (l + 0.69)))
    rng = numpy.random.Generator(numpy.random.Philox(key=1))
    for _ in range(100):
        x = rng.standard_normal(10_000)
        acc += float(numpy.sum((x - numpy.tanh(x)) ** 2))
    return time.perf_counter() - start


def memory_kernel() -> float:
    """Seconds taken by random draws and arithmetic on 16 MB arrays.

    It mirrors the simulations, which stream arrays far larger than the
    caches; a slow phase of the machine slows them less than it slows
    cache-resident work.
    """
    start = time.perf_counter()
    x = numpy.random.Generator(numpy.random.Philox(key=1)).standard_normal(2_000_000)
    float(numpy.sum((x - numpy.tanh(x)) ** 2))
    return time.perf_counter() - start


KERNELS = {"cpu": cpu_kernel, "memory": memory_kernel}


def calibrate(kernel, repeats: int) -> list[float]:
    """Times of `repeats` runs of `kernel` in a forked process.

    The fork keeps the kernel's memory out of this process, so that it can
    never count in the pass's peak_rss_mb.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            times = [kernel() for _ in range(repeats)]
            os.write(write_fd, json.dumps(times).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(cli.__file__), src]) != src:
        print(f"imported {cli.__file__}, expected a module under {src}", file=sys.stderr)
        return 2

    tracer = None
    missing = []
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    # The kernel is timed before the first command and after every command,
    # so that each command's time can be scaled by the machine's speed at
    # its two ends; the machine changes speed within a pass, too.
    kernel = KERNELS[spec["kernel"]]
    repeats = max(1, KERNEL_RUNS // (len(spec["commands"]) + 1))
    calibration = [calibrate(kernel, repeats)]
    codes, stdouts, command_s = [], [], []
    for argv in spec["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code if isinstance(exc.code, int) else 2
        command_s.append(time.perf_counter() - start)
        codes.append(code)
        stdouts.append(buf.getvalue())
        calibration.append(calibrate(kernel, repeats))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": imported - spawned,
        "wall_s": sum(command_s),
        "command_s": command_s,
        "peak_rss_mb": peak_rss_mb,
        "kernel": spec["kernel"],
        "calibration_s": calibration,
        "codes": codes,
        "stdouts": stdouts,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["missing"] = missing
        result["wrapper_costs"] = tracing.wrapper_costs()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
