"""Statistics, ratios, machine speed, memory and run metadata shared by
every workload.

Everything here is measured from outside the program: the benchmark
times calls into the public API (or the HTTP service) and reads only
the counts the program already exposes.  Nothing in this module knows
about a specific workload.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer samples the slowest sample is reported.
MIN_SAMPLES_BEYOND = 10

#: Reference samples on each side of an operation that set its scale.
GAUGE_WINDOW = 5

#: Thread-pool environment variables recorded with every result.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


#: The pools :func:`single_threaded_blas` sets to one thread.
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def single_threaded_blas() -> None:
    """Run the BLAS/OpenMP pools of this process and its children with one
    thread.

    ``paper-tb`` and ``service-mix`` call this: their flows make many small
    dense linear-algebra calls, and a second pool thread on a 2-core
    machine made their run times follow the host's load (README.md).  It
    only works before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("single_threaded_blas() must run before numpy is imported")
    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"


#: glibc allocator settings :func:`fixed_malloc_thresholds` applies:
#: blocks up to 32 MiB come from the heap, and the heap top is returned
#: to the system only above 128 MiB.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(128 << 20)}
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def fixed_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process and the
    children it starts (where the C library has ``mallopt``).

    By default glibc moves both thresholds as blocks are freed, so how
    fast a design's 100-200 KiB arrays are allocated depends on what the
    process allocated before it: tb3 designs of one run took 1.0 s or
    1.3 s depending on the run (README.md).
    """
    os.environ.update(MALLOC_ENV)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(_M_MMAP_THRESHOLD, int(MALLOC_ENV["MALLOC_MMAP_THRESHOLD_"]))
    mallopt(_M_TRIM_THRESHOLD, int(MALLOC_ENV["MALLOC_TRIM_THRESHOLD_"]))


def pin_to_one_cpu() -> int:
    """Restrict this process (and every child it starts) to one CPU.

    ``service-mix`` calls this so the client and the server hand each
    request over on one CPU; a hand-over between CPUs made hit latency
    differ by 1.4x between runs (README.md).  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def interpreter_work() -> None:
    """A fixed computation, mostly interpreter: Python loops around numpy
    calls on 64 numbers.  It follows the machine's speed the way the
    service's request handling does (README.md, "Machine speed")."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    table = {}
    for i in range(400):
        acc += float((np.sqrt(x * x + i) - x)[i % 64])
        table[i & 63] = acc
        acc += sum([j * 0.5 for j in range(40)])


def array_work() -> None:
    """A fixed computation, mostly numpy: sorts and element-wise passes
    over 2000 numbers.  It follows the machine's speed the way the
    ``paper-tb`` flows do (README.md, "Machine speed")."""
    import numpy as np

    x = np.random.default_rng(0).random(2000)
    for i in range(180):
        order = np.argsort(x * (i % 60 + 1) % 1.0)
        x = x[order] * 0.999 + 0.0005
        x.cumsum()


@dataclass(frozen=True)
class Reference:
    """A reference computation and the seconds it takes on a calm machine
    (the 2-core x86-64 VM the benchmark was built on)."""

    work: Callable[[], None]
    calm_s: float


INTERPRETER_REFERENCE = Reference(interpreter_work, 0.0025)
ARRAY_REFERENCE = Reference(array_work, 0.013)


class SpeedGauge:
    """Reference timings taken next to the timed operations of a run.

    The machine the benchmark runs on changes speed by up to 2x for tens
    of seconds at a time, as neighbours load its host.  After each timed
    operation the benchmark calls :meth:`sample`, and :meth:`scale`
    converts the operation's wall time to seconds on a calm machine:
    ``wall x calm_s / local``, where ``local`` is the median of the
    reference timings within :data:`GAUGE_WINDOW` samples of the
    operation's own.  A long operation between two :meth:`settle` calls
    is scaled by the reference timings of both.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: List[float] = []

    def sample(self) -> int:
        """Time the reference computation once; the index of the sample."""
        start = time.perf_counter()
        self.reference.work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def settle(self) -> int:
        """Take a full window of samples; the index of the middle one."""
        first = len(self.samples)
        for _ in range(2 * GAUGE_WINDOW + 1):
            self.sample()
        return first + GAUGE_WINDOW

    def local(self, index: int, last: Optional[int] = None) -> float:
        last = index if last is None else last
        return median(self.samples[max(0, index - GAUGE_WINDOW):last + GAUGE_WINDOW + 1])

    def scale(self, seconds: float, index: int, last: Optional[int] = None) -> float:
        """``seconds`` of wall time next to sample ``index`` (or between
        samples ``index`` and ``last``), on a calm machine."""
        return seconds * self.reference.calm_s / self.local(index, last)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the sample count it rests on.

    ``rule`` is ``"p99"`` when the 99th percentile has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, else ``"max"``.
    """

    value: float
    samples: int
    beyond: int
    rule: str


def tail(samples: Sequence[float]) -> Tail:
    """Nearest-rank 99th percentile of ``samples``, or their maximum.

    The nearest-rank percentile is the sample at rank ``ceil(0.99 n)``;
    ``n - rank`` samples lie beyond it.  When that is fewer than
    :data:`MIN_SAMPLES_BEYOND` the percentile is not supported by the
    sample, and the slowest sample is reported instead (``rule="max"``,
    ``beyond=0``).
    """
    data = sorted(samples)
    if not data:
        raise ValueError("tail() needs at least one sample")
    n = len(data)
    rank = max(1, math.ceil(0.99 * n))
    if n - rank >= MIN_SAMPLES_BEYOND:
        return Tail(float(data[rank - 1]), n, n - rank, "p99")
    return Tail(float(data[-1]), n, 0, "max")


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (``statistics.median``)."""
    if not values:
        raise ValueError("median() needs at least one value")
    return float(statistics.median(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, defined as 0.0 on an empty base."""
    return float(numerator) / float(denominator) if denominator else 0.0


def peak_rss_mb(server: bool = False) -> float:
    """Peak resident set size of this process, plus, with ``server``, the
    largest child's (the service workload's server).

    ``RUSAGE_CHILDREN`` reports the largest *waited-for* child, so the
    server counts once it has been stopped.  Linux reports ``ru_maxrss``
    in KiB.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if server:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git.

    Returns ``None`` outside a git work tree (the benchmark may run in a
    plain export of the sources).
    """
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    try:
        return loose.read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def run_metadata(root: Path, seed: int, workload: str, trace: bool) -> Dict[str, object]:
    """Machine, environment and program identity stored with a result."""
    import numpy
    import scipy

    import repro
    from repro.physical.routing.kernel import kernel_available, resolve_kernel

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "malloc_env": {name: os.environ.get(name) for name in MALLOC_ENV},
        "numba_importable": kernel_available(),
        "routing_engine": resolve_kernel("auto"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }
