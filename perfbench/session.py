"""Ray session lifecycle, the process tree it spawns, peak memory, and
the host-speed probe that puts timings in reference seconds.

The benchmark owns exactly one local Ray session at a time, started
with ``num_cpus`` equal to ``nproc`` from this single process. Every
process Ray starts is a descendant of this one, so the process
tree under ``os.getpid()`` is the whole system under test: the memory
sampler sums it, and :func:`stop_ray` waits until it is empty.
"""

from __future__ import annotations

import functools
import os
import signal
import statistics
import sys
import threading
import time

# Unix socket paths are limited to 107 bytes; Ray nests its sockets
# about 62 characters below the temp dir it is given.
_MAX_RAY_TEMP_LEN = 44
OBJECT_STORE_BYTES = 768 * 1024 * 1024


def nproc() -> int:
    """CPUs the benchmark may use, as GNU ``nproc`` counts them: the
    ``OMP_NUM_THREADS`` limit when set, else the CPU affinity mask."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def start_ray(temp_dir: str) -> None:
    """Start a fresh local Ray session and quiet Ray Data's progress output."""
    import ray
    from ray.data import DataContext

    kwargs = {}
    if len(temp_dir) <= _MAX_RAY_TEMP_LEN:
        os.makedirs(temp_dir, exist_ok=True)
        kwargs["_temp_dir"] = temp_dir
    else:
        print(f"[perfbench] {temp_dir} is too long for Ray's unix sockets; "
              "Ray keeps its session files in its default temp dir",
              file=sys.stderr, flush=True)
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started has exited;
    stragglers past ``timeout_s`` are killed and reaped."""
    import ray

    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        left = descendants(os.getpid())
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        _reap()
        time.sleep(0.1)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _parents() -> dict[int, int]:
    out: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> list[int]:
    """Live (non-zombie) processes below ``root``."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


class Interval:
    """Wall time of an interval, in seconds."""

    def __enter__(self) -> "Interval":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0


@functools.lru_cache(maxsize=1)
def _probe_inputs():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "select", "union", "admin", "login",
             "passwd", "etc", "script"]
    texts = [" ".join(words[i] for i in rng.integers(0, len(words), 40))
             for _ in range(40_000)]
    return texts, pa.array(texts)


class HostSpeed:
    """How fast the host runs the benchmark's kind of work right now,
    from a fixed probe timed between the measured intervals.

    On a virtual machine on a shared host, the CPUs slow down in windows
    minutes long, and the guest sees little of it as steal: on a 4-vCPU
    VM a streaming pass took 3.0 s in one window and 5.5-7.5 s in the
    next, with 1-20 % steal, while this probe went from 0.165 s to
    0.27-0.38 s. The probe's work is fixed and does not use the program:
    Arrow regex matching and lower-casing, Python regex and dict
    counting, and hashing, over 40k generated strings. A timing is
    reported in reference seconds, ``wall * REFERENCE_S / probe``, where
    ``probe`` is the median probe time over the phase the interval
    belongs to; the raw wall times and probe times go to stderr."""

    REFERENCE_S = 0.165  # the probe's time in that VM's fast windows
    CALLS = 3  # probe calls per sample point

    def __init__(self):
        self.probes: list[float] = []

    def sample(self) -> None:
        import hashlib
        import re

        import pyarrow.compute as pc

        texts, arr = _probe_inputs()
        rx = re.compile(r"(union\s+select|etc/passwd|<script)")
        for _ in range(self.CALLS):
            t0 = time.perf_counter()
            for pattern in ("union.*select", "adm[a-z]n", "etc.passwd",
                            "scr[i]pt", "(?i)LOGIN"):
                pc.sum(pc.match_substring_regex(arr, pattern))
            pc.utf8_lower(arr)
            sum(1 for t in texts[:20_000] if rx.search(t))
            counts: dict[str, int] = {}
            for t in texts[:12_000]:
                for w in t.split():
                    counts[w] = counts.get(w, 0) + 1
            hashlib.sha256("".join(texts[:20_000]).encode()).hexdigest()
            self.probes.append(time.perf_counter() - t0)

    def probe_s(self) -> float:
        return statistics.median(self.probes)

    def scale(self) -> float:
        """Reference seconds per wall second over the samples so far."""
        return self.REFERENCE_S / self.probe_s()


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages (the object store mapping,
    shared libraries) are split between the processes that map them,
    so summing over processes does not count them twice."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb() -> float:
    me = os.getpid()
    return sum(_pss_kb(p) for p in [me, *descendants(me)]) / 1024.0


class PeakMemory:
    """Peak summed PSS of this process and its process tree, sampled by a
    thread that sleeps between samples, so it adds no busy thread on a
    single core."""

    INTERVAL_S = 0.5

    def __init__(self):
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="peak-mem",
                                        daemon=True)

    def _loop(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_pss_mb())
            self.samples += 1
            if self._stop.wait(self.INTERVAL_S):
                return

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
