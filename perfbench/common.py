"""Shared pieces of the benchmark: statistics, spans, machine facts.

Everything here runs in the benchmark process.  Spans are recorded by
wrapping a layer's public function from the outside (``Tracer.wrap``)
or around the benchmark's own calls (``Tracer.span``); nothing inside
``src/`` is instrumented.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives inside the checkout.
SRC = ROOT / "src"
#: Server logs of ``serve-mixed`` runs go here.
LOG_DIR = ROOT / ".perfbench"

#: Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def uniform_side(n: int) -> float:
    """Field side giving n uniform nodes the density of 100 on 200 x 200."""
    return 200.0 * math.sqrt(n / 100.0)


def require_program() -> None:
    """Exit non-zero, printing no result, when ``src/repro`` is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program under test at {SRC / 'repro'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, q):
    """Linear-interpolated percentile ``q`` (0..100) of sorted values."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values):
    """``(percentile, value, samples)``: the highest ladder percentile
    with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            chosen = q
    return chosen, percentile(ordered, chosen), n


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (0 when it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc`` task lists)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def machine_info() -> dict:
    """The machine and build a report was measured on."""
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "mem_total_mb": None,
        "python": platform.python_version(),
        "numpy": None,
        "scipy": None,
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["mem_total_mb"] = int(line.split()[1]) // 1024
                    break
    except OSError:
        pass
    for name in ("numpy", "scipy"):
        try:
            info[name] = __import__(name).__version__
        except ImportError:
            info[name] = "absent"
    return info


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Tracer:
    """In-memory span recorder: ``(name, start, end, parent index)``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a spanned call-through until
        :meth:`unwrap`; ``on_result`` sees each return value."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                value = original(*args, **kwargs)
            if on_result is not None:
                on_result(value)
            return value

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def breakdown(self, root_index: int) -> tuple[dict, dict]:
        """Summed duration and summed self time per span name in the
        subtree under ``root_index`` (the root included)."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        inside = {root_index}
        for i in range(root_index, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if i != root_index and parent not in inside:
                continue
            inside.add(i)
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start)
            if i != root_index:
                self_time[self.spans[parent][0]] -= end - start
        return total, self_time


def time_setup(workload: str, seed: int) -> float:
    """Wall seconds of one fresh-interpreter set-up of a construction
    workload (import, deployment generation, warm-up)."""
    probe = Path(__file__).resolve().parent / "probe.py"
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(probe), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    # A blocking wait: ``wait(timeout=...)`` polls in sleeps of up to
    # 50 ms, which would round every set-up time up to that grid.
    watchdog = threading.Timer(170, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if returncode != 0:
        raise RuntimeError(f"set-up of {workload} exited with {returncode}")
    return elapsed
