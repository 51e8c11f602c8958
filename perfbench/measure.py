"""Host probes, sample statistics and the span tracer of the benchmark.

Nothing here imports the engine: these helpers read ``/proc`` and the
clock, so they cost the same on every commit being compared.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def host_cpus() -> int:
    """CPUs this process may run on (``nproc`` can read lower when
    ``OMP_NUM_THREADS`` is set)."""
    return len(os.sched_getaffinity(0))


def cpu_jiffies() -> tuple[int, int]:
    """(busy, steal) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    # user nice system idle iowait irq softirq steal
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the cycles asked for that the hypervisor withheld."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / max(busy + steal, 1)


def proc_stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # field 2 (comm) may hold spaces; split after its closing paren
    return raw[raw.rindex(")") + 2:].split()


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below ``pid`` (default: this one)."""
    root = os.getpid() if pid is None else pid
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = proc_stat(int(name))
        if st is not None:
            kids.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds used so far by ``pids``."""
    total = 0
    for p in pids:
        st = proc_stat(p)
        if st is not None:
            total += int(st[11]) + int(st[12])
    return total / _CLK_TCK


def tree_cpu_seconds() -> float:
    """CPU seconds of this process and every process below it (the Ray
    services and workers ``ray.init`` started)."""
    return cpu_seconds([os.getpid()] + descendants())


def rss_mb(pid: int) -> float:
    st = proc_stat(pid)
    return 0.0 if st is None else int(st[21]) * _PAGE / 2**20


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def actor_pids(class_name: str) -> list[int]:
    """Ray actor processes of one class below this process (Ray titles
    each actor process ``ray::<ClassName>``)."""
    tag = f"ray::{class_name}"
    return [p for p in descendants() if cmdline(p).startswith(tag)]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans nest by call order on the one client thread; a span opened
    inside another records it as parent and inherits its request id.
    Nothing is written until ``dump``."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rid=None):
        parent = self._open[-1] if self._open else None
        if rid is None and parent is not None:
            rid = self.spans[parent]["rid"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "rid": rid}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval that
        its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(i, [])):
                lo, hi = max(lo, s["start"]), min(hi, s["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(s["end"] - s["start"] - covered)
        return out

    def self_time_by_name(self, name: str) -> list[float]:
        return [t for s, t in zip(self.spans, self.self_times())
                if s["name"] == name]

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total wall seconds, total self seconds,
        and whether every span's self time stayed within its wall."""
        out: dict[str, dict] = {}
        for s, st in zip(self.spans, self.self_times()):
            wall = s["end"] - s["start"]
            e = out.setdefault(s["name"], {"n": 0, "wall_s": 0.0,
                                           "self_s": 0.0,
                                           "self_le_wall": True})
            e["n"] += 1
            e["wall_s"] += wall
            e["self_s"] += st
            e["self_le_wall"] &= -1e-9 <= st <= wall + 1e-9
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0,
                 "self": st}
                for s, st in zip(self.spans, self.self_times())]


class NullTracer:
    """Tracing off: spans cost one no-op context manager, wrappers
    return the function itself."""

    enabled = False

    def span(self, name: str, rid=None):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn
