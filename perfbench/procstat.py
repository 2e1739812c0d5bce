"""CPU and peak-memory readers for daemon process trees, from ``/proc``,
and the controls the benchmark applies to those trees (nice, ending and
reaping them).

A daemon's cost includes the workers it forked, so every reader walks the
tree under the given root pids.  CPU per process is ``utime + stime``
plus ``cutime + cstime`` (children it already reaped), which counts a
short-lived child exactly once: while alive on its own line, after
``wait()`` inside its parent's.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Iterable, List, Set

_CLK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "r") as fh:
        text = fh.read()
    # the command name may hold spaces and parens: split after the last ')'
    return text[text.rindex(")") + 2:].split()


def descendants(roots: Iterable[int]) -> Set[int]:
    """``roots`` plus every live process below them."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(entry))
    seen: Set[int] = set()
    stack = [pid for pid in roots if os.path.exists(f"/proc/{pid}")]
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        stack.extend(children.get(pid, ()))
    return seen


def cpu_seconds(pid: int) -> float:
    """CPU seconds of one process and the children it has reaped."""
    fields = _stat_fields(pid)
    # after the command: state(0) ppid(1) ... utime(11) stime(12)
    # cutime(13) cstime(14), in clock ticks
    return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLK


def tree_cpu(roots: Iterable[int]) -> Dict[int, float]:
    """pid -> CPU seconds for every live process in the trees."""
    out: Dict[int, float] = {}
    for pid in descendants(roots):
        try:
            out[pid] = cpu_seconds(pid)
        except (OSError, ValueError, IndexError):
            continue
    return out


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds the trees spent between two :func:`tree_cpu` samples.

    A process born inside the window counts from zero.  One that died
    inside it moved its whole lifetime into its parent's reaped-children
    time, so the part it had spent before the window is taken back out.
    """
    grown = sum(value - before.get(pid, 0.0) for pid, value in after.items())
    return grown - sum(value for pid, value in before.items()
                       if pid not in after)


def steal_ticks() -> tuple:
    """(stolen, total) clock ticks of the whole machine, from /proc/stat.

    Steal is time the hypervisor ran someone else while this machine's
    CPUs had work: the one disturbance no process here can see.
    """
    with open("/proc/stat", "r") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process in MiB."""
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def tree_hwm_mb(roots: Iterable[int]) -> float:
    """Sum of ``VmHWM`` over every live process in the trees."""
    total = 0.0
    for pid in descendants(roots):
        try:
            total += vm_hwm_mb(pid)
        except (OSError, ValueError):
            continue
    return total


#: booted daemons run this much nicer than the generator: on a small
#: machine the generator's own wait for a CPU would otherwise pass for
#: daemon latency (it sends late, and latency counts from due time); the
#: daemons still share the CPUs among themselves on equal terms
DAEMON_NICE = 5


def renice_daemons(roots: Iterable[int]) -> None:
    """Set ``DAEMON_NICE`` on every thread of every process in the trees.

    Linux keeps a nice value per thread, so each task is set on its own;
    threads started later inherit the value of the thread that starts
    them.
    """
    for pid in descendants(roots):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue  # exited while we looked
        for tid in tids:
            try:
                os.setpriority(os.PRIO_PROCESS, int(tid), DAEMON_NICE)
            except OSError:
                continue


#: ``prctl`` option that makes orphaned descendants reparent to the caller
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every process this one's descendants orphan.

    A daemon may start helpers it does not wait for (CPython's
    ``multiprocessing`` resource tracker outlives its parent by design).
    Once adopted here, :func:`reap_descendants` can end and reap them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_descendants(grace: float = 5.0) -> None:
    """End every process below this one and wait until each has ended.

    Each is sent SIGTERM, and SIGKILL if it outlives ``grace`` seconds.
    Zombies adopted through :func:`become_subreaper` are reaped too.
    """
    me = os.getpid()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + grace
        signalled: Set[int] = set()
        while True:
            _reap_exited()
            alive = descendants([me]) - {me}
            if not alive:
                return
            if time.monotonic() > deadline:
                break
            for pid in alive - signalled:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass  # exited while we looked
            signalled |= alive
            time.sleep(0.05)
    raise RuntimeError(f"processes {sorted(alive)} did not end")
