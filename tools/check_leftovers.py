"""Run a command and report the processes it leaves running.

    python tools/check_leftovers.py -- CMD [ARG...]

This process (and only this one) becomes a child subreaper
(``prctl(PR_SET_CHILD_SUBREAPER)``), so a process that CMD starts and
that outlives its own parent is re-parented here instead of to init.
Two seconds after CMD exits, every process still descended from this
one is listed on stderr and killed, and the exit status is 1. With
none left, the exit status is CMD's. Linux only.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 2.0


def _set_child_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _reap_zombies() -> None:
    """Collect every exited child, re-parented ones included."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _descendants(root: int) -> list[int]:
    """Live processes below ``root`` in the parent tree."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # exited while listing
            continue
        # the command name may hold spaces or parentheses: the fields
        # after the last ')' are state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(name))
    found, todo = [], [root]
    while todo:
        for pid in children.get(todo.pop(), ()):
            found.append(pid)
            todo.append(pid)
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    _set_child_subreaper()
    status = subprocess.call(argv)
    time.sleep(GRACE_S)
    _reap_zombies()
    left = _descendants(os.getpid())
    for pid in left:
        print(f"check_leftovers: left running: {pid} {_cmdline(pid)}",
              file=sys.stderr)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    time.sleep(0.2)
    _reap_zombies()
    print(f"check_leftovers: {len(left)} leftover processes "
          f"(command exit {status})", file=sys.stderr)
    return 1 if left else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
