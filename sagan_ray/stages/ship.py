"""Ship a stage's compiled state to the Ray workers once.

Upstream Sagan compiles its rule set once at load and every processor
thread probes the same in-memory structures (``src/rules.c``,
``src/processor.c``). Here the alert stages compile on the driver (the
matcher, the gate plans, the enrichment tables), and a ``map_batches``
UDF that closes over that state is pickled by value on every Ray Data
execution and unpickled again in every task.

Instead, :func:`ship` puts the state in the object store once per Ray
session and key, and the stage hands ``map_batches`` a
``functools.partial`` of a module-level function over the returned
ObjectRef, so a task carries a ref, not the state. In a worker process
:func:`fetch` gets a ref once and keeps what it built from it.

Both sides keep at most ``_MAX_ENTRIES`` entries, least recently used
first out, and empty themselves when the Ray session changes: a
``ray.shutdown()``/``ray.init()`` in one process (the tests do this)
must never reuse a ref of the old session. The caches are process-wide
on purpose: they outlive the pipeline calls that fill them.
"""

from __future__ import annotations

import threading

# entries per process and side: a few stages times a few live rule sets
# (a daemon's old and reloaded set)
_MAX_ENTRIES = 8


def _session() -> tuple[str, str]:
    """The Ray session this process is connected to: a new local cluster
    has a new node id, a new driver connection to the same cluster a new
    job id."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


class _SessionCache:
    """Bounded LRU map, emptied when the Ray session changes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._session = None
        self._entries: dict = {}

    def get(self, key, make):
        session = _session()
        with self._lock:
            if session != self._session:
                self._entries.clear()
                self._session = session
            if key in self._entries:
                value = self._entries[key] = self._entries.pop(key)
                return value
            value = make()
            if len(self._entries) >= _MAX_ENTRIES:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = value
            return value


_PUT = _SessionCache()  # driver side: key -> (keep, ObjectRef)
_GOT = _SessionCache()  # worker side: ref id -> what fetch built from it


def ship(key: tuple, build, keep=()):
    """The ObjectRef of ``build()``, put once per Ray session and ``key``.

    The key must tell apart every input the built state depends on, and
    cost less to form than ``build`` does. A rule-set stage keys on the
    ``id()`` of each loaded ``Rule`` and passes the rules as ``keep``:
    the entry holds them, so no id in a live key is reused by another
    object. This relies on a loaded ``Rule`` not being mutated; a reload
    makes new ``Rule`` objects and so a new key."""
    import ray

    return _PUT.get(key, lambda: (tuple(keep), ray.put(build())))[1]


def fetch(ref, make=None):
    """What a shipped ref holds (passed through ``make`` when given), got
    and built once per process and ref."""
    import ray

    def got():
        value = ray.get(ref)
        return value if make is None else make(value)

    return _GOT.get(ref.binary(), got)
