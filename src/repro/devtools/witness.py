"""Runtime lock-order witness — the dynamic half of the R007 contract.

The static pass (:mod:`repro.devtools.concurrency`) proves an
acquisition order for the calls it can resolve; dynamic dispatch
(``getattr`` fan-out, duck-typed stores) is invisible to it.  This
module closes the gap at test time: an opt-in instrumented wrapper
records every *actual* nested acquisition during the chaos/parallel
suites, and :meth:`LockOrderWitness.check` asserts that the union of
the observed orders with the static graph stays acyclic — static
analysis proposes, the test suite disposes.

Enabling
--------
Set ``REPRO_LOCK_WITNESS=1`` before importing the storage layer (CI
does this for the parallel and online-reshard jobs).  When disabled —
the default — :func:`wrap_lock` returns the raw lock unchanged and
``_RWLock`` skips its hooks entirely, so production paths pay nothing.

Semantics
---------
Edges are recorded at *class granularity* (``"HotSetCache._lock"``), the
same node names the static pass derives, so the two graphs compose.
Two rules mirror the static walk exactly:

- **Re-entrancy** is object-scoped: re-acquiring a lock object already
  held by this thread records nothing (``_RWLock`` on both sides, the
  hot cache's ``RLock``, and the engine re-entering the store's guard).
- **Same name, different instance** records nothing either: a
  class-granularity order cannot rank two instances of one class
  (offline ``reshard()`` legitimately nests the target store's lock
  inside the source's).
"""

from __future__ import annotations

import os
import threading

__all__ = ["LockOrderWitness", "get_witness", "wrap_lock"]


class LockOrderWitness:
    """Records the lock-acquisition orders threads actually perform."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._local = threading.local()
        self._edges: dict[tuple[str, str], str] = {}
        self._guard = threading.Lock()

    # ------------------------------------------------------------------ hooks

    def _held(self) -> list[tuple[str, object]]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def notify_acquire(self, name: str, lock: object) -> None:
        """Record that this thread acquired ``lock`` (named ``name``)."""
        held = self._held()
        if not any(entry is lock for _, entry in held):
            fresh = [(holder, name) for holder, entry in held
                     if holder != name]
            if fresh:
                with self._guard:
                    for edge in fresh:
                        self._edges.setdefault(
                            edge, threading.current_thread().name)
        held.append((name, lock))

    def notify_release(self, name: str, lock: object) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][1] is lock:
                del held[i]
                return

    # -------------------------------------------------------------- reporting

    def edges(self) -> set[tuple[str, str]]:
        with self._guard:
            return set(self._edges)

    def reset(self) -> None:
        with self._guard:
            self._edges.clear()

    def check(self, static_edges) -> list[str] | None:
        """First cycle in observed ∪ static edges, or None when the
        runtime behaviour is consistent with the static order."""
        from .concurrency import find_cycle

        return find_cycle(self.edges() | set(static_edges))


class _WitnessedLock:
    """A ``Lock``/``RLock`` veneer that reports to the witness.

    Context-manager and acquire/release protocols both forward to the
    wrapped lock; the witness learns about successful acquisitions
    only, after they happen, so the wrapper can never deadlock a path
    the raw lock would not.
    """

    __slots__ = ("_lock", "_name", "_witness")

    def __init__(self, lock, name: str, witness: LockOrderWitness):
        self._lock = lock
        self._name = name
        self._witness = witness

    def acquire(self, *args, **kwargs) -> bool:
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            self._witness.notify_acquire(self._name, self._lock)
        return acquired

    def release(self) -> None:
        self._witness.notify_release(self._name, self._lock)
        self._lock.release()

    def __enter__(self) -> "_WitnessedLock":
        self.acquire()  # lint: disable=R009 (context-manager protocol: released by __exit__, which callers enter via `with`)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:
        return f"_WitnessedLock({self._name!r})"


_WITNESS = LockOrderWitness(
    enabled=os.environ.get("REPRO_LOCK_WITNESS") == "1")


def get_witness() -> LockOrderWitness:
    """The process-wide witness (enabled iff ``REPRO_LOCK_WITNESS=1``
    was set at import time, or a test flipped ``enabled`` by hand)."""
    return _WITNESS


def wrap_lock(lock, name: str):
    """Instrument ``lock`` under ``name`` when the witness is enabled.

    Disabled (the default), the raw lock is returned unchanged — zero
    overhead, zero indirection.  ``name`` must match the static node
    (``"<DeclaringClass>.<attr>"``) for the graphs to compose.
    """
    if not _WITNESS.enabled:
        return lock
    return _WitnessedLock(lock, name, _WITNESS)
