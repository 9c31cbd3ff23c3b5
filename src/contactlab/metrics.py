"""Run metrics: named counters, values and phase wall times.

A recorder lives in a context variable.  ``recording()`` starts a fresh one
(the CLI starts one per command and writes it to ``manifest.json``), and
``count``, ``record``, ``add`` and ``phase`` add to the recorder in effect;
outside ``recording()`` they do nothing.  ``phase`` is a context manager and a
decorator; a phase's time includes that of the phases it encloses, and a
phase entered inside one of the same name adds nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

_recorder: ContextVar[dict | None] = ContextVar("contactlab_metrics", default=None)
# the names of the phases that enclose the running code
_open: ContextVar[frozenset] = ContextVar("contactlab_phases", default=frozenset())


@contextmanager
def recording():
    """A fresh recorder for the enclosed code: ``{"counters", "values",
    "phases_s"}``, each a dict by name."""
    rec = {"counters": {}, "values": {}, "phases_s": {}}
    token = _recorder.set(rec)
    try:
        yield rec
    finally:
        _recorder.reset(token)


def count(name: str, n: int = 1):
    """Add ``n`` to the counter ``name``."""
    rec = _recorder.get()
    if rec is not None:
        rec["counters"][name] = rec["counters"].get(name, 0) + int(n)


def record(name: str, value):
    """Set the value ``name``, a number or a list of integers (the last one
    recorded is kept)."""
    rec = _recorder.get()
    if rec is not None:
        rec["values"][name] = (list(map(int, value)) if isinstance(value, list)
                               else float(value))


def add(name: str, value: float):
    """Add ``value`` to the value ``name``, a total over the recording."""
    rec = _recorder.get()
    if rec is not None:
        rec["values"][name] = rec["values"].get(name, 0.0) + float(value)


@contextmanager
def phase(name: str):
    """Add the wall time of the enclosed code to the phase ``name``, unless
    a phase of that name encloses it (its time counts once)."""
    rec = _recorder.get()
    if rec is None or name in _open.get():
        yield
        return
    token = _open.set(_open.get() | {name})
    start = time.perf_counter()
    try:
        yield
    finally:
        _open.reset(token)
        rec["phases_s"][name] = (rec["phases_s"].get(name, 0.0)
                                 + time.perf_counter() - start)
