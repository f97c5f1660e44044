"""One store for every result kept between calls: sieve tables, Möbius
tables, side tables, prefix sums and density constants.

A function decorated with ``kept`` computes its result once per argument
tuple while the result stays in the current store.  The store charges each
result the bytes of its arrays and holds at most ``BUDGET_BYTES`` across all
kinds together: keeping a new result drops the least recently used ones
until it fits, and a result larger than the whole budget is returned without
being kept.  The kept functions make their arrays read-only, so no caller can
change what a later call is handed.

The current store sits behind a context variable.  ``fresh()`` runs a block
with an empty store of its own, so a test can start cold and read what the
block kept without clearing anything else.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

import numpy as np

# the 10**8 sieve, the largest table under the caps, takes 546 MB
BUDGET_BYTES = 1 << 30
# an entry of an object array: its pointer and a Python int of up to 2**90
_OBJECT_ITEM_BYTES = 8 + 40


class Store:
    """Kept results by (function, arguments) as [result, bytes, last use],
    the sum of their bytes, and the clock that numbers their uses.  A hit
    only reads the entries and stamps its own; the lock guards every change
    of them, since threads share the default store."""

    __slots__ = ("entries", "kept_bytes", "clock", "lock")

    def __init__(self) -> None:
        self.entries: dict[tuple, list] = {}
        self.kept_bytes = 0
        self.clock = itertools.count()
        self.lock = threading.Lock()

    def keep(self, key: tuple, value):
        """Keep ``value`` under ``key``, dropping the least recently used
        entries until it fits, unless it passes the whole budget.  A value
        another thread kept under the key first wins."""
        size = _charge(value)
        with self.lock:
            entries = self.entries
            if key in entries:
                return entries[key][0]
            if size > BUDGET_BYTES:
                return value
            if self.kept_bytes + size > BUDGET_BYTES:
                for old in sorted(entries, key=lambda k: entries[k][2]):
                    self.kept_bytes -= entries.pop(old)[1]
                    if self.kept_bytes + size <= BUDGET_BYTES:
                        break
            entries[key] = [value, size, next(self.clock)]
            self.kept_bytes += size
        return value


_current: ContextVar[Store] = ContextVar("coprime_lab_store", default=Store())


@contextmanager
def fresh():
    """Run the block with an empty store, which it yields."""
    store = Store()
    token = _current.set(store)
    try:
        yield store
    finally:
        _current.reset(token)


def kept(fn):
    """Keep ``fn``'s results in the current store, keyed by its arguments."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        store = _current.get()
        key = (fn, args, *kwargs.items()) if kwargs else (fn, args)
        entry = store.entries.get(key)
        if entry is None:
            return store.keep(key, fn(*args, **kwargs))
        entry[2] = next(store.clock)
        return entry[0]

    return wrapper


def _charge(value) -> int:
    """The bytes of the arrays in ``value``, a tuple or a dataclass of them."""
    if isinstance(value, np.ndarray):
        return value.size * _OBJECT_ITEM_BYTES if value.dtype == object else value.nbytes
    if isinstance(value, tuple):
        return sum(map(_charge, value))
    if dataclasses.is_dataclass(value):
        # getattr, not dataclasses.astuple, which deep-copies the arrays
        return sum(_charge(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0
