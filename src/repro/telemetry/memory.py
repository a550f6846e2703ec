"""Retained-footprint accounting for the telemetry pipeline.

``ru_maxrss`` is process-monotonic — a benchmark that runs after a bigger
one can never show a smaller peak — so the memory-reduction claims are
made against what the pipeline actually *retains*: a bounded recursive
``sys.getsizeof`` walk over the collector, the trace store, and the
coordinator sketches.  This deliberately counts only reachable payload
(dicts, deques, sample slots, numpy buffers), not interpreter overheads
shared with the rest of the process, which is exactly the state the
sketch pipeline is meant to shrink.
"""

from __future__ import annotations

import sys
import types
from collections import deque
from typing import Any, Set

try:  # numpy buffers report nbytes, not getsizeof of the view
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
    _np = None

#: Safety valve for the recursive walk (cycles are handled via the id-set).
_MAX_OBJECTS = 2_000_000

#: Shared-with-the-interpreter objects the walk must not descend into.
_SKIP_TYPES = (type, types.ModuleType, types.FunctionType,
               types.BuiltinFunctionType, types.MethodType)


def deep_sizeof(obj: Any) -> int:
    """Recursive retained size of ``obj`` in bytes.

    Follows containers, deques, ``__dict__``, and ``__slots__``; counts
    every distinct object once.  Numpy arrays contribute ``nbytes`` plus
    the view header.  Module/class/function objects are skipped (shared
    with the interpreter, not retained telemetry state).
    """
    seen: Set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        current = stack.pop()
        identity = id(current)
        if identity in seen:
            continue
        seen.add(identity)
        if len(seen) > _MAX_OBJECTS:  # pragma: no cover - safety valve
            break
        if isinstance(current, _SKIP_TYPES):
            continue
        total += sys.getsizeof(current)
        if _np is not None and isinstance(current, _np.ndarray):
            total += int(current.nbytes)
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset, deque)):
            stack.extend(current)
        else:
            attributes = getattr(current, "__dict__", None)
            if attributes is not None:
                stack.append(attributes)
            for klass in type(current).__mro__:
                slots = klass.__dict__.get("__slots__")
                if not slots:
                    continue
                if isinstance(slots, str):
                    slots = (slots,)
                for name in slots:
                    try:
                        stack.append(getattr(current, name))
                    except AttributeError:
                        continue
    return total

