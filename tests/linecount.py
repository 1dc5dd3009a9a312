"""Executed lines per function of ``src/isbbrauer``, counted with ``sys.settrace``.

A count of executed lines does not depend on the host, so its ratio
between inputs of size n and 2n reads off each function's empirical
order of growth (Goldsmith, Aiken and Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007).  A line costs one count at
any integer width: the width of a big-int XOR is left out.  Line events
differ across Python versions, so compare ratios, not absolute counts.

Usage: ``count_lines(action)`` runs ``action()`` and returns a
``Counter`` keyed by ``"module.qualname"`` (``co_qualname`` where Python
has it, 3.11 on; ``co_name`` on 3.10).  Only functions defined in the
package count; the caller's own lines do not.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import isbbrauer

PACKAGE = str(Path(isbbrauer.__file__).resolve().parent) + os.sep


def _name(code) -> str:
    return Path(code.co_filename).stem + "." + getattr(code, "co_qualname", code.co_name)


def count_lines(action) -> Counter:
    """Run ``action()`` and count the lines it executes in the package, per function."""
    counts: Counter = Counter()
    tracers: dict = {}  # code object -> its local trace function, or None outside the package

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            tracers[code] = None
            if str(Path(code.co_filename).resolve()).startswith(PACKAGE):
                name = _name(code)

                def on_line(frame, event, arg):
                    if event == "line":
                        counts[name] += 1
                    return on_line

                tracers[code] = on_line
        return tracers[code]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        action()
    finally:
        sys.settrace(previous)
    return counts
