"""Python 3.12's float ``sum`` on any interpreter, and a pytest plugin that installs it.

From Python 3.12 on, the builtin ``sum`` of floats is Neumaier-compensated; before, it
adds term by term.  ``compensated_sum`` is the 3.12 rule.  Loaded as a plugin, this module
puts it in ``builtins`` for the whole run, so a 3.10 or 3.11 interpreter checks that no
result of the suite depends on which ``sum`` the interpreter has:

    PYTHONPATH=src:tests python -m pytest -q -p compensated_sum
"""

import builtins
import math

builtin_sum = builtins.sum  # the interpreter's own sum, taken before the plugin installs its


def compensated_sum(iterable, /, start=0):
    """``sum`` as from Python 3.12 on, for floats: Neumaier-compensated (Python 3.11's adds
    term by term).  Any other operands, and no operands, go to the builtin."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or not all(type(x) is float for x in items):
        return builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if math.isfinite(comp) else total


def pytest_configure(config):
    builtins.sum = compensated_sum


def pytest_unconfigure(config):
    builtins.sum = builtin_sum
