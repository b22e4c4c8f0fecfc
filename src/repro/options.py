"""One parser for every ``key=value`` option the program accepts.

Workload spec options (``dubois:high,locality=0.9``), fault-plan fields
(``check,seed=3``) and ``repro sweep/report --axis`` values all go
through :func:`parse_options`, and none of them keeps a list of its
own: the names, types and defaults come from what the options
configure, passed in as ``defaults``.  The workload registry reads the
keyword parameters of a workload constructor, the fault parser the
fields of :class:`~repro.faults.plan.FaultSpec`, and ``--axis`` an
experiment's current parameter values.  A value takes the type of its
default.

>>> parse_options({"q": "0.1", "seed": "3"}, {"q": 0.05, "seed": 1984})
{'q': 0.1, 'seed': 3}
>>> parse_options({"seed": "abc"}, {"seed": 1984})
Traceback (most recent call last):
    ...
repro.options.OptionError: seed: expected int, got 'abc'
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

_BOOLS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class OptionError(ValueError):
    """An unknown option name, or a value its type cannot take."""


def parse_options(
    pairs: Mapping[str, str],
    defaults: Mapping[str, Any],
    what: str = "option",
) -> Dict[str, Any]:
    """Coerce ``{name: text}`` to the types of ``defaults``' values.

    ``bool`` takes ``1/true/yes/on`` and ``0/false/no/off``, ``int``
    and ``float`` their literals; a default of any other type (a
    string, ``None``) keeps the stripped text.  A name ``defaults``
    lacks is an unknown ``what``.
    """
    out: Dict[str, Any] = {}
    for name, text in pairs.items():
        if name not in defaults:
            raise OptionError(
                f"unknown {what} {name!r} "
                f"(choose from {', '.join(sorted(defaults)) or 'nothing'})"
            )
        kind = type(defaults[name])
        value = text.strip()
        if kind is bool:
            if value.lower() not in _BOOLS:
                raise OptionError(f"{name}: not a boolean: {text!r}")
            out[name] = _BOOLS[value.lower()]
        elif kind in (int, float):
            try:
                out[name] = kind(value)
            except ValueError:
                raise OptionError(
                    f"{name}: expected {kind.__name__}, got {text!r}"
                ) from None
        else:
            out[name] = value
    return out
