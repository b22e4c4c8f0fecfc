"""Enums the simulator's hot paths use as dict and set keys, and the
``dataclass`` option its per-frame and per-reference records use.

``Enum.__hash__`` is a Python-level method (``hash(self._name_)``), so
every dict probe keyed by a plain enum member pays a Python call.  The
hit tables, the caches' delivery dispatch and the home controllers'
directory dispatch probe such dicts once or more per reference or
message.
"""

from __future__ import annotations

import sys
from enum import Enum

#: ``dataclass`` keywords giving a record ``__slots__`` instead of a
#: per-instance ``__dict__`` (Python 3.10+; on 3.9 the record keeps its
#: ``__dict__``, same fields, same behaviour).  A machine holds one
#: :class:`~repro.cache.line.CacheLine` per filled cache frame and one
#: :class:`~repro.workloads.reference.MemRef` per interned reference.
SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class IdentityEnum(Enum):
    """An :class:`~enum.Enum` hashed by identity, in C.

    Safe because members are singletons that compare by identity, and
    because ``hash(name)`` already varies from process to process, so
    no output can depend on the hash value.  Members still pickle by
    name.
    """

    __hash__ = object.__hash__
