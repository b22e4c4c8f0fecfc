"""Enums the simulator's hot paths use as dict and set keys.

``Enum.__hash__`` is a Python-level method (``hash(self._name_)``), so
every dict probe keyed by a plain enum member pays a Python call.  The
hit tables, the caches' delivery dispatch and the home controllers'
directory dispatch probe such dicts once or more per reference or
message.
"""

from __future__ import annotations

from enum import Enum


class IdentityEnum(Enum):
    """An :class:`~enum.Enum` hashed by identity, in C.

    Safe because members are singletons that compare by identity, and
    because ``hash(name)`` already varies from process to process, so
    no output can depend on the hash value.  Members still pickle by
    name.
    """

    __hash__ = object.__hash__
