"""Enums probed as dict and set keys on the hot paths hash by identity.

``Enum.__hash__`` is a Python-level call; the hit tables (keyed by
:class:`LocalState`), the caches' and homes' delivery dispatch (keyed by
:class:`MessageKind`) and the directory dispatch (keyed by
:class:`GlobalState` and the full map's :class:`Situation`) probe such
dicts on every reference or message, so these enums use C-level
identity hashing instead.
"""

import pickle

import pytest

from repro.cache.line import LocalState
from repro.core.states import GlobalState
from repro.interconnect.message import MessageKind
from repro.protocols.fullmap import Situation

HOT_PATH_ENUMS = (LocalState, MessageKind, GlobalState, Situation)


@pytest.mark.parametrize("enum_cls", HOT_PATH_ENUMS, ids=lambda c: c.__name__)
def test_hot_path_enum_hashes_by_identity(enum_cls):
    assert enum_cls.__hash__ is object.__hash__
    for member in enum_cls:
        assert hash(member) == object.__hash__(member)


@pytest.mark.parametrize("enum_cls", HOT_PATH_ENUMS, ids=lambda c: c.__name__)
def test_identity_hashed_members_still_behave_as_enum_members(enum_cls):
    table = {member: member.name for member in enum_cls}
    for member in enum_cls:
        assert table[member] == member.name
        assert enum_cls(member.value) is member
        assert enum_cls[member.name] is member
        assert pickle.loads(pickle.dumps(member)) is member
