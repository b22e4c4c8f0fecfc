"""Protocol message vocabulary."""

from repro.interconnect.message import DATA_SIZE, Message, MessageKind


def make(kind, **kw):
    defaults = dict(src="cache0", dst="ctrl0", block=1)
    defaults.update(kw)
    return Message(kind=kind, **defaults)


def test_commands_have_unit_size():
    assert make(MessageKind.REQUEST).size == 1
    assert make(MessageKind.BROADINV).size == 1
    assert make(MessageKind.MGRANTED).size == 1


def test_data_transfers_are_bigger():
    assert make(MessageKind.PUT).size == DATA_SIZE
    assert make(MessageKind.GET).size == DATA_SIZE
    assert make(MessageKind.GET).is_data
    assert not make(MessageKind.REQUEST).is_data


def test_meta_defaults_independent():
    a, b = make(MessageKind.REQUEST), make(MessageKind.REQUEST)
    a.meta["x"] = 1
    assert "x" not in b.meta


def test_repr_is_compact():
    msg = make(MessageKind.REQUEST, rw="read", requester=3)
    text = repr(msg)
    assert "REQUEST" in text and "k=3" in text and "a=1" in text


def test_broadcast_dst_renders_star():
    msg = Message(kind=MessageKind.BROADINV, src="ctrl0", dst=None, block=2)
    assert "->*" in repr(msg)
