"""Interconnection networks and the protocol message vocabulary:
``message`` (Message, MessageKind), ``network`` (the crossbar base),
``bus``, ``delta`` and ``holders`` (copy-holder indexes)."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
