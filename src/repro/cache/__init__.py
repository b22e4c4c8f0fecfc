"""Cache subsystem: lines (``line``), arrays (``array``), replacement
policies (``replacement``) and write-back buffering (``wbbuffer``)."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
