"""Discrete-event simulation kernel: ``kernel`` (Simulator),
``component`` (Component) and ``enums``."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
