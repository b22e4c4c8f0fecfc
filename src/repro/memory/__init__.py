"""Memory subsystem: block addressing (``address``) and memory modules
(``module``)."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
