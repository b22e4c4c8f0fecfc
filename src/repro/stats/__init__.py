"""Counters (``counters``), histograms (``histogram``), tables
(``tables``) and paper-vs-measured comparison reporting
(``comparison``)."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
