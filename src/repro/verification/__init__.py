"""Verification layer: ``oracle``, ``audit``, ``state`` (machine
fingerprints), ``model_check``, ``schedules`` and ``differential``."""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
