"""The paper's contribution: the two-bit directory scheme.

Public surface:

* :class:`~repro.core.states.GlobalState` / ``TwoBitDirectory`` — the
  four-state, two-bit-per-block global map of §3.1.
* :class:`~repro.core.controller.TwoBitDirectoryController` — the memory
  controller FSM implementing the §3.2 protocols.
* :class:`~repro.core.translation_buffer.TranslationBuffer` — the §4.4
  owner-identity buffer enhancement.

The cache side is shared with the directory baselines and lives in
:mod:`repro.protocols.cache_side`.
"""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
