"""Analytical models: the §4.2 closed forms (Table 4-1), the
Dubois-Briggs reconstruction (Table 4-2), viability thresholds (§4.3),
and the translation-buffer model (§4.4).

Modules: ``overhead_model`` (Table 4-1), ``dubois_briggs`` (Table 4-2),
``thresholds`` and ``utilization`` (§4.3), ``translation_buffer_model``
(§4.4), ``markov`` and ``queueing`` (solvers they share).
"""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
