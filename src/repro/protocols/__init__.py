"""Coherence protocols: the shared cache side and every baseline scheme.

The paper's own contribution (the two-bit directory controller) lives in
:mod:`repro.core`; this package holds the machinery it shares with the
baselines and the baselines themselves:

* ``directory`` — the table-driven home controller the two-bit and
  full-map directories share (§3.2's transaction choreography),
* ``fullmap`` — Censier-Feautrier n+1-bit presence vectors (§2.4.2),
* ``fullmap_local`` — Yen-Fu exclusive-clean extension (§2.4.3),
* ``classical`` — write-through + invalidate-all (§2.3),
* ``static`` — software-tagged uncacheable shared data (§2.2),
* ``write_once`` — Goodman's bus scheme (§2.5),
* ``illinois`` — Papamarcos-Patel MESI (§2.5).
"""

#: Nothing is re-exported: import names from their submodules, so that
#: loading one submodule runs none of the others.
__all__: list = []
