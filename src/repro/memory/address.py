"""Block addressing and block-to-module mapping.

The simulator works at block granularity: an address *is* a block number
(an int).  Displacements within a block (the paper's ``d``) do not affect
coherence and are not modelled.  The :class:`AddressMap` decides which
memory module (and hence which directory controller) is *home* for a block,
mirroring the paper's "each controller is responsible only for the blocks
pertaining to its module".
"""

from __future__ import annotations


class AddressMap:
    """Maps block numbers to home memory modules.

    Block ``a`` lives in module ``a % n_modules`` (low-order
    interleaving).

    >>> amap = AddressMap(n_modules=4, n_blocks=64)
    >>> amap.home(5)
    1
    >>> list(amap.blocks_of(1))[:3]
    [1, 5, 9]
    """

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"*": "a pure function of the configuration"}

    def __init__(self, n_modules: int, n_blocks: int) -> None:
        if n_modules < 1:
            raise ValueError("need at least one memory module")
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.n_modules = n_modules
        self.n_blocks = n_blocks

    def check(self, block: int) -> None:
        """Raise if ``block`` is outside the address space."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block {block} outside address space [0, {self.n_blocks})"
            )

    def home(self, block: int) -> int:
        """Index of the module (and controller) owning ``block``."""
        self.check(block)
        return block % self.n_modules

    def home_name(self, block: int) -> str:
        """Endpoint name of the controller owning ``block``.

        Passed to the cache controllers as their ``home_fn``; a bound
        method of a plain-data object, so the wired machine stays
        picklable for checkpointing.
        """
        return f"ctrl{self.home(block)}"

    def blocks_of(self, module: int) -> range:
        """The blocks homed at ``module``: a stride range."""
        if not 0 <= module < self.n_modules:
            raise ValueError(f"module {module} out of range")
        return range(module, self.n_blocks, self.n_modules)
