"""The names the command line validates, without any numeric layer.

Representation kinds, discrete-operator names, the default seed and its
range check live here so that `ptclab.cli` can parse and check a command
line, and answer `ptc`, `--help` and usage errors, without loading the
numeric layers.  `generators` and `classify` import the names from here.
No command reads the seed: `--seed` is still accepted and range-checked.
"""

from __future__ import annotations

from operator import index

REP_KINDS = ("dirac8", "canonical8", "rep1", "rep2", "rep3")
OP_ORDER = ("P1", "P2", "T1", "T2", "C", "M", "Mt", "Mx", "P1T2")

DEFAULT_SEED = 0x5EED


def check_seed(seed):
    """Raise ValueError unless seed is a non-negative integer: anything
    `operator.index` accepts, except a bool."""
    try:
        value = index(seed)
    except TypeError:
        value = None
    if value is None or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
