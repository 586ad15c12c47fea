"""Degree-sequence residues, strong Havel-Hakimi graphs, and independent
sets, with exhaustive small-graph checks of the facts tying them together.

Import each name from its module, e.g. ``from hhresidue.graphs import
Graph``; the package itself re-exports only the three names below."""

# the benchmark's oracles (bench/oracles.py) import these from the top level
from .graphs import Graph
from .independence import independence_number_bitmask
from .recognition import is_strong_havel_hakimi_definitional
