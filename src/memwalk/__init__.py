"""Coined quantum walks with memory, run as plain coined walks on line graphs.

The package builds iterated line graphs over a bidirected cycle, equips them
with an arc partition and a coin-shift rule, and evolves coined walks whose
memory registers are encoded in the line-graph vertices.  Independent
low-level simulators and an amplitude-field pipeline serve as oracles for
cross-checking the engine.

Each public name is declared once, in its module's ``__all__``; the package
exports the union of those lists.
"""

from __future__ import annotations

from . import analysis, coin_shift, engine, errors, experiments, graphs, partitions
from .analysis import *
from .coin_shift import *
from .engine import *
from .errors import *
from .experiments import *
from .graphs import *
from .partitions import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, coin_shift, engine, errors, experiments, graphs, partitions)
    for name in module.__all__
]
