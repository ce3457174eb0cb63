"""Staged-tree probability models over ordered categorical variables.

Learn stagings from data by greedy score search, expand DAGs into their
staged trees, classify every DAG edge by the kind of dependence the staging
encodes (total, context, partial, context/partial, local), and extract
per-variable dependence subtrees.

Each public name is declared once, in its module's `__all__`; the package
republishes those lists.  `stagetrees.cli` is left out, so that importing
the package does not load argparse.
"""
from . import conversion, core, io, learning, scoring
from .conversion import *
from .core import *
from .io import *
from .learning import *
from .scoring import *

__version__ = "0.1.0"

__all__ = [name for module in (conversion, core, io, learning, scoring) for name in module.__all__]
