"""Surfaces with marked boundary points: gluing calculus and law checking.

The package models compact oriented surfaces up to homeomorphism as a genus
plus a multiset of boundary cycles of marked points.  It provides the three
operations (renaming, end-to-end composition, self-gluing), chord diagrams
with evaluation and rewriting moves, canonical presentations, exhaustive and
randomized law checkers, and a command line front end.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

from . import canonical, census, diagram, laws, lexer, rewrite, surface, words
from .canonical import *
from .census import *
from .diagram import *
from .laws import *
from .lexer import *
from .rewrite import *
from .surface import *
from .words import *

__version__ = "0.1.0"

__all__ = [
    *words.__all__,
    *surface.__all__,
    *diagram.__all__,
    *canonical.__all__,
    *rewrite.__all__,
    *census.__all__,
    *laws.__all__,
    *lexer.__all__,
    "__version__",
]
