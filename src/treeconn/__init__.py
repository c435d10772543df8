"""Generalized (tree) connectivity of complete bipartite graphs.

Closed-form values, constructive certificates (spanning-tree packings
and internally disjoint Steiner tree sets), structural verifiers, and a
brute-force oracle for small instances.

The top level holds what the README's Library section shows, plus the
error classes; everything else is imported from its module
(``treeconn.core``, ``treeconn.oracle``, ``treeconn.packing``, ...).
"""

from .connectivity import kappa_bipartite
from .core import (
    ConstructionBugError,
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidTerminalSetError,
    NotConstructibleError,
    TreeconnError,
    normalize,
)
from .packing import build_packing
from .witness import build_witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "ConstructionBugError",
    "InstanceTooLargeError",
    "InvalidArgumentError",
    "InvalidTerminalSetError",
    "NotConstructibleError",
    "TreeconnError",
    "build_packing",
    "build_witness",
    "kappa_bipartite",
    "normalize",
    "verify_witness",
]
