"""Resource caps and the errors raised when a computation would exceed them.

Everything in this library is exact, so the only way to fail is to ask for
something too large.  Caps are explicit: exceeding one raises
:class:`CapExceeded` instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """A computation was refused because it exceeds a configured resource cap."""


@dataclass(frozen=True)
class Limits:
    """Resource caps for the search and summation kernels.

    max_parts:        largest part count a kernel may have in a density sum
    max_vertices:     largest number of integrated vertices in a density sum
    max_maps:         largest vertex-map search space (|V(G)|^free vertices)
    max_index_tuples: largest k^(2n) enumeration in the fiber oracle
    max_classes:      largest isomorphism-class listing
    max_cut_parts:    largest part count for the exact cut norm (2^p search)
    """

    max_parts: int = 12
    max_vertices: int = 8
    max_maps: int = 10**7
    max_index_tuples: int = 10**7
    max_classes: int = 10**5
    max_cut_parts: int = 20


DEFAULT_LIMITS = Limits()

#: A permissive cap set for demos and tests that intentionally go big.
WIDE_LIMITS = Limits(max_parts=64, max_vertices=25, max_maps=10**8,
                     max_index_tuples=10**7, max_classes=10**6, max_cut_parts=20)
