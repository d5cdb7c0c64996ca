"""Resource caps and the errors raised when a computation would exceed them.

Everything in this library is exact, so the only way to fail is to ask for
something too large.  Caps are explicit: exceeding one raises
:class:`CapExceeded` instead of silently truncating.  `Limits.exceeded`
builds every such error, and `flag` names the CLI option of each cap, so a
refusal always reads "<work done>, over the <cap> cap of <value> (raise it
with <flag>)".
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class CapExceeded(RuntimeError):
    """A computation was refused because it exceeds a configured resource cap."""


def flag(cap: str) -> str:
    """The CLI option that sets the `Limits` field `cap`."""
    return "--" + cap.replace("_", "-")


@dataclass(frozen=True)
class Limits:
    """Resource caps for the search and summation kernels; each is at
    least 0, else ValueError.

    max_parts:        largest part count a kernel may have in a density sum,
                      and in the result of `tensor_product`
    max_vertices:     largest number of integrated vertices in a density sum
    max_maps:         most search nodes (partial vertex maps) one search may
                      visit: a surjection search, where each labelled vertex
                      placed is one node too, or the density core (hom
                      counts included); in both a node is a level computed
                      rather than read from its cache or memo
    max_index_tuples: largest k^(2n) enumeration in the fiber oracle
    max_classes:      largest isomorphism-class listing
    max_cut_parts:    largest part count for the exact cut norm (2^p search)
    max_separating_edges: most edges of the simple graphs tried when looking
                      for one whose densities tell two kernels apart
    """

    max_parts: int = 12
    max_vertices: int = 8
    max_maps: int = 10**7
    max_index_tuples: int = 10**7
    max_classes: int = 10**5
    max_cut_parts: int = 20
    max_separating_edges: int = 4

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if value < 0:
                raise ValueError(f"{cap.name} must be at least 0, not {value}")

    def exceeded(self, cap: str, work: str) -> CapExceeded:
        """The error refusing `work` (what was reached) past the field `cap`."""
        return CapExceeded(f"{work}, over the {cap} cap of "
                           f"{getattr(self, cap)} (raise it with {flag(cap)})")


DEFAULT_LIMITS = Limits()

#: A permissive cap set for demos and tests that intentionally go big.
WIDE_LIMITS = Limits(max_parts=64, max_vertices=25, max_maps=10**8,
                     max_index_tuples=10**7, max_classes=10**6, max_cut_parts=20)
