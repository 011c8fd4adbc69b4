"""The cyclic composition of words and its genus-zero embedding into surfaces.

Cyclic words with splice composition form the single-cycle, genus-zero part
of the surface algebra; ``to_surface`` is the canonical embedding.
"""

from __future__ import annotations

from .surface import Surface
from .words import CyclicWord


def splice(x: CyclicWord, a: str, y: CyclicWord, b: str) -> CyclicWord:
    """Compose two cyclic words by cutting at a and b: (a P) . (b Q) = (P Q)."""
    if x.labels & y.labels:
        shared = sorted(x.labels & y.labels)
        raise ValueError(f"words share labels {shared}")
    return CyclicWord._of(x.rotated_to(a)[1:] + y.rotated_to(b)[1:])


def to_surface(w: CyclicWord) -> Surface:
    """Embed a cyclic word as the one-cycle genus-zero surface."""
    return Surface._of((w,), 0)


__all__ = ["splice", "to_surface"]
