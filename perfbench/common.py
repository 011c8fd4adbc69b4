"""Shared pieces of the workloads: gate failures and size caps."""

from __future__ import annotations


class Failure(Exception):
    """An output gate found a wrong result; the request counts as failed."""


class CapExceeded(Exception):
    """A request asked for a size past one of the benchmark's explicit caps."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Failure(message)


def capped(what: str, value: int, cap: int) -> int:
    """``value`` if within ``cap``; otherwise fail at once instead of running a factorial blow-up."""
    if value > cap:
        raise CapExceeded(f"{what} = {value} exceeds the benchmark cap of {cap}")
    return value


def surface_key(q):
    """A package surface as an oracle pair, read from its public fields."""
    return tuple(w.items for w in q.cycles), q.genus


def count_arcs(value, diagram):
    """Counter increment for a traced ``evaluate`` call: the arcs it evaluated."""
    return {"diagram.evaluate.arcs": len(diagram.arcs)}


def raises(fn, *args):
    """Run ``fn``; return ("ok", result) or ("raised", exception) for a ValueError."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "raised", exc
