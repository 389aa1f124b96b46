"""The monomial orders on exponent tuples: the reference that the packed
heap keys of `PackedLayout`, the library's one order, are tested against.
Each key sorts the tuples ascending, so the lead of a set is its max."""

from operator import neg


def grevlex_key(e):
    return (sum(e), tuple(map(neg, e[::-1])))


def lex_key(e):
    return e


def order_key(order):
    """The tuple key of "lex" or "grevlex"."""
    return {"lex": lex_key, "grevlex": grevlex_key}[order]
