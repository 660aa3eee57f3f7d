"""A deliberately naive rule-by-rule transition derivation used as an oracle.

Each derivation rule of the calculus is transcribed directly, one clause per
rule, with its own identifier bookkeeping and subset enumeration.  Nothing
is shared with the engine beyond the node and action types and ``TAU``; the
complement of an action is built here by name, not read from its ``partner``
link, so a transcription mistake in the engine cannot hide here.
"""

from __future__ import annotations

import itertools

from papc.syntax import (
    Action,
    Const,
    FrozenConserve,
    FrozenConsume,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
    TAU,
)

EMPTY = frozenset()


def complement(a):
    return Action(a.name, not a.complemented)


def ids(c):
    if isinstance(c, (FrozenConsume, FrozenConserve)):
        return frozenset((c.ident,))
    if isinstance(c, (Sum, Par)):
        return ids(c.left) | ids(c.right)
    return EMPTY


def least_unused(used):
    n = 1
    while n in used:
        n += 1
    return n


def substitute(c, old, new):
    if isinstance(c, FrozenConsume):
        return FrozenConsume(c.action, new if c.ident == old else c.ident, c.cont)
    if isinstance(c, FrozenConserve):
        return FrozenConserve(c.action, new if c.ident == old else c.ident, c.cont)
    if isinstance(c, Sum):
        return Sum(substitute(c.left, old, new), substitute(c.right, old, new))
    if isinstance(c, Par):
        return Par(substitute(c.left, old, new), substitute(c.right, old, new))
    return c


def is_plain(c):
    if isinstance(c, (FrozenConsume, FrozenConserve)):
        return False
    if isinstance(c, (Sum, Par)):
        return is_plain(c.left) and is_plain(c.right)
    return True


# --- handshakes: labels (l, a) --------------------------------------------

def h_steps(c, defs):
    out = set()
    if isinstance(c, PrefixConsume):
        out.add(((1, c.action), FrozenConsume(c.action, 1, c.cont)))
    if isinstance(c, PrefixConserve):
        out.add(((1, c.action), FrozenConserve(c.action, 1, c.cont)))
    if isinstance(c, Const) and c.name in defs.bindings:
        out |= h_steps(defs.bindings[c.name], defs)
    if isinstance(c, Sum):
        for (l, a), p in h_steps(c.left, defs):
            if l not in ids(c.right):
                out.add(((l, a), Sum(p, c.right)))
            else:
                n = least_unused(ids(c.left) | ids(c.right))
                out.add(((n, a), Sum(substitute(p, l, n), c.right)))
        for (l, a), q in h_steps(c.right, defs):
            if l not in ids(c.left):
                out.add(((l, a), Sum(c.left, q)))
            else:
                n = least_unused(ids(c.left) | ids(c.right))
                out.add(((n, a), Sum(c.left, substitute(q, l, n))))
    if isinstance(c, Par):
        lefts = h_steps(c.left, defs)
        rights = h_steps(c.right, defs)
        for (l, a), p in lefts:
            if l not in ids(c.right):
                out.add(((l, a), Par(p, c.right)))
            else:
                n = least_unused(ids(c.left) | ids(c.right))
                out.add(((n, a), Par(substitute(p, l, n), c.right)))
        for (l, a), q in rights:
            if l not in ids(c.left):
                out.add(((l, a), Par(c.left, q)))
            else:
                n = least_unused(ids(c.left) | ids(c.right))
                out.add(((n, a), Par(c.left, substitute(q, l, n))))
        for (l, a), p in lefts:
            for (m, b), q in rights:
                if a.name is not None and b == complement(a):
                    n = least_unused(ids(c.left) | ids(c.right))
                    out.add(((n, TAU), Par(substitute(p, l, n), substitute(q, m, n))))
    return out


# --- interrupts: labels M in P(N) ------------------------------------------

def i_steps(c, defs):
    del defs
    if isinstance(c, FrozenConsume):
        return {
            (frozenset((c.ident,)), PrefixConsume(c.action, c.cont)),
            (EMPTY, c),
        }
    if isinstance(c, FrozenConserve):
        return {
            (frozenset((c.ident,)), PrefixConserve(c.action, c.cont)),
            (EMPTY, c),
        }
    if is_plain(c):
        return {(EMPTY, c)}
    if isinstance(c, (Sum, Par)):
        node = Sum if isinstance(c, Sum) else Par
        out = set()
        for (lids, p), (rids, q) in itertools.product(
            i_steps(c.left, None), i_steps(c.right, None)
        ):
            out.add((lids | rids, node(p, q)))
        return out
    raise TypeError(c)


# --- preemptive completions: labels (l, a, N) -------------------------------

def cp_steps(c, defs):
    out = set()
    if isinstance(c, FrozenConsume):
        out.add(((c.ident, c.action, EMPTY), c.cont))
    if isinstance(c, Sum):
        for (l, a, big_l), p in cp_steps(c.left, defs):
            out.add(((l, a, big_l | ids(c.right)), p))
        for (l, a, big_l), q in cp_steps(c.right, defs):
            out.add(((l, a, big_l | ids(c.left)), q))
    if isinstance(c, Par):
        for (l, a, big_l), p in cp_steps(c.left, defs):
            for m, q in i_steps(c.right, defs):
                if m >= (ids(c.right) & big_l):
                    v = (big_l | m) - (big_l & ids(c.right))
                    out.add(((l, a, v), Par(p, q)))
        for (l, a, big_l), q in cp_steps(c.right, defs):
            for m, p in i_steps(c.left, defs):
                if m >= (ids(c.left) & big_l):
                    v = (big_l | m) - (big_l & ids(c.left))
                    out.add(((l, a, v), Par(p, q)))
        for (l, a, big_l), p in cp_steps(c.left, defs):
            for (m, b, big_m), q in cp_steps(c.right, defs):
                if m == l and a.name is not None and b == complement(a):
                    n = big_l & big_m
                    out.add(((l, TAU, (big_l | big_m) - n), Par(p, q)))
        for (l, a, big_l, cont_p), p in cc_steps(c.left, defs):
            for (m, b, big_m, cont_q), q in cc_steps(c.right, defs):
                if m == l and b == complement(a) and big_l == EMPTY and big_m == EMPTY:
                    out.add(((l, TAU, EMPTY), Par(Par(Par(p, q), cont_p), cont_q)))
        for (l, a, big_l, cont_p), p in cc_steps(c.left, defs):
            for (m, b, big_m), q in cp_steps(c.right, defs):
                if m == l and b == complement(a) and big_l <= big_m:
                    out.add(((l, TAU, big_m - big_l), Par(Par(p, q), cont_p)))
        for (l, a, big_l), p in cp_steps(c.left, defs):
            for (m, b, big_m, cont_q), q in cc_steps(c.right, defs):
                if m == l and a.name is not None and b == complement(a) and big_m <= big_l:
                    out.add(((l, TAU, big_l - big_m), Par(Par(p, q), cont_q)))
    if isinstance(c, Const) and c.name in defs.bindings:
        out |= cp_steps(defs.bindings[c.name], defs)
    return out


# --- conservative completions: labels (l, a, N, P) ---------------------------

def cc_steps(c, defs):
    out = set()
    if isinstance(c, FrozenConserve):
        out.add(((c.ident, c.action, EMPTY, c.cont),
                 PrefixConserve(c.action, c.cont)))
    if isinstance(c, Sum):
        for (l, a, big_l, cont), p in cc_steps(c.left, defs):
            for m, q in i_steps(c.right, defs):
                out.add(((l, a, big_l | m, cont), Sum(p, q)))
        for (l, a, big_l, cont), q in cc_steps(c.right, defs):
            for m, p in i_steps(c.left, defs):
                out.add(((l, a, big_l | m, cont), Sum(p, q)))
    if isinstance(c, Par):
        for (l, a, big_l, cont), p in cc_steps(c.left, defs):
            out.add(((l, a, big_l, cont), Par(p, c.right)))
        for (l, a, big_l, cont), q in cc_steps(c.right, defs):
            out.add(((l, a, big_l, cont), Par(c.left, q)))
    if isinstance(c, Const) and c.name in defs.bindings:
        out |= cc_steps(defs.bindings[c.name], defs)
    return out


# --- comparison helpers ------------------------------------------------------

def engine_view(transitions):
    """Project engine transitions onto the oracle's (label-tuple, target) shape."""
    from papc.semantics import (
        CompleteConservative,
        CompletePreemptive,
        Handshake,
        Interrupt,
    )

    out = set()
    for t in transitions:
        label = t.label
        if isinstance(label, Handshake):
            out.add(((label.ident, label.action), t.target))
        elif isinstance(label, Interrupt):
            out.add((label.idents, t.target))
        elif isinstance(label, CompletePreemptive):
            out.add(((label.ident, label.action, label.demanded), t.target))
        elif isinstance(label, CompleteConservative):
            out.add(((label.ident, label.action, label.demanded, label.continuation),
                     t.target))
    return out
