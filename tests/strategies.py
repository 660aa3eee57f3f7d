"""Hypothesis strategies for terms, shared across test modules."""

import hypothesis.strategies as st

from papc.syntax import (
    MAX_IDENT,
    Action,
    Const,
    FrozenConserve,
    FrozenConsume,
    NIL,
    Par,
    PrefixConserve,
    PrefixConsume,
    Sum,
)

actions = st.builds(Action, name=st.sampled_from(["a", "b", "g"]),
                    complemented=st.booleans())

pure_terms = st.recursive(
    st.one_of(st.just(NIL), st.builds(Const, st.sampled_from(["C", "A", "B", "P"]))),
    lambda inner: st.one_of(
        st.builds(PrefixConsume, actions, inner),
        st.builds(PrefixConserve, actions, inner),
        st.builds(Sum, inner, inner),
        st.builds(Par, inner, inner),
    ),
    max_leaves=12,
)

idents = st.integers(min_value=1, max_value=9)

# identifiers on both sides of the 30-bit digits of an int mask, and the
# largest one, so that masks span several digits
wide_idents = st.sampled_from([1, 2, *range(29, 34), *range(60, 67), MAX_IDENT])


def _configurations(idents):
    # frozen prefixes may repeat identifiers here; reachable configurations
    # never do, but the grammar allows it
    return st.recursive(
        st.one_of(
            pure_terms,
            st.builds(FrozenConsume, actions, idents, pure_terms),
            st.builds(FrozenConserve, actions, idents, pure_terms),
        ),
        lambda inner: st.one_of(st.builds(Sum, inner, inner), st.builds(Par, inner, inner)),
        max_leaves=10,
    )


configurations = _configurations(idents)
wide_configurations = _configurations(wide_idents)

# sums of running and plain prefixes, no parallel composition
summations = st.recursive(
    st.one_of(
        st.builds(FrozenConsume, actions, idents, pure_terms),
        st.builds(FrozenConserve, actions, idents, pure_terms),
        st.builds(PrefixConsume, actions, pure_terms),
        st.builds(PrefixConserve, actions, pure_terms),
    ),
    lambda inner: st.builds(Sum, inner, inner),
    max_leaves=8,
)
