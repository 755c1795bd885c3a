"""Multiset sequences over a finite abelian group.

A sequence is an unordered multiset of group elements, stored as sorted
(element, multiplicity) pairs.  Divisibility, gcd, products and quotients
are all pointwise on multiplicities; negation relabels every term by its
inverse.

Text grammar (round-trip stable with :func:`format_sequence`):

    seq     ::= "empty" | term (ws term)*
    term    ::= element ("^" posint)?
    element ::= int | "(" int ("," int)* ")"

Bare integers are accepted only for groups of rank <= 1; higher ranks
require tuples.  Out-of-range coordinates are reduced, not rejected:

>>> from .groups import make_group
>>> S = parse_sequence(make_group([3]), "4^2 2")
>>> format_sequence(S)
'1^2 2'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from operator import mul
from typing import Iterator, Mapping

from .groups import (
    Group,
    GroupElement,
    all_elements,
    elem_add,
    elem_neg,
    elem_reduce,
    elem_scale,
    reduced_elements,
)


@dataclass(frozen=True)
class Sequence:
    """Immutable multiset of group elements."""

    group: Group
    terms: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self) -> None:
        reduced = reduced_elements(self.group)
        prev = None
        for g, m in self.terms:
            if m < 1:
                raise ValueError(f"multiplicity of {g!r} must be positive, got {m}")
            try:
                known = g in reduced
            except TypeError:  # unhashable, such as a list
                known = False
            if not known and elem_reduce(self.group, g) != g:
                raise ValueError(f"{g!r} is not a reduced element of {self.group}")
            if prev is not None and g <= prev:
                raise ValueError("terms must be strictly sorted by element")
            prev = g

    def __len__(self) -> int:
        return sum(m for _, m in self.terms)

    def __str__(self) -> str:
        return format_sequence(self)

    def multiplicity(self, g: GroupElement) -> int:
        g = elem_reduce(self.group, g)
        for h, m in self.terms:
            if h == g:
                return m
        return 0

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.terms)

    def expanded(self) -> tuple[GroupElement, ...]:
        """All occurrences, sorted, one entry per copy."""
        out: list[GroupElement] = []
        for g, m in self.terms:
            out.extend([g] * m)
        return tuple(out)

    def is_empty(self) -> bool:
        return not self.terms


def sequence(G: Group, items=()) -> Sequence:
    """Build a sequence from a multiplicity mapping or an element iterable."""
    counts: dict[GroupElement, int] = {}
    if isinstance(items, Mapping):
        pairs = items.items()
    else:
        pairs = ((g, 1) for g in items)
    for g, m in pairs:
        m = int(m)
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for {g!r}")
        if m == 0:
            continue
        g = elem_reduce(G, g)
        counts[g] = counts.get(g, 0) + m
    return Sequence(G, tuple(sorted(counts.items())))


def empty_sequence(G: Group) -> Sequence:
    return Sequence(G, ())


def _seq_from_sorted(G: Group, occurrences) -> Sequence:
    """Fast constructor for an already sorted, reduced occurrence tuple."""
    terms: list[tuple[GroupElement, int]] = []
    for g in occurrences:
        if terms and terms[-1][0] == g:
            terms[-1] = (g, terms[-1][1] + 1)
        else:
            terms.append((g, 1))
    return Sequence(G, tuple(terms))


_TERM_RE = re.compile(
    r"(?:\((?P<tup>[^()]*)\)|(?P<bare>-?\d+))(?:\^(?P<exp>-?\d+))?"
)


def parse_sequence(G: Group, text: str) -> Sequence:
    """Parse the sequence grammar; see the module docstring."""
    s = text.strip()
    if s.lower() == "empty":
        return empty_sequence(G)
    counts: dict[GroupElement, int] = {}
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _TERM_RE.match(s, pos)
        if not m:
            raise ValueError(f"malformed term at position {pos} in {text!r}")
        if m.group("tup") is not None:
            parts = m.group("tup").split(",")
            try:
                coords = [int(p.strip()) for p in parts]
            except ValueError:
                raise ValueError(f"malformed tuple {m.group(0)!r} in {text!r}") from None
        else:
            if G.rank > 1:
                raise ValueError(
                    f"bare integer {m.group('bare')} needs a rank-1 group; {G} has rank {G.rank}"
                )
            coords = [int(m.group("bare"))] if G.rank == 1 else []
        if len(coords) != G.rank:
            raise ValueError(
                f"element {m.group(0)!r} has arity {len(coords)}, group {G} has rank {G.rank}"
            )
        exp = 1 if m.group("exp") is None else int(m.group("exp"))
        if exp < 1:
            raise ValueError(f"exponent must be a positive integer in {m.group(0)!r}")
        g = elem_reduce(G, coords)
        counts[g] = counts.get(g, 0) + exp
        pos = m.end()
    return sequence(G, counts)


def parse_element(G: Group, text: str) -> GroupElement:
    """Parse a single element using the sequence grammar."""
    S = parse_sequence(G, text)
    if len(S) != 1:
        raise ValueError(f"expected a single element, got {text!r}")
    return S.support()[0]


def format_element(G: Group, g: GroupElement) -> str:
    g = elem_reduce(G, g)
    if G.rank == 0:
        return "0"
    if G.rank == 1:
        return str(g[0])
    return "(" + ",".join(str(c) for c in g) + ")"


def format_sequence(S: Sequence) -> str:
    if S.is_empty():
        return "empty"
    parts = []
    for g, m in S.terms:
        text = format_element(S.group, g)
        parts.append(text if m == 1 else f"{text}^{m}")
    return " ".join(parts)


def _same_group(A: Sequence, B: Sequence) -> Group:
    if A.group != B.group:
        raise ValueError(f"sequences over different groups: {A.group} vs {B.group}")
    return A.group


def seq_sum(S: Sequence) -> GroupElement:
    """Sum of all terms (the empty sequence sums to zero)."""
    total = S.group.zero()
    for g, m in S.terms:
        total = elem_add(S.group, total, elem_scale(S.group, m, g))
    return total


def divides(T: Sequence, S: Sequence) -> bool:
    """True iff T is a subsequence of S (multiplicity-wise <=)."""
    _same_group(T, S)
    return all(m <= S.multiplicity(g) for g, m in T.terms)


def seq_mul(A: Sequence, B: Sequence) -> Sequence:
    G = _same_group(A, B)
    counts = dict(A.terms)
    for g, m in B.terms:
        counts[g] = counts.get(g, 0) + m
    return sequence(G, counts)


def seq_div(S: Sequence, T: Sequence) -> Sequence:
    """S * T^{-1}; requires T | S."""
    G = _same_group(S, T)
    if not divides(T, S):
        raise ValueError(f"{format_sequence(T)!r} does not divide {format_sequence(S)!r}")
    counts = dict(S.terms)
    for g, m in T.terms:
        counts[g] -= m
    return sequence(G, counts)


def seq_neg(S: Sequence) -> Sequence:
    """Relabel every term g as -g."""
    return sequence(S.group, {elem_neg(S.group, g): m for g, m in S.terms})


def seq_key(S: Sequence):
    """Canonical sort key: (length, sorted occurrence tuple)."""
    return (len(S), S.expanded())


def subsequences_with_sum(S: Sequence, g: GroupElement) -> Iterator[Sequence]:
    """Every subsequence of S summing to g, once per multiset, in product
    order of the multiplicity vectors.  Sums are dot products of a vector
    with the support's coordinates; a Sequence is built only on a match."""
    G = S.group
    g = elem_reduce(G, g)
    support = S.support()
    columns = [tuple(x[i] for x in support) for i in range(G.rank)]
    for vector in product(*(range(m + 1) for _, m in S.terms)):
        if all(sum(map(mul, column, vector)) % n == c
               for column, n, c in zip(columns, G.invariants, g)):
            yield Sequence(G, tuple((x, m) for x, m in zip(support, vector) if m))


def iterate_multisets(G: Group, length: int, exclude_zero: bool = False) -> Iterator[Sequence]:
    """All multisets of the given length over G (or G minus zero), exactly
    once, in lexicographic order of their sorted element tuples."""
    if length < 0:
        raise ValueError("length must be >= 0")
    allowed = all_elements(G)[1:] if exclude_zero else all_elements(G)
    for combo in combinations_with_replacement(allowed, length):
        yield _seq_from_sorted(G, combo)
