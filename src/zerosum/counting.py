"""Exact subsequence-sum counting on packed count vectors.

For a sequence S of length m, each of the 2^m index subsets has a sum in
G; ``count_packed`` computes the whole histogram (one exact big integer per
group element) by applying the append recurrence

    new[g] = old[g] + old[g - a]

once per term occurrence a.  It is the library's one subset-sum counter:
``count_all``, ``zero_count`` and ``subsums`` (the nonzero counts) read
it, ``davenport.is_zero_sum_free`` is ``zero_count(S) == 1``, and
``sweep_counts`` takes the same step once per node.  ``count_brute_vector``
recomputes the same histogram by literally walking all 2^m subsets in
Gray-code order (one toggle per step) and is kept as an independent
oracle; the two must agree everywhere.

Limb layout.  A count vector is one Python int: element i of
``all_elements(G)`` owns the W bits [i*W, (i+1)*W) (its limb).  W is a
multiple of 64 and at least m + 2, so every count (at most 2^m) stays
below bit W-1 of its limb, the sentinel bit, which is therefore always 0.
Adding a to every element is a rotation of the limbs, done per coordinate
with a constant mask and two shifts (``_limb_adders``), so the append step
is ``x + translate(x, a)``: O(rank) big-int operations instead of O(|G|)
Python-level additions.  The table at W = 1 serves only the subset-sum
bitset of ``davenport.davenport_exact``.

SWAR predicates.  With ONES the repunit of W-bit limbs and TOP = ONES <<
(W-1) the mask of their sentinel bits, ``(x + ONES*(2^(W-1) - b)) & TOP``
sets the sentinel of exactly the limbs whose count is >= b, for every
limb at once and without carries between limbs.  ``Limbs.offset`` is the
one home of that addend and ``Limbs.at_least`` applies it.  "Nonzero" is
b = 1, and "equal to b" is ">= b and not >= b+1".  Each census sweep
tests two thresholds fixed by the length alone: ``sweep_lower_bound``
"count >= 1" and "count >= 2^e", ``sweep_one_and_all`` "count >= 2^e" and
"count >= 2^e + 1", with e = |S| - D + 1.  Each builds a table of that
pair of offsets indexed by length before its loop (None where the check
is vacuous), so the per-node test is two additions and a few ands.

Everything here is exact integer arithmetic: the statements being checked
are equalities against powers of two, so a single rounding error would be
fatal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    Group,
    GroupElement,
    all_elements,
    element_index,
    elem_add,
    elem_neg,
    elem_reduce,
    elem_sub,
    quotient_group,
    _validate_subgroup,
    Subgroup,
)
from .reports import VerificationReport
from .sequences import (
    Sequence,
    _seq_from_sorted,
    format_sequence,
    seq_div,
    seq_mul,
    seq_neg,
    sequence,
)

BRUTE_CAP = 25
MAX_LENGTH = 1024


@dataclass(frozen=True)
class CountVector:
    """Subsequence-sum counts for every group element, aligned with
    ``all_elements(group)``."""

    group: Group
    counts: tuple[int, ...]

    def __getitem__(self, g: GroupElement) -> int:
        return self.counts[element_index(self.group)[elem_reduce(self.group, g)]]

    @property
    def zero_count(self) -> int:
        return self.counts[0]

    def as_dict(self) -> dict[GroupElement, int]:
        return dict(zip(all_elements(self.group), self.counts))


def limb_width(max_length: int) -> int:
    """The limb width for sequences of length at most ``max_length``: the
    least multiple of 64 that is >= max_length + 2, so one width (and one
    translation table) serves every length up to 62.

    Refuses a length above ``MAX_LENGTH``, before any table is built.  At
    the cap a vector over 1,024 elements takes 136 KiB, and the widest
    translation table under the order cap (C2 x C512, two masks per shift)
    about 136 MiB."""
    if max_length > MAX_LENGTH:
        raise ValueError(f"length {max_length} exceeds the cap {MAX_LENGTH}")
    return (max(max_length, 0) + 65) // 64 * 64


class Limbs:
    """The layout of packed count vectors over a group of a given order at
    a given limb width (a multiple of 64), with the SWAR predicates on it."""

    __slots__ = ("width", "mask", "ones", "top", "_offsets", "_words")

    def __init__(self, order: int, width: int):
        self.width = width
        self.mask = (1 << width) - 1
        self.ones = ((1 << (order * width)) - 1) // self.mask
        self.top = self.ones << (width - 1)
        self._offsets: dict[int, int] = {}
        self._words = struct.Struct(f"<{order * width // 64}Q")

    def offset(self, b: int) -> int:
        """The addend whose sum with a packed vector sets the sentinel bit
        of exactly the limbs whose count is >= b."""
        offset = self._offsets.get(b)
        if offset is None:
            # Counts are < 2^(W-1): b <= 0 flags every limb, and
            # b > 2^(W-1) (offset 0) flags none.
            half = 1 << (self.width - 1)
            offset = self.ones * (half - min(max(b, 0), half))
            self._offsets[b] = offset
        return offset

    def at_least(self, packed: int, b: int) -> int:
        """The sentinel bits of the limbs whose count is >= b."""
        return (packed + self.offset(b)) & self.top

    def equal(self, packed: int, b: int) -> int:
        """The sentinel bits of the limbs whose count is exactly b."""
        return self.at_least(packed, b) & ~self.at_least(packed, b + 1)

    def flagged(self, flags: int) -> list[int]:
        """The limb indices whose sentinel bit is set in ``flags``."""
        out = []
        width = self.width
        while flags:
            low = flags & -flags
            out.append(low.bit_length() // width - 1)
            flags ^= low
        return out

    def unpack(self, packed: int) -> tuple[int, ...]:
        """Every count, in element order."""
        words = self._words.unpack(packed.to_bytes(self._words.size, "little"))
        k = self.width // 64
        if k == 1:
            return words
        return tuple(
            sum(words[i + j] << (64 * j) for j in range(k))
            for i in range(0, len(words), k)
        )


@lru_cache(maxsize=128)
def _limbs(order: int, width: int) -> Limbs:
    return Limbs(order, width)


def limb_layout(G: Group, max_length: int) -> Limbs:
    """The layout of the packed count vectors of sequences over G of length
    at most ``max_length``, as built by ``count_packed`` and yielded by
    ``sweep_counts``."""
    return _limbs(G.order, limb_width(max_length))


@lru_cache(maxsize=128)
def _limb_adders(G: Group, width: int):
    """For each element index, the (lo, ls, hi, rs) operations that
    translate a packed vector of ``width``-bit limbs by that element:
    ``x = ((x << ls) & lo) | ((x >> rs) & hi)`` once per nonzero
    coordinate (see ``translate``).

    In the mixed-radix layout coordinate i moves a limb by stride_i limbs
    within blocks of n_i * stride_i limbs, so each coordinate is a
    rotation inside every block with constant masks.  Coordinate 0 spans
    the whole vector and rotates with the full mask alone, so cyclic
    groups need no per-shift masks.
    """
    n = G.order
    full = (1 << (n * width)) - 1
    stride = n
    dim_ops = []  # dim_ops[i][c] = the rotation by c along coordinate i
    for i, ni in enumerate(G.invariants):
        stride //= ni
        step = stride * width
        if i == 0:
            dim_ops.append([None] + [
                (full, c * step, full, (ni - c) * step) for c in range(1, ni)
            ])
            continue
        # blocks has the lowest bit of every block set, and low the low
        # c steps of every block.
        blocks = full // ((1 << (ni * step)) - 1)
        ops = [None]
        for c in range(1, ni):
            low = blocks * ((1 << (c * step)) - 1)
            ops.append((full ^ low, c * step, low, (ni - c) * step))
        dim_ops.append(ops)
    return tuple(
        tuple(dim_ops[i][c] for i, c in enumerate(e) if c)
        for e in all_elements(G)
    )


def translate(x: int, ops) -> int:
    """Move every limb of x by the element whose operations are ``ops``."""
    for lo, ls, hi, rs in ops:
        x = ((x << ls) & lo) | ((x >> rs) & hi)
    return x


def count_packed(S: Sequence) -> tuple[int, Limbs]:
    """The packed count vector of S and its layout ``limb_layout(G, |S|)``."""
    G = S.group
    limbs = limb_layout(G, len(S))
    adders = _limb_adders(G, limbs.width)
    idx = element_index(G)
    x = 1
    for g, mult in S.terms:
        ops = adders[idx[g]]
        if not ops:  # zero doubles every count
            x <<= mult
            continue
        for _ in range(mult):
            x += translate(x, ops)
    return x, limbs


def count_all(S: Sequence) -> CountVector:
    """Exact subsequence-sum counts for every group element at once."""
    packed, limbs = count_packed(S)
    counts = limbs.unpack(packed)
    if sum(counts) != 1 << len(S):
        raise RuntimeError("count vector does not sum to 2^|S|")
    return CountVector(S.group, counts)


def zero_count(S: Sequence) -> int:
    """N_0(S): the number of index subsets of S summing to zero, the empty
    one included."""
    packed, limbs = count_packed(S)
    return packed & limbs.mask


@lru_cache(maxsize=16)
def _index_tables(G: Group) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and subtraction tables of G on element indices."""
    elems = all_elements(G)
    idx = element_index(G)
    return ([[idx[elem_add(G, x, y)] for y in elems] for x in elems],
            [[idx[elem_sub(G, x, y)] for y in elems] for x in elems])


def count_brute_vector(S: Sequence) -> CountVector:
    """The same histogram by enumerating all 2^|S| index subsets.

    Walks subsets in Gray-code order so each step toggles a single
    occurrence; stays independent of the recurrence used by count_all.
    """
    G = S.group
    occurrences = S.expanded()
    m = len(occurrences)
    if m > BRUTE_CAP:
        raise ValueError(f"brute-force enumeration capped at length {BRUTE_CAP}, got {m}")
    idx = element_index(G)
    add, sub = _index_tables(G)
    occ_idx = [idx[g] for g in occurrences]
    counts = [0] * G.order
    counts[0] = 1  # empty subset
    included = [False] * m
    cur = 0
    for k in range(1, 1 << m):
        j = (k & -k).bit_length() - 1
        if included[j]:
            cur = sub[cur][occ_idx[j]]
            included[j] = False
        else:
            cur = add[cur][occ_idx[j]]
            included[j] = True
        counts[cur] += 1
    return CountVector(G, tuple(counts))


def subsums(S: Sequence) -> frozenset[GroupElement]:
    """The set of all subset sums of S, zero (the empty subset) included:
    the elements whose count is nonzero."""
    packed, limbs = count_packed(S)
    elems = all_elements(S.group)
    return frozenset(elems[i] for i in limbs.flagged(limbs.at_least(packed, 1)))


def transform(S: Sequence, T: Sequence) -> Sequence:
    """The length-preserving rewrite W = T * (-(S * T^{-1})).

    W satisfies count_all(S)[sum(T)] == count_all(W)[0]; the subsequences
    of S summing to sum(T) correspond bijectively to the zero-sum
    subsequences of W.  Requires T | S: ``seq_div`` raises ValueError
    otherwise.
    """
    return seq_mul(T, seq_neg(seq_div(S, T)))


@dataclass(frozen=True)
class ExtremalSet:
    """Elements whose count meets the lower bound exactly."""

    group: Group
    members: frozenset[GroupElement]
    bound_exponent: int


def extremal_set(S: Sequence, D: int) -> ExtremalSet:
    """Elements g with count exactly 2^(|S|-D+1); needs |S| >= D-1."""
    exponent = len(S) - D + 1
    if exponent < 0:
        raise ValueError(
            f"extremal set undefined for |S| = {len(S)} < D - 1 = {D - 1}"
        )
    packed, limbs = count_packed(S)
    members = _extremal_members(S.group, limbs, packed, exponent)
    return ExtremalSet(S.group, members, exponent)


def _extremal_members(G: Group, limbs: Limbs, packed: int,
                      exponent: int) -> frozenset[GroupElement]:
    """The elements whose count in ``packed`` is exactly 2^exponent."""
    flags = limbs.equal(packed, 1 << exponent)
    if not flags:
        return frozenset()
    elems = all_elements(G)
    return frozenset(elems[i] for i in limbs.flagged(flags))


def sweep_lower_bound(G: Group, D: int, max_len: int) -> VerificationReport:
    """The lower bound on every zero-free multiset S up to ``max_len``:
    each count is 0 or at least 2^(|S|-D+1).  D is the Davenport constant
    of G, so a failure would falsify this implementation, not the
    statement.  Stops at the first violation."""
    limbs = limb_layout(G, max_len)
    top = limbs.top
    # By length, the offsets of "count >= 1" and "count >= 2^e", e =
    # length - D + 1; None where the bound is vacuous (e <= 0: every
    # nonzero count is >= 1 = 2^0).
    table = [None if e <= 0 else (limbs.offset(1), limbs.offset(1 << e))
             for e in (length - D + 1 for length in range(max_len + 1))]
    checked = 0
    for occ, packed in sweep_counts(G, max_len):
        checked += 1
        offsets = table[len(occ)]
        if offsets is None:
            continue
        nonzero, meets = offsets
        if (packed + nonzero) & ~(packed + meets) & top:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "lower-bound-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S), max_len=max_len,
            )
    return VerificationReport.ok(
        "lower-bound-sweep", group=G.spec(), max_len=max_len,
        davenport=D, sequences_checked=checked,
    )


def sweep_one_and_all(G: Group, D: int, max_len: int) -> VerificationReport:
    """One-and-all on every zero-free multiset S up to ``max_len``: if
    some count equals 2^(|S|-D+1), every count is at least that.  Stops at
    the first violation."""
    limbs = limb_layout(G, max_len)
    top = limbs.top
    # By length, the offsets of "count >= 2^e" and "count >= 2^e + 1", e =
    # length - D + 1; None where no count can equal 2^e (e < 0).
    table = [None if e < 0 else (limbs.offset(1 << e), limbs.offset((1 << e) + 1))
             for e in (length - D + 1 for length in range(max_len + 1))]
    checked = 0
    attained = 0
    for occ, packed in sweep_counts(G, max_len):
        checked += 1
        offsets = table[len(occ)]
        if offsets is None:
            continue
        meets, above = offsets
        flags = (packed + meets) & top
        if flags & ~(packed + above):
            attained += 1
            if flags != top:
                S = _seq_from_sorted(G, occ)
                return VerificationReport.fail(
                    "one-and-all-sweep", (S,), group=G.spec(),
                    sequence=format_sequence(S), max_len=max_len,
                )
    return VerificationReport.ok(
        "one-and-all-sweep", group=G.spec(), max_len=max_len,
        sequences_checked=checked, bound_attained=attained,
    )


def pushforward_counts(S: Sequence, H: Subgroup) -> VerificationReport:
    """Summing counts over a subgroup equals the zero count of the projected
    sequence over the quotient."""
    G = S.group
    _validate_subgroup(G, H)
    quotient, project = quotient_group(G, H)
    cv = count_all(S)
    lhs = sum(cv[h] for h in H.elements)
    projected = sequence(quotient, map(project, S.expanded()))
    rhs = count_all(projected)[quotient.zero()]
    details = {
        "sequence": format_sequence(S),
        "subgroup_order": H.order,
        "quotient": quotient.spec(),
        "projected": format_sequence(projected),
        "sum_over_subgroup": lhs,
        "zero_count_of_projection": rhs,
    }
    status = "pass" if lhs == rhs else "fail"
    witnesses = () if lhs == rhs else (S,)
    return VerificationReport("pushforward-counts", status, details, witnesses)


def sweep_counts(G: Group, max_length: int, *, min_length: int = 0,
                 zero_ceiling: int | None = None):
    """Yield (occurrence tuple, packed count vector) for every zero-free
    multiset up to ``max_length``, sharing the counting DP along the
    enumeration tree.

    The vectors are packed in ``limb_layout(G, max_length)``.  Equivalent
    to running count_packed on each sequence from iterate_multisets with
    ``exclude_zero`` (for every length), but costs one translation and one
    addition per multiset instead of one per term.  Multisets appear in
    lexicographic order of their occurrence tuples (a pre-order walk of
    the tree); lengths are interleaved.

    With ``zero_ceiling``, a multiset whose zero count exceeds it is
    neither yielded nor extended.  Appending a can only raise the zero
    count (N_0(S a) = N_0(S) + N_{-a}(S)), so every multiset skipped this
    way also exceeds the ceiling: the pruned stream is the unpruned one
    restricted to multisets whose zero count is at most the ceiling.
    """
    # Nothing to yield: no length fits, or the ceiling is below the zero
    # count 1 of the empty multiset.
    if (max_length < max(min_length, 0)
            or (zero_ceiling is not None and zero_ceiling < 1)):
        return
    limbs = limb_layout(G, max_length)
    mask = limbs.mask
    adders = _limb_adders(G, limbs.width)
    elems = all_elements(G)
    idx = element_index(G)
    terms = elems[1:]
    term_ops = adders[1:]
    # Bit offset of the limb of -a: the child's zero count is the parent's
    # limb 0 plus its limb of -a.
    neg_shift = [idx[elem_neg(G, a)] * limbs.width for a in terms]
    count = len(terms)
    if min_length <= 0:
        yield (), 1
    if max_length == 0:
        return
    # One frame per multiset on the current path: its packed counts and
    # the next term position to try.  Terms are appended in nondecreasing
    # position, so each multiset is reached once.
    occurrences: list[GroupElement] = []
    path_counts = [1]
    next_pos = [0]
    while next_pos:
        pos = next_pos[-1]
        if pos == count:
            next_pos.pop()
            path_counts.pop()
            if occurrences:
                occurrences.pop()
            continue
        next_pos[-1] = pos + 1
        x = path_counts[-1]
        if (zero_ceiling is not None
                and (x & mask) + ((x >> neg_shift[pos]) & mask) > zero_ceiling):
            continue
        # translate() inlined: this is the per-node step.
        y = x
        for lo, ls, hi, rs in term_ops[pos]:
            y = ((y << ls) & lo) | ((y >> rs) & hi)
        child = x + y
        occurrences.append(terms[pos])
        depth = len(occurrences)
        if depth >= min_length:
            yield tuple(occurrences), child
        if depth < max_length:
            path_counts.append(child)
            next_pos.append(pos)
        else:
            occurrences.pop()


def extremal_sweep(G: Group, D: int, max_length: int, *, prune: bool = False):
    """Yield (occurrence tuple, extremal members) for every zero-free
    multiset up to ``max_length``, in ``sweep_counts`` order.  The members
    are the elements whose count is exactly 2^(len-D+1), and none below
    length D-1.

    With ``prune`` the sweep is for extremal sequences only: it skips every
    multiset whose zero count exceeds 2^(max_length-D+1), and the members
    are reported only where zero itself attains the bound (elsewhere they
    are empty), so nonempty members mark exactly the extremal multisets.
    """
    limbs = limb_layout(G, max_length)
    mask = limbs.mask
    ceiling = None
    if prune:
        top = max_length - D + 1
        ceiling = 1 << top if top >= 0 else 0
    for occ, packed in sweep_counts(G, max_length, zero_ceiling=ceiling):
        exponent = len(occ) - D + 1
        if exponent < 0 or (prune and packed & mask != 1 << exponent):
            yield occ, frozenset()
        else:
            yield occ, _extremal_members(G, limbs, packed, exponent)
