"""Exact subsequence-sum counting on packed count vectors.

For a sequence S of length m, each of the 2^m index subsets has a sum in
G; ``count_packed`` computes the whole histogram (one exact big integer per
group element) by applying the append recurrence

    new[g] = old[g] + old[g - a]

once per term occurrence a.  It is the library's one subset-sum counter:
``count_all``, ``zero_count`` and ``subsums`` (the nonzero counts) read
it, ``davenport.is_zero_sum_free`` is ``zero_count(S) == 1``, and
``sweep_counts`` takes the same step once per node.  ``_append`` is the
step's home: ``count_packed`` reads it, and so do ``_extremal_probe``,
which counts a draw of ``search.random_search`` from its index tuple,
and ``_transform_probe``, which decides a trial of
``search.sweep_transform`` from its positions with two packed counts;
neither builds a ``Sequence``.  ``count_brute_vector``
recomputes the same histogram by literally walking all 2^m subsets in
Gray-code order (one toggle per step) and is kept as an independent
oracle; the two must agree everywhere.

Limb layout.  A count vector is one Python int: element i of
``all_elements(G)`` owns the W bits [i*W, (i+1)*W) (its limb).  W is the
least of 16, 32 or a multiple of 64 that is at least m + 2
(``limb_width``), so every count (at most 2^m) stays below bit W-1 of its
limb, the sentinel bit, which is therefore always 0; a sweep capped at
length 8 packs 16 bits per element instead of 64.  Adding a to every
element is a rotation of the limbs, done per coordinate with a constant
mask and two shifts (``_limb_adders``), so the append step is ``x +
translate(x, a)``: O(rank) big-int operations instead of O(|G|)
Python-level additions.  The table at W = 1 serves the subset-sum
bitset of ``davenport.davenport_exact`` and the joins of the subgroup <P>
generated by a prefix with <c>, coset by coset, in that search and in
the catalog walk cut by symmetry (``symmetry``).

SWAR predicates.  With ONES the repunit of W-bit limbs and TOP = ONES <<
(W-1) the mask of their sentinel bits, ``(x + ONES*(2^(W-1) - b)) & TOP``
sets the sentinel of exactly the limbs whose count is >= b, for every
limb at once and without carries between limbs.  ``Limbs.offset`` is the
one home of that addend and ``Limbs.at_least`` applies it.  "Nonzero" is
b = 1, and "equal to b" is ">= b and not >= b+1".  ``sweep_counts``, the
census walk over zero-free multisets, takes one band [b_lo, b_hi) of
counts per length and tests each multiset inside the walk, ``(x + lo) &
~(x + hi) & TOP``: two additions and a few ands.  A band may carry a
floor, and a multiset in it is then yielded only if some count is below
the floor.  The walk yields only the multisets that flag and reports in
a ``SweepStats`` the multisets it visited and the ones that flagged; a
walk with no band at any length flags nothing, and its total is the size
of the tree, C(|G| - 1 + L, L) up to length L, counted without walking.
The sweeps are views of it, with e = |S| - D + 1:
``sweep_lower_bound`` seeks a count in [1, 2^e), breaking the bound;
``attaining_sweep`` one in [2^e, 2^e + 1), attaining it;
``sweep_one_and_all`` the same band with the floor 2^e, so that it is
yielded only its failures and reads the attaining multisets from the
tally.  The walk pruned on a zero-count ceiling, ``symmetry.pruned_walk``,
takes bands that read the zero count alone, and its ceiling is the top of
the largest: the attaining one for ``extremal_sweep``, and [1,
2) at the one length of ``davenport.zero_sum_free_sequences``.

Memo.  What the walk yields and tallies below a multiset depends only
on its vector (which fixes its length, the counts
summing to 2^length) and on the element index of the next term, both
kept in the multiset's frame on the walk's path.  ``sweep_counts``
stores each subtree that it walked in full without yielding under that
key, with its (visited, flagged) totals, and adds them for a later child
with the same key.  Only subtrees of at least ``MEMO_MIN`` multisets are
stored, and at most ``MEMO_CAP`` per walk, which bounds the memory.  The
totals may pass 2^64.  The census sweeps gain, and so do the
``attaining_sweep`` walks of ``subgroup-es`` and ``conjecture 2``.

Pruning and symmetry.  The catalogs walk only the multisets whose zero
count is at most a ceiling, and cut that walk by symmetry instead of
memoizing: the pruned catalog walks yield along most of their subtrees,
and storing the rest made ``extremal C5xC5 --max-len 10`` slower (6.3 to
7.3 s) and larger (58 to 64 MiB).  The library's one pruned walk is
``symmetry.pruned_walk``, loaded on first use.  The zero count and the
extremal members move with any automorphism, so
``extremal_sweep`` walks the tree cut by Aut(G) as ``davenport_exact``
cuts its search, and expands each orbit that it reaches back into its
members, released in walk order.  On C4xC4 at cap 9 the walk and the
orbits take 14,935 multisets instead of 146,783 for the same 1,488
entries, which fall into 18 orbits.

Everything here is exact integer arithmetic: the statements being checked
are equalities against powers of two, so a single rounding error would be
fatal.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .groups import (
    Group,
    GroupElement,
    all_elements,
    element_index,
    elem_add,
    elem_neg,
    elem_reduce,
    elem_sub,
)
from .reports import VerificationReport
from .sequences import (
    Sequence,
    _seq_from_sorted,
    format_sequence,
    seq_div,
    seq_mul,
    seq_neg,
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
    least of 16, 32 or a multiple of 64 that is >= max_length + 2, so every
    count (at most 2^max_length) stays below the sentinel bit W-1.  16-bit
    limbs serve lengths up to 14, 32-bit limbs up to 30 and 64-bit limbs
    up to 62.

    Refuses a length above ``MAX_LENGTH``, before any table is built.  At
    the cap (W = 1,088) a vector over 1,024 elements takes 136 KiB, and the
    widest translation table under the order cap (C2 x C512, two masks per
    shift) about 136 MiB."""
    if max_length > MAX_LENGTH:
        raise ValueError(f"length {max_length} exceeds the cap {MAX_LENGTH}")
    need = max(max_length, 0) + 2
    if need <= 32:
        return 16 if need <= 16 else 32
    return (need + 63) // 64 * 64


class Limbs:
    """The layout of packed count vectors over a group of a given order at
    a given limb width (16, 32 or a multiple of 64), with the SWAR
    predicates on it."""

    __slots__ = ("width", "mask", "ones", "top", "_words")

    def __init__(self, order: int, width: int):
        self.width = width
        self.mask = (1 << width) - 1
        self.ones = ((1 << (order * width)) - 1) // self.mask
        self.top = self.ones << (width - 1)
        if width < 64:
            self._words = struct.Struct(f"<{order}{'H' if width == 16 else 'I'}")
        else:
            self._words = struct.Struct(f"<{order * width // 64}Q")

    def offset(self, b: int) -> int:
        """The addend whose sum with a packed vector sets the sentinel bit
        of exactly the limbs whose count is >= b."""
        # Counts are < 2^(W-1): b <= 0 flags every limb, and b > 2^(W-1)
        # (offset 0) flags none.
        half = 1 << (self.width - 1)
        return self.ones * (half - min(max(b, 0), half))

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
        if k <= 1:
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


def _append(x: int, term_ops) -> int:
    """The packed vector x with one term appended per entry of ``term_ops``
    (its ``_limb_adders`` operations): the append step x + translate(x, a),
    with translate() inlined."""
    for ops in term_ops:
        y = x
        for lo, ls, hi, rs in ops:
            y = ((y << ls) & lo) | ((y >> rs) & hi)
        x += y
    return x


def count_packed(S: Sequence) -> tuple[int, Limbs]:
    """The packed count vector of S and its layout ``limb_layout(G, |S|)``."""
    G = S.group
    limbs = limb_layout(G, len(S))
    adders = _limb_adders(G, limbs.width)
    idx = element_index(G)
    return _append(1, [adders[idx[g]] for g in S.expanded()]), limbs


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


def _extremal_probe(G: Group, length: int, exponent: int):
    """For multisets of ``length`` nonzero elements of G, the function that
    maps the tuple of their element indices to their extremal members (the
    elements whose count is 2^exponent) when their zero count is
    2^exponent, and to None otherwise.  Raises ValueError for a length
    above ``MAX_LENGTH``."""
    limbs = limb_layout(G, length)
    term_ops = _limb_adders(G, limbs.width)
    mask, bound = limbs.mask, 1 << exponent

    def probe(terms):
        packed = _append(1, [term_ops[c] for c in terms])
        if packed & mask != bound:
            return None
        return _extremal_members(G, limbs, packed, exponent)

    return probe


def _transform_probe(G: Group):
    """For a sequence S over G and a subsequence T | S, the function that
    maps the sorted positions of S's occurrences in ``all_elements(G)``
    and T's multiplicity at each distinct position, in order, to
    (N_{sum T}(S), N_0(W)) with W = ``transform(S, T)``: each term of S
    kept k times as itself and m - k times negated.  S = T R and W = T
    (-R) are counted from the vector of T, each in ``limb_layout(G, |S|)``,
    so a length above ``MAX_LENGTH`` raises ValueError, and a vector whose
    counts do not sum to 2^|S| raises RuntimeError, as in ``count_all``."""
    elems = all_elements(G)
    idx = element_index(G)
    neg = [idx[elem_neg(G, e)] for e in elems]

    def probe(positions, kept):
        limbs = limb_layout(G, len(positions))
        adders = _limb_adders(G, limbs.width)
        t_terms, r_terms, neg_r_terms = [], [], []
        t_sum = [0] * G.rank  # the coordinates of sum T, unreduced
        for (p, m), k in zip(Counter(positions).items(), kept):
            t_terms += [adders[p]] * k
            r_terms += [adders[p]] * (m - k)
            neg_r_terms += [adders[neg[p]]] * (m - k)
            for i, c in enumerate(elems[p]):
                t_sum[i] += k * c
        t = _append(1, t_terms)
        s = _append(t, r_terms)
        w = _append(t, neg_r_terms)
        # The limbs sum to the vector mod 2^W - 1, and 2^|S| < 2^W - 1.
        total_count = 1 << len(positions)
        if s % limbs.mask != total_count or w % limbs.mask != total_count:
            raise RuntimeError("count vector does not sum to 2^|S|")
        g = idx[tuple(c % n for c, n in zip(t_sum, G.invariants))]
        return (s >> g * limbs.width) & limbs.mask, w & limbs.mask

    return probe


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
    # By length, the band [1, 2^e) of counts that break the bound, e =
    # length - D + 1; None where it is empty (e <= 0).
    bands = [None if e <= 0 else (1, 1 << e)
             for e in (length - D + 1 for length in range(max_len + 1))]
    stats = SweepStats()
    for occ, _ in sweep_counts(G, max_len, bands, stats=stats):
        S = _seq_from_sorted(G, occ)
        return VerificationReport.fail(
            "lower-bound-sweep", (S,), group=G.spec(),
            sequence=format_sequence(S), max_len=max_len,
        )
    return VerificationReport.ok(
        "lower-bound-sweep", group=G.spec(), max_len=max_len,
        davenport=D, sequences_checked=stats.visited,
    )


def _attained_bands(D: int, max_length: int) -> list:
    """By length, the band [2^e, 2^e + 1) of counts that attain the bound,
    e = length - D + 1; None where no count can (e < 0)."""
    return [None if e < 0 else (1 << e, (1 << e) + 1)
            for e in (length - D + 1 for length in range(max_length + 1))]


def sweep_one_and_all(G: Group, D: int, max_len: int) -> VerificationReport:
    """One-and-all on every zero-free multiset S up to ``max_len``: if
    some count equals 2^(|S|-D+1), every count is at least that.  Stops at
    the first violation."""
    # The attaining band with the floor 2^e: the walk yields only the
    # multisets that attain the bound and have a count below it.
    bands = [band and band + (band[0],) for band in _attained_bands(D, max_len)]
    stats = SweepStats()
    for occ, _ in sweep_counts(G, max_len, bands, stats=stats):
        S = _seq_from_sorted(G, occ)
        return VerificationReport.fail(
            "one-and-all-sweep", (S,), group=G.spec(),
            sequence=format_sequence(S), max_len=max_len,
        )
    return VerificationReport.ok(
        "one-and-all-sweep", group=G.spec(), max_len=max_len,
        sequences_checked=stats.visited, bound_attained=stats.flagged,
    )


# The most multisets a catalog walk visits unless given another budget.
DEFAULT_BUDGET = 2_000_000

# The memo of ``sweep_counts``: only
# subtrees of at least MEMO_MIN multisets are stored, and at most
# MEMO_CAP of them per walk.
MEMO_MIN = 16
MEMO_CAP = 1 << 18


@dataclass
class SweepStats:
    """The accounting of one walk, ``sweep_counts`` or
    ``symmetry.pruned_walk``, a fresh record each: ``budget`` in, the most
    multisets it may materialize (None: no limit; a negative one raises
    ValueError); ``visited`` out, the multisets of the tree it visited,
    the empty one included, and in a pruned walk also those its consumer
    materialized; ``exhaustive`` out, False when the budget left one
    unvisited.  Set by the pruned walk alone: ``last`` out, the last
    multiset visited once the budget is spent (None before).  Set by
    ``sweep_counts`` alone: ``flagged`` out, the multisets of the walk
    with a count in the band of their length; ``entries`` and ``hits``
    out, the subtrees its memo stored and the ones it answered."""

    budget: int | None = None
    visited: int = 0
    exhaustive: bool = True
    last: tuple[GroupElement, ...] | None = None
    flagged: int = 0
    entries: int = 0
    hits: int = 0

    def __post_init__(self):
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")


def sweep_counts(G: Group, max_length: int, bands: list, *,
                 stats: SweepStats | None = None):
    """Walk the zero-free multisets up to ``max_length``, sharing the
    counting DP along the enumeration tree, and yield (occurrences, packed
    count vector) for each with a count in the band of its length and,
    where the band has a floor, a count below the floor.

    ``bands[n]``, for each length n from 0 to ``max_length``, is None
    (yield nothing of length n), count bounds (b_lo, b_hi) or (b_lo, b_hi,
    floor): some count must lie in [b_lo, b_hi), and some count must be
    below the floor, tested on all limbs at once through their
    ``Limbs.offset``.  (0, 2^n + 1) takes every multiset.  The
    occurrences are the walk's own list: copy it to keep it.

    The vectors are packed in ``limb_layout(G, max_length)``, at one
    translation and one addition per multiset.  Multisets come in
    lexicographic order of their occurrence tuples (a pre-order walk;
    lengths interleaved).  As in ``pruned_walk``, one frame per multiset
    on the path carries its counts, the element index of its next term and
    the memo's mark.  The leaves (length ``max_length``) are visited
    in one loop without frames: this census walk tests every leaf, and
    visiting them by the step of the inner nodes, as ``pruned_walk`` does,
    made ``verify lower-bound C4xC4 --max-len 8`` slower (0.131-0.143 s
    became 0.141-0.161 s over four alternating fresh processes on a shared
    2-vCPU VM; see ``CHANGES.md``).  With no band at any length nothing is
    yielded or flagged, and ``visited`` is the size of the tree, C(|G| - 1
    + max_length, max_length), cut to the budget: no table is built and no
    multiset walked.  ``stats`` (see ``SweepStats``) carries a budget
    in and the visited and flagged counts, ``exhaustive`` and the memo's
    entries and hits out.  The walk pruned on the zero count is
    ``symmetry.pruned_walk``.

    Memo (see the module docstring).  The
    subtree below a multiset, its extensions by terms from index c on,
    is keyed by (vector, c).  A subtree walked in full that yielded
    nothing is stored with its (visited, flagged) totals, and a later
    child with the same key adds them instead of being walked if they fit
    in the budget; otherwise it is walked.  So the stream, its order,
    ``visited``, ``flagged`` and ``exhaustive`` are those of the walk
    without the memo.  A subtree is stored only if it holds at least
    ``MEMO_MIN`` multisets (from index c on at length d, C(|G| - c + m, m)
    of them, m = max_length - d) and the walk has stored fewer than
    ``MEMO_CAP``.
    The children of the root are never stored: no later child is
    appended with their term, so that term's table is dropped with them.
    """
    stats = stats or SweepStats()
    budget = stats.budget
    if max_length < 0:
        return
    if budget is not None and budget < 1:
        stats.exhaustive = False
        return
    n = G.order
    # The size of the unpruned tree bounds every total.
    size = comb(n - 1 + max_length, max_length)
    if budget is None:
        budget = size
    if not any(bands):
        # Nothing can flag, so the walk would only count the tree.
        limb_width(max_length)  # refuses a length above the cap
        stats.visited = min(size, budget)
        stats.exhaustive = size <= budget
        return
    # A memo value packs a subtree's totals as flagged << tally | visited.
    tally = size.bit_length()
    tally_mask = (1 << tally) - 1
    limbs = limb_layout(G, max_length)
    top = limbs.top
    offsets = [band and (limbs.offset(band[0]), limbs.offset(band[1]),
                         limbs.offset(band[2]) if len(band) > 2 else None)
               for band in bands]
    terms = all_elements(G)
    term_ops = _limb_adders(G, limbs.width)
    # memo_until[d]: the children of length d appended with a term below
    # it, those rooting subtrees of at least MEMO_MIN multisets (k = n - c
    # terms from c on), take the memo's path.  memo[c] holds the subtrees
    # rooted at a child appended with term c.
    memo_until = [n + 1 - next((k for k in range(1, n)
                                if comb(k + max_length - d, k) >= MEMO_MIN), n)
                  for d in range(max_length + 1)]
    memo = [{} for _ in range(n)]
    occurrences: list[GroupElement] = []
    nodes = 1
    # flagged - held is the number of multisets yielded so far.
    flagged = held = entries = hits = 0
    band = offsets[0]
    if band is not None and (1 + band[0]) & ~(1 + band[1]) & top:
        flagged = 1
        if band[2] is not None and (1 + band[2]) & top == top:
            held = 1
        else:
            yield occurrences, 1
    # One frame per multiset on the current path shorter than max_length:
    # its packed counts, the next term's element index and its mark, (term,
    # nodes, flagged, held) on entry when the memo may store its subtree
    # and None otherwise.  Terms are appended in nondecreasing index, so
    # each multiset is reached once.
    frames = [[1, 1, None]] if max_length else []
    while frames:
        frame = frames[-1]
        x, c, mark = frame
        depth = len(frames)  # the length of this frame's children
        if depth == max_length:
            # The children are leaves: visit them here, without frames.
            leaves = range(c, n)
            nodes += len(leaves)
            truncated = nodes > budget
            if truncated:
                # Cut to the budget; the walk ends after this batch.
                leaves = leaves[:len(leaves) + budget - nodes]
                nodes = budget
                stats.exhaustive = False
            band = offsets[depth]
            if band is not None:
                lo_offset, hi_offset, floor_offset = band
                for c in leaves:
                    y = x
                    for lo, ls, hi, rs in term_ops[c]:
                        y = ((y << ls) & lo) | ((y >> rs) & hi)
                    y += x
                    if (y + lo_offset) & ~(y + hi_offset) & top:
                        flagged += 1
                        if floor_offset is not None and (y + floor_offset) & top == top:
                            held += 1
                            continue
                        occurrences.append(terms[c])
                        yield occurrences, y
                        occurrences.pop()
            if truncated:
                break
        elif c < n:
            frame[1] = c + 1
            if nodes >= budget:
                stats.exhaustive = False
                break
            # translate() inlined: this is the per-node step.
            y = x
            for lo, ls, hi, rs in term_ops[c]:
                y = ((y << ls) & lo) | ((y >> rs) & hi)
            child = x + y
            mark = None
            if c < memo_until[depth]:
                total = memo[c].get(child)
                if total is not None and nodes + (total & tally_mask) <= budget:
                    nodes += total & tally_mask
                    total >>= tally
                    flagged += total
                    held += total
                    hits += 1
                    continue
                mark = (c, nodes, flagged, held)
            nodes += 1
            occurrences.append(terms[c])
            band = offsets[depth]
            if band is not None and (child + band[0]) & ~(child + band[1]) & top:
                flagged += 1
                if band[2] is not None and (child + band[2]) & top == top:
                    held += 1
                else:
                    yield occurrences, child
            frames.append([child, c, mark])
            continue
        frames.pop()
        if mark is not None:
            c, visited0, flagged0, held0 = mark
            if depth == 2:
                # A child of the root: no later child is appended with c.
                memo[c] = None
            elif entries < MEMO_CAP and flagged - flagged0 == held - held0:
                # Store a subtree walked in full that yielded nothing.
                memo[c][x] = (flagged - flagged0) << tally | (nodes - visited0)
                entries += 1
        if occurrences:
            occurrences.pop()
    stats.visited = nodes
    stats.flagged = flagged
    stats.entries = entries
    stats.hits = hits


def attaining_sweep(G: Group, D: int, max_length: int,
                    stats: SweepStats | None = None):
    """Yield (occurrence tuple, members) for each zero-free multiset up to
    ``max_length`` with a count of exactly 2^(len-D+1), in ``sweep_counts``
    order, walked by it; the members are the elements with that count."""
    limbs = limb_layout(G, max_length)
    for occ, packed in sweep_counts(G, max_length, _attained_bands(D, max_length),
                                    stats=stats):
        yield tuple(occ), _extremal_members(G, limbs, packed, len(occ) - D + 1)


def extremal_sweep(G: Group, D: int, max_length: int,
                   stats: SweepStats | None = None):
    """Yield (occurrence tuple, extremal members, orbit) for each extremal
    sequence up to ``max_length``: a zero-free multiset whose zero count is
    2^(len-D+1), in ``sweep_counts`` order; the members are the elements
    with that count.  It skips every multiset whose zero count exceeds
    2^(max_length-D+1), cuts the walk by Aut(G) and expands each orbit it
    reaches, with the same stream (``symmetry.extremal_orbits``): the
    budget counts the multisets walked and the orbit members expanded, and
    a truncated sweep yields exactly the entries up to ``stats.last``.
    ``orbit`` is the occurrence tuple of the least member of the entry's
    Aut(G) orbit, yielded before the rest of it, so a check that Aut(G)
    preserves need run only once per key; it is None for an entry that is
    alone in its orbit.
    """
    from .symmetry import extremal_orbits  # see the symmetry module notes

    yield from extremal_orbits(G, D, max_length, stats)
