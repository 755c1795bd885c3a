"""The library's pruned walk, its cut by automorphisms, and the orbits it
expands.

``pruned_walk`` walks the zero-free multisets whose zero count is at
most a ceiling, in the order of ``counting.sweep_counts``, and yields
those whose zero count N_0 lies in the band of their length.  Its bands
read N_0 alone, the limb that the prune reads, and the ceiling is the top
of the largest band less 1: N_0 never drops along a prefix, so neither a
multiset above the ceiling nor any extension of it lies in a band.  It
visits every node, leaf or not, by one step: the ceiling and cut tests,
the budget, the band test, and the translation that computes the node's
counts only when it is yielded or extended, so a leaf is translated only
when it is yielded.

The zero count of a multiset and its extremal members move with
any automorphism of G, so a catalog need only walk one member of each
orbit: given a group of automorphisms, the walk is cut as
``davenport.davenport_exact`` cuts its search, on the same state: each
frame carries the bitmask of the subgroup <P> spanned by its multiset P
(joined by ``davenport._span_joins``) and ``low``, the ``orbit_min``
table of the automorphisms fixing <P> pointwise, and a child c is cut by
``low[c] < c or aut_low[c] < first``: an automorphism fixing <P> maps c
below itself, or one maps c below the first term.  The ``davenport``
module notes show that no cut removes a prefix of the lex-least member
L of an orbit; the ceiling removes none either, since the zero count
never drops along a prefix.  So the cut walk visits L, before any other
member of its orbit.  Without a group both tables are the identity: the
zero-sum-free enumeration, and the catalogs past ``SYMMETRY_CAP``.

``extremal_orbits`` is ``counting.extremal_sweep``.  It walks
the tree cut by Aut(G) (for |G| <= ``SYMMETRY_CAP``; past it, with no
generators, each orbit is one member) and expands each attaining
multiset that no orbit holds yet into its orbit, a breadth-first search
over the strong generators of Aut(G) with the extremal members mapped
along.  A heap of the expanded orbits releases each member before the
walk's next attaining multiset above it, so the stream is that of the
uncut walk: the same multisets, in the same order, with the same
members.  Each entry also names its orbit by the occurrences of the
orbit's least member, the one the walk visits, yielded before the rest;
the catalog sweeps check a statement that Aut(G) preserves once per
name (``structure._orbit_verdicts``).

Budget.  ``SweepStats.budget`` counts the multisets materialized: those
the walk visits and the orbit members expanded.  The walk sets
``stats.visited`` at each multiset that it yields, and its consumer adds
the members it expands for it; past the budget the walk ends there.  An
orbit is expanded only as far as the budget allows, so a walk never
holds more multisets than its budget, and an orbit that does not fit
ends the walk at the multiset being expanded.  ``stats.last`` keeps the
last multiset visited, and a truncated sweep yields exactly the entries
lex-at-most it: a prefix of the full stream.

This module is imported on first use, not with the package: compiling
this code with the package moved where the garbage collector runs during
the import, and the benchmark's calibration probe read that as a
slowdown of a third on the ``lattice`` workload, which never runs it
(see ``CHANGES.md``).  ``construct`` and the family branch of ``verify
equivalences`` load it, through the zero-sum-free enumeration.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import comb

from .counting import SweepStats, _attained_bands, _limb_adders, limb_layout
from .davenport import _span_joins
from .groups import (
    Group,
    _Stabilizer,
    _automorphism_group,
    all_elements,
    element_index,
    elem_neg,
)

# Catalog walks cut by Aut(G) only up to this order: the tests check its
# Schreier–Sims chain against |Aut(G)| in closed form up to order 64, and
# the chain of C2^10 alone takes tens of seconds and hundreds of MiB.
SYMMETRY_CAP = 64


def pruned_walk(G: Group, max_length: int, bands: list,
                automorphisms: _Stabilizer | None, stats: SweepStats | None = None):
    """The library's pruned walk: ``counting.sweep_counts`` restricted to
    the multisets whose zero count is below the largest hi of the bands,
    in the same order and cut by ``automorphisms`` (see the module notes);
    it keeps no memo.  ``bands[n]``, for each length n from 0 to
    ``max_length``, is None (yield nothing of length n) or (lo, hi): a
    multiset of length n is yielded, with its packed counts, when its zero
    count lies in [lo, hi).  Appending a can only raise the zero count
    (N_0(S a) = N_0(S) + N_{-a}(S)), so a multiset above the ceiling is
    neither visited nor extended.  Every node takes the same step, and a
    leaf outside its band is counted but never translated.  One frame per
    multiset on the path carries the state of ``davenport_exact``, whose
    test cuts a child; None, for ``automorphisms``, is no cut: no span is
    joined and no stabilizer built.
    ``stats`` carries a budget in (see the module notes); without one the
    walk allows twice the size of the tree: the walk and the orbits each
    hold at most the tree."""
    stats = stats or SweepStats()
    budget = stats.budget
    ceiling = max((band[1] for band in bands if band), default=0) - 1
    # Nothing to visit, or a ceiling below the empty multiset's N_0 = 1.
    if max_length < 0 or ceiling < 1:
        return
    if budget is not None and budget < 1:
        stats.exhaustive = False
        return
    n = G.order
    if budget is None:
        budget = 2 * comb(n - 1 + max_length, max_length)
    limbs = limb_layout(G, max_length)
    mask = limbs.mask
    elems, idx = all_elements(G), element_index(G)
    term_ops = _limb_adders(G, limbs.width)
    # Bit offset of the limb of -a: the child's zero count is the parent's
    # limb 0 plus its limb of -a.
    neg_shift = [idx[elem_neg(G, a)] * limbs.width for a in elems]
    if automorphisms is None:
        aut_low = range(n)
    else:
        join, stabilizers = _span_joins(G, automorphisms)
        aut_low = automorphisms.orbit_min
    occurrences = []
    nodes = 1
    if nodes == budget:
        stats.last = ()
    band = bands[0]
    if band is not None and band[0] <= 1 < band[1]:
        stats.visited = nodes
        yield occurrences, 1
    # One frame per multiset P on the current path shorter than max_length:
    # its packed counts, the next term's element index, the bitmask of <P>
    # and low.  The root's low is aut_low itself, so a root child that low
    # keeps has aut_low[c] = c, above every stale first.
    frames = [[1, 1, 1, aut_low]] if max_length else []
    first = 0
    while frames:
        frame = frames[-1]
        c = frame[1]
        if c < n:
            frame[1] = c + 1
            x = frame[0]
            zero = (x & mask) + ((x >> neg_shift[c]) & mask)
            if zero > ceiling:
                continue
            low = frame[3]
            if low[c] < c or aut_low[c] < first:
                continue
            if nodes >= budget:
                stats.exhaustive = False
                break
            nodes += 1
            occurrences.append(elems[c])
            if nodes == budget:
                stats.last = tuple(occurrences)
            depth = len(frames)  # the child's length
            band = bands[depth]
            yielded = band is not None and band[0] <= zero < band[1]
            if yielded or depth < max_length:
                y = x
                for lo, ls, hi, rs in term_ops[c]:
                    y = ((y << ls) & lo) | ((y >> rs) & hi)
                child = x + y
            if yielded:
                stats.visited = nodes
                yield occurrences, child
                if stats.visited > nodes:
                    # The consumer materialized more for this multiset.
                    nodes = stats.visited
                    if nodes >= budget:
                        stats.last = tuple(occurrences)
                    if nodes > budget:
                        nodes = budget
                        stats.exhaustive = False
                        break
            if depth == max_length:
                occurrences.pop()  # a leaf: no frame
                continue
            if depth == 1:
                first = c
            span = frame[2]
            if automorphisms is not None and not span >> c & 1:
                span = join(span, c)
                low = stabilizers[span].orbit_min
            frames.append([child, c, span, low])
            continue
        frames.pop()
        if occurrences:
            occurrences.pop()
    stats.visited = nodes


def _orbit(gens, key: tuple[int, ...], members: list[int], room: int | None):
    """The orbit of the multiset with the sorted element indices ``key``
    under the permutations ``gens`` of element indices, found breadth
    first: the sorted indices of each member with the images of
    ``members`` along the way, in lex order.  None when the orbit has
    more than ``room`` members besides ``key`` (None: no limit)."""
    orbit = {key: members}
    queue = [key]
    for terms in queue:
        images = orbit[terms]
        for g in gens:
            image = tuple(sorted(map(g.__getitem__, terms)))
            if image not in orbit:
                if room is not None and len(orbit) > room:
                    return None
                orbit[image] = list(map(g.__getitem__, images))
                queue.append(image)
    return sorted(orbit.items())


def _release(pending: list, elems) -> tuple:
    """Pop the least pending orbit member, as (occurrence tuple, extremal
    members, orbit key), and queue the next member of its orbit.
    ``pending`` is a heap of (sorted element indices, member indices,
    orbit key, iterator over the orbit's members above them)."""
    key, members, orbit, rest = heappop(pending)
    image = next(rest, None)
    if image is not None:
        heappush(pending, (*image, orbit, rest))
    return (tuple(map(elems.__getitem__, key)),
            frozenset(map(elems.__getitem__, members)), orbit)


def extremal_orbits(G: Group, D: int, max_length: int, stats: SweepStats | None):
    """``counting.extremal_sweep``: (occurrence tuple, extremal
    members, orbit key) for each zero-free multiset up to ``max_length``
    whose zero count is 2^(len-D+1), in walk order, from the walk cut by
    Aut(G) with each orbit expanded (see the module notes).  The orbit key
    is the occurrence tuple of the orbit's least member, which comes before
    every other member; it is None for a multiset alone in its orbit,
    which includes one whose orbit did not fit in the budget.  Past
    ``SYMMETRY_CAP``, and below cap D - 1, where the walk returns at once,
    it builds no group: the walk is not cut and each orbit is its one
    member."""
    limbs = limb_layout(G, max_length)
    aut = (_automorphism_group(G) if max_length >= D - 1 and G.order <= SYMMETRY_CAP
           else None)
    gens = () if aut is None else aut.gens
    stats = stats or SweepStats()
    elems, idx = all_elements(G), element_index(G)
    pending: list = []  # see _release
    for occ, packed in pruned_walk(G, max_length, _attained_bands(D, max_length),
                                   aut, stats):
        members = limbs.flagged(limbs.equal(packed, 1 << (len(occ) - D + 1)))
        key = tuple(map(idx.__getitem__, occ))
        while pending and pending[0][0] < key:
            yield _release(pending, elems)
        occ = tuple(occ)
        if pending and pending[0][0] == key:
            # Expanded with the least member of its orbit.
            orbit = _release(pending, elems)[2]
        else:
            room = None if stats.budget is None else stats.budget - stats.visited
            expanded = _orbit(gens, key, members, room)
            orbit = None
            if expanded is None:
                stats.visited += room + 1  # the orbit does not fit: the walk ends
            elif len(expanded) > 1:
                stats.visited += len(expanded) - 1
                rest = iter(expanded)
                next(rest)  # key, the least member
                orbit = occ
                heappush(pending, (*next(rest), orbit, rest))
        yield occ, frozenset(map(elems.__getitem__, members)), orbit
    # Past the budget, only the members up to the last multiset visited.
    last = None if stats.exhaustive else tuple(map(idx.__getitem__, stats.last or ()))
    while pending and (last is None or pending[0][0] <= last):
        yield _release(pending, elems)
