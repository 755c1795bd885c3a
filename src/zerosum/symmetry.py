"""The library's pruned walk, its cut by automorphisms, and the orbits it
expands.

``pruned_walk`` walks the zero-free multisets whose zero count is at
most a ceiling, in the order of ``counting.sweep_counts`` and with its
bands.  The zero count of a multiset and its extremal members move with
any automorphism of G, so a catalog need only walk one member of each
orbit: given a group of automorphisms, the walk is cut as
``davenport.davenport_exact`` cuts its search.  Each frame carries the
bitmask of the subgroup <P> spanned by its multiset P (joined by
``davenport._span_joins``), and a child c is skipped when an
automorphism that fixes <P> pointwise maps c below itself, or when one
maps c below the first term.  The ``davenport`` module notes show that
no cut removes a prefix of the lex-least member L of an orbit; the
ceiling removes none either, since the zero count never drops along a
prefix.  So the cut walk visits L, before any other member of its
orbit.  Without a group the walk is not cut: the zero-sum-free
enumeration, and the catalogs past ``SYMMETRY_CAP``.

``extremal_orbits`` is the pruned ``counting.extremal_sweep``.  It walks
the tree cut by Aut(G) (for |G| <= ``SYMMETRY_CAP``; past it, with no
generators, each orbit is one member) and expands each attaining
multiset that no orbit holds yet into its orbit, a breadth-first search
over the strong generators of Aut(G) with the extremal members mapped
along.  A heap of the expanded orbits releases each member before the
walk's next attaining multiset above it, so the stream is that of the
uncut walk: the same multisets, in the same order, with the same
members.

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


def _kept(low, aut_low, first: int) -> int:
    """The bitmask of the term positions p that the cut keeps below a
    multiset: those whose element p + 1 is the least of its orbit under
    the stabilizer with the orbit-minimum table ``low``, and whose Aut(G)
    orbit (table ``aut_low``) reaches nothing below ``first``, the element
    index of the first term (0 at the root)."""
    return sum(1 << i - 1 for i in range(1, len(low))
               if low[i] == i and aut_low[i] >= first)


def pruned_walk(G: Group, max_length: int, bands: list, zero_ceiling: int,
                automorphisms: _Stabilizer | None, stats: SweepStats | None = None):
    """The library's pruned walk: ``counting.sweep_counts`` restricted to
    the multisets whose zero count is at most ``zero_ceiling``, in the
    same order, with the same bands, and cut by ``automorphisms`` (see
    the module notes); it keeps no memo.  None, for ``automorphisms``, is
    no cut: no span is joined, no stabilizer built and every position
    kept.  Appending a can only raise the zero count (N_0(S a) = N_0(S) +
    N_{-a}(S)), so a multiset above the ceiling is neither visited nor
    extended.  ``stats`` carries a budget in (see the module notes);
    without one the walk allows twice the size of the tree: the walk and
    the orbits each hold at most the tree."""
    stats = stats or SweepStats()
    budget = stats.budget
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    # Nothing to visit, or a ceiling below the empty multiset's N_0 = 1.
    if max_length < 0 or zero_ceiling < 1:
        return
    if budget is not None and budget < 1:
        stats.exhaustive = False
        return
    count = G.order - 1  # the nonzero terms
    if budget is None:
        budget = 2 * comb(count + max_length, max_length)
    limbs = limb_layout(G, max_length)
    mask, top = limbs.mask, limbs.top
    offsets = [band and (limbs.offset(band[0]), limbs.offset(band[1]),
                         limbs.offset(band[2]) if len(band) > 2 else None)
               for band in bands]
    idx = element_index(G)
    terms = all_elements(G)[1:]
    term_ops = _limb_adders(G, limbs.width)[1:]
    # Bit offset of the limb of -a: the child's zero count is the parent's
    # limb 0 plus its limb of -a.
    neg_shift = [idx[elem_neg(G, a)] * limbs.width for a in terms]
    if automorphisms is None:
        root_keep = (1 << count) - 1
    else:
        join, stabilizers = _span_joins(G, automorphisms)
        aut_low = automorphisms.orbit_min
        root_keep = _kept(aut_low, aut_low, 0)
        keeps: dict[tuple[int, int], int] = {}
    occurrences = []
    nodes = 1
    if nodes == budget:
        stats.last = ()
    flagged = 0
    band = offsets[0]
    if band is not None and (1 + band[0]) & ~(1 + band[1]) & top:
        flagged = 1
        if band[2] is None or (1 + band[2]) & top != top:
            stats.visited = nodes
            yield occurrences, 1
    # One frame per multiset on the current path shorter than max_length:
    # its packed counts, the next term position to try, the bitmask of
    # the subgroup it spans and the positions the cut keeps below it.
    path_counts = [1]
    next_pos = [0] if max_length else []
    span_path, keep_path, first = [1], [root_keep], 0
    while next_pos:
        pos = next_pos[-1]
        x = path_counts[-1]
        depth = len(next_pos)  # the length of this frame's children
        if depth == max_length:
            # The children are leaves: visit them here, without frames.
            low, keep = x & mask, keep_path[-1]
            leaves = [p for p in range(pos, count)
                      if low + ((x >> neg_shift[p]) & mask) <= zero_ceiling
                      and keep >> p & 1]
            nodes += len(leaves)
            truncated = nodes > budget
            if truncated:
                # Cut to the budget; the walk ends after this batch.
                leaves = leaves[:len(leaves) + budget - nodes]
                nodes = budget
            if nodes == budget and leaves:
                stats.last = (*occurrences, terms[leaves[-1]])
            resume = False
            band = offsets[depth]
            if band is not None:
                lo_offset, hi_offset, floor_offset = band
                for p in leaves:
                    y = x
                    for lo, ls, hi, rs in term_ops[p]:
                        y = ((y << ls) & lo) | ((y >> rs) & hi)
                    y += x
                    if not (y + lo_offset) & ~(y + hi_offset) & top:
                        continue
                    flagged += 1
                    if floor_offset is not None and (y + floor_offset) & top == top:
                        continue
                    # Count the batch up to p, whose consumer may
                    # materialize more, and resume it after p.
                    occurrences.append(terms[p])
                    nodes += leaves.index(p) + 1 - len(leaves)
                    stats.visited = nodes
                    yield occurrences, y
                    nodes = stats.visited
                    if nodes >= budget:
                        stats.last = tuple(occurrences)
                    occurrences.pop()
                    truncated = nodes > budget
                    if truncated:
                        nodes = budget
                    else:
                        next_pos[-1] = p + 1
                        resume = True
                    break
            if resume:
                continue
            if truncated:
                stats.exhaustive = False
                break
        elif pos < count:
            next_pos[-1] = pos + 1
            if ((x & mask) + ((x >> neg_shift[pos]) & mask) > zero_ceiling
                    or not keep_path[-1] >> pos & 1):
                continue
            if nodes >= budget:
                stats.exhaustive = False
                break
            y = x
            for lo, ls, hi, rs in term_ops[pos]:
                y = ((y << ls) & lo) | ((y >> rs) & hi)
            child = x + y
            nodes += 1
            occurrences.append(terms[pos])
            if nodes == budget:
                stats.last = tuple(occurrences)
            band = offsets[depth]
            if band is not None and (child + band[0]) & ~(child + band[1]) & top:
                flagged += 1
                if band[2] is None or (child + band[2]) & top != top:
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
            span, keep = span_path[-1], keep_path[-1]
            if automorphisms is not None:
                if not span >> pos + 1 & 1:
                    span = join(span, pos + 1)
                if depth == 1:
                    first = pos + 1
                keep = keeps.get((span, first))
                if keep is None:
                    keep = keeps[span, first] = _kept(stabilizers[span].orbit_min,
                                                      aut_low, first)
            path_counts.append(child)
            next_pos.append(pos)
            span_path.append(span)
            keep_path.append(keep)
            continue
        next_pos.pop()
        path_counts.pop()
        span_path.pop()
        keep_path.pop()
        if occurrences:
            occurrences.pop()
    stats.visited = nodes
    stats.flagged = flagged


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
    members), and queue the next member of its orbit.  ``pending`` is a
    heap of (sorted element indices, member indices, iterator over the
    orbit's members above them)."""
    key, members, rest = heappop(pending)
    image = next(rest, None)
    if image is not None:
        heappush(pending, (*image, rest))
    return tuple(map(elems.__getitem__, key)), frozenset(map(elems.__getitem__, members))


def extremal_orbits(G: Group, D: int, max_length: int, stats: SweepStats | None):
    """The pruned ``counting.extremal_sweep``: (occurrence tuple, extremal
    members) for each zero-free multiset up to ``max_length`` whose zero
    count is 2^(len-D+1), in walk order, from the walk cut by Aut(G) with
    each orbit expanded (see the module notes).  Past ``SYMMETRY_CAP``,
    and below cap D - 1, where the walk returns at once, it builds no
    group: the walk is not cut and each orbit is its one member."""
    limbs = limb_layout(G, max_length)
    mask = limbs.mask
    top = max_length - D + 1
    ceiling = 1 << top if top >= 0 else 0
    aut = _automorphism_group(G) if ceiling and G.order <= SYMMETRY_CAP else None
    gens = () if aut is None else aut.gens
    stats = stats or SweepStats()
    elems, idx = all_elements(G), element_index(G)
    pending: list = []  # see _release
    for occ, packed in pruned_walk(G, max_length, _attained_bands(D, max_length),
                                   ceiling, aut, stats):
        bound = 1 << (len(occ) - D + 1)
        if packed & mask != bound:
            continue
        members = limbs.flagged(limbs.equal(packed, bound))
        key = tuple(map(idx.__getitem__, occ))
        while pending and pending[0][0] < key:
            yield _release(pending, elems)
        if pending and pending[0][0] == key:
            _release(pending, elems)  # expanded with the least member of its orbit
        else:
            room = None if stats.budget is None else stats.budget - stats.visited
            orbit = _orbit(gens, key, members, room)
            if orbit is None:
                stats.visited += room + 1  # the orbit does not fit: the walk ends
            elif len(orbit) > 1:
                stats.visited += len(orbit) - 1
                rest = iter(orbit)
                next(rest)  # key, the least member
                heappush(pending, (*next(rest), rest))
        yield tuple(occ), frozenset(map(elems.__getitem__, members))
    # Past the budget, only the members up to the last multiset visited.
    last = None if stats.exhaustive else tuple(map(idx.__getitem__, stats.last or ()))
    while pending and (last is None or pending[0][0] <= last):
        yield _release(pending, elems)
