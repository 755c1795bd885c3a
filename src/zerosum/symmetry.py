"""The catalog walk cut by automorphisms, and the orbits it expands.

The zero count of a multiset and its extremal members move with any
automorphism of G, so a catalog need only walk one member of each orbit.
``cut_walk`` is ``counting.sweep_counts`` with a zero ceiling, cut as
``davenport.davenport_exact`` cuts its search: each frame carries the
bitmask of the subgroup <P> spanned by its multiset P, and a child c is
skipped when an automorphism that fixes <P> pointwise maps c below
itself, or when one maps c below the first term.  The ``davenport``
module notes show that no cut removes a prefix of the lex-least member L
of an orbit; the ceiling removes none either, since the zero count never
drops along a prefix.  So the cut walk visits L, before any other member
of its orbit.

``extremal_orbits`` is the pruned ``counting.extremal_sweep``.  It walks
the tree cut by Aut(G) (for |G| <= ``SYMMETRY_CAP``) and expands each
attaining multiset that no orbit holds yet into its orbit, a
breadth-first search over the strong generators of Aut(G) with the
extremal members mapped along.  A heap of the expanded orbits releases
each member before the walk's next attaining multiset above it, so the
stream is that of the uncut walk: the same multisets, in the same order,
with the same members.

Budget.  ``SweepStats.budget`` counts the multisets materialized: those
the walk visits and the orbit members expanded.  The walk sets
``stats.visited`` at each multiset that it yields, and its consumer adds
the members it expands for it; past the budget the walk ends there.  An
orbit is expanded only as far as the budget allows, so a walk never
holds more multisets than its budget, and an orbit that does not fit
ends the walk at the multiset being expanded.  ``stats.last`` keeps the
last multiset visited, and a truncated sweep yields exactly the entries
lex-at-most it: a prefix of the full stream.

This module is imported on first use, not with the package, and
``davenport_exact`` keeps its own copy of the span join: compiling this
code with the package moved where the garbage collector runs during the
import, and the benchmark's calibration probe read that as a slowdown of
a third on the ``lattice`` workload, which never runs it (see
``CHANGES.md``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import comb

from .counting import (
    SweepStats,
    _attained_bands,
    _extremal_members,
    _limb_adders,
    limb_layout,
    sweep_counts,
    translate,
)
from .groups import (
    Group,
    _Stabilizer,
    _automorphism_group,
    _fix_point,
    all_elements,
    element_index,
    elem_neg,
)

# Catalog walks cut by Aut(G) only up to this order: the tests check its
# Schreier–Sims chain against |Aut(G)| in closed form up to order 64, and
# the chain of C2^10 alone takes tens of seconds and hundreds of MiB.
SYMMETRY_CAP = 64


def _span_joins(G: Group, automorphisms: _Stabilizer):
    """The subgroups <P> spanned by the prefixes P of a walk over G, as
    bitmasks over element indices (bit 0 alone is the trivial subgroup),
    with the automorphisms that fix each of them pointwise: the function
    ``join`` and the dict ``stabilizers``, keyed by bitmask and starting
    from ``automorphisms`` at the trivial subgroup.

    ``join(span, c)`` is <P> + <c>, for an element index c not in <P>:
    the union of the cosets <P> + kc, each the last one translated by c
    with the width-1 table, until the coset is <P> again.  Its stabilizer
    is that of <P> fixing c, one ``_fix_point`` step.  Joins are kept per
    (<P>, c)."""
    adders = _limb_adders(G, 1)
    stabilizers = {1: automorphisms}
    joins: dict[tuple[int, int], int] = {}

    def join(span: int, c: int) -> int:
        if (span, c) not in joins:
            joined, coset = span, translate(span, adders[c])
            while coset != span:
                joined |= coset
                coset = translate(coset, adders[c])
            if joined not in stabilizers:
                stabilizers[joined] = _fix_point(stabilizers[span], c)
            joins[span, c] = joined
        return joins[span, c]

    return join, stabilizers


def _kept(low, aut_low, first: int) -> int:
    """The bitmask of the term positions p that the cut keeps below a
    multiset: those whose element p + 1 is the least of its orbit under
    the stabilizer with the orbit-minimum table ``low``, and whose Aut(G)
    orbit (table ``aut_low``) reaches nothing below ``first``, the element
    index of the first term (0 at the root)."""
    return sum(1 << i - 1 for i in range(1, len(low))
               if low[i] == i and aut_low[i] >= first)


def cut_walk(G: Group, max_length: int, bands: list, zero_ceiling: int,
             automorphisms: _Stabilizer, stats: SweepStats):
    """``counting.sweep_counts`` with a zero ceiling, cut by
    ``automorphisms`` (see the module notes), in the same order and with
    the same bands; it keeps no memo.  Its caller has checked the budget
    and the ceiling.  Without a budget it allows twice the size of the
    tree: the walk and the orbits each hold at most the tree."""
    count = G.order - 1  # the nonzero terms
    budget = stats.budget
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
    join, stabilizers = _span_joins(G, automorphisms)
    aut_low = automorphisms.orbit_min
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
    span_path, keep_path, first = [1], [_kept(aut_low, aut_low, 0)], 0
    while next_pos:
        pos = next_pos[-1]
        x = path_counts[-1]
        depth = len(next_pos)  # the length of this frame's children
        if depth == max_length:
            # The children are leaves: visit them here, without frames.
            low, keep = x & mask, keep_path[-1]
            leaves = [p for p in range(pos, count) if keep >> p & 1
                      and low + ((x >> neg_shift[p]) & mask) <= zero_ceiling]
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
            if (not keep_path[-1] >> pos & 1
                    or (x & mask) + ((x >> neg_shift[pos]) & mask) > zero_ceiling):
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
            span = span_path[-1]
            if not span >> pos + 1 & 1:
                span = join(span, pos + 1)
            if depth == 1:
                first = pos + 1
            keep = keeps.get((span, first))
            if keep is None:
                keep = keeps[span, first] = _kept(stabilizers[span].orbit_min, aut_low, first)
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
    each orbit expanded (see the module notes).  Past ``SYMMETRY_CAP``
    the walk is not cut."""
    limbs = limb_layout(G, max_length)
    mask = limbs.mask
    bands = _attained_bands(D, max_length)
    top = max_length - D + 1
    ceiling = 1 << top if top >= 0 else 0
    if not ceiling or G.order > SYMMETRY_CAP:
        for occ, packed in sweep_counts(G, max_length, bands, zero_ceiling=ceiling,
                                        stats=stats):
            exponent = len(occ) - D + 1
            if packed & mask == 1 << exponent:
                yield tuple(occ), _extremal_members(G, limbs, packed, exponent)
        return
    aut = _automorphism_group(G)
    stats = stats or SweepStats()
    elems, idx = all_elements(G), element_index(G)
    pending: list = []  # see _release
    for occ, packed in sweep_counts(G, max_length, bands, zero_ceiling=ceiling,
                                    automorphisms=aut, stats=stats):
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
            orbit = _orbit(aut.gens, key, members, room)
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
