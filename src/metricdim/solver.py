"""Exact minimum resolving sets via reduction to minimum hitting set.

For each unordered object pair (two vertices, or two edges) the set of
vertices whose distances to the two objects differ forms a distinguisher
family; a landmark set resolves the objects iff it intersects every family.
Minimum resolving set size is therefore a minimum hitting set, solved
exactly.  The families of all pairs are built at once from packed distance
rows (see ``_pair_masks``): each bit plane of the rows is one int of
fixed-width fields, and a block of pairs XORs every plane's repeated left
fields against its right fields and ORs the planes; an edge's row is the
sum of its ends' rows halved.  A universe of at most LATTICE_LIMIT = 16
vertices is solved by one closure over its subset lattice (see
``_lattice_solve``), whose 2**u-bit ints grow peak memory from u = 17 on
and by u = 18 cost about as much as the search below: every smaller subset
is ruled out, and ``nodes_explored`` counts the subsets a scan tests.  Its
families' int is filled a byte per family and packed when the families
are at least one per _SPARSE subsets, else a bit per family.  An
instance's families are checked once, when it is constructed (see
``DistinguisherInstance``), so no solver checks them again.  Past 16,
the reduction reads each landmark's column, the families it is in as bits
of one int, transposed from the masks in one place by 8x8 bit-block swaps
(see ``_transpose``): it counts family sizes in a bit-sliced binary counter
over the columns and, smallest first, drops the supersets of each kept
family by the AND of its columns; it lists the kept families largest first,
so the first family left in a set of them is its top bit.  One
witness search finds a hitting set of at most k allowed vertices, or
proves there is none: it prunes with a greedily built pairwise-disjoint-
family lower bound whose packing drops the families that meet a chosen
one by one lookup in a bounded per-solve cover table, branches on the
disjoint family with the fewest allowed vertices, bars a refuted branch's
vertex from its later siblings, and settles the children of a node with
k <= 2 itself; all its family sets are non-negative ints.
The value search starts from the greedy max-coverage set over the kept
families and asks for a set one smaller than the best found until the
search refutes one or the disjoint bound is met; a budget run out reports
that bound below and the best set found above.  The basis, the
lexicographically smallest optimal set, is grown one vertex at a time from
an optimal set carried along: its next vertex is taken unsearched, each
smaller one is tried by the same search, and a success replaces the set.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import comb, inf

from .graph_core import (
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
    _Record,
    _unchecked,
    bits,
    connected_distances,
)

# Universes larger than this require an explicit node budget.
FREE_SEARCH_LIMIT = 20
# Universes of at most this many vertices are solved on the subset lattice.
LATTICE_LIMIT = 16


class EmptyDistinguisherError(GraphError):
    """Two distinct objects share all distances; impossible for valid input."""


class BudgetExceededError(GraphError, RuntimeError):
    """Search node budget ran out; carries the best bounds found so far."""

    def __init__(self, kind: str, lower_bound: int, upper_bound: int,
                 best_known: tuple[int, ...], nodes_explored: int):
        super().__init__(
            f"search budget exhausted after {nodes_explored} nodes: "
            f"{lower_bound} <= {kind} value <= {upper_bound}"
        )
        self.kind = kind
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.best_known = best_known
        self.nodes_explored = nodes_explored


class DistinguisherInstance(_Record):
    """Hitting-set instance: one family per unordered object pair.

    ``kind`` is "vertex" or "edge"; ``universe`` is the candidate landmark
    count (vertex ids 0..universe-1);
    ``masks[i]`` is the distinguisher set of the i-th object pair as a
    bitmask, the pairs taken in ``itertools.combinations(objects, 2)``
    order, where the objects are ``range(G.n)`` for a vertex instance and
    ``G.edges()`` for an edge instance.  The constructor checks the
    families in ``__post_init__``; the builders below skip that (see
    ``graph_core._unchecked``), since their masks come from a checked ``Graph``.
    """

    def __init__(self, kind: str, universe: int, masks: tuple[int, ...]):
        self.__dict__.update(kind=kind, universe=universe, masks=masks)
        self.__post_init__()

    def __post_init__(self):
        if self.universe < 0:
            raise GraphInputError(f"a universe holds at least 0 vertices, got {self.universe}")
        low = min(self.masks, default=1)
        if not low:
            raise EmptyDistinguisherError(
                "a distinguisher family is empty; two distinct objects share all distances"
            )
        if low < 0 or max(self.masks, default=0) >> self.universe:  # a negative mask names every high vertex
            raise GraphInputError(f"a distinguisher family names a vertex outside 0..{self.universe - 1}")

    @cached_property
    def columns(self) -> list[int]:
        """``columns[v]``: the bitmask of the indices i with v in ``masks[i]``,
        transposed from the masks on first read (see ``_transpose``); not a
        field, so equality and hashing still see only the three fields."""
        return _transpose(self.masks, self.universe)


class DimensionCertificate(_Record):
    """A certified-minimum resolving set.

    ``basis`` is the lexicographically smallest optimal set.  ``optimal``
    is always True: a solve that stops before it is certified raises
    BudgetExceededError instead of returning a certificate.
    """

    def __init__(self, kind: str, value: int, basis: tuple[int, ...], optimal: bool, nodes_explored: int):
        self.__dict__.update(kind=kind, value=value, basis=basis, optimal=optimal, nodes_explored=nodes_explored)

    @property
    def nonempty_value(self) -> int:
        """Minimum size over nonempty resolving sets (differs from ``value``
        only when the empty set already resolves everything)."""
        return max(self.value, 1)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

_DISCONNECTED = "distinguisher instances require a connected graph"


def build_vertex_instance(G: Graph) -> DistinguisherInstance:
    """One family per vertex pair: the vertices at differing distance."""
    D = connected_distances(G, _DISCONNECTED)
    return _pair_masks("vertex", D.n, *_packed(D.rows))


def build_edge_instance(G: Graph) -> DistinguisherInstance:
    """One family per edge pair: the vertices at differing edge distance."""
    D = connected_distances(G, _DISCONNECTED)
    (rows, lane, width), edges = _packed(D.rows), G.edges()
    size = lane * width
    # the ends u, w of an edge are within 1 of each other's distances, so
    # min(d(u, x), d(w, x)) = (d(u, x) + d(w, x)) >> 1; the lanes hold the sum
    # without a carry, and the shift moves a bit only into a lane's top bit,
    # which is in no plane that _pair_masks reads
    total = sum([int.from_bytes(b"".join([rows[e[end] * size : e[end] * size + size] for e in edges]), "big")
                 for end in (0, 1)])
    return _pair_masks("edge", D.n, (total >> 1).to_bytes(len(edges) * size, "big"), lane, width)


# Bits of a block's int of pair masks in _pair_masks; bounds the build's peak memory.
_BLOCK_BITS = 1 << 16
# byte -> ASCII binary digit of its bit s, for s = 0..7
_BIT_DIGITS = [bytes(b"01"[v >> s & 1] for v in range(256)) for s in range(8)]
# struct format and array typecode of an unsigned int of each size in bytes, smallest first
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
# _transpose's delta swaps: (shift, a block's little-endian mask of the lower bit of each pair)
_SWAPS = ((7, b"\xaa\0" * 4), (14, b"\xcc\xcc\0\0" * 2), (28, b"\xf0" * 4 + b"\0" * 4))


def _packed(rows) -> tuple[bytes, int, int]:
    """The n distances of each row, all below n, as one field of ``width``
    big-endian lanes of ``lane`` bytes, landmark width - 1 first, 0 from n
    on; and (lane, width).  Two distances add in a lane without a carry; a
    field is 8, 16, 32 or 64 landmarks, else the multiple of 8 from n up."""
    n = len(rows[0])
    lane = 1 << ((n - 1).bit_length() // 8).bit_length()
    width = max(8, 1 << (n - 1).bit_length()) if n <= 64 else -(-n // 8) * 8
    values = list(chain.from_iterable([(0,) * (width - n) + row[::-1] for row in rows]))
    return struct.pack(f">{len(values)}{_CODES[lane]}", *values), lane, width


def _pair_masks(kind: str, n: int, packed: bytes, lane: int, width: int) -> DistinguisherInstance:
    """The instance of all pairs i < j of the ``packed`` rows (see
    ``_packed``), row-major: bit x of a mask is set where the two rows
    differ at landmark x; its columns are left to ``columns``.

    Bit plane b of all rows is one int of their fields, by one translate of
    the lanes' byte holding bit b into binary digits; a plane no row has is
    dropped.  For a block of rows i, field i repeated once per j > i is
    XOR-ed against the fields of those j, plane by plane, and the planes'
    XORs are OR-ed: the block is one int whose fields are its pairs' masks.
    """
    step, m = width // 8, len(packed) // (lane * width)  # bytes a field, rows
    planes = []
    for b in range((n - 1).bit_length()):
        plane = int(packed[lane - 1 - b // 8 :: lane].translate(_BIT_DIGITS[b % 8]), 2)
        if plane:  # else no row has bit b, as in an edge instance's top plane
            planes.append(plane.to_bytes(m * step, "big"))
    masks: list[int] = []
    i = 0
    while i < m - 1:
        # rows i..stop-1: at least one, at most _BLOCK_BITS of masks unless one row has more
        stop, count = i + 1, m - 1 - i
        if (m - i) * count // 2 * width <= _BLOCK_BITS:  # all the rest
            stop, count = m - 1, (m - i) * count // 2
        while stop < m - 1 and (count + m - 1 - stop) * width <= _BLOCK_BITS:
            count += m - 1 - stop
            stop += 1
        differ = 0
        for fields in planes:
            differ |= (int.from_bytes(b"".join([fields[r * step : r * step + step] * (m - 1 - r)
                                                 for r in range(i, stop)]), "big")
                       ^ int.from_bytes(b"".join([fields[r * step + step :] for r in range(i, stop)]), "big"))
        block = differ.to_bytes(count * step, "big")
        if step in _CODES:
            items = array(_CODES[step], block)
            if sys.byteorder == "little":
                items.byteswap()
            masks.extend(items)
        else:  # fields past 64 bits
            masks.extend([int.from_bytes(block[k : k + step], "big") for k in range(0, len(block), step)])
        i = stop
    return _unchecked(DistinguisherInstance, kind=kind, universe=n, masks=tuple(masks))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def greedy_upper_bound(inst: DistinguisherInstance) -> tuple[int, ...]:
    """Max-coverage greedy hitting set (ties to the smallest vertex id).
    Always returns a valid hitting set, hence a resolving set."""
    hits = inst.columns
    rem = (1 << len(inst.masks)) - 1
    chosen = []
    while rem:
        counts = [(rem & h).bit_count() for h in hits]
        v = counts.index(max(counts))  # the first, so ties go to the smallest id
        chosen.append(v)
        rem ^= rem & hits[v]
    return tuple(sorted(chosen))


def _disjoint_lb(sorted_masks) -> int:
    used = 0
    count = 0
    for m in sorted_masks:
        if not m & used:
            used |= m
            count += 1
    return count


def _transpose(masks, width: int) -> list[int]:
    """``hits[v]``: the bitmask of the indices i with v in ``masks[i]``, all
    below 2**width, less the zero columns past the last nonzero one.  The
    masks, and zeros up to a multiple of 8, are packed into the smallest 1, 2,
    4 or 8-byte fields that hold ``width`` bits (past 64, whole bytes); lane
    j, byte j (bits 8j..) of every field, in mask order.  The lanes, end to
    end, are one int; three delta swaps transpose each of its 8x8 bit blocks
    (Warren, Hacker's Delight, 7-3), so byte s of a lane's block b holds bit
    s of masks 8b..8b + 7, and a stride slice of bytes s, s + 8.. of lane j
    is column 8j + s."""
    step = next((size for size in _CODES if width <= 8 * size), -(-width // 8))
    count = -(-len(masks) // 8) * 8
    data = (array(_CODES[step], masks).tobytes() if step in _CODES
            else b"".join([m.to_bytes(step, sys.byteorder) for m in masks])) + bytes((count - len(masks)) * step)
    lanes = b"".join([data[j if sys.byteorder == "little" else step - 1 - j :: step] for j in range(-(-width // 8))])
    x = int.from_bytes(lanes, "little")
    for shift, pattern in _SWAPS:
        t = (x ^ x >> shift) & int.from_bytes(pattern * (len(lanes) // 8), "little")
        x ^= t ^ t << shift
    lanes = x.to_bytes(len(lanes), "little")
    hits = [int.from_bytes(lanes[at + s : at + count : 8], "little")
            for at in range(0, len(lanes), count or 1) for s in range(8)]
    while hits and not hits[-1]:
        hits.pop()
    return hits


def _minimal_families(masks, cols) -> tuple[list[int], list[int]]:
    """Distinct families with every superset of another dropped, largest
    first: in descending (cardinality, mask) order, so that the first in
    ascending order is the top bit of a set of them; and their transpose
    (see ``_transpose``).  ``cols`` is the transpose of ``masks``."""
    # bit-sliced binary counts: digits[i] holds the families whose size has bit i
    digits = [0] * len(cols).bit_length()
    for c in cols:
        i = 0
        while c:  # one ripple add of the families in column c
            digits[i], c = digits[i] ^ c, digits[i] & c
            i += 1
    kept, alive, size = [], (1 << len(masks)) - 1, 0
    while alive:
        size += 1
        # every smaller family is kept or contains a kept one, so an alive
        # family of the smallest alive size is minimal; it and its
        # supersets (duplicates included) leave
        level, start = alive, len(kept)
        for i, d in enumerate(digits):
            level = level & d if size >> i & 1 else level ^ (level & d)
        while level:
            f = masks[level.bit_length() - 1]
            kept.append(f)
            supersets = alive
            for v in bits(f):
                supersets &= cols[v]
            alive ^= supersets
            level ^= level & supersets
        kept[start:] = sorted(kept[start:])  # one size a level: (cardinality, mask) order
    kept.reverse()
    return kept, _transpose(kept, len(cols))


# ---------------------------------------------------------------------------
# exact solvers: the subset lattice, and branch and bound
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lattice(u: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(W, L, full) as 2**u-bit ints over the subsets X of range(u): bit X of
    ``W[i]`` is set iff i is not in X, of ``L[k]`` iff X has k members, and
    of ``full`` always."""
    if not u:
        return (), (1,), 1
    W, L, full = _lattice(u - 1)  # the lower half; the upper half's X hold u - 1
    half = 1 << (u - 1)
    return (tuple([w | w << half for w in W]) + (full,),
            tuple([a | b << half for a, b in zip(L + (0,), (0,) + L)]), full | full << half)


# The lattice marks one byte per family in a table of 2**u bytes, packed into
# the families' int afterwards, unless the table would hold more than _SPARSE
# bytes per family: then one bit per family, in 2**u / 8 bytes, with no pack.
# 80 is the measured crossover, where the pack costs what the byte fill saves.
_SPARSE = 80
# A byte table of at most this many subsets packs by one translate and parse.
_PARSE_LIMIT = 1 << 10
# byte 0 or 1 -> its ASCII binary digit
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _lattice_solve(inst: DistinguisherInstance, budget: int | None) -> DimensionCertificate:
    """The first hitting set in (size, ``itertools.combinations``) order:
    bit T of the families' int, closed up under adding each vertex, is set
    iff T holds a family, so the hitting sets are the complements of the T
    left clear.  ``nodes_explored``, the basis's position in that order, is
    what an exhaustive scan tests; past ``budget``, the sizes it covers
    bound the value below.

    The families' int is filled at the grain the instance's density pays
    for (see ``_SPARSE``): a byte per family, packed by one parse up to
    ``_PARSE_LIMIT`` subsets and by eight stride lanes past it, or a bit per
    family."""
    u, masks = inst.universe, inst.masks
    if not masks:
        return DimensionCertificate(inst.kind, 0, (), True, 0)
    size = 1 << u
    if len(masks) * _SPARSE < size:  # a bit per family; so u >= 7, and 2**u is whole bytes
        present = bytearray(size >> 3)
        for f in masks:
            present[f >> 3] |= 1 << (f & 7)
        covers = int.from_bytes(present, "little")
    else:  # a byte per family, packed
        present = bytearray(size)
        for f in masks:
            present[f] = 1
        if size <= _PARSE_LIMIT:
            covers = int(present.translate(_DIGIT)[::-1], 2)
        else:  # bit 8k + j of covers is byte 8k + j of present
            covers = 0
            for j in range(8):
                covers |= int.from_bytes(present[j::8], "little") << j
    W, L, full = _lattice(u)
    for i, w in enumerate(W):
        covers |= (covers & w) << (1 << i)
    free = full ^ covers  # the complements of the hitting sets
    value, found = next((k, sets) for k in range(u + 1) if (sets := L[u - k] & free))
    for w in W:  # keep the complements lacking i if any do: the basis holds i
        found = found & w or found
    found = found.bit_length() - 1  # the one complement left
    basis = tuple(i for i in range(u) if not found >> i & 1)
    # every smaller size, then the basis's lex rank within its size, plus 1
    nodes = sum(comb(u, j) for j in range(value + 1)) - sum(
        comb(u - 1 - v, value - t) for t, v in enumerate(basis))
    if budget is not None and nodes > budget:
        lower = max(1, sum(1 for tested in accumulate(comb(u, j) for j in range(u)) if tested <= budget))
        ub_set = greedy_upper_bound(inst)
        raise BudgetExceededError(inst.kind, lower, len(ub_set), ub_set, budget + 1)
    return DimensionCertificate(inst.kind, value, basis, True, nodes)


class _BudgetSignal(Exception):
    pass


# The cover table is emptied before an insert once its masks reach this many
# bits (1 MiB), so a long budgeted search keeps a fixed footprint.
_COVER_BITS = 1 << 23


class _Search:
    """Decision search over the reduced families, with a node budget.

    A set of families is a non-negative int over family indices (on wide
    ints CPython's ``~x``, ``-x`` and ``&`` with a negative operand are
    slow): choosing vertex v leaves ``rem & clear[v]``, ``clear[v] = full ^
    hits[v]``.  ``allow`` is the bitmask of usable vertices.  ``cover[f]``,
    for a family f cut down to its allowed vertices, is the AND of
    ``clear[v]`` over v in f: the families sharing no vertex with f.  It is
    filled on first use and shared by every call of one solve (see
    ``_COVER_BITS``).  A node with k <= 2 counts and settles its children
    itself: a k = 0 child holds iff no family is left; a k = 1 child packs
    the first family left, fails if that has no allowed vertex or another
    family left misses it, and else settles each leaf in ascending order.
    """

    __slots__ = ("fams", "full", "clear", "cap", "spent", "cover")

    def __init__(self, fams: list[int], hits: list[int], cap: int | None):
        self.fams = fams
        self.full = (1 << len(fams)) - 1
        self.clear = [self.full ^ h for h in hits]
        self.cap = inf if cap is None else cap
        self.spent = 0
        self.cover: dict[int, int] = {}

    def _fill(self, f: int) -> int:
        """``cover[f]``, computed and stored."""
        if len(self.cover) * len(self.fams) >= _COVER_BITS:
            self.cover.clear()
        left, clear = self.full, self.clear
        for v in bits(f):
            left &= clear[v]
        self.cover[f] = left
        return left

    def find(self, rem: int, k: int, allow: int) -> tuple[int, ...] | None:
        """A hitting set of at most k vertices of ``allow`` for the families
        in ``rem``, in the order the branches chose them, or None."""
        self.spent += 1
        if self.spent > self.cap:
            raise _BudgetSignal
        if not rem:
            return ()
        fams, clear, cover = self.fams, self.clear, self.cover
        # Greedy pairwise-disjoint families (of their allowed vertices), each
        # needing its own vertex; a family with no allowed vertex is never
        # cleared, so it is reached unless the bound already exceeds k.
        r, count, branch, least = rem, 0, 0, 0
        while r:
            f = fams[r.bit_length() - 1] & allow
            count += 1
            if not f or count > k:
                return None
            size = f.bit_count()
            if not branch or size < least:
                branch, least = f, size
            try:
                r &= cover[f]
            except KeyError:
                r &= self._fill(f)
        if k > 2:
            while branch:
                low = branch & -branch
                if (found := self.find(rem & clear[low.bit_length() - 1], k - 1, allow)) is not None:
                    return (low.bit_length() - 1, *found)
                allow &= ~low  # refuted: later siblings need not use this vertex
                branch ^= low
            return None
        spent, cap = self.spent, self.cap  # the children, counted here as find would count them
        try:
            while branch:
                low = branch & -branch
                v = low.bit_length() - 1
                rest = rem & clear[v]
                spent += 1
                if spent > cap:
                    raise _BudgetSignal
                if not rest:
                    return (v,)
                if k == 2 and (f := fams[rest.bit_length() - 1] & allow):
                    try:
                        left = cover[f]
                    except KeyError:
                        left = self._fill(f)
                    if not rest & left:
                        for w in bits(f):  # its leaves
                            spent += 1
                            if spent > cap:
                                raise _BudgetSignal
                            if not rest & clear[w]:
                                return (v, w)
                allow &= ~low
                branch ^= low
        finally:
            self.spent = spent
        return None


def _require_budget(universe: int, budget: int | None):
    """Refuse a negative budget, and a free search past FREE_SEARCH_LIMIT,
    before any other work."""
    if budget is not None and budget < 0:
        raise GraphInputError(f"search budget must be at least 0, got {budget}")
    if universe > FREE_SEARCH_LIMIT and budget is None:
        raise SizeLimitError(
            f"universe of {universe} vertices needs an explicit search budget "
            f"(free search is certified only up to {FREE_SEARCH_LIMIT})"
        )


def min_hitting_set(inst: DistinguisherInstance, budget: int | None = None) -> DimensionCertificate:
    """Certified minimum hitting set for a distinguisher instance.

    ``budget`` caps the number of search nodes, or of subsets tested on
    universes of at most LATTICE_LIMIT vertices; exhausting it raises
    BudgetExceededError carrying the best bounds found.  Universes above
    FREE_SEARCH_LIMIT vertices require an explicit budget.
    """
    _require_budget(inst.universe, budget)
    if inst.universe <= LATTICE_LIMIT:
        return _lattice_solve(inst, budget)
    return _branch_and_bound(inst, budget)


def _branch_and_bound(inst: DistinguisherInstance, budget: int | None) -> DimensionCertificate:
    """The value, top down from the greedy set, then the basis, by the
    witness search, counting its nodes."""
    fams, hits = _minimal_families(inst.masks, inst.columns)
    # the kept families' instance, its columns the reduction's transpose
    best = greedy_upper_bound(_unchecked(DistinguisherInstance, kind=inst.kind, universe=inst.universe,
                                         masks=tuple(fams), columns=hits))
    search = _Search(fams, hits, budget)
    lower = _disjoint_lb(reversed(fams))  # smallest first
    rem = (1 << len(fams)) - 1
    vertices = (1 << len(hits)) - 1
    try:
        while len(best) > lower and (found := search.find(rem, len(best) - 1, vertices)) is not None:
            best = tuple(sorted(found))
        value, basis = len(best), best
        # lex-smallest basis: extend the prefix by the smallest vertex that
        # still leaves a completion from larger vertices; the carried basis's
        # own next vertex does, so only the vertices below it are searched
        for i in range(value):
            for v in range(basis[i - 1] + 1 if i else 0, basis[i]):
                after = rem ^ (rem & hits[v])
                if (found := search.find(after, value - i - 1, vertices & (-1 << (v + 1)))) is not None:
                    basis = (*basis[:i], v, *sorted(found))
                    break
            rem ^= rem & hits[basis[i]]
    except _BudgetSignal:
        raise BudgetExceededError(inst.kind, lower, len(best), best, search.spent) from None
    return DimensionCertificate(inst.kind, value, basis, True, search.spent)


# ---------------------------------------------------------------------------
# dimension front ends
# ---------------------------------------------------------------------------


def metric_dimension(G: Graph, budget: int | None = None) -> DimensionCertificate:
    """Certified metric dimension with a lexicographically smallest basis."""
    _require_budget(G.n, budget)
    return min_hitting_set(build_vertex_instance(G), budget)


def edge_metric_dimension(G: Graph, budget: int | None = None) -> DimensionCertificate:
    """Certified edge metric dimension with a lexicographically smallest basis."""
    _require_budget(G.n, budget)
    return min_hitting_set(build_edge_instance(G), budget)
