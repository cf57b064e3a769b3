"""Synchronized multi-track DFA algebra over Zeckendorf digit tuples.

A SyncDFA reads k digits per step, one per track, msd-first.  Tuples of
naturals are encoded by left-padding every track with zeros to a common
length.  Constructed automata keep two invariants:

  * transitions are total; a dead sink absorbs whatever falls off, and
  * where a construction says so, every track is a valid Zeckendorf
    string (no "11"), and the language contains exactly the paddings of
    the tuples of the recognized relation.

Symbols are integers: the digit of track t occupies bit t, so a column
(d_0, ..., d_{k-1}) is sum(d_t << t).

`minimize`, `product`, `complement`, `project`, `constrain` (with
`linear` and its instances `adder`, `const_add` and `const_multiple`)
and `compile_regex` return minimal automata in canonical numbering, so
equal languages give equal objects.  `project` erases a track
existentially by one subset construction; universal quantification is
its dual through `complement`, and `compile_regex` determinizes its
Thompson NFA through the same construction (`_subsets`).
`expand_insert` and `remap_tracks` do not: they prepare operands for the
one minimizing `product` or `constrain` of a formula node.
`expand_insert` also makes the inserted tracks canonical; the compiler
needs that only for the operands of `or` and for a track that a linear
constraint adds.

The constructions walk only the raw states they reach, over transition
tables as lists, and key each raw state by one Python int: a mixed-radix
code of the part states in a product, carry id and state in a
constraint, a bitmask in a subset construction.  Only minimization
refines whole arrays.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .numeration import _fib_weights_upto, zeck_decode, zeck_encode
from .record import Record, _set


class SyncDFA(Record):
    """Complete DFA over the 2^arity digit-tuple alphabet.

    Both arrays are made read-only here, because cached automata are
    shared by every caller.  Equality and hashing compare the bytes.
    """

    __slots__ = ("arity", "transitions", "initial", "final")

    def __init__(self, arity: int, transitions: np.ndarray, initial: int,
                 final: np.ndarray):
        # transitions: int32[state, symbol] -> state; final: bool[state],
        # the accepting states
        t, f = transitions, final
        if (t.dtype != np.int32 or f.dtype != bool or f.ndim != 1
                or t.shape != (len(f), 1 << arity)
                or not 0 <= initial < len(f)):
            raise ValueError("need int32[states, 2^arity], bool[states] "
                             "and an initial state")
        t.flags.writeable = False
        f.flags.writeable = False
        _set(self, "arity", arity)
        _set(self, "transitions", t)
        _set(self, "initial", initial)
        _set(self, "final", f)

    def _key(self) -> tuple:
        return (self.arity, self.initial, self.transitions.tobytes(),
                self.final.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, SyncDFA) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_symbols(self) -> int:
        return 1 << self.arity


def _dfa(arity: int, rows, initial: int, final) -> SyncDFA:
    """SyncDFA from any nested sequence of rows and acceptance flags."""
    t = np.array(rows, dtype=np.int32).reshape(-1, 1 << arity)
    return SyncDFA(arity, t, initial, np.array(final, dtype=bool))


def columns_of(values: tuple[int, ...] | list[int]) -> list[int]:
    """Synchronized symbol sequence (msd-first) for a tuple of naturals."""
    digits = [zeck_encode(v) for v in values]
    width = max((len(d) for d in digits), default=0)
    padded = [d.rjust(width, "0") for d in digits]
    return [sum((padded[t][i] == "1") << t for t in range(len(values)))
            for i in range(width)]


def accepts(a: SyncDFA, values: tuple[int, ...] | list[int]) -> bool:
    """Run the canonical padded encoding of the tuple through the automaton."""
    if len(values) != a.arity:
        raise ValueError(f"expected {a.arity} values, got {len(values)}")
    q = a.initial
    for sym in columns_of(values):
        q = a.transitions[q, sym]
    return bool(a.final[q])


_BATCH_ROWS = 1 << 15  # rows per chunk of accepts_batch, to stay in cache


def accepts_batch(a: SyncDFA, values: np.ndarray) -> np.ndarray:
    """Vectorized accepts over an (N, arity) array of naturals."""
    try:
        values = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("values must be below 2**63") from None
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    n, k = values.shape
    if k != a.arity:
        raise ValueError(f"expected arity {a.arity}, got {k}")
    if values.min(initial=0) < 0:
        raise ValueError("values must be naturals")
    top = int(values.max(initial=0))
    weights = _fib_weights_upto(top) if top else ()
    # as in accepts, each tuple is padded to its own width: a row starts
    # in an added state, a.initial but for a loop on the all-zero column
    table = np.vstack((a.transitions, a.transitions[a.initial]))
    table[-1, 0] = a.n_states
    flat = table.ravel().astype(np.intp)
    final = np.append(a.final, a.final[a.initial])
    out = np.empty(n, dtype=bool)
    for lo in range(0, n, _BATCH_ROWS):
        tracks = values[lo:lo + _BATCH_ROWS].T.copy()  # one row per track
        states = np.full(tracks.shape[1], a.n_states, dtype=np.intp)
        for w in reversed(weights):
            code = states * a.n_symbols
            for t, rem in enumerate(tracks):
                d = rem >= w
                rem -= d * w
                code += d.astype(np.intp) << t
            states = flat[code]
        out[lo:lo + _BATCH_ROWS] = final[states]
    return out


# ---------------------------------------------------------------------------
# validity (canonical-representation) automata


@lru_cache(maxsize=None)
def validity_automaton(arity: int) -> SyncDFA:
    """Canonical universe: every track a valid Zeckendorf string.

    State m < 2^arity is the mask of the tracks whose last digit was 1;
    state 2^arity is a dead sink.
    """
    n_sym = 1 << arity
    rows = [[n_sym if m & s else s for s in range(n_sym)]
            for m in range(n_sym)]
    rows.append([n_sym] * n_sym)
    return _dfa(arity, rows, 0, [True] * n_sym + [False])


# ---------------------------------------------------------------------------
# minimization (Moore refinement) and canonical numbering


_FOLD_LIMIT = 1 << 62  # every folded key stays at or below this, in int64


def _dense(key: np.ndarray) -> tuple[np.ndarray, int]:
    """(ids, count): ids 0..count-1 numbering the distinct values of key
    in ascending order, by one argsort, a mask of the steps between
    adjacent sorted values and its cumsum."""
    order = key.argsort()
    ordered = key[order]
    step = np.empty(key.size, dtype=bool)
    step[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    ranks = step.cumsum()
    ids = np.empty_like(ranks)
    ids[order] = ranks
    return ids, int(ranks[-1]) + 1


def _fold(cols: np.ndarray, count: int) -> np.ndarray:
    """Key per column of cols, equal for two columns exactly when they
    are equal; every value in cols is below count.

    The rows are folded in runs.  A run of r rows is one int64
    matrix-vector product with the weights count**(r-1), ..., 1, and is
    as long as its keys can stay at or below _FOLD_LIMIT.  Between runs
    the key is relabelled by _dense and written over the run's last row,
    which starts the next run with the relabelled count as its bound.
    cols is overwritten.
    """
    lo = hi = 0
    bound = 1  # the key of cols[lo:hi] is below bound
    while True:
        while hi < len(cols) and bound * count <= _FOLD_LIMIT:
            bound *= count
            hi += 1
        weights = count ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64)
        key = weights @ cols[lo:hi]
        if hi == len(cols):
            return key
        lo = hi - 1
        cols[lo], bound = _dense(key)


def minimize(a: SyncDFA) -> SyncDFA:
    """Unique minimal complete DFA in canonical (BFS, symbol-ascending) numbering.

    Minimal canonical automata for the same language are structurally equal.

    Moore refinement runs over every state, reachable or not, because it
    splits states by their languages alone.  It starts from the blocks of
    the `final` mask itself, one block when every state agrees.  A round
    is a few numpy calls whatever the arity: one gather of every symbol's
    successor blocks, from a transposed contiguous copy of the table,
    under each state's own block; one int64 matrix-vector product
    (_fold) per run of rows whose mixed-radix key stays below 2^62, with
    a relabel between runs; and one relabel to dense ids by argsort
    (_dense).  Rounds stop when the block count stops growing.  A round
    costs O(2^arity * n + n log n) and there are at most n rounds.  The
    quotient, one representative row per block, is walked by BFS from the
    initial block with symbols ascending, which numbers the reachable
    blocks and drops the rest; so the result depends on the coarsest
    congruence alone, not on how the rounds numbered its blocks.
    """
    t = a.transitions
    tt = np.ascontiguousarray(t.T, dtype=np.intp)  # tt[s]: successors on s
    block = (a.final != a.final[0]).astype(np.int64)  # state 0's block is 0
    count = 1 + int(block.any())
    cols = np.empty((len(tt) + 1, len(block)), dtype=np.int64)
    while True:
        cols[0] = block
        block.take(tt, out=cols[1:])
        key, new = _dense(_fold(cols, count))
        if new == count:
            break
        block, count = key, new

    rep = np.empty(count, dtype=np.intp)
    rep[block] = np.arange(block.size)
    qt = block[t[rep]]
    succ = qt.tolist()
    order = [int(block[a.initial])]
    seen = set(order)
    for b in order:  # appending while iterating: a queue
        for nxt in succ[b]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    number = np.empty(count, dtype=np.intp)
    number[order] = np.arange(len(order))
    return SyncDFA(a.arity, number[qt[order]].astype(np.int32), 0,
                   a.final[rep[order]])


def moore_state_count(a: SyncDFA) -> int:
    """Independent minimal state count by iterated signature refinement."""
    seen = np.zeros(a.n_states, dtype=bool)
    seen[a.initial] = True
    while True:
        grown = seen.copy()
        grown[a.transitions[seen]] = True
        if (grown == seen).all():
            break
        seen = grown
    index = np.cumsum(seen) - 1
    t = index[a.transitions[seen]]
    block = a.final[seen].astype(np.int64)
    n_blocks = len(np.unique(block))
    while True:
        sig = np.concatenate([block.reshape(-1, 1), block[t]], axis=1)
        _, block = np.unique(sig, axis=0, return_inverse=True)
        count = len(np.unique(block))
        if count == n_blocks:
            return count
        n_blocks = count


def live_states(a: SyncDFA) -> np.ndarray:
    """Mask of the states from which an accepting state is reachable."""
    live = a.final.copy()
    while True:
        grew = live[a.transitions].any(axis=1) | live
        if (grew == live).all():
            return live
        live = grew


def live_state_count(a: SyncDFA) -> int:
    """States from which acceptance is reachable; the dead sink is not counted."""
    return int(live_states(a).sum())


# ---------------------------------------------------------------------------
# boolean algebra, projection, track surgery


# accepting[2*(a accepts) + (b accepts)] for each product mode
_PRODUCT_MODES = {"and": (False, False, False, True),
                  "or": (False, True, True, True),
                  "imp": (True, True, False, True),
                  "iff": (True, False, False, True)}


def _walk(parts: tuple[SyncDFA, ...], accept) -> SyncDFA:
    """Reachable part of the synchronous product of `parts`, not minimized.

    A state (q_0, ..., q_{k-1}) is keyed by one mixed-radix int, the sum
    of q_i * place_i, where place_i is the product of the state counts of
    the parts after i.  Each part's transition table, as lists, is scaled
    by its place value up front, so the codes of a state's successors are
    the elementwise sums of its parts' rows.  A BFS numbers the codes in
    order of discovery, as it would the tuples.  accept(flags) decides
    the states from the tuple of per-part acceptance arrays.
    """
    places, place = [], 1
    for p in reversed(parts):
        places.append(place)
        place *= p.n_states
    places.reverse()
    radix = [([[q * w for q in row] for row in p.transitions.tolist()],
              w, p.n_states) for p, w in zip(parts, places)]
    start = sum(p.initial * w for p, w in zip(parts, places))
    index = {start: 0}
    order = [start]
    rows = []
    for code in order:  # appending while iterating: a queue
        succ = None
        for table, w, n in radix:
            row = table[code // w % n]
            succ = row if succ is None else map(operator.add, succ, row)
        row = []
        for nxt in succ:
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(order)
                order.append(nxt)
            row.append(j)
        rows.append(row)
    flags = tuple(p.final[[code // w % p.n_states for code in order]]
                  for p, w in zip(parts, places))
    return _dfa(parts[0].arity, rows, 0, accept(flags))


def product(a: SyncDFA, b: SyncDFA, mode: str) -> SyncDFA:
    """a and b, a or b, a => b ("imp") or a <=> b ("iff"); minimal, canonical.

    The operands need the same tracks but need not be minimal.  "imp" and
    "iff" accept where neither operand does, so like `complement` they
    are relative to the canonical universe: the same walk also runs
    validity_automaton(arity) and the result holds canonical tuples only.
    """
    if a.arity != b.arity:
        raise ValueError(f"arity mismatch: {a.arity} vs {b.arity}")
    table = _PRODUCT_MODES.get(mode)
    if table is None:
        raise ValueError(f"bad product mode {mode!r}")
    parts = (a, b, validity_automaton(a.arity)) if table[0] else (a, b)
    return minimize(_walk(parts, lambda f: np.array(table)[2 * f[0] + f[1]]
                          & np.logical_and.reduce(f[2:])))


def complement(a: SyncDFA) -> SyncDFA:
    """Complement relative to the canonical-representation universe."""
    flipped = SyncDFA(a.arity, a.transitions, a.initial, ~a.final)
    return product(flipped, validity_automaton(a.arity), "and")


def remap_tracks(a: SyncDFA, new_arity: int, positions: tuple[int, ...]) -> SyncDFA:
    """Move track i of `a` to track positions[i] of a new_arity-track automaton.

    Positions must be distinct.  Tracks of the result not listed are
    unconstrained here; callers add validity for genuinely new tracks.
    """
    if len(positions) != a.arity or len(set(positions)) != a.arity:
        raise ValueError("positions must list each old track once")
    if any(not 0 <= p < new_arity for p in positions):
        raise ValueError("position out of range")
    sym_map = [sum(((s >> p) & 1) << i for i, p in enumerate(positions))
               for s in range(1 << new_arity)]
    return SyncDFA(new_arity, a.transitions[:, sym_map], a.initial, a.final)


def expand_insert(a: SyncDFA, new_arity: int, positions: tuple[int, ...]) -> SyncDFA:
    """remap_tracks plus validity on the inserted tracks, not minimized:
    the reachable walk that the one minimizing `product` or `constrain`
    then takes."""
    inserted = tuple(sorted(set(range(new_arity)) - set(positions)))
    wide = remap_tracks(a, new_arity, positions)
    if not inserted:
        return wide
    valid = remap_tracks(validity_automaton(len(inserted)), new_arity,
                         inserted)
    return _walk((wide, valid), np.logical_and.reduce)


def project(a: SyncDFA, track: int) -> SyncDFA:
    """Erase one track: existential (E) quantification; keep leading-zero
    closure.  A is its dual, complement(project(complement(a), track)).

    The NFA start set is everything reachable from the initial state by
    columns that are zero outside the erased track, which is exactly the
    closure needed so shorter representations of the remaining tracks
    stay accepted when the witness needs more digits.  Subsets of the
    states of `a` are int bitmasks, and for each new symbol a member's
    successors are one mask, so a subset's successor is the OR of its
    members' masks; a subset accepts when some member accepts.
    """
    if not 0 <= track < a.arity:
        raise ValueError("track out of range")
    if a.arity == 0:
        raise ValueError("cannot project an arity-0 automaton")
    new_arity = a.arity - 1
    low_mask = (1 << track) - 1
    base = [s & low_mask | (s >> track) << (track + 1)
            for s in range(1 << new_arity)]
    # cols[s_new][q]: q's successors on the two old symbols that erase to
    # s_new, as a bitmask; s_new = 0 gives the closure steps
    table = a.transitions.tolist()
    cols = [[1 << row[s] | 1 << row[s | 1 << track] for row in table]
            for s in base]
    mask = sum(1 << q for q, f in enumerate(a.final.tolist()) if f)
    return _subsets(new_arity, cols, _reach(cols[0], 1 << a.initial), mask)


def _reach(step: list[int], mask: int) -> int:
    """The members of mask and every member that step leads to from them:
    step[q] is the bitmask of q's successors."""
    frontier = _members(mask)
    while frontier:
        new = step[frontier.pop()] & ~mask
        mask |= new
        frontier += _members(new)
    return mask


def _subsets(arity: int, cols: list[list[int]], start: int,
             mask: int) -> SyncDFA:
    """Minimal DFA of the subset construction from the bitmask start.

    cols[s][q] is the bitmask of member q's successors on symbol s, so a
    subset's successor is the OR of its members' masks.  A subset accepts
    when it meets mask.
    """
    index = {start: 0}
    sets = [start]
    rows: list[list[int]] = []
    for cur in sets:  # appending while iterating: a queue
        members = _members(cur)
        row = []
        for col in cols:
            nxt = 0
            for q in members:
                nxt |= col[q]
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(sets)
                sets.append(nxt)
            row.append(j)
        rows.append(row)
    return minimize(_dfa(arity, rows, 0, [bool(m & mask) for m in sets]))


def _members(mask: int) -> list[int]:
    """The states of a subset given as a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def decide_true(a: SyncDFA) -> bool:
    """Verdict of an arity-0 automaton; acceptance must not depend on padding."""
    if a.arity != 0:
        raise ValueError("decide_true needs an arity-0 automaton")
    q = a.initial
    verdicts = []
    for _ in range(a.n_states + 1):
        verdicts.append(bool(a.final[q]))
        q = a.transitions[q, 0]
    if any(v != verdicts[0] for v in verdicts):
        raise AssertionError("arity-0 automaton not padding-invariant")
    return verdicts[0]


# ---------------------------------------------------------------------------
# tuple-regex compiler


class RegexError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _RegexParser:
    """([d,...,d] | 0 | 1 | (...) | concat | '|' | '*') over a fixed arity."""

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.pos = 0
        # NFA under construction: eps[q] is the bitmask of q's epsilon
        # successors, and edges lists each symbol edge (q, sym, target)
        self.eps: list[int] = []
        self.edges: list[tuple[int, int, int]] = []

    def _new_state(self) -> int:
        self.eps.append(0)
        return len(self.eps) - 1

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> SyncDFA:
        start, end = self._alt()
        self._skip_ws()
        if self.pos != len(self.text):
            raise RegexError(f"unexpected {self.text[self.pos]!r}", self.pos)
        # a subset holds its epsilon closure, so a symbol takes member q
        # to the closure of its edge's target
        closed = [_reach(self.eps, 1 << q) for q in range(len(self.eps))]
        cols = [[0] * len(self.eps) for _ in range(1 << self.arity)]
        for q, sym, target in self.edges:
            cols[sym][q] = closed[target]
        return _subsets(self.arity, cols, closed[start], 1 << end)

    def _alt(self) -> tuple[int, int]:
        first = self._concat()
        branches = [first]
        while self._peek() == "|":
            self.pos += 1
            branches.append(self._concat())
        if len(branches) == 1:
            return first
        s, e = self._new_state(), self._new_state()
        for bs, be in branches:
            self.eps[s] |= 1 << bs
            self.eps[be] |= 1 << e
        return s, e

    def _concat(self) -> tuple[int, int]:
        parts = []
        while True:
            c = self._peek()
            if c in ("", "|", ")"):
                break
            parts.append(self._factor())
        if not parts:
            s = self._new_state()
            return s, s
        for (_, e1), (s2, _) in zip(parts, parts[1:]):
            self.eps[e1] |= 1 << s2
        return parts[0][0], parts[-1][1]

    def _factor(self) -> tuple[int, int]:
        frag = self._atom()
        while self._peek() == "*":
            self.pos += 1
            s, e = self._new_state(), self._new_state()
            fs, fe = frag
            self.eps[s] |= 1 << fs | 1 << e
            self.eps[fe] |= 1 << fs | 1 << e
            frag = (s, e)
        return frag

    def _atom(self) -> tuple[int, int]:
        c = self._peek()
        if c == "(":
            self.pos += 1
            frag = self._alt()
            if self._peek() != ")":
                raise RegexError("expected ')'", self.pos)
            self.pos += 1
            return frag
        if c == "[":
            open_pos = self.pos
            self.pos += 1
            digits = []
            while True:
                d = self._peek()
                if d not in ("0", "1"):
                    raise RegexError("expected digit 0 or 1", self.pos)
                digits.append(int(d))
                self.pos += 1
                nxt = self._peek()
                if nxt == ",":
                    self.pos += 1
                    continue
                if nxt == "]":
                    self.pos += 1
                    break
                raise RegexError("expected ',' or ']'", self.pos)
            if len(digits) != self.arity:
                raise RegexError(
                    f"tuple width {len(digits)} != arity {self.arity}", open_pos)
            sym = sum(d << i for i, d in enumerate(digits))
            return self._symbol_edge(sym)
        if c in ("0", "1"):
            if self.arity != 1:
                raise RegexError("bare digit needs arity 1", self.pos)
            self.pos += 1
            return self._symbol_edge(int(c))
        raise RegexError(f"unexpected {c!r}" if c else "unexpected end", self.pos)

    def _symbol_edge(self, sym: int) -> tuple[int, int]:
        s, e = self._new_state(), self._new_state()
        self.edges.append((s, sym, e))
        return s, e


def compile_regex(pattern: str, arity: int) -> SyncDFA:
    """Thompson construction, then `project`'s subset construction over
    epsilon closures, and minimization.

    The language is exactly the regex language over raw digit tuples;
    canonicality is NOT imposed here.  Its callers, PredicateEnv.lookup
    and logic.sequence_atom_automaton, intersect the result with
    validity_automaton before any use, which drops non-canonical words
    such as those with shift's [1,1] columns.  The raw automaton is kept
    only as a reg's stored `dfa`: a session reports its live states, and
    the tests pin its digest.
    """
    if arity < 0:
        raise ValueError("arity must be >= 0")
    return _RegexParser(pattern, arity).parse()


# ---------------------------------------------------------------------------
# linear constraints


_RELATIONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _least_over_lengths(a: int, b: int) -> int | None:
    """min over s >= 0 of G_s = a*F_{s+2} + b*F_{s+1}, or None if it is -inf.

    G_{s+1} = G_s + G_{s-1}, so once two consecutive terms are both >= 0
    the sequence never falls again, and once both are <= 0 and not both
    zero it falls without bound.  The phi^s part of G_s soon outweighs
    the psi^s part, so one of the two comes after O(log(|a| + |b|)) steps.
    """
    x, y = a + b, 2 * a + b  # G_0, G_1
    least = min(x, y)
    while True:
        if x >= 0 and y >= 0:
            return least
        if x <= 0 and y <= 0:
            return None
        x, y = y, x + y
        least = min(least, y)


def _carry_verdict(holds, c: int, pos: int, neg: int, u: int, v: int
                   ) -> bool | None:
    """holds(sum, c) if every canonical continuation of carry (u, v) gives
    the same verdict, else None.

    With s canonical digits left the final sum lies in [lo_s, hi_s] with
    lo_s = (u-neg)*F_{s+2} + v*F_{s+1} + neg and hi_s = (u+pos)*F_{s+2} +
    v*F_{s+1} - pos, where pos and neg are the sums of the positive and
    negative coefficients.  Every sum over every s lies in [lo, hi], the
    infimum of lo_s and the supremum of hi_s.  A relation to c is
    constant on each of x <= c-1, x = c and x >= c+1, so its values on
    [lo, hi] are its values at c-1, c and c+1 clamped into [lo, hi];
    for that an unbounded lo acts as c-1 and an unbounded hi as c+1.
    """
    lo = _least_over_lengths(u - neg, v)
    hi = _least_over_lengths(-u - pos, -v)
    lo = c - 1 if lo is None else lo + neg
    hi = c + 1 if hi is None else -hi - pos
    verdicts = {holds(min(max(x, lo), hi), c) for x in (c - 1, c, c + 1)}
    return verdicts.pop() if len(verdicts) == 1 else None


def constrain(a: SyncDFA, coeffs: tuple[int, ...], rel: str, c: int) -> SyncDFA:
    """The tuples `a` accepts that also satisfy sum(coeffs[i]*x_i) rel c.

    Precondition: `a` is canonical (no adjacent 1 digits) on every track
    with a nonzero coefficient.

    Only reachable pairs (state of `a`, carry) are built.  With s digits
    left, the digits read so far are worth u*F_{s+2} + v*F_{s+1}, so a
    column whose digits weigh d = sum(coeffs[i]*digit_i) steps the carry
    (u, v) -> (u + v + d, u), and the sum is u + v at the end.  Pairs
    whose state of `a` is not live share one dead state.

    Each new carry is decided once (`_carry_verdict`).  If the relation
    holds whatever canonical digits follow, the carry becomes True and
    (q, True) follows `a` alone; if it fails whatever follows, the pair
    is the dead state.  Only undecided carries are walked on, and they
    are finitely many.  A carry with u, v >= B = max(pos, neg) + |c| + 1
    ends above c, and one with u, v <= -B below it, so both are decided.
    A step maps u*phi + v to phi*(u*phi + v + d) and u*psi + v to
    psi*(u*psi + v + d), so only finitely many carries are reached
    before u and v are both >= B or both <= -B.

    The walk is keyed by ints: the True carry has id 0, each undecided
    carry the next id when it is first reached, and the pair (q, carry
    id i) is i*n_states + q.
    """
    if len(coeffs) != a.arity:
        raise ValueError(f"expected {a.arity} coefficients, got {len(coeffs)}")
    holds = _RELATIONS.get(rel)
    if holds is None:
        raise ValueError(f"unknown relation {rel!r}")
    pos = sum(x for x in coeffs if x > 0)
    neg = -sum(x for x in coeffs if x < 0)
    weight = [sum(x for i, x in enumerate(coeffs) if s >> i & 1)
              for s in range(a.n_symbols)]
    n = a.n_states
    # carries[i]: the carry of id i, True for one decided to hold; a
    # carry decided to fail has no id.  code[carry]: its id times n, or
    # -1 for a failed carry.  steps[i]: the codes of the carries after
    # each symbol, filled when id i is first walked.
    carries: list[tuple[int, int] | bool] = [True]
    code: dict[tuple[int, int], int] = {}
    steps: list[list[int] | None] = [[0] * a.n_symbols]

    def resolve(carry: tuple[int, int]) -> int:
        k = code.get(carry)
        if k is None:
            verdict = _carry_verdict(holds, c, pos, neg, *carry)
            if verdict is None:
                k = len(carries) * n
                carries.append(carry)
                steps.append(None)
            else:
                k = 0 if verdict else -1
            code[carry] = k
        return k

    # a pair (q, carry id i) is i*n + q; every pair whose state is not
    # live (-1 in table) or whose carry failed is the dead state, -1
    live = live_states(a).tolist()
    table = [[q2 if live[q2] else -1 for q2 in row]
             for row in a.transitions.tolist()]
    start = resolve((0, 0))
    start = start + a.initial if start >= 0 and live[a.initial] else -1
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    for pair in order:  # appending while iterating: a queue
        if pair < 0:
            rows.append([index[-1]] * a.n_symbols)
            continue
        i, q = divmod(pair, n)
        nexts = steps[i]
        if nexts is None:
            u, v = carries[i]
            nexts = steps[i] = [resolve((u + v + w, u)) for w in weight]
        row = []
        for q2, k in zip(table[q], nexts):
            nxt = k + q2 if q2 >= 0 <= k else -1
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(order)
                order.append(nxt)
            row.append(j)
        rows.append(row)
    final = a.final.tolist()
    accepting = [True] + [holds(sum(carry), c) for carry in carries[1:]]
    return minimize(_dfa(a.arity, rows, 0,
                         [pair >= 0 and final[pair % n]
                          and accepting[pair // n] for pair in order]))


@lru_cache(maxsize=None)
def linear(coeffs: tuple[int, ...], rel: str, c: int) -> SyncDFA:
    """Canonical tuples with sum(coeffs[i]*x_i) rel c."""
    return constrain(validity_automaton(len(coeffs)), coeffs, rel, c)


@lru_cache(maxsize=None)
def adder() -> SyncDFA:
    """The 3-track relation x + y = z."""
    return linear((1, 1, -1), "=", 0)


@lru_cache(maxsize=None)
def const_add(c: int) -> SyncDFA:
    """Two-track relation y = x + c for a natural c."""
    return linear((1, -1), "=", -_natural(c))


@lru_cache(maxsize=None)
def const_multiple(c: int) -> SyncDFA:
    """Two-track relation y = c*x for a natural c."""
    return linear((_natural(c), -1), "=", 0)


def _natural(c: int) -> int:
    if c < 0:
        raise ValueError(f"constant must be a natural, got {c}")
    return c


# ---------------------------------------------------------------------------
# enumeration


def enumerate_accepted(a: SyncDFA, limit: int) -> list:
    """Accepted tuples with every component <= limit, ascending.

    Walks the row-major grid of all (limit+1)^arity tuples in chunks of
    _BATCH_ROWS, so the rows come out in lexicographic (hence per-track
    numeric) order.  Arity 1 returns ints; higher arities return tuples.
    """
    if a.arity == 0:
        raise ValueError("enumerate needs arity >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    side = limit + 1
    total = side ** a.arity
    out: list = []
    for lo in range(0, total, _BATCH_ROWS):
        flat = np.arange(lo, min(lo + _BATCH_ROWS, total), dtype=np.int64)
        grid = np.stack(np.unravel_index(flat, (side,) * a.arity), axis=1)
        hits = grid[accepts_batch(a, grid)].tolist()
        out.extend(map(tuple, hits) if a.arity > 1 else (h[0] for h in hits))
    return out


_MAX_WORD_LEN = 4000  # first_accepted_words looks no further


def first_accepted_words(a: SyncDFA, k: int) -> list[list[int]]:
    """First k accepted canonical words in length-then-lex (numeric) order.

    A canonical word is empty or starts with a nonzero column.  Stops
    early when no live state remains reachable.  Raises ValueError when
    words of _MAX_WORD_LEN columns give fewer than k and a live state
    lies beyond them.
    """
    if a.arity == 0:
        raise ValueError("needs arity >= 1")
    t, final = a.transitions.tolist(), a.final.tolist()
    found: list[list[int]] = [[]] if final[a.initial] else []
    live = live_states(a).tolist()
    exact = [final]  # exact[r][q]: accepting reachable in exactly r steps
    frontier = {t[a.initial][s] for s in range(1, a.n_symbols)}
    down = range(a.n_symbols - 1, -1, -1)
    length = 1
    while len(found) < k and length <= _MAX_WORD_LEN:
        prev = exact[-1]
        exact.append([any(prev[r] for r in row) for row in t])
        if not any(live[q] for q in frontier):
            break
        # lexicographic DFS, first column nonzero: a stack entry is
        # (depth, symbol, state after it), and word is the prefix so far
        word: list[int] = []
        row, reach = t[a.initial], exact[length - 1]
        stack = [(0, s, row[s]) for s in down[:-1] if reach[row[s]]]
        while stack and len(found) < k:
            depth, s, state = stack.pop()
            del word[depth:]
            word.append(s)
            if depth + 1 == length:
                found.append(word[:])
                continue
            row, reach = t[state], exact[length - depth - 2]
            stack += [(depth + 1, s, row[s]) for s in down if reach[row[s]]]
        frontier = {r for q in frontier for r in t[q]}
        length += 1
    if len(found) < k and any(live[q] for q in frontier):
        raise ValueError(f"found {len(found)} of {k} words within "
                         f"{_MAX_WORD_LEN} columns, the search limit")
    return found[:k]


def largest_accepted(a: SyncDFA) -> int | None:
    """Largest value of the canonical words a 1-track automaton accepts,
    or None when it accepts infinitely many of them or none.

    Precondition: every word `a` accepts is a valid Zeckendorf string, as
    in the canonical constructions here (`complement`, `linear`, a
    compiled predicate).  Then a longer canonical word has a larger value,
    and among words of one length the msd-first lexicographic order is
    the numeric one.

    A canonical word is empty (value 0) or starts with digit 1, so the
    walk starts in the state after that digit and never sees the
    initial state's leading zeros.  Two steps:

      * a backward pass over the live states reachable from there, in
        Kahn's order (a state is taken once each live successor edge is
        done): a state left over lies on a cycle or leads to one, so
        the words are infinitely many; otherwise the pass gives each
        state's exact longest distance to acceptance;
      * a greedy walk msd-first, taking digit 1 before 0 whenever the
        remaining longest distance is still reachable after it.
    """
    if a.arity != 1:
        raise ValueError(f"largest_accepted needs arity 1, got {a.arity}")
    t = a.transitions.tolist()
    live = live_states(a).tolist()
    start = t[a.initial][1]
    if not live[start]:
        return 0 if a.final[a.initial] else None
    succ: dict[int, list[int]] = {}  # live successors, per symbol
    stack = [start]
    while stack:
        q = stack.pop()
        if q not in succ:
            succ[q] = [r for r in t[q] if live[r]]
            stack += succ[q]
    preds: dict[int, list[int]] = {q: [] for q in succ}
    for q, rs in succ.items():
        for r in rs:
            preds[r].append(q)
    pending = {q: len(rs) for q, rs in succ.items()}
    ready = [q for q, n in pending.items() if not n]
    longest: dict[int, int] = {}  # digits left to the farthest acceptance
    while ready:
        q = ready.pop()
        longest[q] = max((1 + longest[r] for r in succ[q]), default=0)
        for p in preds[q]:
            pending[p] -= 1
            if not pending[p]:
                ready.append(p)
    if len(longest) < len(succ):
        return None
    digits, q = "1", start
    while longest[q]:
        for d in (1, 0):
            if longest.get(t[q][d]) == longest[q] - 1:
                break
        digits += str(d)
        q = t[q][d]
    return zeck_decode(digits)


def word_to_values(word: list[int], arity: int) -> tuple[int, ...]:
    strings = word_to_track_strings(word, arity)
    return tuple(zeck_decode(s) for s in strings)


def word_to_track_strings(word: list[int], arity: int) -> tuple[str, ...]:
    return tuple("".join(str((sym >> t) & 1) for sym in word)
                 for t in range(arity))


# ---------------------------------------------------------------------------
# export


def to_dot(a: SyncDFA) -> str:
    """DOT drawing of the live part (dead sink omitted), one line per transition."""
    live = live_states(a)
    lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for q in range(a.n_states):
        if not live[q]:
            continue
        shape = "doublecircle" if a.final[q] else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {a.initial};")
    for q in range(a.n_states):
        if not live[q]:
            continue
        for s in range(a.n_symbols):
            nxt = a.transitions[q, s]
            if not live[nxt]:
                continue
            label = "[" + ",".join(str((s >> i) & 1) for i in range(a.arity)) + "]"
            lines.append(f'  {q} -> {nxt} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_text(a: SyncDFA) -> str:
    """Plain-text dump of the complete automaton."""
    lines = [f"arity {a.arity} / states {a.n_states} / initial {a.initial}",
             "accepting: " + " ".join(str(q) for q in np.flatnonzero(a.final))]
    for q in range(a.n_states):
        for s in range(a.n_symbols):
            label = "[" + ",".join(str((s >> i) & 1) for i in range(a.arity)) + "]"
            lines.append(f"{q} {label} -> {a.transitions[q, s]}")
    return "\n".join(lines) + "\n"
