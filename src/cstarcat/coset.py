"""Bounded Todd-Coxeter coset enumeration over the trivial subgroup.

Used to decide, within a table budget, whether a finitely presented group is
finite, and if so to enumerate its elements with deterministic representative
words. Letters are encoded as ``2*i`` for generator ``i`` and ``2*i + 1`` for
its inverse; inverse relators are added automatically, so every letter is
traced and completed tables are fully defined.

HLT strategy: scan live cosets in increasing label order, force-define every
letter edge, then trace every relator and merge the endpoints. Deterministic
by construction.
"""

from __future__ import annotations

import math

SENTINEL = -1

#: the default table budget of every coset enumeration and of its callers
DEFAULT_BUDGET = 10000


class CosetEnumeration:
    """Enumerate the elements of <g_0..g_{n-1} | relators> up to ``budget``
    table rows. ``relators`` are tuples of letters multiplying to 1."""

    def __init__(self, ngens: int, relators, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.ngens = ngens
        self.nletters = 2 * ngens
        self.budget = budget
        self.relators = []
        for rel in relators:
            rel = tuple(rel)
            for letter in rel:
                if not 0 <= letter < self.nletters:
                    raise ValueError(f"letter {letter} out of range")
            if rel:
                self.relators.append(rel)
        for i in range(ngens):
            self.relators.append((2 * i, 2 * i + 1))
            self.relators.append((2 * i + 1, 2 * i))
        self.labels: list[int] = []
        self.table: list[list[int]] = []
        self.complete = False
        self._order: int | None = None
        self._words: list[tuple[int, ...]] | None = None
        self._add_coset()

    # -- core table operations ------------------------------------------------

    def _add_coset(self) -> int:
        c = len(self.labels)
        self.labels.append(c)
        self.table.append([SENTINEL] * self.nletters)
        return c

    def find(self, c: int) -> int:
        while self.labels[c] != c:
            self.labels[c] = self.labels[self.labels[c]]
            c = self.labels[c]
        return c

    def _step(self, c: int, letter: int) -> int:
        c = self.find(c)
        nxt = self.table[c][letter]
        if nxt == SENTINEL:
            nxt = self._add_coset()
            self.table[c][letter] = nxt
        return self.find(nxt)

    def follow(self, c: int, word) -> int:
        for letter in word:
            c = self._step(c, letter)
        return c

    def _merge(self, a: int, b: int):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            keep, drop = (a, b) if a < b else (b, a)
            self.labels[drop] = keep
            for letter in range(self.nletters):
                na, nb = self.table[keep][letter], self.table[drop][letter]
                if na == SENTINEL:
                    self.table[keep][letter] = nb
                elif nb != SENTINEL:
                    queue.append((na, nb))

    # -- enumeration ------------------------------------------------------------

    def run(self) -> bool:
        """Scan until closure or budget exhaustion. Returns True when the
        enumeration completed (the group is finite with ``order()`` elements),
        False when the budget was exceeded."""
        scan = 0
        while scan < len(self.labels):
            if len(self.labels) > self.budget:
                return False
            if self.find(scan) == scan:
                for letter in range(self.nletters):
                    self._step(scan, letter)
                for rel in self.relators:
                    self._merge(self.follow(scan, rel), scan)
                    if self.find(scan) != scan:
                        break
            scan += 1
        if len(self.labels) > self.budget:
            return False
        self._compress()
        self.complete = True
        return True

    def _compress(self):
        live = [c for c in range(len(self.labels)) if self.find(c) == c]
        renumber = {old: new for new, old in enumerate(live)}
        table = []
        for old in live:
            row = [renumber[self.find(n)] for n in self.table[old]]
            table.append(row)
        self.table = table
        self.labels = list(range(len(live)))
        self._order = len(live)

    # -- queries on a completed enumeration ---------------------------------------

    def order(self) -> int:
        if not self.complete:
            raise RuntimeError("enumeration has not completed")
        return self._order

    def act(self, c: int, word) -> int:
        for letter in word:
            c = self.table[c][letter]
        return c

    def words(self) -> list[tuple[int, ...]]:
        """Deterministic representative words: breadth-first from the
        identity coset, letters in increasing order."""
        if not self.complete:
            raise RuntimeError("enumeration has not completed")
        if self._words is not None:
            return self._words
        reps: dict[int, tuple[int, ...]] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for letter in range(self.nletters):
                    d = self.table[c][letter]
                    if d not in reps:
                        reps[d] = reps[c] + (letter,)
                        nxt.append(d)
            frontier = nxt
        self._words = [reps[c] for c in range(self._order)]
        return self._words

    def multiply(self, a: int, b: int) -> int:
        """Product of elements (as coset indices): a . b."""
        return self.act(a, self.words()[b])


def invert_word(word) -> tuple[int, ...]:
    return tuple(letter ^ 1 for letter in reversed(word))


def exponent_rank(ngens: int, relators) -> int:
    """The rank over Q of the exponent-sum matrix of ``relators``, whose
    entry (r, i) is the exponent sum of generator i in relator r.

    It is the rank of the relation module of the abelianization, so when it
    is below ``ngens`` the group maps onto Z and is infinite (Sims,
    *Computation with Finitely Presented Groups*, 1994). Rows are
    reduced against pivot rows in integer arithmetic, and each reduced row
    is divided by the gcd of its entries, so its entries stay bounded by
    minors of the matrix; the scan stops once the rank reaches ``ngens``."""
    pivots: dict[int, list[int]] = {}
    for rel in relators:
        if len(pivots) == ngens:
            break
        row = [0] * ngens
        for letter in rel:
            row[letter >> 1] += -1 if letter & 1 else 1
        for col in range(ngens):
            if not row[col]:
                continue
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            lead, here = pivot[col], row[col]
            row = [lead * v - here * w for v, w in zip(row, pivot)]
            content = math.gcd(*row)
            if content > 1:
                row = [v // content for v in row]
    return len(pivots)
