"""Cographic matroids and Tutte polynomials by memoized deletion-contraction.

The cographic matroid of a connected multigraph has the edges as ground set;
a subset is independent when deleting it leaves the graph connected, so the
rank is the first Betti number b1.  Its Tutte polynomial is the graphic one
with the variables exchanged, which is how everything here is computed: the
number of top-dimensional spheres in the matroid complex (the multiplicity
in every semismall decomposition downstream) is T_graphic(1, 0), and the
f- and h-vectors of the complex are read off T_graphic(1, y).  Independent
sets are enumerated only by the brute-force homology oracle.

Deletion-contraction processes a whole parallel class at a time: a bundle of
k parallel edges contributes x + y + ... + y^(k-1) when it is a cut and
splits into a full deletion plus a geometric-series-weighted contraction
otherwise.  The spectral dual graphs are dense with large multiplicities, so
bundling (plus a process-wide memo cache keyed by canonical graph form) is
what keeps the recursion shallow.  The recursion runs on the pair
multiplicities {(u, v): k} alone; no edge list is built below the top.
"""

from __future__ import annotations

import threading
from math import comb

from .graphs import betti1, pairs_canonical_key, pairs_connected


class TuttePolynomial:
    """Sparse bivariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for (i, j), c in dict(coeffs).items():
                if c:
                    self.coeffs[(int(i), int(j))] = int(c)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def y_geometric(cls, k):
        """1 + y + ... + y^(k-1)."""
        return cls({(0, j): 1 for j in range(k)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TuttePolynomial(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return TuttePolynomial(out)

    def evaluate(self, x, y):
        total = 0
        for (i, j), c in self.coeffs.items():
            total += c * (x ** i) * (y ** j)
        return total

    def terms(self):
        """Sorted coefficient list [((i, j), c)], highest monomial first."""
        return sorted(self.coeffs.items(), key=lambda t: t[0], reverse=True)

    def __eq__(self, other):
        return isinstance(other, TuttePolynomial) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for (i, j), c in self.terms():
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i == 1:
                factors.append("x")
            elif i > 1:
                factors.append("x^%d" % i)
            if j == 1:
                factors.append("y")
            elif j > 1:
                factors.append("y^%d" % j)
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return "TuttePolynomial(%r)" % (self.coeffs,)


class TutteCache:
    """Thread-safe memo map canonical graph key -> Tutte polynomial.

    Writes for the same key always carry the same value, so last-write-wins
    updates are harmless when several threads share one cache.
    """

    def __init__(self):
        self._data = {}
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def put(self, key, poly):
        with self._lock:
            self._data[key] = poly

    def __len__(self):
        return len(self._data)

    def items(self):
        with self._lock:
            return list(self._data.items())

    def load(self, items):
        with self._lock:
            for key, poly in items:
                self._data[key] = poly

    def clear(self):
        with self._lock:
            self._data.clear()


DEFAULT_CACHE = TutteCache()


class CographicMatroid:
    """Matroid on the edge positions of a connected multigraph.

    A subset of edges is independent exactly when removing it keeps the
    graph connected; the rank is b1 = s - r + 1.
    """

    __slots__ = ("graph", "rank")

    def __init__(self, graph):
        if not graph.is_connected():
            raise ValueError("cographic matroid requires a connected graph")
        self.graph = graph
        self.rank = betti1(graph)

    @property
    def size(self):
        return self.graph.edge_count

    def is_independent(self, subset):
        """True iff the graph stays connected after deleting the given edges."""
        subset = set(subset)
        for i in subset:
            if not (0 <= i < self.size):
                raise ValueError("edge index %r out of range" % (i,))
        return self.graph.without_edges(subset).is_connected()

    def independent_sets(self):
        """Yield every independent set as a sorted tuple, smallest sets first per branch."""

        def extend(current, start):
            yield tuple(current)
            for e in range(start, self.size):
                current.append(e)
                if self.is_independent(current):
                    yield from extend(current, e + 1)
                current.pop()

        yield from extend([], 0)

    def bases(self):
        """Maximal independent sets; all have size equal to the rank."""
        return [iset for iset in self.independent_sets() if len(iset) == self.rank]


def _merge(pairs, a, b):
    """Identify vertex b with a < b in a multiplicity map; b leaves the numbering."""

    def rename(v):
        if v == b:
            v = a
        return v - 1 if v > b else v

    out = {}
    for (u, v), k in pairs.items():
        u, v = sorted((rename(u), rename(v)))
        out[(u, v)] = out.get((u, v), 0) + k
    return out


def _tutte(r, pairs, cache):
    """Tutte polynomial of the connected multigraph with the given pair multiplicities."""
    key = pairs_canonical_key(r, pairs)
    hit = cache.get(key)
    if hit is not None:
        return hit

    loops = sum(k for (u, v), k in pairs.items() if u == v)
    core = {(u, v): k for (u, v), k in pairs.items() if u != v}
    if not core:
        poly = TuttePolynomial.one()
    else:
        (u, v), k = max(core.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        del core[(u, v)]
        contracted = _merge(core, u, v)
        if pairs_connected(r, core):
            poly = _tutte(r, core, cache) + TuttePolynomial.y_geometric(k) * _tutte(r - 1, contracted, cache)
        else:
            # the bundle is a cut: the last surviving edge is a bridge
            factor = TuttePolynomial.monomial(1, 0) + TuttePolynomial(
                {(0, j): 1 for j in range(1, k)}
            )
            poly = factor * _tutte(r - 1, contracted, cache)
    if loops:
        poly = TuttePolynomial.monomial(0, loops) * poly
    cache.put(key, poly)
    return poly


def tutte_polynomial(graph, cache=None):
    """Tutte polynomial of the graphic matroid of a connected multigraph.

    Memoized deletion-contraction on parallel classes of the pair
    multiplicities; the memo cache is keyed by canonical graph form and
    shared across the process by default.
    """
    if not graph.is_connected():
        raise ValueError("Tutte polynomial requires a connected graph")
    if cache is None:
        cache = DEFAULT_CACHE
    return _tutte(graph.vertex_count, graph.pair_multiplicities(), cache)


def top_betti(graph, cache=None):
    """Number of top-dimensional spheres in the matroid complex of the cographic matroid.

    Computed as T_graphic(1, 0), which equals the cographic evaluation
    T(0, 1).  A graph with b1 = 0 has the one-point complex; by convention
    the count is 1 there, so the open stratum always carries multiplicity 1.
    """
    if not graph.is_connected():
        raise ValueError("top_betti requires a connected graph")
    if betti1(graph) == 0:
        return 1
    return tutte_polynomial(graph, cache=cache).evaluate(1, 0)


def f_h_vectors(matroid, cache=None):
    """f- and h-vector of the matroid complex; exact integers.

    f[i] is the number of independent sets of size i for i = 0..rank.  The
    h-vector is read off the Tutte polynomial: sum_i h[i] x^(rank-i) equals
    T_graphic(1, x) (Bjorner, "Homology and shellability of matroids and
    geometric lattices", 1992), so its top entry is the sphere count
    T_graphic(1, 0).  f follows by f[k] = sum_{i<=k} C(rank-i, k-i) h[i].
    """
    rank = matroid.rank
    h = [0] * (rank + 1)
    for (_, j), c in tutte_polynomial(matroid.graph, cache=cache).coeffs.items():
        h[rank - j] += c
    f = [sum(comb(rank - i, k - i) * h[i] for i in range(k + 1)) for k in range(rank + 1)]
    return tuple(f), tuple(h)
