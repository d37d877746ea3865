"""Cographic matroids and Tutte polynomials, by two algorithms.

The cographic matroid of a connected multigraph has the edges as ground set;
a subset is independent when deleting it leaves the graph connected, so the
rank is the first Betti number b1.  Its Tutte polynomial is the graphic one
with the variables exchanged, which is how everything here is computed: the
number of top-dimensional spheres in the matroid complex (the multiplicity
in every semismall decomposition downstream) is T_graphic(1, 0), and the
f- and h-vectors of the complex are read off T_graphic(1, y).  Independent
sets are enumerated only by the brute-force homology oracle.

tutte_polynomial takes any connected multigraph (the `--quiver` inputs);
_sphere_count, the one home of T(1, 0), takes the graphs of top_betti and
the contractions of `strata --quiver` (pair multiplicities renumbered by
graphs._relabel, no graph built), counts 1 when b1 = 0 and otherwise runs
the same engine through _tutte.  The engine runs on the pair multiplicities
{(u, v): k} alone, rewrites them only through _relabel, and reduces before
it keys, as Haggard, Pearce and Royle do ("Computing Tutte polynomials",
ACM TOMS 37(3), 2010): loops are a factor y^loops, two vertices are one
bundle x + y + ... + y^(k-1), a cut vertex splits the graph into blocks
whose polynomials multiply, and a series vertex is removed by
T = x T(G - v) + T(G - v + ab).  Only a 2-connected loopless core with no
series vertex takes a canonical key, from a search capped at
KEY_SEARCH_NODES nodes, and a deletion plus a geometric-series-weighted
contraction of a whole parallel class.  The memo cache holds exactly the
cores whose key fits the cap; an entry written for any other graph stays
correct, since a key determines its graph.

spectral_tutte_polynomial takes a partition and a genus (the `--partition`
inputs of `tutte` and `matroid`) and never builds the graph.  Vertices with
equal parts are twins, so a vertex set is a sub-multiset of the partition,
and the random-cluster expansion is summed by the exponential formula over
sub-multisets (Sokal, arXiv:math/0503607; Bjorklund-Husfeldt-Kaski-Koivisto,
arXiv:0711.2585).  It reads and writes no memo cache.
"""

from collections import Counter
from itertools import accumulate, product
from math import comb, prod

from .errors import ResourceLimitError
from .graphs import _links, _relabel, betti1, pairs_canonical_key, spectral_edge_count


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
    def _of(cls, coeffs):
        """The polynomial of a dict {(i, j): c} of ints with no zero c, taken as it is."""
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({(0, 0): 1})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls._of({(i, j): c} if c else {})

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
        return TuttePolynomial._of(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        return TuttePolynomial._of(out)

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
    """Memo map canonical graph key -> Tutte polynomial."""

    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, poly):
        self._data[key] = poly

    def __len__(self):
        return len(self._data)

    def items(self):
        return list(self._data.items())

    def load(self, items):
        self._data.update(items)


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


# Search nodes that the canonical key of one core of the Tutte recursion may
# take.  A core whose key search runs past it is computed with no memo lookup
# or store, while its minors still try their own keys.  On random quivers
# with 7 to 10 vertices and 18 to 24 edges, colour refinement separates most
# vertices: of 16 264 core keys the median took 6 nodes and the largest 343.
# On a cycle or a prism it separates none, every independent vertex set is a
# tied all-zero prefix, and an exact key takes exponentially many nodes.
KEY_SEARCH_NODES = 1000


def _bundle(k):
    """Tutte polynomial x + y + ... + y^(k-1) of k parallel edges."""
    coeffs = {(0, j): 1 for j in range(1, k)}
    coeffs[(1, 0)] = 1
    return TuttePolynomial._of(coeffs)


def _shift(poly, di, dj):
    """poly * x^di * y^dj."""
    return TuttePolynomial._of({(i + di, j + dj): c for (i, j), c in poly.coeffs.items()})


def _times_y_geometric(poly, k):
    """poly * (1 + y + ... + y^(k-1)): a window of k coefficients summed along each x-degree."""
    if k == 1:
        return poly
    rows = {}
    for (i, j), c in poly.coeffs.items():
        rows.setdefault(i, {})[j] = c
    out = {}
    for i, row in rows.items():
        total = 0
        for j in range(min(row), max(row) + k):
            total += row.get(j, 0) - row.get(j - k, 0)
            if total:
                out[(i, j)] = total
    return TuttePolynomial._of(out)


def _blocks(links):
    """Vertex lists of the blocks of a connected loopless graph; None when it is one block.

    One iterative Hopcroft-Tarjan depth-first search from vertex 0: a tree
    edge (p, v) closes a block when no descendant of v reaches above p, and
    the block is p with the vertices found since v.
    """
    disc = [-1] * len(links)
    low = [0] * len(links)
    disc[0] = 0
    count = 1
    found = [0]  # discovered vertices not yet in a closed block, in discovery order
    stack = [(0, -1, iter(links[0]))]
    blocks = []
    while stack:
        v, parent, neighbours = stack[-1]
        for w, _ in neighbours:
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                found.append(w)
                stack.append((w, v, iter(links[w])))
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    cut = found.index(v)
                    blocks.append([p] + found[cut:])
                    del found[cut:]
    return blocks if len(blocks) > 1 else None


def _tutte(r, pairs, cache):
    """Tutte polynomial of the connected multigraph with the given pair multiplicities.

    Loops are peeled off as a factor y^loops; the loopless core goes to
    _core_tutte.
    """
    core, loops = _relabel(pairs, range(r))
    poly = _core_tutte(r, core, cache)
    return _shift(poly, 0, loops) if loops else poly


def _core_tutte(r, core, cache):
    """Tutte polynomial of a connected loopless multigraph, reduced before any canonical key.

    Two vertices are one bundle.  A graph with a cut vertex is the product of
    its blocks.  A series vertex v of a 2-connected graph, joined to a and b
    by one edge each, gives T = x T(G - v) + T(G - v + ab): deleting the edge
    va leaves vb a bridge, contracting it turns vb into an edge ab.  Only a
    2-connected core with at least three vertices and no series vertex takes
    a canonical key and a deletion-contraction step (_keyed_tutte).
    """
    series = []  # the x T(G - v) terms of the series steps taken so far
    while True:
        if r == 1:
            poly = TuttePolynomial.one()
        elif r == 2:
            poly = _bundle(core[(0, 1)])
        else:
            links = _links(r, core)
            blocks = _blocks(links)
            if blocks is not None:
                poly = TuttePolynomial.one()
                for block in blocks:
                    # the block's vertices, renumbered 0..b-1 in order; the rest deleted
                    index = [None] * r
                    for i, u in enumerate(sorted(block)):
                        index[u] = i
                    poly = poly * _core_tutte(len(block), _relabel(core, index)[0], cache)
            else:
                # the least series vertex: joined to exactly two others, each by one edge
                v = next(
                    (v for v, link in enumerate(links) if len(link) == 2 and link[0][1] == link[1][1] == 1),
                    None,
                )
                if v is not None:
                    index = [u - (u > v) for u in range(r)]
                    index[v] = None
                    deleted = _relabel(core, index)[0]
                    series.append(_shift(_core_tutte(r - 1, deleted, cache), 1, 0))
                    a, b = sorted(index[w] for w, _ in links[v])
                    deleted[(a, b)] = deleted.get((a, b), 0) + 1
                    r, core = r - 1, deleted
                    continue
                poly = _keyed_tutte(r, core, cache)
        break
    for term in series:
        poly = poly + term
    return poly


def _keyed_tutte(r, core, cache):
    """_core_tutte of a reduced core: memo lookup, then deletion-contraction of its heaviest bundle.

    The core is 2-connected with at least three vertices, so deleting a
    bundle leaves it connected; contracting it merges its two ends.  The
    memo is keyed by the canonical key when its search fits
    KEY_SEARCH_NODES, and not used at all otherwise.
    """
    key = pairs_canonical_key(r, core, KEY_SEARCH_NODES)
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    (u, v), k = max(core.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
    rest = dict(core)
    del rest[(u, v)]
    # v merges into u < v and leaves the numbering
    index = [w - (w > v) for w in range(r)]
    index[v] = u
    contracted = _relabel(rest, index)[0]
    poly = _core_tutte(r, rest, cache) + _times_y_geometric(_core_tutte(r - 1, contracted, cache), k)
    if key is not None:
        cache.put(key, poly)
    return poly


def tutte_polynomial(graph, cache=None):
    """Tutte polynomial of the graphic matroid of a connected multigraph.

    Deletion-contraction on parallel classes of the pair multiplicities,
    after the reductions of _core_tutte; the memo cache is keyed by the
    canonical form of the reduced cores, and is a fresh one for this call
    unless one is passed.
    """
    if not graph.is_connected():
        raise ValueError("Tutte polynomial requires a connected graph")
    if cache is None:
        cache = TutteCache()
    return _tutte(graph.vertex_count, graph.pair_multiplicities(), cache)


# Bound on the work estimate of spectral_tutte_polynomial, checked before
# anything is allocated.  The estimate is P * r * L^2: P = prod_k C(m_k+2, 2)
# pairs of nested sub-multisets of the partition (m_k the multiplicities of its
# distinct parts), r the number of x-coefficients each pair multiplies, and
# L = K * (b1 + 1) the bit length of one polynomial in y packed into an
# integer, with K an upper bound on the bit length of the spanning-tree count.
# L^2, the schoolbook cost of one product of L-bit integers, overstates
# CPython's Karatsuba product, but it grows with the genus fast enough to
# bound the output of r * (b1 + 1) terms as well.  Near the bound (2-core
# Xeon, Python 3.11, one fresh process each), `tutte --json` answers 1^33 at
# genus 2 in 1.0 s (1^34 is refused), 2,1,1 at genus 16 384 in 1.5 s and
# 230 MiB, and 1,1 at genus 293 408 in 4.8 s and 550 MiB; 10,9,...,1 at genus
# 2 would take 18 s.
MAX_SPECTRAL_WORK = 2 * 10**15

# f_h_vectors refuses a matroid of larger rank before any work.  The f-vector
# has rank + 1 entries of up to s bits, and the Taylor shift that computes it
# adds about rank^2 / 2 of them: `matroid --partition 2,1,1 --genus 501`
# (rank 4998) answers in about 3 s, and rank 10 000 would take about 20 s.
MAX_F_VECTOR_RANK = 5000


def _spectral_work(partition, genus):
    """Work estimate of spectral_tutte_polynomial, from the partition and genus alone."""
    parts = partition.parts
    r, n = len(parts), partition.n
    b1 = spectral_edge_count(partition, genus) - r + 1
    bits = (
        (r - 1) * (2 * genus - 2).bit_length()
        + (r - 2) * n.bit_length()
        + sum(p.bit_length() for p in parts)
    )
    length = bits * (b1 + 1)
    pairs = prod(comb(m + 2, 2) for m in Counter(parts).values())
    return pairs * r * length * length


def spectral_tutte_polynomial(partition, genus):
    """Tutte polynomial of spectral_dual_graph(partition, genus), without building the graph.

    Equal to tutte_polynomial of that graph, coefficient for coefficient.  A
    vertex set of the graph is a sub-multiset a of the partition, with
    e(a) = (g-1)(N(a)^2 - Q(a)) internal edges, N the sum and Q the sum of
    squares of its parts.  With v* a vertex of the first nonempty class of a,
    and c(a, b) the number of vertex sets of type b that contain v* inside
    one of type a:

    - Chat(a) = y^e(a) - sum over v* in b < a of c(a, b) Chat(b) y^e(a-b)
      sums (y-1)^|A| over the connected spanning edge sets A of a;
    - C(a) = Chat(a) / (y-1)^(|a|-1), an exact division;
    - P(a) = sum over v* in b <= a of c(a, b) (x-1) C(b) P(a-b), P(0) = 1;
    - T = P(partition) / (x-1).

    A polynomial in y is held as its value at y = 2^K, one integer, where
    2^K exceeds the spanning-tree count (2g-2)^(r-1) n^(r-2) prod n_i =
    T(1, 1).  That bounds every coefficient of T, so they are the base-2^K
    digits of the values.  Raises ResourceLimitError before any work when
    the work estimate exceeds MAX_SPECTRAL_WORK.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2, got %r" % genus)
    r = partition.r
    if r == 1:
        return TuttePolynomial.one()
    work = _spectral_work(partition, genus)
    if work > MAX_SPECTRAL_WORK:
        raise ResourceLimitError(
            "the Tutte polynomial of the spectral dual graph of %s at genus %d needs about "
            "2^%d units of work; the limit is about 2^%d"
            % (partition, genus, work.bit_length(), MAX_SPECTRAL_WORK.bit_length())
        )

    n = partition.n
    trees = (2 * genus - 2) ** (r - 1) * n ** (r - 2) * prod(partition.parts)
    K = -(-trees.bit_length() // 4) * 4  # whole hex digits
    counts = Counter(partition.parts)
    values = sorted(counts, reverse=True)
    mults = [counts[v] for v in values]
    # every sub-multiset in lexicographic order: a sits at position
    # sum_k a_k * strides[k], so every b <= a comes before it
    states = list(product(*[range(m + 1) for m in mults]))
    strides = [prod(m + 1 for m in mults[k + 1 :]) for k in range(len(mults))]
    shift = []
    for a in states:
        total = sum(k * v for k, v in zip(a, values))
        squares = sum(k * v * v for k, v in zip(a, values))
        shift.append(K * (genus - 1) * (total * total - squares))
    powers = [1]
    for _ in range(r - 1):
        powers.append(powers[-1] * ((1 << K) - 1))

    chat = [0] * len(states)
    conn = [0] * len(states)
    cluster = [[1]] + [None] * (len(states) - 1)  # P(a) as coefficients of (x-1)^d
    for i in range(1, len(states)):
        a = states[i]
        # every b <= a with b_first >= 1, as (position, c(a, b)) factors per class
        first = next(k for k, x in enumerate(a) if x)
        choices = [[(0, 1)]] * first
        choices.append([(b * strides[first], comb(a[first] - 1, b - 1)) for b in range(1, a[first] + 1)])
        for k in range(first + 1, len(a)):
            choices.append([(b * strides[k], comb(a[k], b)) for b in range(a[k] + 1)])
        subsets = [(sum(j for j, _ in pick), prod(c for _, c in pick)) for pick in product(*choices)]

        value = 1 << shift[i]
        for j, c in subsets:
            if j != i:
                value -= (c * chat[j]) << shift[i - j]
        chat[i] = value
        conn[i] = value // powers[sum(a) - 1]

        out = [0] * (sum(a) + 1)
        for j, c in subsets:
            weight = c * conn[j]
            for d, v in enumerate(cluster[i - j]):
                if v:
                    out[d + 1] += weight * v
        cluster[i] = out

    # T = sum_d P_d (x-1)^(d-1) over the whole partition, expanded in powers of x
    last = cluster[-1]
    digits = K // 4
    coeffs = {}
    for i in range(r):
        value = sum(comb(d - 1, i) * (-1) ** (d - 1 - i) * last[d] for d in range(i + 1, r + 1))
        text = format(value, "x")
        text = "0" * (-len(text) % digits) + text
        degree = len(text) // digits - 1
        for k in range(degree + 1):
            c = int(text[k * digits : (k + 1) * digits], 16)
            if c:
                coeffs[(i, degree - k)] = c
    return TuttePolynomial(coeffs)


def _sphere_count(r, pairs, cache):
    """T_graphic(1, 0) of the connected multigraph with these pair multiplicities.

    b1 = s - r + 1 = 0 leaves the one-point complex, which counts 1 (T is
    x^(r-1)) with no recursion: the open stratum always has multiplicity 1.
    """
    if sum(pairs.values()) < r:
        return 1
    return _tutte(r, pairs, cache).evaluate(1, 0)


def top_betti(graph, cache=None):
    """Number of top-dimensional spheres in the matroid complex of the cographic matroid.

    T_graphic(1, 0) by _sphere_count; it equals the cographic evaluation T(0, 1).
    """
    if not graph.is_connected():
        raise ValueError("top_betti requires a connected graph")
    return _sphere_count(graph.vertex_count, graph.pair_multiplicities(), TutteCache() if cache is None else cache)


def f_h_vectors(matroid, cache=None):
    """f- and h-vector of the matroid complex; exact integers.

    f[i] is the number of independent sets of size i for i = 0..rank.  The
    h-vector is read off the Tutte polynomial: sum_i h[i] x^(rank-i) equals
    T_graphic(1, x) (Bjorner, "Homology and shellability of matroids and
    geometric lattices", 1992), so its top entry is the sphere count
    T_graphic(1, 0).  f follows by f[k] = sum_{i<=k} C(rank-i, k-i) h[i].
    Raises ResourceLimitError before any work when the rank exceeds
    MAX_F_VECTOR_RANK.
    """
    return _f_h_vectors(matroid.rank, lambda: tutte_polynomial(matroid.graph, cache=cache))


def _f_h_vectors(rank, tutte):
    """f_h_vectors of a cographic matroid of the given rank; tutte() is its graphic Tutte polynomial."""
    if rank > MAX_F_VECTOR_RANK:
        raise ResourceLimitError(
            "the f-vector of a matroid of rank %d is past the limit of rank %d" % (rank, MAX_F_VECTOR_RANK)
        )
    h = [0] * (rank + 1)
    for (_, j), c in tutte().coeffs.items():
        h[rank - j] += c
    # sum_k f[k] t^(rank-k) = sum_i h[i] (t+1)^(rank-i): a Taylor shift by
    # one, done as rank passes of prefix sums
    f = h[:]
    for m in range(rank + 1, 1, -1):
        f[:m] = accumulate(f[:m])
    return tuple(f), tuple(h)
