"""Cographic matroids and Tutte polynomials, by two algorithms.

The cographic matroid of a connected multigraph has the edges as ground set;
a subset is independent when deleting it leaves the graph connected, so the
rank is the first Betti number b1.  Its Tutte polynomial is the graphic one
with the variables exchanged, which is how everything here is computed: the
f- and h-vectors of the matroid complex are read off T_graphic(1, y), and
the top entry of h is the number of top-dimensional spheres in the complex,
T_graphic(1, 0).  Bases are listed, as spanning-tree complements, only for
the brute-force homology oracle; the sphere counts of `strata --quiver`
take no polynomial (hypertoric._sphere_count).

tutte_polynomial takes any connected multigraph, a graph file or a
spectral dual graph alike, and passes its pair multiplicities {(u, v): k}
to _tutte, so a bundle of k parallel edges costs one entry.  Loops are a
factor y^loops and a graph with a cut vertex is the product of its blocks.
A block of two vertices is a bundle; each other block goes to the cheaper
of two engines by work estimates made before any work: a frontier sweep
over edge subsets, for sparse blocks, or the exponential formula over twin
classes, for dense twin-rich ones such as spectral dual graphs.  A graph is
refused when those estimates and the cost of multiplying the blocks'
polynomials sum past MAX_TUTTE_WORK.  Nothing is kept from one call to the
next.
"""

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, product
from math import comb, prod
from operator import mul

from .errors import ResourceLimitError
from .graphs import _links, _relabel


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
        if self.coeffs == {(0, 0): 1}:
            return other  # the polynomial 1: no copy of every term
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
        self.rank = graph.edge_count - graph.vertex_count + 1

    @property
    def size(self):
        return self.graph.edge_count

    def bases(self):
        """The bases, each a sorted tuple of edge positions, in lexicographic order.

        A basis is the complement of a spanning tree.  Every (r - 1)-subset
        of the edges is tested with a union-find, which turns down a loop, a
        second parallel edge and every other cycle; a tree's complement has
        b1 edges.  The lexicographic order of the trees is the reverse of
        their complements', so the list is reversed at the end.
        """
        r, edges = self.graph.vertex_count, self.graph.edges
        out = []
        for tree in combinations(range(len(edges)), r - 1):
            parent = list(range(r))
            for e in tree:
                u, v = edges[e]
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u == v:
                    break
                parent[u] = v
            else:
                out.append(tuple(sorted(set(range(len(edges))).difference(tree))))
        out.reverse()
        return out


def _blocks(r, pairs):
    """[(b, pairs)] of the blocks of a multigraph, each loopless and renumbered 0..b-1 in vertex order.

    None when the graph is not connected.  One iterative Hopcroft-Tarjan
    depth-first search from vertex 0 that stacks the tree and back edges it
    meets: a tree edge (p, v) closes a block when no descendant of v reaches
    above p, and the block's edges are (p, v) and those stacked after it.
    Linear in the size of the graph.
    """
    links = _links(r, pairs)
    # every vertex with r/2 neighbours or more: 2-connected (Dirac), one block
    if 2 * min(map(len, links)) >= r:
        core = dict(pairs)
        for v in range(r):
            core.pop((v, v), None)
        return [(r, core)]
    disc = [-1] * r
    low = [0] * r
    at = [0] * r  # where the tree edge into a vertex sits in edges
    disc[0] = 0
    count = 1
    edges = []  # (u, w, k) met and not yet in a closed block
    stack = [(0, -1, iter(links[0]))]
    blocks = []
    while stack:
        v, parent, neighbours = stack[-1]
        for w, k in neighbours:
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                at[w] = len(edges)
                edges.append((v, w, k))
                stack.append((w, v, iter(links[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edges.append((v, w, k))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    block = edges[at[v] :]
                    del edges[at[v] :]
                    index = {u: i for i, u in enumerate(sorted({u for e in block for u in e[:2]}))}
                    blocks.append((len(index), _relabel({(u, w): k for u, w, k in block}, index)[0]))
    return blocks if count == r else None


def _base_digits(value, K):
    """The base-2^K digits of an integer value >= 0, least significant first; K is a multiple of 4."""
    width = K // 4
    text = format(value, "x")
    return [int(text[max(end - width, 0) : end], 16) for end in range(len(text), 0, -width)]


def _coefficient_bits(links):
    """K, a multiple of 4 with 2^K above every coefficient of the Tutte polynomial of a connected loopless graph.

    A spanning tree rooted at a vertex of largest degree picks a distinct
    parent edge at every other vertex, so the product of their degrees
    bounds T(1, 1), which bounds every coefficient.
    """
    degrees = Counter(sum(k for _, k in link) for link in links)
    degrees[max(degrees)] -= 1
    # powers of the distinct degrees: a product of many small factors one at a time is quadratic
    return -(-prod(d**c for d, c in degrees.items()).bit_length() // 4) * 4


def _sweep(links):
    """Yield the steps of _frontier_tutte on a connected loopless graph, in a greedy vertex order.

    None is the next vertex joining the end of the frontier, (i, j, k) a
    bundle of k edges between frontier positions i and j, and (i,) the
    vertex at position i leaving after its last bundle.  The next vertex has
    the most placed neighbours, then the fewest unplaced, then the earliest
    placed neighbour (the oldest frontier vertices leave first), then the
    least index.
    """
    r = len(links)
    placed = [0] * r  # placed neighbours of an unplaced vertex; -1 once placed
    unplaced = [len(link) for link in links]
    oldest = [r] * r  # when its first neighbour was placed
    heap = [(0, unplaced[v], r, v) for v in range(r)]
    heapify(heap)
    frontier = []
    t = 0
    while heap:
        minus, _, _, v = heappop(heap)
        if -minus != placed[v]:
            continue  # a stale entry
        placed[v] = -1
        t += 1
        yield None
        frontier.append(v)
        for u, k in links[v]:
            unplaced[u] -= 1
            if placed[u] < 0:
                yield frontier.index(u), len(frontier) - 1, k
            else:
                placed[u] += 1
                oldest[u] = min(oldest[u], t)
                heappush(heap, (-placed[u], unplaced[u], oldest[u], u))
        for i in reversed(range(len(frontier))):
            if not unplaced[frontier[i]]:
                yield (i,)
                del frontier[i]


def _frontier_tutte(steps, K, b1):
    """Tutte polynomial of a connected loopless multigraph of first Betti number b1, by a frontier sweep.

    T = sum over edge sets A of (x-1)^(c(A)-1) (y-1)^(|A|-r+c(A)), c(A) the
    number of components, is summed at x = X = 2^(K(b1+1)) and y = Y = 2^K
    over the steps of _sweep (Sekine, Imai and Tani, "Computing the Tutte
    polynomial of a graph of moderate size", ISAAC 1995).  A state is the
    partition of the frontier into the classes of A, one byte per frontier
    vertex, the labels in order of first appearance; its value is the sum of
    (X-1)^closed (Y-1)^nullity over the subsets of the bundles swept so far.
    A bundle of k edges inside one class multiplies the value by Y^k; across
    two classes it also adds the merged state, at 1 + Y + ... + Y^(k-1)
    times the value.  A vertex that leaves alone in its class closes it,
    a factor X-1, except for the last class of all.  2^K exceeds every
    coefficient of T, so they are the base-2^K digits of T(X, Y).
    """
    X = K * (b1 + 1)  # bits of X
    states = {b"": 1}
    tables = {}
    for step in steps:
        if step is None:
            states = {state + bytes([max(state, default=-1) + 1]): value for state, value in states.items()}
        elif len(step) == 3:
            i, j, k = step
            geometric = ((1 << K * k) - 1) // ((1 << K) - 1)
            # in place: a merge adds to a state with one class fewer, which
            # comes earlier in this order, so no value is swept twice
            for state in sorted(states, key=max):
                a, b = state[i], state[j]
                if a == b:
                    states[state] <<= K * k
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                if (lo, hi) not in tables:
                    # class hi joins class lo, and the labels above hi drop by one
                    tables[lo, hi] = bytes([lo if x == hi else x - (x > hi) for x in range(256)])
                merged = state.translate(tables[lo, hi])
                states[merged] = states.get(merged, 0) + states[state] * geometric
        else:
            (i,) = step
            swept = {}
            while states:
                state, value = states.popitem()
                label = state[i]
                rest = state[:i] + state[i + 1 :]
                if rest and label not in rest:
                    value = (value << X) - value
                if state.index(label) == i:
                    # the class is gone or now first appears later: renumber
                    seen = bytes(dict.fromkeys(rest))
                    rest = rest.translate(bytes.maketrans(seen, bytes(range(len(seen)))))
                swept[rest] = swept.get(rest, 0) + value
            states = swept
    return TuttePolynomial._of({divmod(p, b1 + 1): c for p, c in enumerate(_base_digits(states[b""], K)) if c})


def _twin_classes(links):
    """The twin classes of a loopless multigraph, as sorted vertex lists in order of their least vertices.

    u and v are twins when they have equal multiplicities to every other
    vertex: equal open neighbourhoods, or, joined by k edges, equal
    neighbourhoods once each adds itself at multiplicity k.  Twins are
    transitive and pairwise joined by one multiplicity, so each vertex is in
    at most one group of equal signatures with another.
    """
    neighbours = [dict(link) for link in links]
    groups = {}
    for v, near in enumerate(neighbours):
        signature = frozenset(near.items())
        groups.setdefault(signature, []).append(v)
        for k in set(near.values()):
            groups.setdefault(signature | {(v, k)}, []).append(v)
    twins = [group for group in groups.values() if len(group) > 1]
    paired = {v for group in twins for v in group}
    return sorted(twins + [[v] for v in range(len(links)) if v not in paired])


def _class_matrix(links, classes):
    """matrix[c][d], the multiplicity between a vertex of twin class c and another of class d."""
    # d[-1] is another vertex than c[0] unless c is d and has one vertex
    return [[near.get(d[-1], 0) for d in classes] for near in [dict(links[c[0]]) for c in classes]]


def _sub_multisets(sizes, matrix):
    """(|a|, e(a), subsets) for each sub-multiset a of the twin classes of _class_tutte, in lexicographic order.

    a sits at position sum_k a_k * strides[k], so every b <= a comes first;
    subsets lists (position of b, c(a, b)) for each b <= a that holds v*.
    """
    strides = [prod(m + 1 for m in sizes[k + 1 :]) for k in range(len(sizes))]
    for a in product(*[range(m + 1) for m in sizes]):
        # e(a) = (a M a - sum_c a_c M_cc) / 2
        edges = sum(x * (sum(map(mul, a, row)) - row[c]) for c, (x, row) in enumerate(zip(a, matrix))) // 2
        subsets = []
        if any(a):
            # every b <= a with b_first >= 1, as (position, c(a, b)) factors per class
            first = next(k for k, x in enumerate(a) if x)
            choices = [[(0, 1)]] * first
            choices.append([(b * strides[first], comb(a[first] - 1, b - 1)) for b in range(1, a[first] + 1)])
            for k in range(first + 1, len(a)):
                choices.append([(b * strides[k], comb(a[k], b)) for b in range(a[k] + 1)])
            subsets = [(sum(j for j, _ in pick), prod(c for _, c in pick)) for pick in product(*choices)]
        yield sum(a), edges, subsets


def _class_tutte(sizes, matrix, K):
    """Tutte polynomial of a graph with twin classes of the given sizes, by the exponential formula.

    Class c has sizes[c] vertices, and a vertex of class c is joined to
    another of class d by matrix[c][d] edges.  A vertex set is then a
    sub-multiset a of the classes, with e(a) internal edges.  With v* a
    vertex of the first nonempty class of a, and c(a, b) the number of vertex
    sets of type b that contain v* inside one of type a:

    - Chat(a) = y^e(a) - sum over v* in b < a of c(a, b) Chat(b) y^e(a-b)
      sums (y-1)^|A| over the connected spanning edge sets A of a;
    - C(a) = Chat(a) / (y-1)^(|a|-1), an exact division;
    - P(a) = sum over v* in b <= a of c(a, b) (x-1) C(b) P(a-b), P(0) = 1;
    - T = P(all) / (x-1)

    (Sokal, arXiv:math/0503607; Bjorklund-Husfeldt-Kaski-Koivisto,
    arXiv:0711.2585).  A polynomial in y is held as its value at y = 2^K, one
    integer; K is a multiple of 4 and 2^K exceeds every coefficient of T, so
    they are the base-2^K digits of the values.
    """
    r = sum(sizes)
    powers = [1]
    for _ in range(r - 1):
        powers.append(powers[-1] * ((1 << K) - 1))

    shift, chat, conn = [], [0], [0]
    cluster = [[1]]  # P(a) as coefficients of (x-1)^d
    for i, (size, edges, subsets) in enumerate(_sub_multisets(sizes, matrix)):
        shift.append(K * edges)
        if not i:
            continue
        value = 1 << shift[i]
        for j, c in subsets:
            if j != i:
                value -= (c * chat[j]) << shift[i - j]
        chat.append(value)
        conn.append(value // powers[size - 1])

        out = [0] * (size + 1)
        for j, c in subsets:
            weight = c * conn[j]
            for d, v in enumerate(cluster[i - j]):
                if v:
                    out[d + 1] += weight * v
        cluster.append(out)

    # T = sum_d P_d (x-1)^(d-1) over all vertices, expanded in powers of x
    last = cluster[-1]
    coeffs = {}
    for i in range(r):
        value = sum(comb(d - 1, i) * (-1) ** (d - 1 - i) * last[d] for d in range(i + 1, r + 1))
        for j, c in enumerate(_base_digits(value, K)):
            if c:
                coeffs[(i, j)] = c
    return TuttePolynomial._of(coeffs)


def _product_work(a, b):
    """About the nanoseconds CPython takes to multiply an a-bit by a b-bit integer (2-core Xeon, Python 3.11).

    On 30-bit digits: schoolbook, a nanosecond a pair, up to 70 digits in the
    shorter factor, then Karatsuba, 70 (d / 70)^0.585 per longer digit.
    """
    short, long = sorted((a // 30 + 1, b // 30 + 1))
    return int(long * min(short, 70 * (short / 70) ** 0.585))


def _block_plan(r, pairs):
    """(work, engine, args): engine(*args) is the Tutte polynomial of a 2-connected loopless block.

    Each engine has a work estimate, in units of about a nanosecond (2-core
    Xeon, Python 3.11), and the cheaper one runs; engine and args are None
    when both pass MAX_TUTTE_WORK.  Both charge 8000 for each of the
    r (b1 + 1) terms of T, so MAX_TUTTE_WORK bounds an answer at about a
    million terms, as MAX_GRAPH_SIZE bounds a bundle's, and price products
    of big integers by _product_work:

    - the frontier sweep, summed step by step until it passes
      MAX_TUTTE_WORK, before the quadratic steps of a dense block: Bell(frontier
      width) states a step, each a few operations on at most the s + r L
      bits of T(X, Y), L = K (b1 + 1), a nanosecond per 64 bits; at a bundle
      of k > 1 edges between two classes also the value, at most K e + L c
      bits after e edges and c leaving vertices, times 1 + Y + ... + Y^(k-1);
    - the exponential formula, summed pair by pair until it passes the
      sweep's: 100 for each of its P = prod_c C(m_c+2, 2) pairs b <= a of
      sub-multisets and r x-coefficients, and the products of C(b), at most
      K e(b) bits, by the coefficients of P(a-b), at most K e(a-b) bits.
    """
    s = sum(pairs.values())
    b1 = s - r + 1
    terms = r * (b1 + 1) * 8000
    if terms > MAX_TUTTE_WORK:
        return terms, None, None
    links = _links(r, pairs)
    K = _coefficient_bits(links)
    L = K * (b1 + 1)
    steps = []
    states = products = width = swept = left = 0
    bell, row = [1], [1]  # Bell numbers, by the Bell triangle
    for step in _sweep(links):
        steps.append(step)
        width += step is None
        w = min(width, 64)  # a frontier of width 64 already has more states than any sweep could take
        while len(bell) <= w:
            row = list(accumulate(row, initial=row[-1]))
            bell.append(row[0])
        states += bell[w]
        if step is not None and len(step) == 3:
            if step[2] > 1:
                products += (bell[w] - bell[w - 1]) * _product_work(K * swept + L * left, K * (step[2] - 1) + 1)
            swept += step[2]
        elif step is not None:
            width -= 1
            left += 1
        sweep = terms + states * (s + r * L) // 64 + products
        if sweep > MAX_TUTTE_WORK:
            break
    classes = _twin_classes(links)
    sizes = [len(c) for c in classes]
    formula = terms + prod(comb(m + 2, 2) ** c for m, c in Counter(sizes).items()) * r * 100
    if formula <= min(sweep, MAX_TUTTE_WORK):
        matrix = _class_matrix(links, classes)
        seen = []  # (|a|, K e(a)) by position
        for i, (size, edges, subsets) in enumerate(_sub_multisets(sizes, matrix)):
            seen.append((size, K * edges))
            formula += sum(max(size - seen[j][0], 1) * _product_work(seen[j][1], seen[i - j][1]) for j, _ in subsets)
            if formula > min(sweep, MAX_TUTTE_WORK):
                break
    if min(sweep, formula) > MAX_TUTTE_WORK:
        return min(sweep, formula), None, None
    if sweep <= formula:
        return sweep, _frontier_tutte, (steps, K, b1)
    return formula, _class_tutte, (sizes, matrix, K)


def _factor_work(bundles, others):
    """About the units of work _tutte takes to multiply its factors, the bundles of k edges and then the other blocks.

    ``others`` is a list [(b, pairs)] of the blocks of b > 2 vertices.

    TuttePolynomial.__mul__ takes about 125 units for each pair of terms
    (2-core Xeon, Python 3.11).  Of n bundles of k > 1 edges, with e the sum
    of their k - 1, a term of the product takes x from a of them and y^j,
    1 <= j <= k - 1, from each other one, so at each x-degree its y-degrees
    run from n - a to at most e - a: at most (n + 1)(e - n + 1) terms.  The
    polynomial of another block has at most b (b1 + 1) terms, and a product
    of x-degree X and y-degree Y at most (X + 1)(Y + 1).  A product taken
    while the running one is still a monomial, y^loops x^a, costs nothing,
    so a graph of one bundle or one other block is charged nothing.
    """
    work = n = e = 0
    terms = 1
    for k in bundles:
        if terms > 1:
            work += terms * k
        if k > 1:
            n += 1
            e += k - 1
            terms = (n + 1) * (e - n + 1)
    x, y = len(bundles), e
    for b, pairs in others:
        b1 = sum(pairs.values()) - b + 1
        if terms > 1:
            work += terms * b * (b1 + 1)
        x, y = x + b - 1, y + b1
        terms = min(terms * b * (b1 + 1), (x + 1) * (y + 1))
    return 125 * work


def _tutte(r, pairs):
    """Tutte polynomial of the connected multigraph with pair multiplicities {(u, v): k}, u <= v.

    Loops, the (v, v) entries, are a factor y^loops, and a graph with a cut
    vertex is the product of its blocks: a block of two vertices is a
    bundle, and any other is computed by the engine _block_plan picks.
    Raises ValueError when the graph is not connected, and then
    ResourceLimitError before any engine runs when the blocks' work
    estimates and _factor_work sum past MAX_TUTTE_WORK.
    """
    s = sum(pairs.values())
    # a spanning tree needs r - 1 edges: fewer are refused before anything is allocated per vertex
    blocks = _blocks(r, pairs) if r <= s + 1 else None
    if blocks is None:
        raise ValueError("Tutte polynomial requires a connected graph")
    loops = s - sum(sum(block.values()) for _, block in blocks)
    bundles = [k for b, block in blocks if b == 2 for k in block.values()]
    others = [(b, block) for b, block in blocks if b > 2]
    plans = [_block_plan(b, block) for b, block in others]
    work = sum(plan[0] for plan in plans) + _factor_work(bundles, others)
    if work > MAX_TUTTE_WORK:
        raise ResourceLimitError(
            "the Tutte polynomial of a graph with %d vertices and %d edges needs about 2^%d units of work; "
            "the limit is about 2^%d" % (r, s, work.bit_length(), MAX_TUTTE_WORK.bit_length())
        )
    poly = TuttePolynomial.monomial(0, loops)
    for k in bundles:
        # a bundle of k edges: x + y + ... + y^(k-1)
        poly = poly * TuttePolynomial._of({(1, 0): 1, **{(0, j): 1 for j in range(1, k)}})
    for _, engine, args in plans:
        poly = poly * engine(*args)
    return poly


def tutte_polynomial(graph):
    """Tutte polynomial of the graphic matroid of a connected multigraph.

    See _tutte.  Raises ValueError when the graph is not connected, and
    ResourceLimitError before any work when the work estimate exceeds
    MAX_TUTTE_WORK.
    """
    return _tutte(graph.vertex_count, graph.pair_multiplicities())


# Bound on the work estimates of _tutte (_block_plan, _factor_work), checked
# before any engine runs.  Near it (2-core Xeon, Python 3.11), seeded random
# quivers of 19 to 26 vertices and 57 to 77 edges take 0.8 to 10 s and up to
# 470 MiB in process, seeded d14 of tests/tutte_timings.py 3 s and 180 MiB.
# The last partition inputs accepted take, by `tutte --json` in a fresh
# process: 1^39 at genus 2, 3.0 s and 35 MiB; 2,1,1 at genus 33 330, a
# million terms, 1.9 s and 236 MiB; 1,1 at genus 500 000, a bundle, 4.0 s
# and 405 MiB.  The products of the factors count too (_factor_work): the
# last path of m bundles of m edges accepted, m = 45, takes 8.2 s and 37 MiB
# by `tutte --quiver` in a fresh process, and m = 46 is refused.
MAX_TUTTE_WORK = 8 * 10**9

# f_h_vectors refuses a matroid of larger rank before any work.  The f-vector
# has rank + 1 entries of up to s bits, and the Taylor shift that computes it
# adds about rank^2 / 2 of them: `matroid --partition 2,1,1 --genus 501`
# (rank 4998) answers in about 3 s, and rank 10 000 would take about 20 s.
MAX_F_VECTOR_RANK = 5000


def f_h_vectors(matroid):
    """f- and h-vector of the matroid complex; exact integers.

    f[i] is the number of independent sets of size i for i = 0..rank.  The
    h-vector is read off the Tutte polynomial: sum_i h[i] x^(rank-i) equals
    T_graphic(1, x) (Bjorner, "Homology and shellability of matroids and
    geometric lattices", 1992), so its top entry is the sphere count
    T_graphic(1, 0).  f follows by f[k] = sum_{i<=k} C(rank-i, k-i) h[i].
    Raises ResourceLimitError before any work when the rank exceeds
    MAX_F_VECTOR_RANK.
    """
    rank = matroid.rank
    if rank > MAX_F_VECTOR_RANK:
        raise ResourceLimitError(
            "the f-vector of a matroid of rank %d is past the limit of rank %d" % (rank, MAX_F_VECTOR_RANK)
        )
    h = [0] * (rank + 1)
    for (_, j), c in tutte_polynomial(matroid.graph).coeffs.items():
        h[rank - j] += c
    # sum_k f[k] t^(rank-k) = sum_i h[i] (t+1)^(rank-i): a Taylor shift by
    # one, done as rank passes of prefix sums
    f = h[:]
    for m in range(rank + 1, 1, -1):
        f[:m] = accumulate(f[:m])
    return tuple(f), tuple(h)
