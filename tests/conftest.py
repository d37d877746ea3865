"""Shared test helpers: seeded random graph generation and brute-force oracles."""

from ngostrings.graphs import MultiGraph


def random_connected_multigraph(rng, max_vertices=6, max_edges=10, allow_loops=False):
    """Random connected multigraph: a random spanning tree plus extra edges."""
    r = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, r):
        edges.append((rng.randrange(v), v))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.randrange(r)
        v = rng.randrange(r)
        if u == v and not allow_loops:
            if r == 1:
                continue
            v = (v + 1) % r
        edges.append((u, v))
    return MultiGraph(r, edges)


def multiplicity_data(n):
    """All ways to write n = sum m_i * k_i as a multiset of pairs (m_i, k_i)."""

    def extend(remaining, floor_pair):
        if remaining == 0:
            yield ()
            return
        for m in range(1, remaining + 1):
            for k in range(1, remaining // m + 1):
                pair = (m, k)
                if pair < floor_pair:
                    continue
                for rest in extend(remaining - m * k, pair):
                    yield (pair,) + rest

    yield from extend(n, (1, 1))


def brute_force_stabilization_codim(n, genus):
    """Oracle: twice the base dimension minus twice the maximum of
    r + (g-1) * sum(k_i^2) over all nontrivial multiplicity data of n."""
    best = max(
        len(data) + (genus - 1) * sum(k * k for _, k in data)
        for data in multiplicity_data(n)
        if data != ((1, n),)  # the dense open stratum
    )
    return 2 * (n * n * (genus - 1) + 1) - 2 * best
