"""Property test: the Tutte engines against the keyed-at-every-node oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ngostrings.graphs import MultiGraph  # noqa: E402
from ngostrings.matroid import _tutte  # noqa: E402

from conftest import engine_tutte, tutte_reference  # noqa: E402


@st.composite
def glued_multigraphs(draw):
    """Connected multigraphs built from blocks glued at cut vertices, with chords and loops.

    Each block is a cycle with some doubled edges (series vertices), a
    bundle of parallel edges (a bridge when single), or a small dense
    piece; each is attached at a vertex already present.  The vertices are
    relabelled at random at the end.
    """
    r = 1
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        attach = draw(st.integers(0, r - 1))
        kind = draw(st.sampled_from(["cycle", "bundle", "dense"]))
        if kind == "bundle":
            edges += [(attach, r)] * draw(st.integers(1, 4))
            r += 1
            continue
        size = draw(st.integers(3, 5) if kind == "cycle" else st.integers(2, 4))
        vertices = [attach] + list(range(r, r + size - 1))
        r += size - 1
        if kind == "cycle":
            for i, v in enumerate(vertices):
                edges += [(v, vertices[(i + 1) % size])] * draw(st.integers(1, 2))
        else:
            edges += [(vertices[i - 1], vertices[i]) for i in range(1, size)]
            for _ in range(draw(st.integers(0, 4))):
                edges.append(tuple(draw(st.sampled_from(vertices)) for _ in range(2)))
    for _ in range(draw(st.integers(0, 2))):
        edges.append((draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))))
    order = draw(st.permutations(list(range(r))))
    return MultiGraph(r, [(order[u], order[v]) for u, v in edges])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(glued_multigraphs())
def test_same_as_reference(graph):
    r, pairs = graph.vertex_count, dict(graph.pair_multiplicities())
    expected = tutte_reference(r, pairs, {})
    assert _tutte(r, pairs) == expected
    # each engine alone, on the whole loopless graph, cut vertices and all
    if r > 1:
        assert engine_tutte("frontier", r, pairs) == expected
        assert engine_tutte("classes", r, pairs) == expected
