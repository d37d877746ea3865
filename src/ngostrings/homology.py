"""Brute-force rational simplicial homology of small complexes.

This is the independent oracle for sphere counts: the matroid complex of a
cographic matroid is a wedge of top-dimensional spheres, and the rank of the
top reduced homology group computed here must match the Tutte evaluation
T(1, 0) from the matroid module.

Boundary matrices are exact integer matrices assembled in a fixed
lexicographic face order; ranks are computed fraction-free.  Degree -1 (the
empty face) is part of every chain complex, so the complex {emptyset}
reports reduced homology rank 1 in degree -1.
"""

from itertools import combinations

from .errors import ResourceLimitError
from .intlinalg import sparse_rank

MAX_GROUND_SET = 16
MAX_FACES = 1 << 20


class SimplicialComplex:
    """Finite simplicial complex given by its facets (maximal faces).

    Faces are sorted tuples of integer vertex labels; the face set is the
    downward closure of the facets.  Facets that are contained in another
    facet are pruned on construction.
    """

    __slots__ = ("facets",)

    def __init__(self, facets):
        norm = sorted(
            {tuple(sorted(set(int(v) for v in f))) for f in facets},
            key=lambda f: (len(f), f),
        )
        pruned = []
        for f in norm:
            fset = set(f)
            if not any(fset < set(g) for g in norm if len(g) > len(f)):
                pruned.append(f)
        self.facets = tuple(sorted(pruned))

    @property
    def dim(self):
        if not self.facets:
            return -2
        return max(len(f) for f in self.facets) - 1

    def faces_by_dim(self):
        """Map dimension -> lexicographically sorted faces; includes () at dimension -1."""
        if not self.facets:
            return {}
        buckets = {}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                buckets.setdefault(k - 1, set()).update(combinations(f, k))
        out = {-1: [()]}
        for k in sorted(buckets):
            out[k] = sorted(buckets[k])
        return out

    def face_count(self):
        return sum(len(faces) for faces in self.faces_by_dim().values())

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __repr__(self):
        return "SimplicialComplex(%r)" % (list(self.facets),)


def check_ground_set(size):
    """Refuse a ground set of more than MAX_GROUND_SET elements, as matroid_complex does."""
    if size > MAX_GROUND_SET:
        raise ResourceLimitError(
            "ground set has %d elements; the homology oracle is capped at %d" % (size, MAX_GROUND_SET)
        )


def matroid_complex(matroid):
    """Complex of independent sets; the facets are the bases of the matroid."""
    check_ground_set(matroid.size)
    return SimplicialComplex(matroid.bases())


def _boundary_rank(lower, upper):
    """Rank of the boundary map from faces ``upper`` to faces ``lower``."""
    index = {face: i for i, face in enumerate(lower)}
    rows = [dict() for _ in lower]
    for j, face in enumerate(upper):
        sign = 1
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            rows[index[sub]][j] = sign
            sign = -sign
    return sparse_rank(rows)


def reduced_homology_ranks(complex_):
    """Ranks of reduced rational homology in degrees -1..dim, as a list.

    Entry k of the list is the rank in degree k-1.  Exact: integer boundary
    matrices in a fixed lexicographic face order, fraction-free rank
    computation.
    """
    faces = complex_.faces_by_dim()
    if not faces:
        return []
    total = sum(len(v) for v in faces.values())
    if total > MAX_FACES:
        raise ResourceLimitError(
            "complex has %d faces; the homology oracle is capped at %d" % (total, MAX_FACES)
        )
    dim = max(faces)
    counts = {k: len(faces[k]) for k in faces}
    ranks = {}
    for k in range(0, dim + 1):
        ranks[k] = _boundary_rank(faces[k - 1], faces[k])
    out = []
    for k in range(-1, dim + 1):
        value = counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        out.append(value)
    return out

