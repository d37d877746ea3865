"""Exact combinatorics of Ngo strings, spectral dual graphs, Gale duality,
cographic matroids and hypertoric quiver strata for GL_n Hitchin systems.

The public names below are re-exported lazily (PEP 562): ``import ngostrings``
loads no submodule, and ``ngostrings.X`` or ``from ngostrings import X``
imports the module that defines X on first use.
"""

# module -> the public names it defines
_MODULES = {
    "errors": "ModelInconsistencyError ResourceLimitError",
    "graphs": (
        "MultiGraph Quiver VertexPartition betti1 boundary_matrix canonical_key dump_graph gale_dual "
        "load_graph spectral_dual_graph spectral_dual_quiver to_dot"
    ),
    "homology": "SimplicialComplex matroid_complex reduced_homology_ranks",
    "hypertoric": (
        "CircuitRelation LocalModelDims StratumRecord circuit_relations enumerate_strata local_model_dims "
        "spectral_strata"
    ),
    "intlinalg": "ExactnessReport IntMatrix verify_exact",
    "matroid": (
        "CographicMatroid TuttePolynomial f_h_vectors spectral_tutte_polynomial tutte_polynomial"
    ),
    "partitions": "Partition admissible_partitions local_system_rank partitions_of set_partitions stabilizer_order",
    "strings": (
        "StratumDims StringTable ngo_string_graded_ranks stabilization_codim stratum_dims string_table "
        "table_report"
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
