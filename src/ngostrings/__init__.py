"""Exact combinatorics of Ngo strings, spectral dual graphs, Gale duality,
cographic matroids and hypertoric quiver strata for GL_n Hitchin systems."""

from .errors import ResourceLimitError
from .graphs import (
    MultiGraph,
    Quiver,
    VertexPartition,
    betti1,
    boundary_matrix,
    canonical_key,
    dump_graph,
    gale_dual,
    load_graph,
    spectral_dual_graph,
    spectral_dual_quiver,
    to_dot,
)
from .homology import (
    SimplicialComplex,
    euler_characteristic,
    matroid_complex,
    reduced_homology_ranks,
)
from .hypertoric import (
    CircuitRelation,
    LocalModelDims,
    SmallnessCertificate,
    StratumRecord,
    certify_small,
    circuit_relations,
    enumerate_strata,
    lawrence_dims,
    local_decomposition,
    local_model_dims,
)
from .intlinalg import (
    ExactnessReport,
    IntMatrix,
    SmithDecomposition,
    rational_rank,
    smith_normal_form,
    verify_exact,
)
from .matroid import (
    CographicMatroid,
    TutteCache,
    TuttePolynomial,
    f_h_vectors,
    spectral_tutte_polynomial,
    top_betti,
    tutte_polynomial,
)
from .partitions import (
    Partition,
    admissible_partitions,
    local_system_rank,
    partitions_of,
    set_partitions,
    stabilizer_order,
)
from .strings import (
    ModelInconsistencyError,
    StratumDims,
    StringTable,
    ngo_string_graded_ranks,
    stabilization_codim,
    stratum_dims,
    string_table,
    table_report,
)

__version__ = "0.1.0"
