"""Cycle-regularity analysis and robust recognition of I-graphs, double
generalized Petersen graphs, and folded cubes."""

from .cycles import (
    NotCubicError,
    OctagonTriple,
    Path,
    PathTooLongError,
    RegularityReport,
    count_cycles_through_path,
    octagon_partition,
    octagon_value,
    regularity_scan,
)
from .families import (
    DPParams,
    FQParams,
    IParams,
    ParamOutOfRangeError,
    canonical_i_params,
    dp_canonical_params,
    dp_even_twin,
    generate_dp,
    generate_folded_cube,
    generate_gp,
    generate_hypercube,
    generate_i_graph,
    vertex_name,
)
from .formats import (
    ParseError,
    decode_graph6,
    emit_edge_list,
    encode_graph6,
    parse_edge_list,
)
from .graph import (
    DuplicateEdgeError,
    GraphError,
    LabeledGraph,
    SelfLoopError,
    VertexOutOfRangeError,
    bfs,
    build_graph,
    connected_components,
    induced_subgraph,
    is_regular,
)
from .recognition import (
    Certificate,
    Rejection,
    find_isomorphism,
    recognize,
    recognize_dp,
    recognize_folded_cube,
    recognize_i_graph,
    verify_certificate,
)
from .tables import (
    FqLambda,
    UnsupportedPatternError,
    fq_lambda,
    predict_dp_octagon,
    predict_i_octagon,
    published_fq_lambda,
)

__version__ = "0.1.0"
