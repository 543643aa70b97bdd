"""netcert: certificates that qudit graph states cannot be prepared in
networks of bipartite sources.

The package is organized in layers:

- ``pauli``      exact symbolic Weyl-Heisenberg operators on named sites
- ``multigraph`` multigraphs mod d: partitions, local complementation, enumeration
- ``stabilizer`` graph-state generators and the GHZ stabilizer group
- ``network``    source multisets, the cut and doubled inflations, marginal equalities
- ``certify``    certificate search, verification, fidelity bounds
- ``ghzbound``   GHZ fidelity upper bounds (closed form, prime bisection, numeric)
- ``oracle``     dense-matrix ground truth and randomized property suites
- ``cli``        command-line front end
"""

from .certify import (
    Certificate,
    NotCertified,
    TableReport,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
    certify_any,
    exhaustive_table,
    fidelity_bound_from_lambda,
    select_power_t,
    verify_obs3,
)
from .errors import (
    DegenerateMultiplicity,
    DimensionError,
    EnumerationOverflow,
    NetcertError,
    PropertyViolation,
    RangeError,
    ResourceError,
    StructureError,
    Unconverged,
    UnsupportedSource,
    WrongFamily,
)
from .ghzbound import (
    BoundReport,
    GhzChainRecord,
    bound_report,
    ghz_closed_form_bound,
    ghz_numeric_bound,
    ghz_prime_bound,
    ghz_section3_chain,
    theta_d,
)
from .multigraph import (
    Multigraph,
    NeighborhoodPartition,
    OrbitResult,
    canonical_form,
    enumerate_connected_multigraphs,
    find_angle_or_triangle,
    is_connected,
    lc_orbit,
    local_complement,
    neighbors,
    partition_neighborhoods,
)
from .network import (
    GroupedNetwork,
    Network,
    complete_bipartite_network,
    cut_inflation,
    doubled_inflation,
    marginal_chain_checks,
    reduce,
    reduced_equal,
)
from .pauli import (
    PauliOperator,
    commutation_phase,
    dagger,
    identity,
    multiply,
    power,
    relabel,
    restrict,
    single,
    support,
)
from .stabilizer import (
    GHZ_PARTIES,
    ghz_group,
    ghz_stabilizer_element,
    graph_generator,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Certificate",
    "GHZ_PARTIES",
    "DegenerateMultiplicity",
    "DimensionError",
    "EnumerationOverflow",
    "GhzChainRecord",
    "GroupedNetwork",
    "Multigraph",
    "NeighborhoodPartition",
    "NetcertError",
    "Network",
    "NotCertified",
    "OrbitResult",
    "PauliOperator",
    "PropertyViolation",
    "RangeError",
    "ResourceError",
    "StructureError",
    "TableReport",
    "Unconverged",
    "UnsupportedSource",
    "VerificationReport",
    "WrongFamily",
    "bound_report",
    "canonical_form",
    "certificate_from_json",
    "certificate_to_json",
    "certify_any",
    "commutation_phase",
    "complete_bipartite_network",
    "cut_inflation",
    "dagger",
    "doubled_inflation",
    "enumerate_connected_multigraphs",
    "exhaustive_table",
    "fidelity_bound_from_lambda",
    "find_angle_or_triangle",
    "ghz_closed_form_bound",
    "ghz_group",
    "ghz_numeric_bound",
    "ghz_prime_bound",
    "ghz_section3_chain",
    "ghz_stabilizer_element",
    "graph_generator",
    "identity",
    "is_connected",
    "lc_orbit",
    "local_complement",
    "marginal_chain_checks",
    "multiply",
    "neighbors",
    "partition_neighborhoods",
    "power",
    "reduce",
    "reduced_equal",
    "relabel",
    "restrict",
    "select_power_t",
    "single",
    "support",
    "theta_d",
    "verify_obs3",
    "word",
]
