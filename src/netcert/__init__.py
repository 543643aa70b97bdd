"""netcert: certificates that qudit graph states cannot be prepared in
networks of bipartite sources.

The package is organized in layers; ``pauli`` and ``stabilizer`` are the
symbolic reference layer, which only ``oracle.dense`` and the tests read:

- ``pauli``      exact symbolic Weyl-Heisenberg operators on named sites
- ``graph``      the multigraph type mod d: parsers, connectivity, local complementation
- ``multigraph`` orbit walks, canonical forms, enumeration, neighborhood partitions
- ``stabilizer`` graph-state generators and the GHZ stabilizer group
- ``network``    the four marginal equalities of the inflation chain, in closed form
- ``checker``    certificates, their JSON forms, the witness rule, verification, bounds
- ``certify``    certificate search over single graphs and table cells
- ``ghzbound``   GHZ fidelity upper bounds (closed form, prime bisection, numeric)
- ``oracle``     dense ground truth and property suites, for the tests and selftest
- ``cli``        command-line front end
"""

# The benchmark's layer trace (perfbench/layertrace.py) wraps certify.certify_any and
# certify.verify_obs3, so certify binds checker's, and reads sys.modules["netcert.oracle"].
from . import oracle  # noqa: F401
from .certify import NotCertified, TableReport, certify_any, exhaustive_table
from .checker import (
    Certificate,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
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
    WrongFamily,
)
from .ghzbound import (
    GHZ_PARTIES,
    BoundReport,
    GhzChainRecord,
    bound_report,
    ghz_closed_form_bound,
    ghz_numeric_bound,
    ghz_prime_bound,
    ghz_section3_chain,
    theta_d,
)
from .graph import Multigraph, is_connected, local_complement, neighbors
from .multigraph import (
    NeighborhoodPartition,
    OrbitResult,
    canonical_form,
    enumerate_connected_multigraphs,
    find_angle_or_triangle,
    lc_orbit,
    partition_neighborhoods,
)
from .network import marginal_chain_checks
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
    "Multigraph",
    "NeighborhoodPartition",
    "NetcertError",
    "NotCertified",
    "OrbitResult",
    "PauliOperator",
    "PropertyViolation",
    "RangeError",
    "ResourceError",
    "StructureError",
    "TableReport",
    "Unconverged",
    "VerificationReport",
    "WrongFamily",
    "bound_report",
    "canonical_form",
    "certificate_from_json",
    "certificate_to_json",
    "certify_any",
    "commutation_phase",
    "dagger",
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
    "relabel",
    "restrict",
    "select_power_t",
    "single",
    "support",
    "theta_d",
    "verify_obs3",
    "word",
]
