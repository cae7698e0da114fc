"""Surplus-based average consensus on directed graphs under a uniform delay.

Builds the augmented system matrix, computes spectra, delay margins and
rightmost quasi-polynomial roots, and simulates the delayed dynamics.
"""

from .delay import (
    DelayMargin,
    RightmostRoot,
    StabilityMap,
    lambert_w,
    rightmost_root,
    rightmost_root_oracle,
    stability_map,
    tau_critical,
    tau_tilde_bound,
)
from .errors import (
    ConsensusError,
    GraphFormatError,
    InvalidParameter,
    NoAdmissibleEpsilon,
    NotStronglyConnected,
    NumericalFailure,
    PreconditionViolated,
)
from .graph import (
    DegreeProfile,
    DirectedGraph,
    LaplacianPair,
    adjacency,
    build_graph,
    degree_profile,
    is_balanced,
    is_strongly_connected,
    laplacians,
    load_adjacency_json,
    load_edge_list,
    random_strongly_connected,
    save_edge_list,
)
from .sim import (
    SimConfig,
    Trajectory,
    simulate,
)
from .system import (
    NullEigenvectors,
    Spectrum,
    build_system,
    find_eps_bar,
    lambda2_slope,
    null_eigenvectors,
    spectrum,
)

__version__ = "0.1.0"


def demo_graph_path():
    """Path of the bundled 6-agent example graph."""
    from importlib.resources import files

    return str(files("surplus_consensus").joinpath("data/demo6.edges"))
