"""Workbench for doxastic and epistemic logics on directed hypergraph models.

The package provides the formula language, doxastic Kripke models,
chromatic directed hypergraph models with their satisfaction relation,
conversions in both directions, Hilbert-style proof checking for three
systems and bounded countermodel search.
"""

from .convert import (
    ConversionCertificate,
    check_modal_equivalence,
    enumerate_formulas,
    hypergraph_to_kripke,
    kripke_to_hypergraph,
)
from .errors import (
    FragmentError,
    HyperdoxError,
    InputError,
    ParseError,
    PreconditionError,
    ValidationError,
    WorkspaceError,
)
from .formula import (
    And,
    Atom,
    Believes,
    Formula,
    Knows,
    Not,
    f_bottom,
    f_iff,
    f_imp,
    f_or,
    f_top,
    parse_formula,
    render_formula,
)
from .hypergraph import (
    DirectedEdge,
    HypergraphClassReport,
    HypergraphModel,
    Vertex,
    accessibility,
    edge_atoms,
    graph_metrics,
    induced_complex,
    satisfies_h,
    validate_model,
)
from .kernel import fragment_check, modal_depth
from .kripke import (
    KripkeClassReport,
    KripkeModel,
    Relation,
    RelationProperties,
    check_local_veracity,
    generated_equivalence,
    model_properties,
    relation_properties,
    satisfies_k,
)
from .modelio import load_model, load_proof, save_model
from .proofcheck import (
    MP,
    Axiom,
    NecB,
    NecK,
    ProofStep,
    SchemeId,
    System,
    Tautology,
    check_proof,
    instantiate_scheme,
    is_tautology_instance,
    match_scheme,
)
from .search import (
    SearchBounds,
    SearchResult,
    countermodel,
    enumerate_models,
    soundness_suite,
)
from .workspace import PropVar, Workspace, synthetic_workspace

__version__ = "0.1.0"
