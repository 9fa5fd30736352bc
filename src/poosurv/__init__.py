"""Carrier survival curves and parent-of-origin effects from pedigrees.

For age-dependent dominant diseases, the sex of the parent transmitting a
mutation can shift the carrier's age at onset, but with mostly missing
genotypes the transmitting parent is rarely observed. This package treats
each individual's ordered genotype as a latent variable: exact posterior
probabilities are computed on the family's junction tree, and an EM loop
alternates those posteriors with a weighted Cox proportional-hazards fit of
the origin effect and a Breslow baseline hazard. A simulation harness
generates scenario studies over varying genotype visibility, and a CLI
(``poosurv``) wires everything together.
"""

__version__ = "0.1.0"

from .pedigree import (
    IndividualRecord,
    Pedigree,
    PedigreeError,
    Sex,
    ValidationWarning,
    apply_proband_correction,
    format_ped,
    parse_ped,
    pin_genotypes,
    validate,
)
from .genetics import (
    DEFAULT_EPSILON,
    DEFAULT_ETA,
    GENOTYPE_LABELS,
    FixedEvidence,
    Genotype,
    ModelParams,
    TRANSMISSION,
    evidence_factor,
    evidence_matrix,
    founder_prior,
    penetrance_factor,
    test_factor,
)
from .inference import (
    InferenceError,
    MarginalEngine,
    MarginalResult,
    PosteriorWeights,
    ZeroEvidenceError,
    brute_force_marginals,
    posterior_marginals,
)
from .junction import CliqueTree, build_clique_tree
from .survival import (
    BaselineHazard,
    ConvergenceError,
    CoxError,
    CoxProblem,
    MonotoneLikelihoodError,
    RankDeficiencyError,
    SingularInformationError,
    SurvivalCurve,
    survival_curve,
    wald_test,
)
from .em import (
    BootstrapReplicate,
    EMConfig,
    EMError,
    EMIteration,
    EMTrace,
    FitResult,
    bootstrap_em,
    em_fit,
)
from .simulate import (
    DEFAULT_HAZARD,
    FAMILY_TEMPLATE,
    HazardSpec,
    ReplicateRow,
    Scenario,
    TruthRecord,
    apply_scenario_mask,
    format_truth,
    parse_truth,
    replicate_study,
    simulate_families,
)

__all__ = [
    "__version__",
    # pedigree
    "IndividualRecord", "Pedigree", "PedigreeError", "Sex", "ValidationWarning",
    "apply_proband_correction", "format_ped", "parse_ped", "pin_genotypes",
    "validate",
    # genetics
    "DEFAULT_EPSILON", "DEFAULT_ETA", "FixedEvidence", "GENOTYPE_LABELS",
    "Genotype", "ModelParams", "TRANSMISSION", "evidence_factor",
    "evidence_matrix", "founder_prior", "penetrance_factor", "test_factor",
    # inference
    "CliqueTree", "InferenceError", "MarginalEngine", "MarginalResult",
    "PosteriorWeights", "ZeroEvidenceError", "brute_force_marginals",
    "build_clique_tree", "posterior_marginals",
    # survival
    "BaselineHazard", "ConvergenceError", "CoxError", "CoxProblem",
    "MonotoneLikelihoodError", "RankDeficiencyError", "SingularInformationError",
    "SurvivalCurve", "survival_curve", "wald_test",
    # em
    "BootstrapReplicate", "EMConfig", "EMError", "EMIteration", "EMTrace",
    "FitResult", "bootstrap_em", "em_fit",
    # simulate
    "DEFAULT_HAZARD", "FAMILY_TEMPLATE", "HazardSpec", "ReplicateRow",
    "Scenario", "TruthRecord", "apply_scenario_mask", "format_truth",
    "parse_truth", "replicate_study", "simulate_families",
]
