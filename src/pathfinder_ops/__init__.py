"""Decision models for pathfinder flight operations.

Four analysis families behind one package: the gate-state Markov chain and
its stationary distribution (`chain`), flight/controller decision models
(`agents`), worst-case collective-rejection analysis with selfless-behavior
and shared-noise extensions (`worstcase`), seeded Monte Carlo oracles
(`simulate`), and coordination-log classification plus chain calibration
(`ntml`). The `pathfinder-ops` CLI exposes each as a subcommand.
"""

__version__ = "0.12.0"

from .agents import (
    AgentProfile,
    ControllerCandidate,
    ControllerContext,
    candidates_from_json,
    controller_payoff,
    load_candidates,
    p_accept,
    p_reject,
    profiles_from_json,
    rank_candidates,
    utility_accept,
)
from .chain import (
    ChainParams,
    default_grid,
    stationary,
    steady_state,
    sweep_steady_state,
    sweep_to_csv,
)
from .errors import (
    DegenerateGradient,
    InsufficientData,
    NonUniqueStationary,
    NoTippingPoint,
    PathfinderOpsError,
)
from .ntml import (
    Label,
    LabelCounts,
    LogCorpus,
    LogRecord,
    Match,
    RuleSet,
    calibrated_steady_state,
    classify,
    classify_corpus,
    default_rules,
    estimate_params,
    generate_corpus,
    labeled_to_csv,
    load_rules,
    read_corpus_csv,
)
from .simulate import (
    MixtureBatchResult,
    SelectionOutcome,
    SimConfig,
    make_rng,
    mixture_batch,
    run_selection_round,
    simulate_chain,
)
from .worstcase import (
    GradientSignMap,
    NoiseKind,
    NoiseSpec,
    SocialParams,
    WorstCaseScenario,
    gradient_sign_map,
    group_reject_probs,
    noisy_tipping_point,
    noisy_worst_case_prob,
    social_reject_probs,
    social_tipping_point,
    social_worst_case_prob,
    tipping_point,
    tipping_point_gradient,
    worst_case_prob,
)
