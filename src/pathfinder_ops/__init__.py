"""Decision models for pathfinder flight operations.

Five analysis families behind one package: the gate-state Markov chain and
its stationary distribution (`chain`), flight/controller decision models
(`agents`), worst-case collective-rejection analysis with selfless-behavior
and shared-noise extensions (`worstcase`), seeded Monte Carlo oracles
(`simulate`), and coordination-log classification plus chain calibration
(`ntml`). The `pathfinder-ops` CLI exposes every family but `agents` as
subcommands.

Every name below is exported lazily (PEP 562): the module that defines it
is imported on first access, so `import pathfinder_ops` imports no numpy.
"""

__version__ = "0.26.0"

_EXPORTS = {
    "agents": (
        "AgentProfile",
        "ControllerCandidate",
        "ControllerContext",
        "candidates_from_json",
        "controller_payoff",
        "p_accept",
        "rank_candidates",
        "utility_accept",
    ),
    "chain": (
        "ChainParams",
        "stationary",
        "steady_state",
        "sweep_steady_state",
        "sweep_to_csv",
    ),
    "errors": (
        "DegenerateGradient",
        "InsufficientData",
        "NonUniqueStationary",
        "NoTippingPoint",
        "PathfinderOpsError",
    ),
    "ntml": (
        "Label",
        "LabelCounts",
        "LogCorpus",
        "LogRecord",
        "Match",
        "RuleSet",
        "calibrated_steady_state",
        "classify",
        "classify_corpus",
        "default_rules",
        "estimate_params",
        "generate_corpus",
        "labeled_to_csv",
        "load_rules",
        "read_corpus_csv",
    ),
    "simulate": (
        "MixtureBatchResult",
        "SelectionOutcome",
        "SimConfig",
        "expected_offers",
        "make_rng",
        "mixture_batch",
        "run_selection_round",
        "simulate_chain",
    ),
    "worstcase": (
        "GradientSignMap",
        "NoiseKind",
        "NoiseSpec",
        "SocialParams",
        "WorstCaseScenario",
        "gradient_sign_map",
        "group_reject_probs",
        "noisy_tipping_point",
        "noisy_worst_case_prob",
        "social_tipping_point",
        "social_worst_case_prob",
        "tipping_point",
        "tipping_point_gradient",
        "worst_case_prob",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name, imported from its module on first access and then
    bound here, so later lookups find it directly."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime shows it.
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
