"""uailab: an exact-arithmetic laboratory for universal induction and agents.

Semimeasure algebra over finite action/percept histories, finite Bayesian
mixtures with exact posteriors, perspective transforms between history
distributions and environments, a frozen monotone machine with
budget-bounded program enumeration, expectimax agents, and adversarial
constructions — everything evaluated in exact rational arithmetic.
"""
from .core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    ComponentFormatError,
    History,
    NormalizationError,
    PerceptAlphabet,
    PerceptSymbol,
    Prob,
    UndefinedConditionalError,
    exact_masses,
    frac_str,
    history_from_symbols,
    prob,
)
from .semimeasure import (
    ActionEchoJoint,
    ChronEnv,
    CheckReport,
    DeterministicPolicy,
    IIDEnv,
    JointSemimeasure,
    MismatchRow,
    NoisyCopyEnv,
    Policy,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    anticopy_machine,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    complement_env,
    constant_policy,
    contexts,
    copy_machine,
    defective_uniform,
    leaky_copy,
    max_ratio,
    mu_id,
    table_component,
    uniform_env,
    uniform_measure,
    uniform_policy,
    walk,
)
from .mixture import (
    EnvMixture,
    JointMixture,
    MixturePolicy,
    PosteriorState,
    check_predictive_consistency,
    harmonic_prior,
    posterior_weights,
    predictive,
    uniform_prior,
)
from .transforms import (
    DualJoint,
    EnvView,
    FactoringReport,
    NormalizedPredictor,
    check_env_dual_roundtrip,
    check_normalization_dominance,
    check_representation_roundtrip,
    chron_to_joint,
    dual,
    dual_mixture,
    env,
    env_view_ratio_probe,
    factoring_check,
    normalize,
)
from .utm import (
    MACHINE_DEFINITION,
    MACHINE_HASH,
    PROGRAM_COMPLEMENT,
    PROGRAM_CONST0,
    PROGRAM_ECHO,
    ChronEnumApprox,
    JointEnumApprox,
    RunResult,
    enumerate_chron,
    enumerate_joint,
    run_program,
)
from .agents import (
    brute_force_action,
    dualistic_aixi_action,
    expectimax_action,
    expectimax_value,
    joint_aixi_action,
    one_step_action,
    one_step_action_values,
    policy_value,
)
from .adversary import (
    AdversaryStep,
    AdversaryTrace,
    DominationReport,
    copy_conditional_trace,
    domination_probe,
    greedy_antipredict,
)

__version__ = "0.1.0"
