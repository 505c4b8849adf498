"""ruleval: evaluate A/B-test decision rules by their cumulative returns.

Decision rules map an experiment's observations to an arm to launch.  This
package estimates what a rule would have earned on a north-star metric
across a corpus of past experiments, using estimators that separate the
data that makes the decision from the data that scores it, which removes
the winner's curse of the plug-in estimate.  A closed-form Gaussian model
and a Monte Carlo harness validate the estimators end to end.
"""

__version__ = "0.1.0"

from .closed_form import (
    DEFAULT_PROXIES,
    EffectModel,
    ProxySpec,
    cv_expectation,
    levelset_grid,
    mills_conditional,
    naive_expectation,
    true_reward,
)
from .corpus import (
    CorpusFormatError,
    ExperimentCorpus,
    evaluate_rules,
    ingest_csv,
    make_synthetic_corpus,
    write_corpus_csv,
)
from .estimators import (
    ConfidenceInterval,
    EstimatorConfig,
    bootstrap_ci,
    estimate_reward,
    per_experiment_rewards,
)
from .experiments import (
    ArmData,
    ArmStack,
    DecisionRule,
    DegenerateArmError,
    DegenerateFoldError,
    ExperimentData,
    RewardSpec,
)
from .figures import run_figure
from .simulator import (
    DEFAULT_MODEL,
    SimulationConfig,
    SweepSpec,
    check_poisson_rescaling,
    check_rule_selection,
    run_bias_sweep,
)

__all__ = [
    "ArmData",
    "ArmStack",
    "ConfidenceInterval",
    "CorpusFormatError",
    "DEFAULT_MODEL",
    "DEFAULT_PROXIES",
    "DecisionRule",
    "DegenerateArmError",
    "DegenerateFoldError",
    "EffectModel",
    "EstimatorConfig",
    "ExperimentCorpus",
    "ExperimentData",
    "ProxySpec",
    "RewardSpec",
    "SimulationConfig",
    "SweepSpec",
    "bootstrap_ci",
    "check_poisson_rescaling",
    "check_rule_selection",
    "cv_expectation",
    "estimate_reward",
    "evaluate_rules",
    "ingest_csv",
    "levelset_grid",
    "make_synthetic_corpus",
    "mills_conditional",
    "naive_expectation",
    "per_experiment_rewards",
    "run_bias_sweep",
    "run_figure",
    "true_reward",
    "write_corpus_csv",
]
