"""Multi-user split-point offloading of personalized diffusion inference:
latency/accuracy modeling, exact inner solver, assignment solvers, and a
reinforcement-learning policy with exact oracles for validation."""

from .qoe import (
    ContractError,
    Decision,
    DecisionEntry,
    LatencyBreakdown,
    all_local_decision,
    compose_pai,
    e2e_latency,
    fitted_pai,
    objective,
    step_latency_edge,
    step_latency_local,
    user_qoe,
)
from .scenario import (
    DeviceProfile,
    EdgeConfig,
    GeneratorConfig,
    PaiParams,
    Scenario,
    UserRequest,
    ValidationError,
    default_edge,
    generate_scenario,
    load_scenario,
    marginal_pai_rate,
    save_scenario,
)
from .split import SplitResult, optimal_split

__version__ = "0.1.0"
