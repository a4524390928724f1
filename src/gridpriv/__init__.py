"""Privacy-preserving secondary frequency control on synthetic networks."""

from .adversary import (
    AttackReport,
    KnowledgeSet,
    naive_readout,
    observer_attack,
    origin_detection,
)
from .devices import DeviceSet, DeviceState, design_optimal_gains, device_outputs, device_rhs
from .equilibrium import EquilibriumSolution, build_equilibrium, lyapunov_value, solve_kkt
from .errors import ConfigurationError, DivergenceError, GridPrivError, InfeasibilityError
from .network import Graph, NetworkModel, PlantState, dc_power_flow, swing_rhs
from .scenario import RandomScenarioSpec, build_scenario, gen_scenario, load_scenario
from .schemes import (
    PrivacyParams,
    SchemeConfig,
    SchemeState,
    check_design_condition,
    max_feasible_beta,
    refresh_privacy_signals,
    scheme_rhs,
)
from .sim import (
    Disturbance,
    Scenario,
    Trajectory,
    marginal_costs,
    simulate,
    steady_state_metrics,
)

__version__ = "0.11.0"
