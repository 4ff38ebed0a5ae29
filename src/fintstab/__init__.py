"""Finite-time stabilization of delayed systems and network synchronization.

Simulation (fixed-step DDE integration with sign feedback), feasibility
checks of the sufficient stability conditions, adaptive gain rules, Lyapunov
functional monitors, and a three-node Lorenz network preset.
"""

from .conditions import (ConditionReport, InfeasibleError,
                         check_network_theorem, check_scalar_theorem,
                         lambda_max_sym, left_eigenvector, optimal_eps1,
                         settling_bound)
from .config import ConfigError, ExperimentConfig, load_config
from .control import (NetworkAdaptiveHook, NetworkControlSpec,
                      ScalarAdaptiveHook, StaticScalarGains, full_node_control,
                      gain_rates, pinning_control, static_scalar_control)
from .delays import (DelayProfile, NoClosedFormError, RateFunction,
                     asymptotics)
from .integrate import (DivergenceError, HistoryTrajectory,
                        HistoryWindowError, IntegratorConfig,
                        RunningWindowSup, delayed_linear_rhs, norm1,
                        norm_inf)
from .monitors import (ContactPoint, LyapunovTrace, PhaseReport,
                       contact_point_decrease, detect_phases,
                       functional_series, trace_functional)
from .network import (NetworkModel, SyncExperiment, SyncResult,
                      error_index_series, lorenz_lipschitz_bound,
                      lorenz_preset, lorenz_rhs, simulate_sync,
                      sin_plus_linear)

__version__ = "0.1.0"
