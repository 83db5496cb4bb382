"""Maximum-power MPC for a variable-speed wind turbine in the partial-load
region: nonlinear plant simulator, analytic linearization with exact ZOH
discretization, a condensed-QP receding-horizon controller with two model
sources (switched-offline and re-linearized-online), verification oracles
and checks, and a deterministic experiment harness.
"""

from .control import (OfflineMpc, OnlineMpc, ReferenceSignal,
                      build_model_set, reference)
from .errors import (ConfigError, DomainError, InfeasibleQpError,
                     IntegrationError, QpIterationError, SimulationError)
from .experiment import (Metrics, SimLog, compute_metrics, run_closed_loop,
                         run_experiment)
from .linearize import (OperatingPoint, continuous_model, discretize,
                        equilibrium, matrix_exponential, torque_gradients)
from .mpc import (CondensedQp, MpcWeights, augment, condense, condense_cost,
                  mpc_step, prediction_matrices)
from .qp import ActiveSetSolver, QpFactor, factorize
from .turbine import (ControlInput, PlantState, TurbineParams,
                      aerodynamic_power, aerodynamic_torque, derivatives,
                      generator_power, power_coefficient, step,
                      tip_speed_ratio, unified_matrices)
from .verify import (enumerate_qp, fd_jacobian, run_benchmark,
                     verify_linearization)
from .wind import WindProfile, generate_wind

__version__ = "0.1.0"
