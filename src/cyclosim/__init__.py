"""cyclosim: simulator and control stack for a multimodal cycloidal-rotor vehicle.

The package covers the full loop for a single vehicle that drives, flies and
swims: attitude algebra (:mod:`cyclosim.geometry`), per-medium plant models
with a fixed-step RK4 integrator and control allocation
(:mod:`cyclosim.dynamics`), a cascade PID controller (:mod:`cyclosim.pid`),
a nonlinear MPC for the aerial mode (:mod:`cyclosim.nmpc`), the mode state
machine (:mod:`cyclosim.fsm`), mission definitions and reference generation
(:mod:`cyclosim.mission`), the closed-loop runner with logging and metrics
(:mod:`cyclosim.sim`), and a command-line front end (:mod:`cyclosim.cli`).
"""

from .config import Config, NmpcConfig, PidConfig, SimConfig, default_config, load_config
from .dynamics import (
    ActuatorCommand,
    AerialInput,
    AquaticInput,
    TerrestrialInput,
    VehicleParams,
    VehicleState,
    aerial_derivative,
    aerial_step,
    allocate,
    aquatic_derivative,
    forward_mix,
    hover_state,
    step_rk4,
    terrestrial_derivative,
)
from .errors import (
    ConfigError,
    CyclosimError,
    DivergenceError,
    GimbalLockError,
    MissionError,
    SaturationError,
    SolverFailureError,
)
from .fsm import (
    CommandId,
    EventKind,
    Gear,
    Medium,
    ModeState,
    SubState,
    TransitionEvent,
    initial_state,
    legal_transitions,
    replay,
    step_fsm,
    successor,
)
from .geometry import (
    EulerAngles,
    GimbalLockWarning,
    body_rates_to_euler_rates,
    body_to_world_velocity,
    euler_rates_to_body_rates,
    euler_to_quat,
    euler_to_rotation,
    quat_derivative,
    quat_multiply,
    quat_normalize,
    quat_to_euler,
    wrap_angle,
)
from .mission import (
    Action,
    Mission,
    ReferenceGenerator,
    Segment,
    builtin_mission,
    load_mission,
    mission_events,
    mission_plan,
    save_mission,
)
from .nmpc import NmpcController, NmpcSolution, solve
from .pid import CascadePid
from .sim import (
    RunLog,
    SegmentMetrics,
    TrackingMetrics,
    compute_metrics,
    run,
    save_log,
    save_metrics,
)

__version__ = "0.1.0"
