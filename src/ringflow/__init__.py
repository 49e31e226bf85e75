"""ringflow: ring-road traffic microsimulation, DDQN traffic shaping, and
fundamental-diagram hysteresis analysis."""

from .idm import IdmParams
from .ring import (
    CapacityError,
    CollisionReport,
    FormationStrategy,
    RingState,
    apply_formation,
    load_vehicles,
    remove_vehicles,
    revert_to_human,
    rollout,
    save_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    step,
    TrajectoryRecorder,
)
from .metrics import (
    FdTrace,
    Phase,
    TraceRecorder,
    hysteresis_gap,
    interp_flow,
    measure,
    peak_flow,
)
from .mpr import (
    DegenerateScenarioError,
    HeadwayScenario,
    InfeasibleError,
    required_cavs,
    verify_headway,
)
from .net import (
    AdamState,
    CheckpointError,
    LrSchedule,
    MlpSpec,
    QNetwork,
    adam_step,
    forward,
    init_network,
    load_checkpoint,
    loss_and_gradients,
    lr_at,
    save_checkpoint,
)
from .dqn import (
    DdqnConfig,
    EnvSpec,
    EpsilonSchedule,
    ReplayBuffer,
    RewardConfig,
    RingEnv,
    ddqn_targets,
    epsilon_at,
    evaluate,
    select_action,
    train,
)
from .baselines import (
    SwitchBackResult,
    VslPolicy,
    VslRule,
    default_vsl_policy,
    find_flow_peak_step,
    run_idm_recovery,
    run_switch_back,
    run_vsl,
)
from .scenario import (
    BuiltScenario,
    build_scenario,
    idm_plateau_speed,
    steady_speed,
    unload_incrementally,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_profile,
    load_config,
    preset,
)

__version__ = "0.1.0"
