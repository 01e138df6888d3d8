"""beamcanyon: mmWave V2I beam-selection simulation toolkit."""

from .scenario import (
    Box,
    Episode,
    EpisodeParams,
    Lane,
    Rect,
    Scenario,
    ScenarioConfig,
    Scene,
    Vec3,
    Vehicle,
    VehicleKind,
    VehicleType,
    generate_episode,
    make_canyon_scenario,
    sample_vehicle_type,
    vehicle_bounding_box,
)
from .raytrace import (
    LosStatus,
    PairRecord,
    Ray,
    TraceConfig,
    classify_los,
    free_space_gain,
    trace_scenes,
)
from .mimo import (
    ArraySpec,
    LabelMap,
    SweepResult,
    compact_labels,
    compose_channel,
    dft_codebook,
    strongest_ray_angles,
    sweep,
    upa_steering,
)
from .features import GridSpec, encode_scenes, receiver_view
from .dataset import (
    DatasetFormatError,
    EpisodeRecord,
    Examples,
    SceneRecord,
    Split,
    build_episode_record,
    encode_record,
    export_csv,
    extract_examples,
    read_episodes,
    split_episodes,
    write_episodes,
)
from .classify import (
    EvalReport,
    evaluate,
    knn_classifier,
    majority_classifier,
    predict,
)
from .scheduler import (
    AllocationPlan,
    QLearningConfig,
    RewardTable,
    SchedulerParams,
    SchedulerState,
    build_reward_table,
    dp_optimal,
    env_reset,
    env_step,
    greedy_agent,
    normalize_powers,
    round_robin_agent,
    tabular_q_agent,
)

__version__ = "0.1.0"
