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
    segment_intersects_box,
    trace_scene,
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
from .features import GridSpec, encode_for_receiver, encode_scene
from .dataset import (
    DatasetFormatError,
    EpisodeRecord,
    Example,
    SceneRecord,
    Split,
    build_episode_record,
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
    episode_reward,
    greedy_agent,
    normalize_powers,
    round_robin_agent,
    tabular_q_agent,
)

__version__ = "0.1.0"
