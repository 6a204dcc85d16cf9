"""Speech-driven 3D lip animation: audio features in, vertex displacements out."""

from .audio import MfccFrames, Waveform, load_wav, mfcc, resample, save_wav
from .errors import LipSyncError
from .features import (
    FeatureKind,
    FeatureSequence,
    SurrogateProvider,
    features_from_wav,
    load_features,
    resample_features,
    save_features,
    surrogate_features,
)
from .mesh import (
    DisplacementSequence,
    TemplateMesh,
    apply_displacements,
    load_anim,
    load_obj,
    save_anim,
    save_obj,
)
from .model import (
    ArchConfig,
    NetworkParams,
    backward,
    forward,
    forward_batch,
    forward_with_cache,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .synthdata import CorpusManifest, OracleArticulator, articulate, generate_corpus, make_head
from .training import (
    LossConfig,
    Sample,
    TrainConfig,
    adam_step,
    loss_total,
    train,
)
from .evaluation import (
    EvalReport,
    ProjectionConfig,
    evaluate,
    lip_trajectory_csv,
    positional_error,
    project_landmarks,
    velocity_error,
)

__version__ = "0.1.0"
