"""rlselect: wrapper feature selection driven by a recurrent double-DQN agent.

A small numpy library that learns compact, high-accuracy feature subsets for
binary malware classification by letting a DDQN agent with a recurrent
decision network pick features one at a time, rewarded by held-out classifier
accuracy. Ships with the featurization pipeline for disassembled Android
samples, a self-contained classifier suite, filter-method baselines, and
reproducible experiment drivers.
"""

__version__ = "0.1.0"  # bound before the submodule imports: run reads it

from .agent import AgentConfig, EpsilonSchedule, ReplayMemory, Transition, ddqn_target, ddqn_targets, select_action, train_step
from .baselines import RankedFeatures, chi_square, information_gain, random_subset, top_k
from .classifiers import ClassifierKind, TrainedClassifier, accuracy, cv_accuracy, fit, predict
from .config import RunConfig
from .dataset import (
    FeatureDictionary,
    SampleMatrix,
    SplitKind,
    SplitPlan,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    project,
    save_csv,
    stratified_split,
)
from .env import FeatureEnv, RewardOracle
from .featurize import (
    DEFAULT_OPCODE_MAP,
    NGramVocabulary,
    OpcodeAlphabetMap,
    build_vocabulary,
    extract_ngrams,
    map_dalvik_to_letters,
    vectorize_declared,
    vectorize_ngrams,
)
from .net import NetworkConfig, NetworkParams, OptimizerState, backward, forward, forward_batch, init, load_checkpoint, save_checkpoint, step, sync
from .run import RunReport, run_training, sub_seed
