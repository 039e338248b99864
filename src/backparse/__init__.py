"""Backtracking transition machines for tagging and dependency parsing."""

__version__ = "0.1.0"

from .corpus import (
    ConlluError,
    CorpusSplit,
    ProportionsError,
    Sentence,
    Token,
    ValidationError,
    is_projective,
    kfold_split,
    parse_conllu,
    serialize,
)
from .machine import (
    BACK,
    LEFT,
    NOBACK,
    PARSER,
    REDUCE,
    RIGHT,
    SHIFT,
    TAGGER,
    TAGPARSER,
    Action,
    Configuration,
    Machine,
    max_actions,
    render_trace,
    tag_action,
)
from .machine import replay
from .neural import FeatureExtractor, Model, QNetwork, load_word_vectors, q_target
from .oracle import (
    NonProjectiveError,
    OracleVerdict,
    dynamic_oracle,
    oracle_action,
    reachable_gold_arcs,
    static_oracle,
)
from .rewards import action_reward, back_reward, noback_reward, parse_reward, tag_reward
from .training import (
    REGIME_RL,
    REGIME_RL_BACKTRACK,
    REGIME_SUP,
    DecodeResult,
    ExplorationSchedule,
    TrainConfig,
    decode,
    decode_corpus,
    schedule_defaults,
    select_action,
    train_rl,
    train_supervised,
)
from .evaluation import BackStats, Metrics, back_stats, paired_bootstrap, score

__all__ = [name for name in dir() if not name.startswith("_")]
