"""Training regimes (supervised with oracles, online Q-learning) and decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence, is_projective
from .machine import (
    BACK_STATE,
    PARSER,
    TAGGER,
    Configuration,
    Machine,
    cell_is_value,
    max_actions,
)
from .neural import (
    FeatureExtractor,
    Model,
    QNetwork,
    _is_finite,
    _is_int,
    build_vocabs,
    load_word_vectors,
    head_for_state,
    heads_for_kind,
    q_target,
    slot_layout,
    supervised_update,
    tag_inventory,
    td_update,
)
from .oracle import oracle_action, static_oracle
from .rewards import action_reward

REGIME_SUP = "sup"
REGIME_RL = "rl"
REGIME_RL_BACKTRACK = "rl-backtrack"
REGIMES = (REGIME_SUP, REGIME_RL, REGIME_RL_BACKTRACK)


@dataclass(frozen=True)
class ExplorationSchedule:
    """Per-epoch probabilities of acting at random (epsilon) or following
    the oracle (beta); the remaining mass exploits the model."""

    eps_floor: float = 0.1
    eps_scale: float = 0.5
    eps_decay: float = 0.25
    beta_scale: float = 0.3
    beta_decay: float = 0.5

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not _is_finite(value):
                raise ValueError(f"schedule {name} must be a finite number, got {value!r}")

    def epsilon(self, epoch: int) -> float:
        e = self.eps_floor + self.eps_scale * math.exp(-self.eps_decay * (epoch - 1))
        return min(max(e, self.eps_floor), self.eps_floor + self.eps_scale)

    def beta(self, epoch: int) -> float:
        b = self.beta_scale * math.exp(-self.beta_decay * (epoch - 1))
        return min(max(b, 0.0), self.beta_scale)


def schedule_defaults(epoch: int) -> tuple[float, float]:
    sched = ExplorationSchedule()
    return sched.epsilon(epoch), sched.beta(epoch)


DEFAULT_EPOCHS = {TAGGER: 200, PARSER: 200, "tagparser": 300}


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    gamma: float = 0.9
    seed: int = 0
    batch_size: int = 1
    epochs: int | None = None
    k: int = 1
    hidden: int = 3200
    word_dim: int = 300
    feat_dim: int = 128
    dropout: float = 0.3
    stop_score: float | None = None  # stop early once dev selection reaches this
    word_vectors: str | None = None  # optional pretrained vectors, else random init
    schedule: ExplorationSchedule = field(default_factory=ExplorationSchedule)

    def __post_init__(self):
        for name in ("seed", "batch_size", "k", "hidden", "word_dim", "feat_dim"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs is not None and not _is_int(self.epochs):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        for name in ("hidden", "word_dim", "feat_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("alpha", "gamma", "dropout"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.stop_score is not None and not _is_finite(self.stop_score):
            raise ValueError(f"stop_score must be a finite number, got {self.stop_score!r}")
        if self.word_vectors is not None and not isinstance(self.word_vectors, str):
            raise ValueError(f"word_vectors must be a path, got {self.word_vectors!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def resolved_epochs(self, kind: str) -> int:
        return self.epochs if self.epochs is not None else DEFAULT_EPOCHS[kind]


@dataclass
class DecodeResult:
    sentence: Sentence            # the input, gold-annotated when available
    predicted: Sentence
    log: tuple
    back_counts: tuple[int, ...]
    n_actions: int
    machine: Machine


def build_model(kind: str, train_sentences, cfg: TrainConfig, k: int) -> Model:
    tags = tag_inventory(train_sentences)
    vocabs = build_vocabs(train_sentences, tags)
    machine = Machine(kind=kind, k=k, tags=() if kind == PARSER else tags)
    extractor = FeatureExtractor(kind, vocabs)
    dims = {
        "word": cfg.word_dim,
        "pos": cfg.feat_dim,
        "letter": cfg.feat_dim,
        "action": cfg.feat_dim,
        "flag": cfg.feat_dim,
    }
    net = QNetwork(
        layout=slot_layout(kind),
        vocab_sizes={sp: len(v) for sp, v in vocabs.items()},
        space_dims=dims,
        hidden=cfg.hidden,
        heads=heads_for_kind(kind, len(tags)),
        dropout=cfg.dropout,
        seed=cfg.seed,
    )
    if cfg.word_vectors:
        vectors = load_word_vectors(cfg.word_vectors)
        table = net.emb["word"]
        # Every row has the file's width; it must be word_dim whether or not
        # any word is in the vocabulary.
        dim = len(next(iter(vectors.values())))
        if dim != cfg.word_dim:
            raise ValueError(f"{cfg.word_vectors}: pretrained vectors have dim {dim}, expected {cfg.word_dim}")
        for word, vec in vectors.items():
            row = vocabs["word"].index.get(word)
            if row is not None:
                table[row] = vec
    return Model(machine=machine, extractor=extractor, net=net, gamma=cfg.gamma)


# ----------------------------------------------------------------------
# action selection and environment stepping


def select_action(model, machine, c, s, epsilon, beta, rng):
    """Random with probability epsilon, oracle with probability beta,
    otherwise the model's best legal action.  Every caller passes
    `model.machine` as `machine`."""
    legal = machine.legal_actions(c)
    u = rng.random()
    if u < epsilon:
        return legal[int(rng.integers(len(legal)))]
    if u < epsilon + beta:
        return oracle_action(c, s, machine)
    return model.greedy_action(c, s)


def _advance_forced(machine, c, s, with_rewards: bool) -> Configuration:
    """Apply actions with no alternative; they are not classifier decisions."""
    while not c.terminal:
        legal = machine.legal_actions(c)
        if len(legal) > 1:
            break
        r = action_reward(c, legal[0], s, machine) if with_rewards else None
        c = machine.apply(c, legal[0], reward=r)
    return c


# ----------------------------------------------------------------------
# decoding


def decode(model: Model, sentence: Sentence, k: int | None = None) -> DecodeResult:
    """Pure greedy decoding; dropout off, no exploration.  A given `k`
    overrides the model's undo budget for this call.  Builds the network's
    precomputed first layer if it fits and is absent; it is kept for later
    calls until the weights change."""
    model.net.precompute()
    if k is not None:
        model = model.with_k(k)
    machine = model.machine
    bound = max_actions(sentence.n, machine.k, machine.kind)
    c = machine.initial(sentence)
    while not c.terminal:
        c = _advance_forced(machine, c, sentence, with_rewards=False)
        if c.terminal:
            break
        if c.n_actions >= bound:
            raise AssertionError(
                f"decode used {c.n_actions} actions, above the {bound} bound"
            )
        a = model.greedy_action(c, sentence)
        c = machine.apply(c, a)
    if c.n_actions > bound:
        raise AssertionError(
            f"decode used {c.n_actions} actions, above the {bound} bound"
        )
    return DecodeResult(
        sentence=sentence,
        predicted=_predicted_sentence(machine, sentence, c),
        log=c.log,
        back_counts=c.back_counts,
        n_actions=c.n_actions,
        machine=machine,
    )


def decode_corpus(model, sentences, k=None) -> list[DecodeResult]:
    return [decode(model, s, k=k) for s in sentences]


def _predicted_sentence(machine, sentence, c: Configuration) -> Sentence:
    upos = heads = None
    if machine.kind != PARSER:
        upos = [cell if cell_is_value(cell) else sentence.upos(i + 1)
                for i, cell in enumerate(c.pos_tape)]
    if machine.kind != TAGGER:
        heads = [cell if cell_is_value(cell) else 0 for cell in c.gov_tape]
    return sentence.with_annotations(upos=upos, heads=heads)


# ----------------------------------------------------------------------
# evaluation helpers shared by both regimes


def _dev_metrics(model, dev):
    from .evaluation import score  # local import to avoid a cycle

    if not dev:
        return None, 0
    results = [decode(model, s) for s in dev]
    # The training loop's own decisions (the greedy pick and the TD target)
    # read forward, as its updates do.
    model.net.table = None
    metrics = score([r.predicted for r in results], dev)
    backs = sum(1 for r in results for e in r.log if e.action.kind == "back")
    return metrics, backs


def _selection_score(kind, metrics):
    """Checkpoint selection: UAS for parsing machines (UPOS breaks ties),
    UPOS accuracy for the tagger."""
    if metrics is None:
        return None
    if kind == TAGGER:
        return (metrics.upos_accuracy,)
    return (metrics.uas, metrics.upos_accuracy)


# ----------------------------------------------------------------------
# supervised regime


def train_supervised(train, dev, kind: str, cfg: TrainConfig):
    """Static-oracle pairs for two epochs, then pairs relabelled by the
    dynamic oracle on the model's own decode paths every two epochs."""
    projective = [s for s in train if is_projective(s)]
    if kind == TAGGER:
        projective = list(train)
    if not projective:
        raise ValueError("supervised training needs at least one projective sentence")

    model = build_model(kind, train, cfg, k=0)
    machine = model.machine
    rng = np.random.default_rng([cfg.seed, 1])
    epochs = cfg.resolved_epochs(kind)

    static_pairs = []
    for s in projective:
        c = machine.initial(s)
        for a in static_oracle(s, machine):
            if c.state != BACK_STATE:
                head = head_for_state(c.state)
                static_pairs.append(
                    (model.extractor.extract(c, s, machine), head, model.action_index(head, a))
                )
            c = machine.apply(c, a)

    pairs = static_pairs
    best, best_score = None, None
    history = []
    for epoch in range(1, epochs + 1):
        if epoch >= 3 and (epoch - 3) % 2 == 0:
            pairs = _dynamic_pairs(model, train)
        order = rng.permutation(len(pairs))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [pairs[i] for i in order[start : start + cfg.batch_size]]
            losses.append(supervised_update(model.net, batch, cfg.alpha, drop_rng=rng))
        metrics, backs = _dev_metrics(model, dev)
        sel = _selection_score(kind, metrics)
        if sel is not None and (best_score is None or sel > best_score):
            best, best_score = model.net.copy_params(best), sel
        history.append(_metrics_row(epoch, losses, metrics, backs, 0))
        if cfg.stop_score is not None and sel is not None and sel[0] >= cfg.stop_score:
            break
    if best is not None:
        model.net.set_params(best)
    return model, history


def _dynamic_pairs(model, train):
    """Decode the training set with the current model; the dynamic oracle
    labels every configuration the classifier faced."""
    machine = model.machine
    model.net.precompute()
    pairs = []
    for s in train:
        bound = max_actions(s.n, machine.k, machine.kind)
        c = machine.initial(s)
        while not c.terminal and c.n_actions <= bound:
            c = _advance_forced(machine, c, s, with_rewards=False)
            if c.terminal:
                break
            head = head_for_state(c.state)
            gold = oracle_action(c, s, machine)
            pairs.append(
                (model.extractor.extract(c, s, machine), head, model.action_index(head, gold))
            )
            c = machine.apply(c, model.greedy_action(c, s))
    return pairs


# ----------------------------------------------------------------------
# reinforcement regime


def train_rl(train, dev, kind: str, cfg: TrainConfig, regime: str):
    """Online Q-learning over decision points, with or without undo actions."""
    if regime not in (REGIME_RL, REGIME_RL_BACKTRACK):
        raise ValueError(f"regime must be rl or rl-backtrack, got {regime!r}")
    k = cfg.k if regime == REGIME_RL_BACKTRACK else 0
    if regime == REGIME_RL_BACKTRACK and k < 1:
        raise ValueError("rl-backtrack needs an undo budget k >= 1")
    if cfg.batch_size != 1:
        raise ValueError(f"batch_size {cfg.batch_size} is supervised-only; {regime} steps on one decision at a time")

    model = build_model(kind, train, cfg, k=k)
    machine = model.machine
    rng = np.random.default_rng([cfg.seed, 2])
    epochs = cfg.resolved_epochs(kind)

    best, best_score = None, None
    history = []
    for epoch in range(1, epochs + 1):
        eps, beta = cfg.schedule.epsilon(epoch), cfg.schedule.beta(epoch)
        losses = []
        aborted = 0
        for si in rng.permutation(len(train)):
            s = train[int(si)]
            bound = max_actions(s.n, machine.k, machine.kind)
            c = _advance_forced(machine, machine.initial(s), s, with_rewards=True)
            while not c.terminal:
                if c.n_actions > bound:
                    aborted += 1
                    break
                a = select_action(model, machine, c, s, eps, beta, rng)
                head = head_for_state(c.state)
                ids = model.extractor.extract(c, s, machine)
                r = action_reward(c, a, s, machine)
                c2 = machine.apply(c, a, reward=r)
                c2 = _advance_forced(machine, c2, s, with_rewards=True)
                if c2.terminal:
                    target = q_target(r, None, cfg.gamma)
                else:
                    _, next_q = model.q_legal(c2, s)
                    target = q_target(r, next_q, cfg.gamma)
                losses.append(
                    td_update(model.net, ids, head, model.action_index(head, a),
                              target, cfg.alpha, drop_rng=rng)
                )
                c = c2
        metrics, backs = _dev_metrics(model, dev)
        sel = _selection_score(kind, metrics)
        if sel is not None and (best_score is None or sel > best_score):
            best, best_score = model.net.copy_params(best), sel
        history.append(_metrics_row(epoch, losses, metrics, backs, aborted, eps, beta))
        if cfg.stop_score is not None and sel is not None and sel[0] >= cfg.stop_score:
            break
    if best is not None:
        model.net.set_params(best)
    return model, history


def _metrics_row(epoch, losses, metrics, backs, aborted, eps=None, beta=None):
    row = {
        "epoch": epoch,
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "dev_upos": metrics.upos_accuracy if metrics else None,
        "dev_uas": metrics.uas if metrics else None,
        "dev_backs": backs,
        "aborted": aborted,
    }
    if eps is not None:
        row["epsilon"] = eps
        row["beta"] = beta
    return row
