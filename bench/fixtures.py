"""Decode fixture models whose weights come from the benchmark's own RNG.

The weights do not depend on the training code, so a change to training
arithmetic cannot change how much work decoding does.  A fixed bias on the
BACK output of the undo head sets how often BACK fires.
"""
from __future__ import annotations

import numpy as np
from backparse.machine import BACK, Machine
from backparse.neural import (
    BACK_ACTIONS,
    HEAD_BACK,
    FeatureExtractor,
    Model,
    QNetwork,
    build_vocabs,
    heads_for_kind,
    slot_layout,
    tag_inventory,
)

FIXTURE_SEED = 20220627
EMB_SCALE = 0.1


def fixture_model(sentences, kind: str, k: int, hidden: int, word_dim: int, feat_dim: int,
                  back_bias: float) -> Model:
    """A model with the vocabulary of `sentences`, fixed random weights and
    `back_bias` added to the BACK output of the undo head."""
    tags = tag_inventory(sentences)
    vocabs = build_vocabs(sentences, tags)
    dims = {"word": word_dim, "pos": feat_dim, "letter": feat_dim, "action": feat_dim, "flag": feat_dim}
    net = QNetwork(
        layout=slot_layout(kind),
        vocab_sizes={sp: len(v) for sp, v in vocabs.items()},
        space_dims=dims,
        hidden=hidden,
        heads=heads_for_kind(kind, len(tags)),
        dropout=0.0,
    )
    for i, name in enumerate(net.param_names()):
        # One stream per tensor from a fixed seed: every workload seed gets
        # the same network up to the rows of its own vocabulary.
        rng = np.random.default_rng([FIXTURE_SEED, i])
        p = net.get_param(name)
        if name.startswith("emb:"):
            p[...] = rng.standard_normal(p.shape, dtype=np.float32) * EMB_SCALE
        elif name == "w1":
            # Unit variance before the ReLU, whatever the input width.
            p[...] = rng.uniform(-1.0, 1.0, p.shape).astype(np.float32) * (np.sqrt(3.0 / p.shape[0]) / EMB_SCALE)
        elif p.ndim == 2:
            # Q-values of about unit spread, whatever the hidden size.
            p[...] = rng.standard_normal(p.shape, dtype=np.float32) * np.sqrt(2.0 / p.shape[0])
        else:
            p[...] = 0.0
    net.heads[HEAD_BACK][1][BACK_ACTIONS.index(BACK)] = back_bias
    machine = Machine(kind=kind, k=k, tags=tags)
    return Model(machine=machine, extractor=FeatureExtractor(kind, vocabs), net=net, gamma=0.9)
