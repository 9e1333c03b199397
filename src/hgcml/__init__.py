"""Metapath-view contrastive learning for heterogeneous graphs.

Pipeline modules: hin (graph loading and view extraction), augment
(stochastic corruption), positives (PPR/semantic positive sampling),
numerics (autodiff tape and Adam), model (GCN encoder and projector, one
tape node each), objective (contrastive losses and their weighted total,
one tape node each), trainer, evaluate, synth, config, cli.
"""

__version__ = "0.1.0"
