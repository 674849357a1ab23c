"""Two-stage training: autoencoder pretraining, then the joint objective.

Training is full batch by design: the adjacency matrices and the selection
matrix are n x n parameters indexed by candidate position, so every
forward pass must see all n candidates in a fixed order.
"""

import math

import numpy as np

from . import autodiff as ad
from .errors import NumericalError
from .graph import PriorGraph, knn_graph, normalize_adjacency
from .model import (
    ModelConfig,
    ModelParams,
    build_loss_graph,
    decode_vars,
    encode_vars,
    forward,
    init_encoder_decoder,
    is_frozen,
    rank,
    wrap_params,
)

def _check_finite(value: float, epoch: int, stage: str) -> None:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss {value!r} at {stage} epoch {epoch}")


def pretrain(x: np.ndarray, cfg: ModelConfig, params: ModelParams | None = None) -> ModelParams:
    """Stage 1: minimize the plain autoencoder reconstruction loss.

    Adjacency matrices and Q are untouched; the decoder reads the latent
    directly.  Deterministic under cfg.seed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != cfg.input_dim:
        raise ValueError(f"x has {x.shape[0]} rows but encoder expects {cfg.input_dim}")
    if params is None:
        params = init_encoder_decoder(cfg)
    else:
        params = params.copy()
    arrays = {k: v for k, v in params.to_dict().items()
              if k.startswith("enc_") or k.startswith("dec_")}
    state = ad.adam_init(arrays)
    for epoch in range(1, cfg.pretrain_epochs + 1):
        loss, pv = _reconstruction_graph(params, x, cfg, trainable=True)
        _check_finite(loss.item(), epoch, "pretrain")
        loss.tape.backward(loss)
        grads = {k: pv[k].grad for k in arrays}
        ad.adam_step(arrays, grads, state, lr=cfg.lr, t=epoch)
    return params


def _reconstruction_graph(params: ModelParams, x: np.ndarray, cfg: ModelConfig,
                          trainable: bool):
    """Stage-1 loss ||X - decode(encode(X))||_F^2 on a new tape: (loss, leaf Vars)."""
    tape = ad.Tape()
    xv = tape.var(x)
    pv = wrap_params(tape, params, cfg, trainable=trainable)
    x_hat = decode_vars(pv, encode_vars(pv, xv, cfg), cfg)
    return ad.frob_sq(ad.sub(xv, x_hat)), pv


def reconstruction_loss(params: ModelParams, x: np.ndarray, cfg: ModelConfig) -> float:
    """Plain autoencoder loss of the current encoder/decoder (no Q, no A)."""
    return _reconstruction_graph(params, x, cfg, trainable=False)[0].item()


def _as_prior_array(a0, n: int) -> np.ndarray | None:
    if a0 is None:
        return None
    arr = a0.adjacency if isinstance(a0, PriorGraph) else np.asarray(a0, dtype=np.float64)
    if arr.shape != (n, n):
        raise ValueError(f"prior graph is {arr.shape} but the candidate set has n={n}")
    return arr


def train(x: np.ndarray, a0, cfg: ModelConfig, params: ModelParams):
    """Stage 2: joint full-batch Adam on all four loss terms.

    `params` carries the pretrained encoder/decoder.  A_0 is degree
    normalized per cfg.prior_normalize; adjacency matrices are initialized
    to (normalized) A_0 and Q to zero unless the incoming params already
    provide them (useful for warm starts).  Returns (params, history), where
    history holds one {"epoch", "recon", "adjacency", "propagation",
    "selection", "total"} dict per epoch, recorded before that epoch's update.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    a0_arr = _as_prior_array(a0, n) if cfg.n_matrices else None
    if cfg.n_matrices and a0_arr is None:
        raise ValueError(f"variant {cfg.variant!r} needs a prior graph A_0")
    if a0_arr is not None:
        a0_arr = normalize_adjacency(a0_arr, cfg.prior_normalize)

    params = params.copy()
    if cfg.n_matrices and not params.adjacency:
        params.adjacency = [a0_arr.copy() for _ in range(cfg.n_stored_matrices)]
    if params.q is None:
        params.q = np.zeros((n, n))

    arrays = params.to_dict()
    trainable = {k: v for k, v in arrays.items() if not is_frozen(cfg, k)}
    state = ad.adam_init(trainable)
    history = []
    for epoch in range(1, cfg.train_epochs + 1):
        tape = ad.Tape()
        xv = tape.var(x)
        a0v = None if a0_arr is None else tape.var(a0_arr)
        pv = wrap_params(tape, params, cfg, trainable=True)
        losses, _ = build_loss_graph(tape, pv, xv, a0v, cfg)
        terms = {k: v.item() for k, v in losses.items()}
        _check_finite(terms["total"], epoch, "train")
        history.append({"epoch": epoch, **terms})
        tape.backward(losses["total"])
        grads = {k: pv[k].grad for k in trainable}
        ad.adam_step(trainable, grads, state, lr=cfg.lr, t=epoch)
        if cfg.early_stop and epoch > cfg.early_stop_patience:
            ref = history[-1 - cfg.early_stop_patience]["total"]
            cur = terms["total"]
            if abs(ref - cur) / max(abs(ref), 1e-12) < cfg.early_stop_tol:
                break
    return params, history


def run_selection(x: np.ndarray, cfg: ModelConfig):
    """Full pipeline on a standardized candidate matrix.

    Builds the kNN prior, pretrains the autoencoder, trains the joint
    objective, and ranks candidates.  Returns (SelectionResult, params,
    history, prior) where prior is None for the no_graph variant.
    """
    x = np.asarray(x, dtype=np.float64)
    prior = knn_graph(x, cfg.knn_k) if cfg.n_matrices else None
    a0_arr = None
    if prior is not None:
        a0_arr = normalize_adjacency(prior.adjacency, cfg.prior_normalize)
    params = pretrain(x, cfg)
    params, history = train(x, prior, cfg, params)
    _, final_losses = forward(params, x, cfg, a0=a0_arr)
    result = rank(params, final_losses=final_losses)
    return result, params, history, prior
