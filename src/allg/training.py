"""Two-stage training: autoencoder pretraining, then the joint objective.

Training is full batch by design: the adjacency matrices and the selection
matrix are n x n parameters indexed by candidate position, so every
forward pass must see all n candidates in a fixed order.
"""

import ctypes
import math

import numpy as np

from . import autodiff as ad
from .errors import NumericalError
from .graph import knn_graph, normalize_adjacency
from .model import (
    ModelConfig,
    _param_names,
    build_loss_graph,
    decode_vars,
    encode_vars,
    forward,
    init_encoder_decoder,
    rank,
    wrap_params,
)

# glibc's mallopt parameters, and its own ceiling for the dynamic mmap threshold on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_MAX = 32 * 2**20


def _hold_heap() -> None:
    """Let the arrays one epoch frees serve the next epoch.

    Every epoch frees several n x n arrays (gradients and VJP temporaries).
    Under glibc's dynamic thresholds that space ends up at the top of the
    heap, is trimmed, and the next epoch faults the same pages in again.
    Setting one threshold turns the dynamic ones off, so both are fixed:
    arrays below 32 MiB come from the heap, and its top is trimmed only
    past 8 such arrays.  A float32 n x n array reaches 32 MiB at n ~ 2900,
    so from there on each epoch maps its arrays anew.  No value changes;
    without mallopt this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_MAX)
        mallopt(_M_TRIM_THRESHOLD, 8 * _MMAP_MAX)


def _check_finite(value: float, epoch: int, stage: str) -> None:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss {value!r} at {stage} epoch {epoch}")


def _epoch(build, params: dict, state: ad.AdamState, lr: float, epoch: int,
           stage: str) -> dict:
    """One full-batch Adam epoch; returns its loss values by term.

    build() records the loss on a new tape and returns (loss Vars by term,
    with "total", and the leaf Vars by parameter name).  The tape and the
    gradients are locals, so they die on return, before the next epoch
    builds its tape.
    """
    losses, pv = build()
    terms = {k: v.item() for k, v in losses.items()}
    _check_finite(terms["total"], epoch, stage)
    losses["total"].tape.backward(losses["total"])
    ad.adam_step(params, {k: pv[k].grad for k in params}, state, lr=lr, t=epoch)
    return terms


def pretrain(x: np.ndarray, cfg: ModelConfig) -> dict:
    """Stage 1: minimize the plain autoencoder reconstruction loss.

    Adjacency matrices and Q are untouched; the decoder reads the latent
    directly.  Computes in float32 and returns float64 arrays.
    Deterministic under cfg.seed.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape[0] != cfg.input_dim:
        raise ValueError(f"x has {x.shape[0]} rows but encoder expects {cfg.input_dim}")
    params = {k: v.astype(np.float32) for k, v in init_encoder_decoder(cfg).items()}
    state = ad.AdamState(params)

    def build():
        # ||X - decode(encode(X))||_F^2
        tape = ad.Tape()
        xv = tape.var(x)
        pv = wrap_params(tape, params)
        x_hat = decode_vars(pv, encode_vars(pv, xv, cfg), cfg)
        return {"total": ad.frob_sq(ad.sub(xv, x_hat))}, pv

    for epoch in range(1, cfg.pretrain_epochs + 1):
        _epoch(build, params, state, cfg.lr, epoch, "pretrain")
    return {k: v.astype(np.float64) for k, v in params.items()}


def train(x: np.ndarray, a0: np.ndarray | None, cfg: ModelConfig, params: dict):
    """Stage 2: joint full-batch Adam on all four loss terms.

    `params` is the name -> array dict of the pretrained encoder/decoder.
    `a0` is the loss-ready prior A_0, already normalized per
    cfg.prior_normalize: the same array `forward` takes, and None for the
    no_graph variant; knn_only propagates through A_0 itself and learns
    no adjacency.  The adjacency matrices a variant learns (adj0, adj1,
    ...) are initialized to copies of A_0 and Q to zero unless the incoming
    params already provide them (useful for warm starts); a name the
    variant has no parameter for raises ValueError, and the incoming dict
    is not modified.  Every parameter trains.  Returns (params, history),
    where history holds one {"epoch", "recon", "adjacency", "propagation",
    "selection", "total"} dict per epoch, recorded before that epoch's
    update.  Computes in float32 and returns float64 arrays.  On glibc it
    first fixes the process's heap thresholds (see _hold_heap), so epochs
    do not fault their arrays in anew.
    """
    x = np.asarray(x, dtype=np.float32)
    n = x.shape[1]
    a0_arr = None
    if cfg.n_matrices:
        if a0 is None:
            raise ValueError(f"variant {cfg.variant!r} needs a prior graph A_0")
        a0_arr = np.asarray(a0, dtype=np.float32)
        if a0_arr.shape != (n, n):
            raise ValueError(f"prior graph is {a0_arr.shape} but the candidate set has n={n}")

    unknown = sorted(set(params) - set(_param_names(cfg)))
    if unknown:
        raise ValueError(f"params {unknown} are not parameters of variant {cfg.variant!r}")

    _hold_heap()
    params = {k: v.astype(np.float32) for k, v in params.items()}
    if "adj0" not in params:
        params.update({f"adj{i}": a0_arr.copy() for i in range(cfg.n_stored_matrices)})
    q = params.pop("q", None)  # q goes last, the order save_checkpoint must write
    params["q"] = np.zeros((n, n), dtype=np.float32) if q is None else q

    state = ad.AdamState(params)

    def build():
        tape = ad.Tape()
        xv = tape.var(x)
        a0v = None if a0_arr is None else tape.var(a0_arr)
        pv = wrap_params(tape, params)
        return build_loss_graph(tape, pv, xv, a0v, cfg), pv

    history = [{"epoch": epoch, **_epoch(build, params, state, cfg.lr, epoch, "train")}
               for epoch in range(1, cfg.train_epochs + 1)]
    del state  # the moments go before the float64 copies are made
    return {k: v.astype(np.float64) for k, v in params.items()}, history


def run_selection(x: np.ndarray, cfg: ModelConfig):
    """Full pipeline on a standardized candidate matrix.

    Builds and normalizes the kNN prior A_0 once, pretrains the
    autoencoder, trains the joint objective, and ranks candidates.  Returns
    (SelectionResult, params, history).
    """
    x = np.asarray(x, dtype=np.float64)
    a0 = None
    if cfg.n_matrices:
        a0 = normalize_adjacency(knn_graph(x, cfg.knn_k).adjacency, cfg.prior_normalize)
    params = pretrain(x, cfg)
    params, history = train(x, a0, cfg, params)
    result = rank(params, final_losses=forward(params, x, cfg, a0=a0))
    return result, params, history
