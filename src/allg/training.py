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
    forward,
    init_encoder_decoder,
    rank,
    stack_vars,
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


def _fit(params: dict, loss_of, epochs: int, lr: float, stage: str):
    """The epoch loop of both stages: full-batch Adam in float32.

    `params` maps each name to its starting array, in the order the result
    keeps; _fit trains float32 copies, so no caller's array is changed and
    no two parameters share one.  Each epoch, loss_of(tape, pv) records the
    loss on a new tape from the leaf Vars `pv` and returns its Vars by
    term, "total" included; a non-finite total raises NumericalError naming
    `stage` and the epoch.  Returns (float64 params, history): one
    {"epoch", term: value, ...} dict per epoch, taken before its update.
    """
    params = {k: np.array(v, dtype=np.float32) for k, v in params.items()}
    state = ad.AdamState(params)
    history = []
    for epoch in range(1, epochs + 1):
        tape = ad.Tape()
        pv = wrap_params(tape, params)
        losses = loss_of(tape, pv)
        terms = {k: v.item() for k, v in losses.items()}
        if not math.isfinite(terms["total"]):
            raise NumericalError(f"non-finite loss {terms['total']!r} at {stage} epoch {epoch}")
        tape.backward(losses["total"])
        ad.adam_step(params, {k: pv[k].grad for k in params}, state, lr=lr, t=epoch)
        history.append({"epoch": epoch, **terms})
        del tape, pv, losses  # the tape and its gradients go before the next epoch's
    del state  # the moments go before the float64 copies are made
    return {k: v.astype(np.float64) for k, v in params.items()}, history


def pretrain(x: np.ndarray, cfg: ModelConfig) -> dict:
    """Stage 1: minimize the plain autoencoder reconstruction loss
    ||X - decode(encode(X))||_F^2 from init_encoder_decoder's parameters.

    Adjacency matrices and Q are untouched; the decoder reads the latent
    directly.  Computes in float32 (see _fit) and returns float64 arrays.
    Deterministic under cfg.seed.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape[0] != cfg.input_dim:
        raise ValueError(f"x has {x.shape[0]} rows but encoder expects {cfg.input_dim}")

    def loss_of(tape, pv):
        xv = tape.var(x)
        x_hat = stack_vars(pv, "dec", stack_vars(pv, "enc", xv, cfg), cfg)
        return {"total": ad.frob_sq(ad.sub(xv, x_hat))}

    return _fit(init_encoder_decoder(cfg), loss_of, cfg.pretrain_epochs, cfg.lr, "pretrain")[0]


def train(x: np.ndarray, a0: np.ndarray | None, cfg: ModelConfig, params: dict):
    """Stage 2: joint full-batch Adam on all four loss terms.

    `params` is the name -> array dict of the pretrained encoder/decoder.
    `a0` is the loss-ready prior A_0, already normalized per
    cfg.prior_normalize: the same array `forward` takes, and None for the
    no_graph variant; knn_only propagates through A_0 itself and learns
    no adjacency.  Each parameter of the variant (see _param_names) starts
    from `params` where the caller passed it, which allows warm starts;
    otherwise an adjacency matrix (adj0, adj1, ...) starts at A_0 and Q at
    zero.  A name the variant has no parameter for raises ValueError, and
    the incoming dict is not modified.  Every parameter trains.  Returns
    (params, history), where history holds one {"epoch", "recon",
    "adjacency", "propagation", "selection", "total"} dict per epoch,
    recorded before that epoch's update.  Computes in float32 (see _fit)
    and returns float64 arrays in _param_names order.  On glibc it first
    fixes the process's heap thresholds (see _hold_heap), so epochs do not
    fault their arrays in anew.
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

    names = _param_names(cfg)
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"params {unknown} are not parameters of variant {cfg.variant!r}")
    # a zero-size view: _fit's copy is the only n x n array Q's start allocates
    start = {"q": np.broadcast_to(np.float32(0), (n, n)),
             **{k: a0_arr for k in names if k.startswith("adj")}, **params}

    def loss_of(tape, pv):
        a0v = None if a0_arr is None else tape.var(a0_arr)
        return build_loss_graph(tape, pv, tape.var(x), a0v, cfg)

    _hold_heap()
    return _fit({k: start[k] for k in names}, loss_of, cfg.train_epochs, cfg.lr, "train")


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
