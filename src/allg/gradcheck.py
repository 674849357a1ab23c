"""Finite-difference verification of every autodiff operation.

Each tape op's check is one row of OPS: it builds a scalar loss through
the op, computes the backward gradients, and compares against central
finite differences at step FD_EPS.  The composite check differentiates
the full four-term training loss of a small model with respect to every
parameter entry.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import knn_graph
from .model import ModelConfig, build_loss_graph, init_encoder_decoder
from .rng import substream

FD_EPS = 1e-5
_SEED = 7  # root of run_all's random inputs
OP_TOLERANCE = 1e-6
COMPOSITE_TOLERANCE = 1e-4


@dataclass
class OpReport:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def central_differences(f, arrays: dict) -> dict:
    """Central-difference gradient of scalar f(arrays) per array entry."""
    grads = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            hi = f(arrays)
            flat[i] = orig - FD_EPS
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * FD_EPS)
        grads[key] = g
    return grads


def _check(name, build, arrays, tolerance) -> OpReport:
    """Compare tape gradients of build(tape, leaf vars) with central FD."""
    def f(arrs):
        tape = ad.Tape()
        return build(tape, {k: tape.var(v) for k, v in arrs.items()}).item()

    tape = ad.Tape()
    leaves = {k: tape.var(v) for k, v in arrays.items()}
    grads = {k: np.empty_like(leaves[k].value) for k in arrays}
    tape.backward(build(tape, leaves), into={leaves[k]: grads[k] for k in arrays})
    fd = central_differences(f, arrays)
    err = max(relative_error(grads[k], fd[k]) for k in arrays)
    return OpReport(name, err, tolerance)


def _off_kink(x):
    x[np.abs(x) < 0.05] += 0.1


def _unique_row_max(q):
    # Make every row's argmax unique by a margin so the point is smooth.
    rows, cols = np.arange(len(q)), np.argmax(np.abs(q), axis=1)
    q[rows, cols] += np.sign(q[rows, cols]) * 0.5


# Tape op -> (input shapes, drawn in order; shape of the shift that projects a
# matrix output to a scalar, None for a 1x1 output; the op on the leaf Vars; an
# optional in-place fix that moves the first input off a kink).  Each lambda looks
# its op up on `ad` when called, so a patched op is the one checked.
OPS = {
    "matmul": (((3, 4), (4, 2)), (3, 2), lambda a, b: ad.matmul(a, b), None),
    "affine": (((3, 4), (4, 5), (3, 1)), (3, 5), lambda w, x, b: ad.affine(w, x, b), None),
    "relu": (((3, 4),), (3, 4), lambda x: ad.relu(x), _off_kink),
    "frob_sq": (((3, 4),), None, lambda x: ad.frob_sq(x), None),
    "sup_norm_rows": (((4, 4),), None, lambda q: ad.sup_norm_rows(q), _unique_row_max),
    "add": (((3, 4), (3, 4)), (3, 4), lambda a, b: ad.add(a, b), None),
    "sub": (((3, 4), (3, 4)), (3, 4), lambda a, b: ad.sub(a, b), None),
    "scale": (((3, 4),), (3, 4), lambda x: ad.scale(x, -1.7), None),
    "graph_penalty": (((4, 4), (4, 4)), None,
                      lambda a, b: ad.graph_penalty(a, b, 0.3, 0.7), None),
}


def check_op(name: str, rng) -> OpReport:
    """Check OPS[name] at inputs drawn from rng in row order, the shift drawn last.

    A matrix output reaches a scalar as ||out + shift||_F^2 with an
    asymmetric shift, so transposition mistakes in backward rules cannot cancel.
    """
    shapes, shift_shape, op, fix = OPS[name]
    arrays = {i: rng.normal(size=shape) for i, shape in enumerate(shapes)}
    if fix is not None:
        fix(arrays[0])
    if shift_shape is None:
        build = lambda tape, lv: op(*lv.values())
    else:
        shift = rng.normal(size=shift_shape)
        build = lambda tape, lv: ad.frob_sq(ad.add(op(*lv.values()), tape.var(shift)))
    return _check(name, build, arrays, OP_TOLERANCE)


def composite_setup(seed: int = 0):
    """A small full model (12 candidates, 8 features, latent width 4) at a
    random smooth point (Q off zero)."""
    n, d, latent = 12, 8, 4
    cfg = ModelConfig(encoder_dims=(d, 6, latent), n_adjacency=2, lam=0.5,
                      alpha=0.3, beta=0.7, knn_k=3, seed=seed)
    rng = substream(seed, "gradcheck_composite")
    x = rng.normal(size=(d, n))
    a0 = knn_graph(x, cfg.knn_k).adjacency
    params = init_encoder_decoder(cfg, rng=rng)
    for i in range(2):
        params[f"adj{i}"] = a0 + 0.1 * rng.normal(size=(n, n))
    params["q"] = 0.1 * rng.normal(size=(n, n))
    return cfg, params, x, a0


def check_composite(seed: int = 0):
    cfg, params, x, a0 = composite_setup(seed=seed)
    build = lambda tape, lv: build_loss_graph(tape, lv, tape.var(x), tape.var(a0), cfg)["total"]
    return _check("composite_total_loss", build, params, COMPOSITE_TOLERANCE)


def run_all() -> list:
    """Every OPS check in table order, then the composite loss check."""
    rng = substream(_SEED, "gradcheck")
    return [check_op(name, rng) for name in OPS] + [check_composite(seed=_SEED)]
