"""Finite-difference verification of every autodiff operation.

Each check builds a scalar loss through the op under test, computes the
backward gradients, and compares against central finite differences at
step FD_EPS.  The composite check differentiates the full four-term
training loss of a small model with respect to every parameter entry.
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


def finite_diff_grads(f, arrays: dict) -> dict:
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
        leaves = {k: tape.var(v, requires_grad=True) for k, v in arrs.items()}
        return build(tape, leaves).item()

    tape = ad.Tape()
    leaves = {k: tape.var(v, requires_grad=True) for k, v in arrays.items()}
    tape.backward(build(tape, leaves))
    fd = finite_diff_grads(f, arrays)
    err = max(relative_error(leaves[k].grad, fd[k]) for k in arrays)
    return OpReport(name, err, tolerance)


def _scalarize(tape, out, shift):
    # Project a matrix output to a scalar through an asymmetric constant so
    # transposition mistakes in backward rules cannot cancel.
    return ad.frob_sq(ad.add(out, tape.var(shift)))


def check_matmul(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    shift = rng.normal(size=(3, 2))
    build = lambda tape, lv: _scalarize(tape, ad.matmul(lv["a"], lv["b"]), shift)
    return _check("matmul", build, {"a": a, "b": b}, OP_TOLERANCE)


def check_affine(rng):
    arrays = {"w": rng.normal(size=(3, 4)), "x": rng.normal(size=(4, 5)),
              "b": rng.normal(size=(3, 1))}
    shift = rng.normal(size=(3, 5))
    build = lambda tape, lv: _scalarize(tape, ad.affine(lv["w"], lv["x"], lv["b"]), shift)
    return _check("affine", build, arrays, OP_TOLERANCE)


def check_relu(rng):
    x = rng.normal(size=(3, 4))
    x[np.abs(x) < 0.05] += 0.1  # keep entries away from the kink
    shift = rng.normal(size=(3, 4))
    build = lambda tape, lv: _scalarize(tape, ad.relu(lv["x"]), shift)
    return _check("relu", build, {"x": x}, OP_TOLERANCE)


def check_frob_sq(rng):
    x = rng.normal(size=(3, 4))
    build = lambda tape, lv: ad.frob_sq(lv["x"])
    return _check("frob_sq", build, {"x": x}, OP_TOLERANCE)


def check_sup_norm_rows(rng):
    q = rng.normal(size=(4, 4))
    # Make every row's argmax unique by a margin so the point is smooth.
    for i in range(4):
        j = np.argmax(np.abs(q[i]))
        q[i, j] += np.sign(q[i, j]) * 0.5
    build = lambda tape, lv: ad.sup_norm_rows(lv["q"])
    return _check("sup_norm_rows", build, {"q": q}, OP_TOLERANCE)


def check_add(rng):
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
    shift = rng.normal(size=(3, 4))
    build = lambda tape, lv: _scalarize(tape, ad.add(lv["a"], lv["b"]), shift)
    return _check("add", build, arrays, OP_TOLERANCE)


def check_sub(rng):
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
    shift = rng.normal(size=(3, 4))
    build = lambda tape, lv: _scalarize(tape, ad.sub(lv["a"], lv["b"]), shift)
    return _check("sub", build, arrays, OP_TOLERANCE)


def check_scale(rng):
    x = rng.normal(size=(3, 4))
    shift = rng.normal(size=(3, 4))
    build = lambda tape, lv: _scalarize(tape, ad.scale(lv["x"], -1.7), shift)
    return _check("scale", build, {"x": x}, OP_TOLERANCE)


def check_graph_penalty(rng):
    arrays = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(4, 4))}
    build = lambda tape, lv: ad.graph_penalty(lv["a"], lv["b"], 0.3, 0.7)
    return _check("graph_penalty", build, arrays, OP_TOLERANCE)


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
    build = lambda tape, lv: build_loss_graph(tape, lv, tape.var(x), tape.var(a0), cfg)[0]["total"]
    return _check("composite_total_loss", build, params, COMPOSITE_TOLERANCE)


def run_all() -> list:
    """Every op check plus the composite loss check, in a fixed order."""
    rng = substream(_SEED, "gradcheck")
    return [
        check_matmul(rng),
        check_affine(rng),
        check_relu(rng),
        check_frob_sq(rng),
        check_sup_norm_rows(rng),
        check_add(rng),
        check_sub(rng),
        check_scale(rng),
        check_graph_penalty(rng),
        check_composite(seed=_SEED),
    ]
