"""Composite position/velocity loss, Adam, and the sequence training loop.

The loss is w_pos * Lp + w_vel * Lv where Lp is the per-frame mean of the
squared Frobenius norm of the displacement error and Lv the mean, over the
frames from the second on, of the squared mismatch between backward finite
differences of prediction and ground truth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .model import NetworkParams, backward, forward_with_cache, predictions, save_checkpoint

_ADAM_BLOCK = 1 << 15  # vector elements per Adam pass
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 10
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    batch_size: int = 1  # sequences accumulated per optimizer step
    clip_norm: float = 5.0
    w_position: float = 1.0
    w_velocity: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.w_position, self.w_velocity)):
            raise ConfigError("loss weights must be finite and non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ConfigError("clip_norm must be finite and non-negative")

    def total(self, lp, lv):
        """w_pos * lp + w_vel * lv, for the loss terms and for their gradients."""
        return self.w_position * lp + self.w_velocity * lv


@dataclass
class MetricRow:
    epoch: int
    split: str
    lp: float
    lv: float
    total: float


@dataclass
class TrainResult:
    best_params: NetworkParams
    metrics: list[MetricRow]
    best_epoch: int  # the epoch whose parameters best_params holds


def _loss_terms(pred, truth):
    """(lp, lv, err, d): each term a sum of squares divided by its frame count
    (that order fixes the bits of the metrics), then the error ``truth - pred``
    and its backward frame differences, which ``_loss_grad`` reads."""
    p, y = (np.asarray(getattr(a, "frames", a), dtype=np.float64) for a in (pred, truth))
    if p.shape != y.shape:
        raise DataError(f"prediction shape {p.shape} != ground truth shape {y.shape}")
    t_len = len(p)
    err = y - p
    d = err[1:] - err[:-1]
    lp = float((err**2).sum()) / t_len
    lv = float((d**2).sum()) / (t_len - 1) if t_len >= 2 else 0.0
    return lp, lv, err, d


def _loss_grad(err, d, cfg: TrainConfig):
    """dTotal/dPred from ``_loss_terms``' err and d; dividing each term in place fixes checkpoint bits."""
    t_len = len(err)
    grad_p = -2.0 * err
    grad_p /= t_len
    grad_v = np.zeros_like(err)
    if t_len >= 2:
        grad_v[1:] -= 2.0 * d
        grad_v[:-1] += 2.0 * d
        grad_v /= t_len - 1
    return cfg.total(grad_p, grad_v)


def loss_total(pred, truth, cfg: TrainConfig = TrainConfig()):
    """Weighted combined loss and its analytic gradient w.r.t. the prediction."""
    lp, lv, err, d = _loss_terms(pred, truth)
    return cfg.total(lp, lv), _loss_grad(err, d, cfg)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, laid out like NetworkParams.flat
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, net: NetworkParams) -> "AdamState":
        return cls(m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))


def adam_step(
    net: NetworkParams, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> AdamState:
    """Bias-corrected Adam update of ``net.flat`` in place, from a gradient vector in its layout.

    It runs over fixed-size blocks so that its temporaries stay in cache:
    whole-vector temporaries double its time.
    """
    state.t += 1
    correct1 = 1.0 - _ADAM_BETA1**state.t
    correct2 = 1.0 - _ADAM_BETA2**state.t
    for lo in range(0, grads.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        g, m, v = grads[block], state.m[block], state.v[block]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * g * g
        net.flat[block] -= cfg.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
    return state


def clip_gradients(grads: np.ndarray, max_norm: float):
    """Scale ``grads`` in place when its L2 norm exceeds max_norm; returns (norm, clipped)."""
    total = float(np.sqrt(grads @ grads))
    if max_norm > 0 and total > max_norm:
        grads *= max_norm / total
        return total, True
    return total, False


# ---------------------------------------------------------------------------
# training loop


def evaluate_loss(items, net: NetworkParams):
    """Mean per-item (lp, lv) of the current parameters over a sample list."""
    lps, lvs = [0.0] * len(items), [0.0] * len(items)
    for j, pred in predictions(net, [s.features for s in items]):
        lps[j], lvs[j], _, _ = _loss_terms(pred, items[j].displacements)
        del pred  # otherwise it lives on while the next batch runs
    return float(np.mean(lps)), float(np.mean(lvs))


def _after_step(net: NetworkParams, state: AdamState) -> str:
    """Error-message suffix naming the last optimizer step, if there was one.

    A step that wrote huge weights, not the item the loss was taken on, is
    then the likely cause of a non-finite loss.
    """
    if state.t == 0:
        return ""
    return f" after optimizer step {state.t} (largest weight magnitude {float(np.abs(net.flat).max()):.3g})"


def train(
    train_items,
    net: NetworkParams,
    train_cfg: TrainConfig = TrainConfig(),
    val_items=(),
    sink=None,
    checkpoint_dir=None,
) -> TrainResult:
    """Full-sequence BPTT over the corpus; one optimizer step per batch.

    ``net`` is updated in place and ends at the last epoch's parameters.
    Epoch order is shuffled deterministically from the seed. Emits per-epoch
    train/validation metrics through ``sink`` (a callable taking an event
    dict) and retains the parameters of the best validation epoch, or of the
    last epoch when there are no validation items. A
    non-finite training or validation loss, or gradient norm, raises DataError.
    Every ``checkpoint_every`` epochs the parameters go to ``checkpoint_dir``,
    which that setting needs (ConfigError without it).
    """
    if train_cfg.checkpoint_every > 0 and checkpoint_dir is None:
        raise ConfigError("checkpoint_every needs a checkpoint directory to write to")
    train_items = list(train_items)
    val_items = list(val_items)
    if not train_items:
        raise DataError("training corpus is empty")

    rng = np.random.default_rng(train_cfg.seed)
    state = AdamState.zeros(net)
    # Each step's gradient is written into one vector for the whole run; a
    # batch of several items sums theirs into it through a second one.
    step_grad = np.empty_like(net.flat)
    item_grad = np.empty_like(net.flat) if train_cfg.batch_size > 1 else None
    metrics: list[MetricRow] = []
    # Each improvement overwrites the one copy of the best epoch's parameters;
    # without a validation split they are the last epoch's, held by net itself.
    best = net.copy() if val_items else net
    best_total, best_epoch = np.inf, train_cfg.epochs
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    emit = sink or (lambda event: None)

    def log_row(epoch, split, lp, lv):
        total = train_cfg.total(lp, lv)
        metrics.append(MetricRow(epoch=epoch, split=split, lp=lp, lv=lv, total=total))
        emit({"event": "epoch", "split": split, "epoch": epoch, "lp": lp, "lv": lv})
        return total

    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(len(train_items))
        epoch_lp, epoch_lv = [], []

        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            for n, idx in enumerate(batch):
                s = train_items[idx]
                pred, tape = forward_with_cache(net, s.features)
                lp, lv, err, d = _loss_terms(pred, s.displacements)
                if not math.isfinite(lp + lv):
                    raise DataError(
                        f"epoch {epoch}: non-finite training loss on item {s.id!r}{_after_step(net, state)}"
                    )
                epoch_lp.append(lp)
                epoch_lv.append(lv)
                backward(net, tape, _loss_grad(err, d, train_cfg), out=step_grad if n == 0 else item_grad)
                # Otherwise this tape lives on through the next item's forward.
                del pred, tape, err, d
                if n:
                    step_grad += item_grad

            if len(batch) > 1:  # dividing by 1 is exact, so one item skips the pass
                step_grad /= len(batch)
            norm, clipped = clip_gradients(step_grad, train_cfg.clip_norm)
            if not math.isfinite(norm):  # the step would turn every weight into NaN
                ids = ", ".join(repr(train_items[idx].id) for idx in batch)
                raise DataError(f"epoch {epoch}: non-finite gradient norm on items {ids}")
            if clipped:
                emit({"event": "clip", "epoch": epoch, "norm": norm})
            adam_step(net, step_grad, state, train_cfg)

        log_row(epoch, "train", float(np.mean(epoch_lp)), float(np.mean(epoch_lv)))

        if val_items:
            vlp, vlv = evaluate_loss(val_items, net)
            if not math.isfinite(vlp + vlv):
                raise DataError(f"epoch {epoch}: non-finite validation loss")
            vtotal = log_row(epoch, "val", vlp, vlv)
            if vtotal < best_total:
                np.copyto(best.flat, net.flat)
                best_total, best_epoch = vtotal, epoch
                if ckpt_dir is not None:
                    save_checkpoint(net, ckpt_dir / "best.lsn1")

        if train_cfg.checkpoint_every > 0 and epoch % train_cfg.checkpoint_every == 0:
            save_checkpoint(net, ckpt_dir / f"epoch_{epoch:04d}.lsn1")

    return TrainResult(best_params=best, metrics=metrics, best_epoch=best_epoch)


def write_metrics_csv(metrics, path) -> None:
    """CSV log, one `epoch,split,lp,lv,total` line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "lp", "lv", "total"])
        for row in metrics:
            writer.writerow([row.epoch, row.split, repr(row.lp), repr(row.lv), repr(row.total)])
