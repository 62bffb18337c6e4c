"""Binary classification evaluation: ROC/AUC, TPR at fixed FPR, F1.

The positive class is always the unpacked (minority) one. The ROC is one
descending sort of the scores followed by cumulative TP and FP counts read
at the end of each run of tied scores (Fawcett 2006, "An introduction to
ROC analysis", Algorithm 1). TPR at a fractional FPR target is read off
that curve by linear interpolation, which is exact at the curve's
vertices. Every entry point rejects a non-finite score and a label other
than 0 or 1, naming the first offending index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _scored(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or len(scores) == 0:
        raise ValueError("scores and labels must be equal-length non-empty vectors")
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ValueError(f"score {scores[bad[0]]} at index {bad[0]} is not finite")
    bad = np.flatnonzero((labels != 0) & (labels != 1))  # before any cast truncates
    if len(bad):
        raise ValueError(f"label {labels[bad[0]]!r} at index {bad[0]} is not 0 or 1")
    return scores, labels.astype(np.int64)


def roc_curve(scores, labels) -> np.ndarray:
    """(FPR, TPR) points from a descending-score threshold sweep with tied
    scores grouped; starts at (0,0) and ends at (1,1)."""
    scores, labels = _scored(scores, labels)
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last index of each tie group
    points = np.zeros((len(ends) + 1, 2))
    points[1:, 0] = np.cumsum(l == 0)[ends] / neg
    points[1:, 1] = np.cumsum(l == 1)[ends] / pos
    return points


def auc(roc: np.ndarray) -> float:
    """Trapezoidal area under the ROC."""
    x, y = roc[:, 0], roc[:, 1]
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0))


def tpr_at_fpr(roc: np.ndarray, fpr_target: float) -> float:
    """TPR at the given FPR, interpolated between bracketing ROC points.
    At an FPR that is itself a vertex this returns the vertex's (highest)
    TPR exactly."""
    if not (0.0 <= fpr_target <= 1.0):
        raise ValueError(f"fpr_target must be in [0, 1], got {fpr_target}")
    below = np.flatnonzero(roc[:, 0] <= fpr_target)
    i = int(below[-1])  # (0,0) guarantees at least one
    f1, t1 = roc[i]
    if f1 == fpr_target:
        return float(t1)
    f2, t2 = roc[i + 1]
    return float(t1 + (t2 - t1) * (fpr_target - f1) / (f2 - f1))


def confusion_at(scores, labels, tau: float = 0.5) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) predicting positive when score > tau."""
    scores, labels = _scored(scores, labels)
    pred = scores > tau
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def f1_at(scores, labels, tau: float = 0.5) -> float:
    tp, fp, _tn, fn = confusion_at(scores, labels, tau)
    return _f1(tp, fp, fn)


@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    auc: float
    tpr20: float
    tpr40: float
    roc: np.ndarray


def report(scores, labels, tau: float = 0.5) -> EvalReport:
    scores, labels = _scored(scores, labels)
    roc = roc_curve(scores, labels)
    tp, fp, tn, fn = confusion_at(scores, labels, tau)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=_f1(tp, fp, fn),
        auc=auc(roc),
        tpr20=tpr_at_fpr(roc, 0.2),
        tpr40=tpr_at_fpr(roc, 0.4),
        roc=roc,
    )


def render_report(rep: EvalReport, tau: float = 0.5) -> str:
    """Aligned summary table followed by machine-readable metric,value lines."""
    n = rep.tp + rep.fp + rep.tn + rep.fn
    head = [
        "packing prediction evaluation (positive = unpacked)",
        f"  nodes {n}   positives {rep.tp + rep.fn}   threshold {tau:g}",
        f"  TP {rep.tp}   FP {rep.fp}   TN {rep.tn}   FN {rep.fn}",
        f"  precision {rep.precision:.4f}   recall {rep.recall:.4f}",
        "",
        f"  {'TPR@20':>8} {'TPR@40':>8} {'F1':>8} {'AUC':>8}",
        f"  {rep.tpr20:8.4f} {rep.tpr40:8.4f} {rep.f1:8.4f} {rep.auc:8.4f}",
        "",
    ]
    machine = [
        f"tpr@20,{format(rep.tpr20, '.17g')}",
        f"tpr@40,{format(rep.tpr40, '.17g')}",
        f"f1,{format(rep.f1, '.17g')}",
        f"auc,{format(rep.auc, '.17g')}",
    ]
    return "\n".join(head + machine) + "\n"


def roc_lines(roc: np.ndarray) -> str:
    """fpr,tpr dump for external plotting."""
    return "\n".join(f"{format(f, '.17g')},{format(t, '.17g')}" for f, t in roc) + "\n"
