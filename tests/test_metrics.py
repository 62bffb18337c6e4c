import numpy as np
import pytest

from imlg.metrics import (
    auc,
    confusion_at,
    f1_at,
    render_report,
    report,
    roc_curve,
    roc_lines,
    tpr_at_fpr,
)
from imlg.train import read_predictions, write_predictions

PERFECT_SCORES = np.array([0.9, 0.8, 0.2, 0.1])
PERFECT_LABELS = np.array([1, 1, 0, 0])


def mann_whitney_auc(scores, labels):
    """Pair-counting AUC with ties counted 1/2, via average ranks."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i, r = 0, 1
    s = scores[order]
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        ranks[order[i:j]] = (2 * r + (j - i - 1)) / 2.0
        r += j - i
        i = j
    n1 = int((labels == 1).sum())
    n0 = int((labels == 0).sum())
    r1 = ranks[labels == 1].sum()
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def loop_roc_curve(scores, labels):
    """roc_curve as it was before it became one sort and cumulative counts:
    a Python sweep over the groups of tied scores, kept as a reference."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        tp += int((l[i:j] == 1).sum())
        fp += int((l[i:j] == 0).sum())
        points.append((fp / neg, tp / pos))
        i = j
    return np.array(points)


def _reference_cases():
    rng = np.random.default_rng(11)
    for n in (2, 7, 100, 5000):
        labels = (rng.random(n) < 0.3).astype(int)
        labels[:2] = [1, 0]  # both classes present
        yield f"distinct-{n}", rng.random(n), labels
        yield f"ties-2dp-{n}", np.round(rng.random(n), 2), labels
        yield f"ties-1dp-{n}", np.round(rng.random(n), 1), labels
        yield f"all-equal-{n}", np.full(n, 0.25), labels
        one = np.zeros(n, dtype=int)
        one[rng.integers(n)] = 1
        yield f"single-positive-{n}", np.round(rng.random(n), 1), one
    signed_zeros = np.array([0.0, -0.0, 0.5, -0.0, 0.0, 0.5, -0.0])
    yield "signed-zeros", signed_zeros, np.array([1, 0, 0, 1, 0, 1, 1])


REFERENCE_CASES = list(_reference_cases())


@pytest.mark.parametrize("name,scores,labels", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
def test_roc_curve_equals_the_loop_reference(name, scores, labels):
    got, want = roc_curve(scores, labels), loop_roc_curve(scores, labels)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert roc_lines(got) == roc_lines(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_rejected_with_its_index(bad):
    for fn in (roc_curve, report, confusion_at, f1_at):
        with pytest.raises(ValueError, match="at index 1 is not finite"):
            fn(np.array([0.5, bad, 0.2, bad]), np.array([1, 0, 0, 1]))


@pytest.mark.parametrize("labels", [[1, 0, 2, 0], [1, 0, 0.7, 1.2], [1, 0, -1, 0]])
def test_label_other_than_zero_or_one_rejected_before_any_cast(labels):
    for fn in (roc_curve, report, confusion_at, f1_at):
        with pytest.raises(ValueError, match="at index 2 is not 0 or 1"):
            fn([0.9, 0.1, 0.6, 0.3], labels)


def test_perfect_separation_curve_points():
    roc = roc_curve(PERFECT_SCORES, PERFECT_LABELS)
    assert roc.tolist() == [[0, 0], [0, 0.5], [0, 1], [0.5, 1], [1, 1]]


def test_all_tied_scores_collapse_to_diagonal():
    roc = roc_curve(np.full(6, 0.3), np.array([1, 0, 1, 0, 0, 1]))
    assert roc.tolist() == [[0, 0], [1, 1]]


def _brute_force_curve(scores, labels):
    points = {(0.0, 0.0), (1.0, 1.0)}
    pos = (labels == 1).sum()
    neg = (labels == 0).sum()
    for threshold in np.unique(scores):
        pred = scores >= threshold
        points.add(
            (((pred) & (labels == 0)).sum() / neg, ((pred) & (labels == 1)).sum() / pos)
        )
    return sorted(points)


def test_curve_matches_bruteforce_threshold_enumeration():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(100), 2)  # duplicates force tie handling
    labels = (rng.random(100) < 0.4).astype(int)
    roc = roc_curve(scores, labels)
    assert sorted(map(tuple, roc.tolist())) == _brute_force_curve(scores, labels)


def test_perfect_metrics_all_one():
    roc = roc_curve(PERFECT_SCORES, PERFECT_LABELS)
    assert auc(roc) == 1.0
    assert tpr_at_fpr(roc, 0.2) == 1.0
    assert tpr_at_fpr(roc, 0.4) == 1.0
    assert f1_at(PERFECT_SCORES, PERFECT_LABELS) == 1.0


def test_confusion_arithmetic_fixture():
    # TP=2, FP=1, FN=1 -> precision = recall = 2/3, F1 = 0.6667
    scores = np.array([0.9, 0.8, 0.7, 0.2])
    labels = np.array([1, 1, 0, 1])
    tp, fp, tn, fn = confusion_at(scores, labels)
    assert (tp, fp, tn, fn) == (2, 1, 0, 1)
    rep = report(scores, labels)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert round(rep.f1, 4) == 0.6667


def test_auc_equals_mann_whitney_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(20):
        scores = np.round(rng.random(200), 2)
        labels = (rng.random(200) < 0.3).astype(int)
        if labels.sum() in (0, 200):
            continue
        got = auc(roc_curve(scores, labels))
        assert abs(got - mann_whitney_auc(scores, labels)) <= 1e-12, trial


def test_auc_inversion_symmetry():
    rng = np.random.default_rng(2)
    scores = rng.random(150)
    labels = (rng.random(150) < 0.25).astype(int)
    a = auc(roc_curve(scores, labels))
    inv = auc(roc_curve(1.0 - scores, labels))
    assert abs((1.0 - a) - inv) <= 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.random(120)
    labels = (rng.random(120) < 0.3).astype(int)
    a = auc(roc_curve(scores, labels))
    b = auc(roc_curve(np.exp(3 * scores), labels))
    assert abs(a - b) <= 1e-12


def test_tpr_at_fpr_nondecreasing_and_vertex_exact():
    rng = np.random.default_rng(4)
    scores = rng.random(80)
    labels = (rng.random(80) < 0.4).astype(int)
    roc = roc_curve(scores, labels)
    targets = np.linspace(0, 1, 41)
    values = [tpr_at_fpr(roc, t) for t in targets]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    for f, t in roc:
        top = max(tt for ff, tt in roc if ff == f)
        assert tpr_at_fpr(roc, f) == top


def test_fpr_target_validation():
    roc = roc_curve(PERFECT_SCORES, PERFECT_LABELS)
    with pytest.raises(ValueError, match="fpr_target"):
        tpr_at_fpr(roc, 1.2)


def test_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        roc_curve(np.array([0.1, 0.9]), np.array([1, 1]))


def test_report_rendering_contains_machine_lines():
    text = render_report(report(PERFECT_SCORES, PERFECT_LABELS))
    assert "tpr@20,1" in text
    assert "auc,1" in text
    assert "TPR@20" in text  # aligned table header


def test_report_roundtrips_through_prediction_file():
    rng = np.random.default_rng(5)
    probs = rng.random(60)
    labels = (rng.random(60) < 0.3).astype(int)
    if labels.sum() == 0:
        labels[0] = 1
    names = [f"i{k:03d}" for k in range(60)]
    text = write_predictions(names, probs, (probs > 0.5).astype(int))
    _names, probs2, _pl = read_predictions(text)
    r1 = report(probs, labels)
    r2 = report(probs2, labels)
    assert r1.auc == r2.auc and r1.f1 == r2.f1
    assert r1.tpr20 == r2.tpr20 and r1.tpr40 == r2.tpr40


def test_roc_lines_dump():
    roc = roc_curve(PERFECT_SCORES, PERFECT_LABELS)
    lines = roc_lines(roc).splitlines()
    assert lines[0] == "0,0"
    assert lines[-1] == "1,1"
