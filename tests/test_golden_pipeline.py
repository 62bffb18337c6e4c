"""Seeded partition, training and inference reproduce recorded bytes.

The digests were recorded before the circuit graph moved onto one CSR
adjacency, so a change of storage that alters any result shows here. The
single-batch digests were recorded before the synthetic rows became bool
and were thresholded in row blocks: the whole 1250-node graph is one batch
with 996 synthetic nodes, so the decoder and the augmented aggregation
each span several 256-row blocks. The report and ROC digests were
recorded before `metrics.roc_curve` became one sort and cumulative counts.

OpenBLAS rounds some sums and products differently at one thread and at
two, so the training digests hold for one thread count, `BLAS_THREADS`.
Those tests train in a child process that sets it before numpy loads.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import imlg
from imlg.graphs import build_graph, read_graph, write_graph
from imlg.partition import partition_graph
from imlg.synth import GenConfig, generate_labeled

PARTITION_ASSIGNMENT = "f43ffbb54de5cd58a080723cbaf9dece1193499f1f0220b472de572935e528cb"
PARTITION_CUT = 55
BLAS_THREADS = 2  # the training digests below were recorded at this count
TRAIN_LOG = "636290ac91cf70402b35b6b161c20f89588bbae692bbb17cca13a4e08958a3e3"
PREDICTIONS = "91cfec8ef25b0a7efb21c2f3bcd2f297f040c0bce1b3fc08f267841b57bdc4e5"
SINGLE_BATCH_TRAIN_LOG = "d78806dbd1c9477cb87d752a97c4d036a0865b81e789ddaad444fafb063e5354"
SINGLE_BATCH_PREDICTIONS = "30aa91ba22d782b753c4d8add646f53d565882c0c8d2cf6d3baf5a21705956c9"
# eval's report text and ROC dump for those predictions
REPORT = "1088cd33d2aadb9ba3ad1c55740c68d48e9f20f2f3990ecdd5df698f8e31b1ed"
ROC = "d7612abbd1abc75005de3657a65ed0a31bd1f1384da3230dbe71d953e5f28632"
SINGLE_BATCH_REPORT = "db65cfd77d82260e662e1502cb5a2dcb45ec932a1362edae50697275c3b13364"
SINGLE_BATCH_ROC = "d3da2077045b09736eb6bb61fde45995895a8ad92b49834883a81703dabf981c"

# argv[1] is the cluster size; prints the digests of the train log, the
# predictions, and eval's report and ROC dump scored against the graph's labels
TRAIN_AND_INFER = """
import hashlib, sys
from imlg.graphs import build_graph
from imlg.metrics import render_report, report, roc_lines
from imlg.synth import GenConfig, generate_labeled
from imlg.train import TrainConfig, infer, train, write_predictions
graph = build_graph(*generate_labeled(GenConfig(1250, seed=103)))
params, log = train(graph, cfg=TrainConfig(epochs=3, cluster_size=int(sys.argv[1]), seed=0))
probs, labels = infer(graph, params)
rep = report(probs, graph.labels)
texts = (log.to_csv(), write_predictions(graph.names, probs, labels),
         render_report(rep), roc_lines(rep.roc))
for text in texts:
    print(hashlib.sha256(text.encode()).hexdigest())
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests_at_recorded_blas_threads(cluster_size: int) -> list[str]:
    src = str(Path(imlg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    run = subprocess.run([sys.executable, "-c", TRAIN_AND_INFER, str(cluster_size)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.fixture(scope="module")
def golden_graph():
    return build_graph(*generate_labeled(GenConfig(1250, seed=103)))


def test_partition_matches_recorded_digest(golden_graph):
    part = partition_graph(golden_graph, 250, seed=0)
    assert part.assignment.dtype == np.int64
    assert sha256(part.assignment.tobytes()) == PARTITION_ASSIGNMENT
    assert part.cut == PARTITION_CUT


def test_train_log_and_predictions_match_recorded_digests():
    assert digests_at_recorded_blas_threads(250) == [TRAIN_LOG, PREDICTIONS, REPORT, ROC]


def test_single_batch_training_matches_recorded_digests():
    assert digests_at_recorded_blas_threads(1250) == [
        SINGLE_BATCH_TRAIN_LOG, SINGLE_BATCH_PREDICTIONS, SINGLE_BATCH_REPORT, SINGLE_BATCH_ROC
    ]


def test_graph_file_round_trips_byte_identical(golden_graph):
    text = write_graph(golden_graph)
    assert write_graph(read_graph(text)) == text
