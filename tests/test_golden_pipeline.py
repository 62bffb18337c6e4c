"""Seeded partition, training and inference reproduce recorded bytes.

The digests were recorded before the circuit graph moved onto one CSR
adjacency, so a change of storage that alters any result shows here. The
single-batch digests were recorded before the synthetic rows became bool
and were thresholded in row blocks: the whole 1250-node graph is one batch
with 996 synthetic nodes, so the decoder and the augmented aggregation
each span several 256-row blocks.
"""

import hashlib

import numpy as np
import pytest

from imlg.graphs import build_graph, read_graph, write_graph
from imlg.partition import partition_graph
from imlg.synth import GenConfig, generate_labeled
from imlg.train import TrainConfig, infer, train, write_predictions

PARTITION_ASSIGNMENT = "f43ffbb54de5cd58a080723cbaf9dece1193499f1f0220b472de572935e528cb"
PARTITION_CUT = 55
TRAIN_LOG = "636290ac91cf70402b35b6b161c20f89588bbae692bbb17cca13a4e08958a3e3"
PREDICTIONS = "91cfec8ef25b0a7efb21c2f3bcd2f297f040c0bce1b3fc08f267841b57bdc4e5"
SINGLE_BATCH_TRAIN_LOG = "d78806dbd1c9477cb87d752a97c4d036a0865b81e789ddaad444fafb063e5354"
SINGLE_BATCH_PREDICTIONS = "30aa91ba22d782b753c4d8add646f53d565882c0c8d2cf6d3baf5a21705956c9"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_graph():
    return build_graph(*generate_labeled(GenConfig(1250, seed=103)))


def test_partition_matches_recorded_digest(golden_graph):
    part = partition_graph(golden_graph, 250, seed=0)
    assert part.assignment.dtype == np.int64
    assert sha256(part.assignment.tobytes()) == PARTITION_ASSIGNMENT
    assert part.cut == PARTITION_CUT


def test_train_log_and_predictions_match_recorded_digests(golden_graph):
    params, log = train(golden_graph, cfg=TrainConfig(epochs=3, cluster_size=250, seed=0))
    assert sha256(log.to_csv().encode()) == TRAIN_LOG
    probs, labels = infer(golden_graph, params)
    assert sha256(write_predictions(golden_graph.names, probs, labels).encode()) == PREDICTIONS


def test_single_batch_training_matches_recorded_digests(golden_graph):
    params, log = train(golden_graph, cfg=TrainConfig(epochs=3, cluster_size=1250, seed=0))
    assert sha256(log.to_csv().encode()) == SINGLE_BATCH_TRAIN_LOG
    probs, labels = infer(golden_graph, params)
    assert sha256(write_predictions(golden_graph.names, probs, labels).encode()) == SINGLE_BATCH_PREDICTIONS


def test_graph_file_round_trips_byte_identical(golden_graph):
    text = write_graph(golden_graph)
    assert write_graph(read_graph(text)) == text
