"""Seeded partition, training and inference reproduce recorded bytes.

The digests were recorded before the circuit graph moved onto one CSR
adjacency, so a change of storage that alters any result shows here.
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


def test_graph_file_round_trips_byte_identical(golden_graph):
    text = write_graph(golden_graph)
    assert write_graph(read_graph(text)) == text
