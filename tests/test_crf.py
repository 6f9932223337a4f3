"""CRF head tests: Viterbi correctness on hand cases and BIO
transition constraints (kernels/crf.py)."""

import numpy as np

from biomedical_ner_ray.kernels.crf import (
    bio_tagset,
    bio_transitions,
    viterbi_decode,
)


def test_bio_tagset_deterministic():
    tags = bio_tagset(["protein", "DNA"])
    assert tags == ["O", "B-DNA", "I-DNA", "B-protein", "I-protein"]


def test_transitions_block_orphan_inside():
    tags = bio_tagset(["x", "y"])
    trans = bio_transitions(tags)
    ti = {t: i for i, t in enumerate(tags)}
    assert trans[ti["O"], ti["I-x"]] < -1e8  # O -> I-x invalid
    assert trans[ti["B-y"], ti["I-x"]] < -1e8  # B-y -> I-x invalid
    assert trans[ti["B-x"], ti["I-x"]] == 0.0
    assert trans[ti["I-x"], ti["I-x"]] == 0.0
    assert trans[ti["I-x"], ti["B-y"]] == 0.0


def test_viterbi_hand_case():
    # 2 tags, 3 steps; emissions force path 0,1,1 unless transition blocks it
    em = np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
    trans = np.zeros((2, 2))
    assert viterbi_decode(em, trans) == [0, 1, 1]
    # blocking 0->1 forces the path through tag 1 from the start or stay at 0
    trans[0, 1] = -1e9
    path = viterbi_decode(em, trans)
    assert path in ([1, 1, 1], [0, 0, 0])


def test_viterbi_empty():
    assert viterbi_decode(np.zeros((0, 3)), np.zeros((3, 3))) == []
