"""CRF head tests: Viterbi correctness on hand cases and BIO
transition constraints (kernels/crf.py)."""

import numpy as np

from biomedical_ner_ray.kernels.crf import (
    bio_tagset,
    bio_transitions,
    viterbi_decode,
    viterbi_decode_batch,
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


def test_viterbi_batch_equals_per_row():
    """The batched decode (its backtrace runs one step for all rows)
    gives the per-row ``viterbi_decode`` ints on ragged batches, with
    learned transitions under the BIO mask and with many exact ties
    (small-integer scores) that first-index argmax must break alike."""
    rng = np.random.RandomState(0)
    tags = bio_tagset(["x", "y", "z"])
    k = len(tags)
    for trial in range(30):
        b = rng.randint(1, 12)
        lens = rng.randint(1, 25, size=b)
        if trial % 2:
            em = rng.randint(0, 3, size=(b, lens.max(), k)).astype(np.float64)
            trans = bio_transitions(tags) + rng.randint(0, 2, size=(k, k))
        else:
            em = rng.randn(b, lens.max(), k)
            trans = bio_transitions(tags) + rng.randn(k, k) * 0.5
        em[np.arange(lens.max())[None, :] >= lens[:, None]] = 7.0  # pad
        got = viterbi_decode_batch(em, lens, trans)
        for i in range(b):
            assert list(got[i]) == viterbi_decode(em[i, : lens[i]], trans), trial
