"""Keyed random streams: ``substreams`` seeds a batch of keys at once and
must give, key by key and draw for draw, the stream ``substream`` gives;
its array mixing must be NumPy's SeedSequence, word for word."""

import numpy as np
import pytest

from ruleval import DecisionRule, EstimatorConfig, ExperimentData, RewardSpec, estimate_reward
from ruleval.corpus import make_synthetic_corpus
from ruleval.experiments import ArmStack, fold_permutations
from ruleval.simulator import DEFAULT_PROXIES
from ruleval.streams import _pcg64_seeds, substream, substreams

LABELS = ["exp0", "a,b", 'say "hi"', "it's", "naïve", "実験-7", "", "tab\there", "\\"]


def fingerprint(rng: np.random.Generator) -> tuple:
    """The generator's PCG64 state, then draws of three kinds."""
    state = rng.bit_generator.state["state"]
    return (state["state"], state["inc"], rng.random(2).tolist(),
            rng.integers(-(2**62), 2**62, 2).tolist(), rng.standard_normal(2).tolist())


def paths(n: int, salt: int = 0) -> list[tuple]:
    return [("folds", LABELS[(i + salt) % len(LABELS)] + str(i), i % 3 + 1, salt)
            for i in range(n)]


@pytest.mark.parametrize("seed", [0, 7, -1, -(2**40), 2**70, np.int64(5), np.uint32(9), np.int8(-3)])
@pytest.mark.parametrize("size", [0, 1, 2, 15, 200])
def test_a_batch_gives_each_key_its_substream(seed, size):
    keys = paths(size, salt=size)
    got = [fingerprint(rng) for rng in substreams(seed, keys)]
    assert got == [fingerprint(substream(seed, *key)) for key in keys]


def test_a_batch_of_2000_mixed_keys_gives_each_key_its_substream():
    keys = [(LABELS[i % len(LABELS)], i, "x" * (i % 5)) for i in range(2000)]
    keys[::7] = [("corpus", i) for i in range(len(keys[::7]))]
    keys[::11] = [(np.str_("id,1"), np.int64(i)) for i in range(len(keys[::11]))]
    assert len(keys) == 2000
    got = [fingerprint(rng) for rng in substreams(-11, keys)]
    assert got == [fingerprint(substream(-11, *key)) for key in keys]


def test_array_mixing_matches_numpy_seed_sequence():
    bits = np.zeros((128, 4), np.uint32)
    bits[np.arange(128), np.arange(128) // 32] = np.uint32(1) << (np.arange(128) % 32).astype(np.uint32)
    words = np.concatenate([
        np.zeros((1, 4), np.uint32),
        np.full((1, 4), 0xFFFFFFFF, np.uint32),
        bits,
        np.random.default_rng(0).integers(0, 2**32, (64, 4), dtype=np.uint32),
    ])
    got = _pcg64_seeds(words)
    assert got.dtype == np.uint64 and got.shape == (len(words), 4)
    for w, state in zip(words.tolist(), got):
        assert state.tolist() == np.random.SeedSequence(w).generate_state(4, np.uint64).tolist()


def test_drawing_from_one_stream_leaves_the_others_unchanged():
    keys = paths(18)
    rngs = substreams(3, keys)
    first = next(rngs)
    first.random(10_000)  # drawn before the others are built
    rest = list(rngs)
    for rng in rest[::2]:
        rng.standard_normal(1_000)
    for rng, key in zip(rest[1::2], keys[2::2]):
        assert fingerprint(rng) == fingerprint(substream(3, *key))
    reference = substream(3, *keys[0])
    reference.random(10_000)
    assert fingerprint(first) == fingerprint(reference)


@pytest.mark.parametrize("seed", [True, False, 1.0, 1.5, np.float64(2.0), "1", None])
def test_a_bool_or_float_seed_is_rejected_before_anything_is_drawn(seed):
    def keys():
        pytest.fail("a key was read")
        yield ("any",)

    with pytest.raises(ValueError, match="^seed must be an integer"):
        substreams(seed, keys())
    with pytest.raises(ValueError, match="^seed must be an integer"):
        substreams(seed, [])


def test_numpy_labels_key_the_streams_of_their_values():
    for size in (1, 12):
        plain = [("folds", f"e{i}", i) for i in range(size)]
        numpy = [("folds", np.str_(f"e{i}"), np.int64(i)) for i in range(size)]
        assert ([fingerprint(rng) for rng in substreams(0, numpy)]
                == [fingerprint(rng) for rng in substreams(0, plain)])
    assert fingerprint(substream(0, np.str_("e1"), np.uint8(3))) == fingerprint(substream(0, "e1", 3))


def test_numpy_string_ids_split_the_folds_as_their_strings():
    corpus, _ = make_synthetic_corpus(30, 20, 0.15, 0.07, 1.0, 1.0, DEFAULT_PROXIES[:1], seed=4)
    exps = corpus.experiments
    renamed = [ExperimentData(np.str_(e.experiment_id), e.arms) for e in exps]
    perms = fold_permutations(ArmStack.of(exps), 0)
    for got, want in zip(fold_permutations(ArmStack.of(renamed), 0), perms, strict=True):
        np.testing.assert_array_equal(got, want)
    rule, reward = DecisionRule(blend=[0.0, 1.0]), RewardSpec.metric(1)
    config = EstimatorConfig("cv-kfold", num_folds=5, fold_seed=0, mode="cumulative")
    assert (estimate_reward(renamed, rule, reward, config).value
            == estimate_reward(exps, rule, reward, config).value)
