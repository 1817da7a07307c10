import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabilab import (
    DistributionSpec,
    LinearNoise,
    LogisticTeacher,
    SignFlip,
    pinelis_tail_experiment,
)
from stabilab.complexity import _antithetic_signs
from stabilab.datagen import draw_samples
from stabilab.learners import _sgd_index_streams
from stabilab import seeding
from stabilab.seeding import (
    _rekey,
    child_seed,
    draw_each,
    sign_rows,
    stream_key,
    substream,
)
from stream_oracle import (
    rademacher_signs,
    serial_antithetic_signs,
    serial_draw_each,
    serial_draw_samples,
    serial_pinelis_violations,
    serial_sgd_index_streams,
    serial_sign_row,
    serial_sign_rows,
)


def test_stream_key_distinguishes_paths():
    assert stream_key(1, "a") != stream_key(1, "b")
    assert stream_key(1, "a") != stream_key(2, "a")
    assert stream_key(1, "a", 1) != stream_key(1, "a", 2)
    # Labels are path components, not concatenated text.
    assert stream_key(1, "ab") != stream_key(1, "a", "b")


def test_child_seed_range_and_determinism():
    s = child_seed(42, "stage", 7)
    assert 0 <= s < 2**63
    assert s == child_seed(42, "stage", 7)


def test_substream_replayable():
    a = substream(5, "x").normal(size=8)
    b = substream(5, "x").normal(size=8)
    c = substream(5, "y").normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rademacher_signs_values():
    signs = rademacher_signs(substream(0, "signs"), 1000)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    assert signs.dtype == np.float64
    block = rademacher_signs(substream(0, "signs"), (4, 3))
    assert block.shape == (4, 3)


def test_python_labels_keep_their_keys():
    assert child_seed(1, 5) == 8929731208424808717
    assert child_seed(20250815, "replacement", 3, 1) == 3990937200605267711
    assert child_seed(0, "sigma", 2) == 2873795934160374780
    assert stream_key(5, "x", 0.25, True, -7) == 286766047267909082428003219310405236062


def test_numpy_labels_hash_as_the_python_values_they_equal():
    assert child_seed(1, np.int64(5)) == child_seed(1, 5) == 8929731208424808717
    assert child_seed(1, np.float64(0.5)) == child_seed(1, 0.5)
    assert child_seed(1, np.int32(-3), np.uint8(2)) == child_seed(1, -3, 2)
    assert stream_key(5, "x", np.float32(0.25), np.bool_(True), np.int16(-7)) == stream_key(
        5, "x", 0.25, True, -7
    )
    assert child_seed(1, np.str_("cell"), 2) == child_seed(1, "cell", 2)
    # A bool is not the integer it equals.
    assert child_seed(1, True) != child_seed(1, 1)
    for i in np.arange(3):
        assert child_seed(9, "cell", i) == child_seed(9, "cell", int(i))


@pytest.mark.parametrize("label", [None, (1, 2), [1], b"x", 1 + 2j, np.array([1]), np.array(5)])
def test_other_label_types_are_rejected(label):
    with pytest.raises(TypeError, match="seed labels"):
        child_seed(1, label)


# ---------------------------------------------------------------------------
# batched streams against the serial oracle

KEYS = st.one_of(
    st.integers(0, 2**128 - 1),
    st.integers(2**127, 2**128 - 1),
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]),
)
MASTER_SEEDS = st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1))
WIDTHS = st.one_of(st.sampled_from([1, 2, 3, 400]), st.integers(1, 64))
INT_LABELS = st.integers(-(2**40), 2**40).flatmap(
    lambda v: st.sampled_from([v, np.int64(v), np.float64(v), str(v)])
)
# Draws that use 64-bit words, 32-bit halves (leaving one cached) and doubles.
DRAWS = [
    lambda rng: rng.integers(0, 2, size=5),
    lambda rng: rng.integers(0, 97, size=13),
    lambda rng: rng.integers(0, 10, size=3, dtype=np.int32),
    lambda rng: rng.random(3, dtype=np.float32),
    lambda rng: rng.standard_normal(4),
    lambda rng: rng.bit_generator.random_raw(7),
]


@given(st.lists(KEYS, max_size=12), st.sampled_from(range(len(DRAWS))))
def test_draw_each_matches_fresh_generators(keys, which):
    draw = DRAWS[which]
    got = draw_each(keys, draw)
    want = serial_draw_each(keys, draw)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@given(KEYS)
def test_rekey_reaches_the_state_of_a_fresh_philox(key):
    bit_generator = np.random.Philox(key=12345)
    np.random.Generator(bit_generator).integers(0, 10, size=3, dtype=np.int32)
    assert bit_generator.state["has_uint32"] == 1
    _rekey(bit_generator, key)
    fresh = np.random.Philox(key=key).state
    state = bit_generator.state
    assert state["bit_generator"] == fresh["bit_generator"]
    for name in ("counter", "key"):
        assert np.array_equal(state["state"][name], fresh["state"][name])
    assert np.array_equal(state["buffer"], fresh["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert state[name] == fresh[name]


@pytest.mark.parametrize("key", [-1, 2**128])
def test_rekey_rejects_keys_outside_128_bits(key):
    with pytest.raises(ValueError, match="Philox key"):
        draw_each([key], lambda rng: rng.random())


@given(MASTER_SEEDS, st.lists(INT_LABELS, max_size=3), st.integers(0, 12), WIDTHS)
def test_sign_rows_match_per_row_replays(master_seed, labels, rows, n):
    out = sign_rows(master_seed, *labels, out=np.empty((rows, n)))
    assert np.array_equal(out, serial_sign_rows(master_seed, labels, rows, n))


@given(MASTER_SEEDS, st.integers(0, 300), WIDTHS)
def test_one_sign_row_replays_alone(master_seed, j, n):
    out = sign_rows(master_seed, "sigma", out=np.empty((j + 1, n)))
    assert np.array_equal(out[j], serial_sign_row(master_seed, ("sigma",), n, j))


@pytest.mark.parametrize("n", [1, 37, 400])
def test_sign_rows_are_prefix_stable(n):
    short = sign_rows(20250815, "pinelis", out=np.empty((100, n)))
    long = sign_rows(20250815, "pinelis", out=np.empty((1000, n)))
    assert np.array_equal(short, long[:100])


def test_sign_rows_across_chunk_boundaries(monkeypatch):
    # 400 signs take 200 raw words, so 700 rows span three chunks.
    out = sign_rows(11, "rows", out=np.empty((700, 400)))
    assert np.array_equal(out, serial_sign_rows(11, ("rows",), 700, 400))
    for n in (1, 3, 9, 17):
        whole = sign_rows(11, "rows", out=np.empty((130, n)))
        with monkeypatch.context() as m:
            m.setattr(seeding, "_CHUNK_WORDS", 8)
            chunked = sign_rows(11, "rows", out=np.empty((130, n)))
        assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("n", [1, 3, 7, 9, 15, 17, 399])
def test_sign_rows_of_odd_width(n):
    out = sign_rows(3, "odd", out=np.empty((40, n)))
    assert np.array_equal(out, serial_sign_rows(3, ("odd",), 40, n))
    assert set(np.unique(out)) == {-1.0, 1.0}
    # An odd width leaves one 32-bit half of its row unread; one more sign
    # reads it from the same blocks, so it only appends a column.
    wider = sign_rows(3, "odd", out=np.empty((40, n + 1)))
    assert np.array_equal(out, wider[:, :n])


@given(MASTER_SEEDS, st.integers(1, 8), WIDTHS)
def test_sign_rows_fill_a_strided_view(master_seed, rows, n):
    block = np.full((2 * rows, n), 7.0)
    returned = sign_rows(master_seed, "sigma", out=block[0::2])
    assert returned.base is block
    assert np.array_equal(block[0::2], serial_sign_rows(master_seed, ("sigma",), rows, n))
    assert np.all(block[1::2] == 7.0)


@given(MASTER_SEEDS, st.integers(1, 5), WIDTHS)
def test_antithetic_signs_match_the_per_pair_loop(seed, pairs, n):
    assert np.array_equal(_antithetic_signs(seed, pairs, n), serial_antithetic_signs(seed, pairs, n))


@settings(max_examples=20)
@given(
    MASTER_SEEDS,
    st.integers(1, 40),
    st.integers(1, 4),
    st.sampled_from([0.5, 0.8, 1.0, 1.3]),
)
def test_pinelis_violations_match_the_per_trial_loop(seed, steps, dim, epsilon):
    bounds = np.linspace(1.0, 0.5, steps)
    got = pinelis_tail_experiment(bounds, dim, 128, epsilon, seed=seed).violations
    assert got == serial_pinelis_violations(bounds, dim, 128, epsilon, seed)


MECHANISMS = [LinearNoise(0.02), LogisticTeacher(), SignFlip(0.0), SignFlip(0.2)]


@given(
    st.lists(MASTER_SEEDS.flatmap(lambda s: st.sampled_from([s, np.uint64(s)])), max_size=10),
    st.sampled_from(range(len(MECHANISMS))),
    st.sampled_from(["sphere", "ball"]),
)
def test_one_example_samples_match_the_per_row_loop(seeds, which, law):
    mechanism = MECHANISMS[which]
    label_bound = 1.0 if mechanism.classification() else 0.5
    spec = DistributionSpec(
        dim=3,
        feature_bound=1.0,
        teacher=[0.1, -0.05, 0.0],
        mechanism=mechanism,
        label_bound=label_bound,
        feature_law=law,
    )
    X, y = draw_samples(spec, 1, seeds)
    X_ref, y_ref = serial_draw_samples(spec, 1, seeds)
    assert np.array_equal(X, X_ref) and np.array_equal(y, y_ref)


@given(
    st.lists(MASTER_SEEDS.flatmap(lambda s: st.sampled_from([s, np.int64(s)])), max_size=8),
    WIDTHS,
    st.integers(0, 50),
)
def test_sgd_index_streams_match_the_per_run_loop(seeds, n, steps):
    got = _sgd_index_streams(seeds, n, steps)
    assert got.dtype == np.int64
    assert np.array_equal(got, serial_sgd_index_streams(seeds, n, steps))


@pytest.mark.parametrize("steps", [0, 1, 51, 400])
@pytest.mark.parametrize("n", [1, 2, 3, 25, 200, 2**31 + 11, 3 * 2**30])
def test_sgd_index_streams_read_from_raw_words_equal_integers(n, steps, monkeypatch):
    # At n = 3 * 2**30 a quarter of the 32-bit draws are rejected (2**32
    # mod n = 2**30), so rows go through the redraw; a power of two rejects
    # none, and n = 1 draws nothing.
    from stabilab import learners

    redrawn = []

    def counted(keys, draw):
        redrawn.extend(keys)
        return draw_each(keys, draw)

    monkeypatch.setattr(learners, "draw_each", counted)
    seeds = [0, 5, 2**63 - 1, 20250815, *range(40, 60)]
    got = _sgd_index_streams(seeds, n, steps)
    assert got.dtype == np.int64 and got.shape == (len(seeds), steps)
    assert np.array_equal(got, serial_sgd_index_streams(seeds, n, steps))
    # Every row reads its raw words once; only a rejected row draws again.
    redraws = len(redrawn) - (len(seeds) if n > 1 and steps else 0)
    if n == 3 * 2**30 and steps >= 51:
        assert redraws == len(seeds)
    elif n in (1, 2) or steps == 0:
        assert redraws == 0


# ---------------------------------------------------------------------------
# pinned streams: sha256 of outputs recorded before the batched primitives
# (the sign rows: when each sign batch became one stream), so a change to
# any stream definition fails here, not only between runs.


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_pinned_antithetic_signs():
    assert _sha256(_antithetic_signs(20250815, 64, 37)) == (
        "6212f0939667bd8a44f38b054d07baf06566d9628039fac19c79defda31a6842"
    )
    assert _sha256(_antithetic_signs(0, 3, 400)) == (
        "5dbf24459f416fb3d91aba352c8d254afbd591b552dd3fefdac538f8acbf1c45"
    )


def test_pinned_pinelis_violation_counts():
    counts = [
        pinelis_tail_experiment(np.ones(steps), 3, 1000, eps, seed=4242).violations
        for steps in (10, 33)
        for eps in (0.75, 1.0, 1.25)
    ]
    assert counts == [896, 584, 230, 863, 576, 268]
    assert _sha256(np.array(counts, dtype=np.int64)) == (
        "448b5b6b50b2ad050f754c52875f1e364fca872a1129e083554ed9c057267054"
    )


def test_pinned_one_example_samples():
    spec = DistributionSpec(
        dim=3,
        feature_bound=1.0,
        teacher=[0.5, -0.25, 0.0],
        mechanism=SignFlip(0.2),
        feature_law="ball",
    )
    X, y = draw_samples(spec, 1, [0, 1, 2**63 - 1, 20250815, 7])
    assert _sha256(X, y) == "b569fc4d6684a4d7b70ac4d5e57004aebecc00e60c1183f3efac4ebe7cd21c8f"


def test_pinned_sgd_index_streams():
    streams = _sgd_index_streams([0, 5, 2**63 - 1, 20250815], 97, 51)
    assert streams.dtype == np.int64
    assert _sha256(streams) == "16d92c13f8f133c1fca8475e943f0f4fe6eb84685583efcfa7ac09017d24dafd"
