import numpy as np
import pytest

from stabilab.seeding import child_seed, rademacher_signs, stream_key, substream


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
