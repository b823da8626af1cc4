"""Round-trip property tests for the posting codec (SURVEY §5 pattern 2:
compress→decompress == identity, mirroring internal/utils/data_test.go)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfsearch_ray.index.codec import (
    bm25_wdl,
    decode_positions_flat,
    delta_decode,
    delta_encode,
    encode_positions_run,
    varint_decode,
    varint_encode,
)


def encode_positions(pos_lists: list[np.ndarray]) -> bytes:
    """Reference positions encoder, one posting at a time: each list's
    first position, then its gaps, as varints — no count (index
    format 3: a posting's count is its tf)."""
    parts = [np.diff(np.ascontiguousarray(p, dtype=np.uint64), prepend=0)
             .astype(np.uint64) for p in pos_lists]
    if not parts:
        return b""
    return varint_encode(np.concatenate(parts))


def decode_positions(blob: bytes, counts: list[int]) -> list[np.ndarray]:
    """Reference positions decoder: one Python step per posting, each
    taking its count (tf) values."""
    flat = varint_decode(blob, count=sum(counts))
    out, i = [], 0
    for c in counts:
        out.append(np.cumsum(flat[i:i + c], dtype=np.uint64))
        i += c
    return out


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    out = varint_decode(varint_encode(arr), count=len(vals))
    assert np.array_equal(out, arr)


def test_varint_boundaries():
    vals = []
    for k in range(10):
        b = 1 << (7 * k)
        vals += [b - 1, b, b + 1]
    vals.append(2**64 - 1)
    arr = np.array([v for v in vals if v < 2**64], dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(arr)), arr)


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300, unique=True))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(ids):
    arr = np.sort(np.array(ids, dtype=np.uint64))
    assert np.array_equal(delta_decode(delta_encode(arr), count=len(ids)), arr)


def test_delta_empty():
    assert delta_encode(np.empty(0, dtype=np.uint64)) == b""
    assert delta_decode(b"").size == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=100000), min_size=0, max_size=30, unique=True),
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_positions_roundtrip(lists):
    arrs = [np.sort(np.array(p, dtype=np.uint64)) for p in lists]
    blob = encode_positions(arrs)
    counts = [a.size for a in arrs]
    out = decode_positions(blob, counts)
    assert len(out) == len(arrs)
    for a, b in zip(arrs, out):
        assert np.array_equal(a, b)
    flat = decode_positions_flat(blob, counts)
    want = np.concatenate(arrs) if arrs else np.empty(0, np.uint64)
    assert np.array_equal(flat, want)


def test_bm25_wdl_monotone():
    tf = np.array([1, 2, 4, 8], dtype=np.uint64)
    dl = np.full(4, 100, dtype=np.uint64)
    w = bm25_wdl(tf, dl, k1=1.2, b=0.75, avgdl=100.0)
    assert np.all(np.diff(w) > 0)  # increasing in tf
    assert np.all(w < 1.0)
    # longer docs score lower at same tf
    w2 = bm25_wdl(tf, dl * 4, k1=1.2, b=0.75, avgdl=100.0)
    assert np.all(w2 < w)


# ---------------------------------------------------------------- property


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip_property(vals):
    from pdfsearch_ray.index.codec import varint_decode, varint_encode

    arr = np.array(vals, dtype=np.uint64)
    blob = varint_encode(arr)
    out = varint_decode(blob, count=len(vals) if vals else None)
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                min_size=1, max_size=200, unique=True))
def test_delta_roundtrip_property(vals):
    from pdfsearch_ray.index.codec import delta_decode, delta_encode

    arr = np.sort(np.array(vals, dtype=np.uint64))
    blob = delta_encode(arr)
    np.testing.assert_array_equal(delta_decode(blob, count=len(arr)), arr)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=1, max_value=2**31 - 1),
             min_size=0, max_size=20, unique=True),
    max_size=30,
))
def test_positions_roundtrip_property(lists):
    pos_lists = [np.sort(np.array(x, dtype=np.uint64)) for x in lists]
    blob = encode_positions(pos_lists)
    out = decode_positions(blob, [len(x) for x in pos_lists])
    for a, b in zip(pos_lists, out):
        np.testing.assert_array_equal(a, b)
    # the vectorized whole-run encoder must be wire-compatible
    flat = (np.concatenate(pos_lists) if pos_lists else
            np.empty(0, dtype=np.uint64))
    lens = np.array([len(x) for x in pos_lists], dtype=np.int64)
    blob2, offsets = encode_positions_run(flat, lens)
    assert blob2 == blob
    assert offsets[-1] == len(blob)


def _positions_per_posting(blob: bytes, counts: list[int]) -> list[np.ndarray]:
    """The per-posting reference decode: one Python step per posting."""
    flat = varint_decode(blob)
    out, i = [], 0
    for cnt in counts:
        out.append(np.cumsum(flat[i:i + cnt], dtype=np.uint64))
        i += cnt
    assert i == flat.size
    return out


def test_decode_positions_flat_equals_per_posting_decode():
    """The one-pass decode over many blocks' joined position blobs is
    bitwise equal to the per-posting decode of each block, on random
    lists with zero-length lists, single-posting blocks, empty blocks
    and multi-byte values."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        blocks = []
        for _ in range(int(rng.integers(0, 8))):
            n = int(rng.choice([0, 1, 1, 2, 7, 128]))
            blocks.append([
                np.unique(rng.integers(
                    1, 1 << int(rng.integers(1, 31)),
                    int(rng.choice([0, 0, 1, 2, 5, 40])))).astype(np.uint64)
                for _ in range(n)])
        blobs = [encode_positions(b) for b in blocks]
        counts = [[p.size for p in b] for b in blocks]
        want = [p for blob, c in zip(blobs, counts)
                for p in _positions_per_posting(blob, c)]
        for blk, blob, c in zip(blocks, blobs, counts):
            got = decode_positions(blob, c)
            assert len(got) == len(blk)
            for g, e in zip(got, blk):
                assert g.dtype == np.uint64
                np.testing.assert_array_equal(g, e)
        all_counts = np.array([x for c in counts for x in c], np.int64)
        flat = decode_positions_flat(b"".join(blobs), all_counts)
        assert flat.dtype == np.uint64
        assert [p.size for p in want] == all_counts.tolist(), trial
        ref = (np.concatenate(want) if want
               else np.empty(0, dtype=np.uint64))
        assert flat.tobytes() == ref.tobytes(), trial


def test_decode_positions_flat_rejects_a_short_stream():
    import pytest

    blob = encode_positions([np.array([3, 9], np.uint64),
                             np.array([4], np.uint64)])
    with pytest.raises(ValueError):
        decode_positions_flat(blob, [2, 1, 1])
    with pytest.raises(ValueError):
        decode_positions_flat(blob, [2])
    with pytest.raises(ValueError):
        decode_positions_flat(blob[:-1], [2, 1])


_POSITION_LISTS = st.lists(
    st.lists(st.integers(min_value=1, max_value=2**32 - 1),
             min_size=1, max_size=300, unique=True),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.lists(_POSITION_LISTS, min_size=1, max_size=6),
       st.booleans(), st.data())
def test_gaps_only_positions_roundtrip_property(blocks, tf_one, data):
    """The gaps-only positions stream (no per-posting count): encode
    many blocks' runs with ``encode_positions_run``, join the blocks'
    blobs and decode them with the counts alone (each posting's tf) —
    with every tf 1, or lists up to 300 long — equal to the input and
    to the per-posting reference codec; a stream one value short or one
    byte long is rejected."""
    import pytest

    if tf_one:
        blocks = [[p[:1] for p in b] for b in blocks]
    lists = [[np.sort(np.array(p, dtype=np.uint64)) for p in b]
             for b in blocks]
    blobs = []
    for b in lists:
        lens = np.array([p.size for p in b], dtype=np.int64)
        blob, off = encode_positions_run(np.concatenate(b), lens)
        assert blob == encode_positions(b)
        assert off[0] == 0 and off[-1] == len(blob)
        assert np.all(np.diff(off) >= lens)  # a varint is ≥ 1 byte
        blobs.append(blob)
    counts = np.array([p.size for b in lists for p in b], dtype=np.int64)
    joined = b"".join(blobs)
    flat = decode_positions_flat(joined, counts)
    want = np.concatenate([p for b in lists for p in b])
    assert flat.tobytes() == want.tobytes()
    split = np.split(flat, np.cumsum(counts)[:-1])
    assert all(np.array_equal(a, e) for a, e in
               zip(split, decode_positions(joined, counts.tolist())))
    # one value short: the stream lacks a posting's last position
    short = counts.copy()
    short[data.draw(st.integers(0, counts.size - 1))] += 1
    with pytest.raises(ValueError):
        decode_positions_flat(joined, short)
    # one byte long: a trailing whole value, or a dangling continuation
    extra = data.draw(st.integers(0, 255))
    with pytest.raises(ValueError):
        decode_positions_flat(joined + bytes([extra]), counts)
    with pytest.raises(ValueError):
        decode_positions_flat(joined[:-1], counts)
