"""Unit tests for the codec scratch pool (size-classed array recycling)."""

import numpy as np

from repro.memory.bufferpool import ScratchPool, scratch_pool


class TestBorrow:
    def test_shape_and_dtype(self):
        pool = ScratchPool()
        with pool.borrow(100, np.float64) as buf:
            assert buf.shape == (100,) and buf.dtype == np.float64
            buf[:] = 1.5  # must be writable

    def test_recycles_within_size_class(self):
        pool = ScratchPool()
        with pool.borrow(1000, np.int64) as a:
            first = a.ctypes.data
        with pool.borrow(1000, np.int64) as b:
            assert b.ctypes.data == first
        assert pool.misses == 1 and pool.hits == 1

    def test_cross_dtype_recycle(self):
        # one freelist covers all dtypes: an int64 jump table and a float64
        # plane buffer of the same byte size share the same backing buffer
        pool = ScratchPool()
        with pool.borrow(512, np.int64):
            pass
        with pool.borrow(512, np.float64):
            pass
        assert pool.hits == 1

    def test_nested_borrows_are_distinct(self):
        pool = ScratchPool()
        with pool.borrow(64, np.uint8) as a, pool.borrow(64, np.uint8) as b:
            assert a.ctypes.data != b.ctypes.data

    def test_capacity_is_power_of_two(self):
        for n in (1, 255, 256, 257, 100_000):
            cap = ScratchPool._capacity(n)
            assert cap >= max(n, 256)
            assert cap & (cap - 1) == 0

    def test_zero_length_borrow(self):
        pool = ScratchPool()
        with pool.borrow(0, np.float64) as buf:
            assert buf.shape == (0,)


class TestRetention:
    def test_cap_drops_instead_of_hoarding(self):
        pool = ScratchPool(max_bytes=1 << 12)
        with pool.borrow(1 << 12, np.uint8):
            pass
        assert pool.retained_bytes == 1 << 12
        with pool.borrow(1 << 12, np.uint8):  # hit: takes the retained one
            with pool.borrow(1 << 12, np.uint8):  # miss: second allocation
                pass  # returning this would exceed the cap
        assert pool.drops == 1
        assert pool.retained_bytes <= pool.max_bytes

    def test_clear_empties_freelists(self):
        pool = ScratchPool()
        with pool.borrow(4096, np.float64):
            pass
        assert pool.retained_bytes > 0
        pool.clear()
        assert pool.retained_bytes == 0
        with pool.borrow(4096, np.float64):
            pass
        assert pool.misses == 2

    def test_repr_mentions_stats(self):
        assert "hits=0" in repr(ScratchPool())


class TestProcessSingleton:
    def test_same_object_within_process(self):
        assert scratch_pool() is scratch_pool()

    def test_codec_paths_share_the_singleton(self):
        # szlike round-trips go through the pool; observable as hit traffic
        from repro.compression.szlike import SZLikeCompressor

        pool = scratch_pool()
        before = pool.hits + pool.misses
        c = SZLikeCompressor(error_bound=1e-6)
        data = np.exp(1j * np.linspace(0, 3, 256)).astype(np.complex128)
        c.decompress(c.compress(data))
        assert pool.hits + pool.misses > before


class TestThreads:
    """Codec lanes borrow from the one pool at once: no buffer is lent to
    two borrowers, and the books balance. More threads than cores and a
    short switch interval, so threads interleave inside a borrow."""

    def test_concurrent_borrows_never_share_a_buffer(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        pool = ScratchPool(max_bytes=1 << 16)  # small: drops happen too
        rounds, threads = 300, 6

        def lane(tag):
            for i in range(rounds):
                n = 512 << (i % 3)
                with pool.borrow(n, np.int64) as buf:
                    buf[:] = tag
                    with pool.borrow(64, np.uint8) as small:
                        small[:] = tag
                        assert (small == tag).all()
                    assert (buf == tag).all()
            return tag

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as ex:
                assert sorted(ex.map(lane, range(threads),
                                     timeout=60)) == list(range(threads))
        finally:
            sys.setswitchinterval(interval)
        assert pool.hits + pool.misses == 2 * rounds * threads
        retained = sum(buf[0].nbytes for bucket in pool._free.values()
                       for buf in bucket)
        assert pool.retained_bytes == retained <= pool.max_bytes
