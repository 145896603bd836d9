"""Store and RngRegistry tests."""

import numpy as np

from repro.sim import Engine, RngRegistry, Store


class TestStore:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.put("item")
        got = []

        def getter(engine, store):
            value = yield store.get()
            got.append(value)

        engine.process(getter(engine, store))
        engine.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self):
        engine = Engine()
        store = Store(engine)
        got = []

        def getter(engine, store):
            value = yield store.get()
            got.append((engine.now, value))

        def putter(engine, store):
            yield engine.timeout(4.0)
            store.put("late")

        engine.process(getter(engine, store))
        engine.process(putter(engine, store))
        engine.run()
        assert got == [(4.0, "late")]

    def test_fifo_items(self):
        engine = Engine()
        store = Store(engine)
        store.put(1)
        store.put(2)
        got = []

        def getter(engine, store):
            got.append((yield store.get()))
            got.append((yield store.get()))

        engine.process(getter(engine, store))
        engine.run()
        assert got == [1, 2]
        assert store.size == 0


class TestRngRegistry:
    def test_reproducible(self):
        a = RngRegistry(seed=7).stream("sizes").random(5)
        b = RngRegistry(seed=7).stream("sizes").random(5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        reg = RngRegistry(seed=7)
        a = reg.stream("sizes").random(1000)
        b = reg.stream("rotation").random(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
        assert not np.array_equal(a[:5], b[:5])

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x").random(5)
        b = RngRegistry(seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_same_stream_is_cached(self):
        reg = RngRegistry(seed=0)
        assert reg.stream("x") is reg.stream("x")
        assert "x" in reg
