"""The backend table and engine services (clocks, time sources)."""

import pytest

from repro.engine import (
    BACKENDS,
    TIME_SIMULATED,
    TIME_SOURCES,
    TIME_WALL_CLOCK,
    AsyncEngine,
    KernelEngine,
    SimulatedClock,
    TurboEngine,
    WallClock,
    backend_is_wall_clock,
    backend_param_help,
    backend_time_source,
    create_engine,
    get_backend,
)


class TestRegistry:
    def test_table_maps_names_to_engine_classes_in_order(self):
        assert BACKENDS == {"kernel": KernelEngine, "turbo": TurboEngine, "async": AsyncEngine}
        assert list(BACKENDS) == ["kernel", "turbo", "async"]
        for name, engine in BACKENDS.items():
            assert engine.name == name
            assert engine.time_source in TIME_SOURCES
        assert get_backend("turbo") is TurboEngine

    def test_unknown_backend_names_the_known_ones(self):
        message = "unknown engine backend 'warp'; known: kernel, turbo, async"
        with pytest.raises(ValueError) as raised:
            get_backend("warp")
        assert str(raised.value) == message
        with pytest.raises(ValueError, match="unknown engine backend 'warp'"):
            create_engine("warp")

    def test_time_source_helpers(self):
        assert backend_time_source("kernel") == TIME_SIMULATED
        assert backend_time_source("async") == TIME_WALL_CLOCK
        assert not backend_is_wall_clock("turbo")
        assert backend_is_wall_clock("async")

    def test_param_help_is_generated_from_the_registry(self):
        assert backend_param_help() == (
            "execution engine: "
            "kernel (reference: turbo's schedule plus delivery log + full metrics) | "
            "turbo (fast path: identical schedule, no per-message objects) | "
            "async (wall-clock time + tail latencies: the kernel's loop in memory, "
            "or asyncio with coalesced TCP frames (framing=json|binary))"
        )

    def test_create_engine_passes_backend_specific_extras(self):
        engine = create_engine("async", transport="tcp", time_scale=0.5)
        assert engine.transport == "tcp" and engine.time_scale == 0.5
        # Simulated backends reject options they do not understand.
        with pytest.raises(TypeError):
            create_engine("kernel", transport="tcp")

    @pytest.mark.parametrize("backend", ["kernel", "turbo", "async"])
    def test_delay_model_is_the_only_delay_option(self, backend):
        from repro.engine import FixedDelay

        assert create_engine(backend, delay_model=FixedDelay(1.0)).name == backend
        with pytest.raises(TypeError, match="scheduler"):
            create_engine(backend, scheduler=FixedDelay(1.0))


class TestClocks:
    def test_engine_clock_time_sources(self):
        assert KernelEngine().clock.time_source == TIME_SIMULATED
        assert TurboEngine().clock.time_source == TIME_SIMULATED
        assert AsyncEngine().clock.time_source == TIME_WALL_CLOCK

    def test_simulated_clock_reads_its_owner(self):
        state = {"now": 0.0}
        clock = SimulatedClock(lambda: state["now"])
        assert clock.now() == 0.0
        state["now"] = 7.5
        assert clock.now() == 7.5

    def test_wall_clock_is_zero_until_started_then_monotone(self):
        clock = WallClock()
        assert clock.now() == 0.0
        clock.start()
        first = clock.now()
        assert first >= 0.0
        assert clock.now() >= first
        origin = clock._origin
        clock.start()  # idempotent
        assert clock._origin == origin

    def test_kernel_and_turbo_clocks_track_simulated_time(self):
        from repro.engine import FixedDelay, ProtocolCore

        class Hop(ProtocolCore):
            def on_start(self):
                if self.pid == "a":
                    self.send("b", "x")

        for engine_class in (KernelEngine, TurboEngine):
            engine = engine_class(delay_model=FixedDelay(2.5), seed=0)
            engine.add_core(Hop("a"))
            engine.add_core(Hop("b"))
            result = engine.run_until_quiescent()
            assert engine.clock.now() == engine.now == 2.5
            assert result.end_time == 2.5
            assert result.wall_time_s > 0.0
