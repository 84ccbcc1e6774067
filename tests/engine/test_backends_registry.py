"""The backend registry and engine services (clocks, time sources)."""

import pytest

from repro.engine import (
    TIME_SIMULATED,
    TIME_WALL_CLOCK,
    AsyncEngine,
    BackendInfo,
    KernelEngine,
    SimulatedClock,
    TurboEngine,
    WallClock,
    backend_is_wall_clock,
    backend_names,
    backend_param_help,
    backend_time_source,
    create_engine,
    get_backend,
    register_backend,
)
from repro.engine import backends as backends_module


class TestRegistry:
    def test_builtin_backends_are_registered_in_order(self):
        assert backend_names() == ("kernel", "turbo", "async")

    def test_lookup_returns_rich_info(self):
        info = get_backend("kernel")
        assert info.factory is KernelEngine
        assert info.time_source == TIME_SIMULATED
        assert info.deterministic
        assert get_backend("turbo").factory is TurboEngine
        async_info = get_backend("async")
        assert async_info.factory is AsyncEngine
        assert async_info.time_source == TIME_WALL_CLOCK
        assert not async_info.deterministic

    def test_unknown_backend_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown engine backend 'warp'.*kernel"):
            get_backend("warp")
        with pytest.raises(ValueError, match="unknown engine backend"):
            create_engine("warp")

    def test_time_source_helpers(self):
        assert backend_time_source("kernel") == "simulated"
        assert backend_time_source("async") == "wall-clock"
        assert not backend_is_wall_clock("turbo")
        assert backend_is_wall_clock("async")

    def test_param_help_is_generated_from_the_registry(self):
        help_text = backend_param_help()
        for name in backend_names():
            assert name in help_text

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(
                BackendInfo(
                    name="kernel",
                    factory=KernelEngine,
                    time_source=TIME_SIMULATED,
                    deterministic=True,
                    summary="imposter",
                )
            )

    def test_bad_time_source_rejected_at_registration(self):
        with pytest.raises(ValueError, match="unknown time source"):
            BackendInfo(
                name="x",
                factory=KernelEngine,
                time_source="lunar",
                deterministic=True,
                summary="",
            )

    def test_custom_backend_registration_roundtrip(self):
        register_backend(
            BackendInfo(
                name="test-only",
                factory=KernelEngine,
                time_source=TIME_SIMULATED,
                deterministic=True,
                summary="registered by a test",
            )
        )
        try:
            assert create_engine("test-only").name == "kernel"
            assert "test-only" in backend_param_help()
        finally:
            del backends_module._BACKENDS["test-only"]

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
