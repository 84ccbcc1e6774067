"""The public API surface promised by the README must exist and be importable."""

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        # The README quickstart, verbatim.
        from repro import build_scenario

        scenario = build_scenario("wts", 4, 1, seed=42).run()
        assert scenario.check_la().ok

    def test_algorithm_classes_exported(self):
        assert repro.WTSProcess and repro.GWTSProcess
        assert repro.SbSProcess and repro.GSbSProcess

    def test_lattice_classes_exported(self):
        lattice = repro.SetLattice()
        assert lattice.join(frozenset({1}), frozenset({2})) == frozenset({1, 2})

    def test_quorum_helpers_exported(self):
        assert repro.byzantine_quorum(4, 1) == 3
        assert repro.required_processes(1) == 4
        assert repro.max_faults(4) == 1
