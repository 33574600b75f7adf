"""SweepPoint spec semantics: validation, hashing, pickling, results.

The cache and the process backend both rest on two properties of
:class:`repro.exec.SweepPoint`: the content hash is *stable* (same spec
=> same key, across processes and Python versions) and *sensitive*
(any field change => different key).  These tests pin both, plus the
spec-level validation and the :class:`repro.exec.PointResult`
serialization round-trip the cache depends on.
"""

import dataclasses
import pickle

import pytest

from repro.exec import SPEC_VERSION, PointResult, SweepPoint

#: the golden-run UR spec's key, computed once and pinned as a literal.
#: If this changes, every cached result on every machine silently
#: invalidates -- bump SPEC_VERSION deliberately instead.
PINNED_KEY = "7d97daad281928ff9f8418f38af5409d933525174037a7dcf1b472fdd88516b4"
PINNED_POINT = SweepPoint(
    layout="baseline", mesh_size=4, pattern="uniform_random",
    rate=0.05, seed=7, warmup_packets=50, measure_packets=300,
)


class TestKeyStability:
    def test_key_is_deterministic(self):
        assert PINNED_POINT.key() == PINNED_POINT.key()
        assert SweepPoint().key() == SweepPoint().key()

    def test_key_matches_pinned_literal(self):
        assert SPEC_VERSION == 1
        assert PINNED_POINT.key() == PINNED_KEY

    def test_equal_specs_equal_keys(self):
        clone = dataclasses.replace(PINNED_POINT)
        assert clone == PINNED_POINT
        assert clone.key() == PINNED_POINT.key()

    def test_big_positions_order_is_canonicalized(self):
        a = SweepPoint(layout=None, big_positions=(3, 1, 2))
        b = SweepPoint(layout=None, big_positions=(1, 2, 3))
        assert a.big_positions == (1, 2, 3)
        assert a.key() == b.key()

    def test_key_survives_pickle_round_trip(self):
        """Workers rebuild the point from a pickle; the key must agree
        with the parent process's."""
        clone = pickle.loads(pickle.dumps(PINNED_POINT))
        assert clone == PINNED_POINT
        assert clone.key() == PINNED_KEY


class TestKeySensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"rate": 0.06},
            {"seed": 8},
            {"warmup_packets": 51},
            {"measure_packets": 301},
            {"mesh_size": 8},
            {"pattern": "transpose"},
            {"layout": "diagonal+BL"},
            {"flit_mode": "strict"},
            {"flit_merging": False},
            {"injector": "self_similar"},
            {"topology": "torus"},
            {"drain_cycle_cap": 100_000},
            {"redistribute_links": False},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_field_change_changes_key(self, change):
        assert dataclasses.replace(PINNED_POINT, **change).key() != PINNED_KEY

    def test_custom_placements_differ(self):
        a = SweepPoint(layout=None, big_positions=(0, 9, 18, 27))
        b = SweepPoint(layout=None, big_positions=(0, 9, 18, 28))
        assert a.key() != b.key()


class TestValidation:
    def test_layout_and_positions_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SweepPoint(layout="baseline", big_positions=(0, 9))

    @pytest.mark.parametrize("topology", ["cmesh", "fbfly"])
    def test_concentrated_topologies_are_homogeneous(self, topology):
        with pytest.raises(ValueError, match="homogeneous"):
            SweepPoint(layout="diagonal+BL", topology=topology)
        with pytest.raises(ValueError, match="homogeneous"):
            SweepPoint(layout=None, big_positions=(0, 5), topology=topology)
        # The homogeneous form itself is fine.
        SweepPoint(layout=None, topology=topology, mesh_size=4)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            SweepPoint(topology="hypercube")

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError, match="injector"):
            SweepPoint(injector="poisson")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            SweepPoint(kernel="vectorized")


class TestNetworkConstruction:
    def test_named_layout_mesh(self):
        network = PINNED_POINT.build_network()
        assert network.topology.num_nodes == 16

    def test_custom_positions(self):
        point = SweepPoint(layout=None, big_positions=(0, 5, 10, 15), mesh_size=4)
        network = point.build_network()
        big = {
            rid for rid in range(16) if network.routers[rid].config.kind == "big"
        }
        assert big == {0, 5, 10, 15}

    def test_flit_overrides_reach_config(self):
        point = dataclasses.replace(
            PINNED_POINT, layout="diagonal+BL", flit_merging=False
        )
        assert point.build_network().config.flit_merging is False

    def test_self_similar_injector(self):
        point = dataclasses.replace(PINNED_POINT, injector="self_similar")
        injector = point.build_injector(16)
        assert injector is not None
        assert PINNED_POINT.build_injector(16) is None

    def test_kernel_default_is_event(self):
        network = PINNED_POINT.build_network()
        assert PINNED_POINT.kernel is None
        assert network.kernel == "event"

    @pytest.mark.parametrize("kernel", ["event", "c"])
    def test_kernel_override_reaches_network(self, kernel):
        point = dataclasses.replace(PINNED_POINT, kernel=kernel)
        network = point.build_network()
        assert network.kernel == kernel

    def test_kernel_override_applies_to_custom_positions(self):
        """Both build_network branches (named layout / explicit big
        positions) must route through the kernel override."""
        point = SweepPoint(
            layout=None, big_positions=(0, 5, 10, 15), mesh_size=4,
            kernel="c",
        )
        network = point.build_network()
        assert network.kernel == "c"


class TestPointResult:
    def _result_dict(self):
        from repro.exec import execute_point

        point = dataclasses.replace(
            PINNED_POINT, warmup_packets=10, measure_packets=60
        )
        return execute_point(point).to_dict()

    def test_round_trip(self):
        payload = self._result_dict()
        restored = PointResult.from_dict(payload)
        assert restored.to_dict() == payload
        assert restored.from_cache is False

    def test_from_dict_rejects_missing_field(self):
        payload = self._result_dict()
        payload.pop("packet_id_sum")
        with pytest.raises(ValueError, match="fields"):
            PointResult.from_dict(payload)

    def test_from_dict_rejects_extra_field(self):
        payload = self._result_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="fields"):
            PointResult.from_dict(payload)

    def test_from_cache_excluded_from_payload_and_equality(self):
        payload = self._result_dict()
        assert "from_cache" not in payload
        a = PointResult.from_dict(payload)
        b = PointResult.from_dict(payload)
        b.from_cache = True
        assert a == b  # compare=False: cache provenance is not identity


class TestBigPositionValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepPoint(
                layout=None, big_positions=(0, 9, 9), mesh_size=4,
                pattern="uniform_random", rate=0.05, seed=7,
                warmup_packets=50, measure_packets=300,
            )

    def test_non_int_rejected(self):
        for bad in ((0, 1.5), (0, True), (0, "9")):
            with pytest.raises(ValueError, match="ints"):
                SweepPoint(
                    layout=None, big_positions=bad, mesh_size=4,
                    pattern="uniform_random", rate=0.05, seed=7,
                    warmup_packets=50, measure_packets=300,
                )

    def test_out_of_mesh_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SweepPoint(
                layout=None, big_positions=(0, 16), mesh_size=4,
                pattern="uniform_random", rate=0.05, seed=7,
                warmup_packets=50, measure_packets=300,
            )
