"""Checkpoint/restore must be bit-identical, and corruption detectable.

The crash-safety contract of :mod:`repro.noc.snapshot`:

* restoring a snapshot and continuing reproduces an uninterrupted run
  *exactly* -- same deep per-cycle state digests (the differential
  harness from ``test_kernel_differential``), same delivered-packet
  records, for both cycle kernels and the full-scan reference;
* the binary container carries any picklable payload and detects
  truncation, bit flips, bad magic and format-version skew loudly
  (``SnapshotCorrupt`` / ``SnapshotVersionMismatch``) instead of
  half-restoring;
* the runner integration (``run_synthetic(checkpoint_every=...)``)
  perturbs nothing, resumes bit-identically mid-run -- its checkpoint is
  its pickled ``RunState`` -- and refuses payloads that are not one, or
  that were taken under different run parameters;
* ``execute_point`` auto-resumes from its checkpoint and falls back to
  scratch -- still bit-identically -- when the checkpoint is damaged.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.exec.point import SweepPoint, checkpoint_path_for, execute_point
from repro.noc.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotVersionMismatch,
    capture,
    dumps,
    load_snapshot,
    loads,
    save_snapshot,
)
from repro.traffic.patterns import pattern_by_name
from repro.traffic.runner import RunState, load_checkpoint, run_synthetic
from tests.test_kernel_differential import (
    LEGS,
    _digest,
    _use_leg,
    needs_ckernel,
)


def _fresh_network(leg, mesh_size=4, layout="baseline"):
    return _use_leg(build_network(layout_by_name(layout, mesh_size)), leg)


def _restamp(blob, version):
    """``blob`` with its container-header version field rewritten."""
    import struct

    return blob[:8] + struct.pack(">I", version) + blob[12:]


def _drive(net, rng, cycles, rate, record=None):
    """Inject seeded random traffic and step; returns per-cycle digests."""
    digests = []
    num_nodes = net.topology.num_nodes
    for _ in range(cycles):
        for node in range(num_nodes):
            if rng.random() < rate:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(net.make_packet(node, dst, payload_bits=256))
        net.step()
        digests.append(_digest(net))
        if record is not None:
            record.append(_digest(net))
    return digests


class TestContainer:
    def _snapshot(self):
        """A payload of the caller's own making: the container does not
        care what it carries."""
        net = _fresh_network("event")
        rng = random.Random(3)
        _drive(net, rng, 20, 0.1)
        return {"network": capture(net), "rng": rng, "phase": "load"}

    def test_dumps_loads_round_trip(self):
        original = self._snapshot()
        restored = loads(dumps(original))
        assert restored["phase"] == "load"
        assert restored["network"].cycle == 20
        assert restored["rng"].getstate() == original["rng"].getstate()

    def test_save_load_file_round_trip(self, tmp_path):
        path = tmp_path / "sim.ckpt"
        save_snapshot(self._snapshot(), path)
        assert load_snapshot(path)["network"].cycle == 20
        # No temp files left behind by the atomic write.
        assert [p.name for p in tmp_path.iterdir()] == ["sim.ckpt"]

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "sim.ckpt"
        save_snapshot(self._snapshot(), path)
        data = path.read_bytes()
        for keep in (0, 10, len(data) // 2, len(data) - 1):
            with pytest.raises(SnapshotCorrupt):
                loads(data[:keep])

    def test_bit_flips_detected(self, tmp_path):
        blob = dumps(self._snapshot())
        rng = random.Random(7)
        for _ in range(8):
            damaged = bytearray(blob)
            offset = rng.randrange(len(damaged))
            damaged[offset] ^= 1 << rng.randrange(8)
            with pytest.raises(SnapshotCorrupt):
                loads(bytes(damaged))

    def test_bad_magic_detected(self):
        blob = dumps(self._snapshot())
        with pytest.raises(SnapshotCorrupt, match="magic"):
            loads(b"NOTASNAP" + blob[8:])

    @pytest.mark.parametrize(
        "version", [1, 2, 3, 4, 5, 6, 7, SNAPSHOT_VERSION + 1]
    )
    def test_version_skew_detected(self, version):
        """Newer *and* older containers refuse before unpickling: a v1
        payload holds a ``Network`` with the pre-v2 kernel fields, a v2
        one a ``Network`` that does not know its next packet id, a v3
        one a ``NetworkStats`` holding a list of record objects, a v4
        one a ``SimSnapshot`` wrapper class that no longer exists, a v5
        one a ``Network`` whose routers are a plain attribute, a v6 one a
        ``"c"`` network synced into routers, with no kernel to restore, a
        v7 one a ``Network`` whose link counters live in its stats."""
        blob = _restamp(dumps(self._snapshot()), version)
        with pytest.raises(SnapshotVersionMismatch, match=f"v{version}"):
            loads(blob)

    def test_wrong_payload_type_detected(self, tmp_path):
        """The container carries anything; it is the runner that refuses
        a valid snapshot holding something other than its run state."""
        path = tmp_path / "foreign.ckpt"
        save_snapshot({"not": "a run state"}, path)
        assert load_snapshot(path) == {"not": "a run state"}
        net = _fresh_network("event")
        with pytest.raises(SnapshotError, match="not a run_synthetic"):
            run_synthetic(
                net,
                pattern_by_name("uniform_random", net.topology),
                0.05,
                resume_from=path,
            )

    def test_observer_refused(self):
        from repro.obs.hooks import Observer

        net = _fresh_network("event")
        net.attach_observer(Observer())
        with pytest.raises(SnapshotError, match="observer"):
            capture(net)


class TestBitIdenticalResume:
    """The tentpole property, differentially, across every leg."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        kernel=st.sampled_from(LEGS),
        mesh_size=st.sampled_from([3, 4]),
        layout=st.sampled_from(["baseline", "center+BL"]),
        rate=st.sampled_from([0.05, 0.12]),
        seed=st.integers(min_value=0, max_value=2**16),
        split=st.integers(min_value=5, max_value=40),
    )
    def test_capture_continue_equals_uninterrupted(
        self, tmp_path, kernel, mesh_size, layout, rate, seed, split
    ):
        tail_cycles = 30
        # Uninterrupted run: split + tail cycles of seeded traffic.
        net = _fresh_network(kernel, mesh_size, layout)
        rng = random.Random(seed)
        head = _drive(net, rng, split, rate)
        expected_tail = _drive(net, rng, tail_cycles, rate)

        # Interrupted run: same head, checkpoint to disk, then drop every
        # live object the snapshot claims to restore.
        net = _fresh_network(kernel, mesh_size, layout)
        rng = random.Random(seed)
        head2 = _drive(net, rng, split, rate)
        assert head2 == head
        path = tmp_path / f"{kernel}.ckpt"
        save_snapshot((capture(net), rng), path)
        del net, rng

        restored_tail = _drive(*load_snapshot(path), tail_cycles, rate)
        assert restored_tail == expected_tail

    def test_capture_does_not_perturb_the_captured_run(self):
        for kernel in LEGS:
            net = _fresh_network(kernel)
            rng = random.Random(5)
            plain = _drive(net, rng, 25, 0.1) + _drive(net, rng, 25, 0.1)

            net = _fresh_network(kernel)
            rng = random.Random(5)
            first = _drive(net, rng, 25, 0.1)
            dumps((capture(net), rng))  # snapshot mid-run, keep going
            second = _drive(net, rng, 25, 0.1)
            assert first + second == plain, kernel


class TestRunnerCheckpointing:
    POINT = dict(
        rate=0.08, warmup_packets=15, measure_packets=40, seed=11
    )

    def _network(self, kernel="event"):
        return _fresh_network(kernel)

    def _summary(self, result):
        return (
            [tuple(vars(record).values()) for record in result.stats.records],
            result.total_cycles,
            result.measured_packets,
            result.saturated,
            result.unfinished_measured_packets,
        )

    def test_checkpointed_run_is_unperturbed(self, tmp_path):
        net = self._network()
        pattern = pattern_by_name("uniform_random", net.topology)
        plain = run_synthetic(net, pattern, **self.POINT)

        net = self._network()
        checkpointed = run_synthetic(
            net,
            pattern_by_name("uniform_random", net.topology),
            checkpoint_every=20,
            checkpoint_path=tmp_path / "run.ckpt",
            **self.POINT,
        )
        assert (tmp_path / "run.ckpt").exists()
        assert self._summary(checkpointed) == self._summary(plain)

    def test_resume_from_checkpoint_matches(self, tmp_path):
        net = self._network()
        pattern = pattern_by_name("uniform_random", net.topology)
        plain = run_synthetic(net, pattern, **self.POINT)

        path = tmp_path / "run.ckpt"
        net = self._network()
        run_synthetic(
            net,
            pattern_by_name("uniform_random", net.topology),
            checkpoint_every=25,
            checkpoint_path=path,
            **self.POINT,
        )
        resumed_net = _fresh_network("event")  # ignored: snapshot wins
        resumed = run_synthetic(
            resumed_net,
            pattern_by_name("uniform_random", resumed_net.topology),
            resume_from=path,
            **self.POINT,
        )
        assert self._summary(resumed) == self._summary(plain)

    @pytest.mark.parametrize("case", [*LEGS, "faults"])
    def test_resume_from_every_checkpoint_matches(self, monkeypatch, case):
        """Whichever checkpoint a killed run left behind -- warmup,
        mid-measure, drain; span-driven under ``c``; with the NI and a
        fault schedule in the payload -- the resumed run ends where the
        uninterrupted one does."""
        from repro.faults import FaultSchedule, FaultSpec, mesh_link_channels
        from repro.traffic import runner

        knobs = dict(rate=0.1, warmup_packets=30, measure_packets=120, seed=3)
        kernel = "event" if case == "faults" else case

        def run(**more):
            net = self._network(kernel)
            if case == "faults":
                router, port = next(
                    (r, p) for r, p in mesh_link_channels(net.topology)
                    if r == 5
                )
                more["faults"] = FaultSchedule(specs=(FaultSpec(
                    kind="bit_flip", router=router, port=port,
                    mode="transient", at=20, repair_after=200,
                ),))
            pattern = pattern_by_name("uniform_random", net.topology)
            result = run_synthetic(net, pattern, **knobs, **more)
            return self._summary(result) + (
                result.resilience,
                result.lost_measured_packets,
                sum(result.kernel_cycles.values()),
            )

        plain = run()
        if case == "faults":
            assert plain[-3]["retransmissions"] > 0
        blobs = []
        monkeypatch.setattr(
            runner, "save_snapshot", lambda run, path: blobs.append(dumps(run))
        )
        assert run(checkpoint_every=15, checkpoint_path="unused") == plain
        phases = set()
        for blob in blobs:
            state = loads(blob)
            assert isinstance(state, RunState)
            phases.add((
                state.network.measuring, state.drain_deadline is not None
            ))
            assert run(resume_from=state) == plain
        # before the window, inside it, and in the drain
        assert phases == {(False, False), (True, False), (False, True)}

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        path = tmp_path / "run.ckpt"
        net = self._network()
        run_synthetic(
            net,
            pattern_by_name("uniform_random", net.topology),
            checkpoint_every=25,
            checkpoint_path=path,
            **self.POINT,
        )
        other = dict(self.POINT, rate=0.2)
        net = self._network()
        with pytest.raises(SnapshotError, match="different run"):
            run_synthetic(
                net,
                pattern_by_name("uniform_random", net.topology),
                resume_from=path,
                **other,
            )

    def test_checkpoint_every_requires_path(self):
        net = self._network()
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_synthetic(
                net,
                pattern_by_name("uniform_random", net.topology),
                checkpoint_every=10,
                **self.POINT,
            )

    def test_checkpointing_refuses_a_sampler(self, tmp_path):
        from repro.obs import TimeSeriesSampler

        net = self._network()
        with pytest.raises(ValueError, match="samplers"):
            run_synthetic(
                net,
                pattern_by_name("uniform_random", net.topology),
                checkpoint_every=10,
                checkpoint_path=tmp_path / "run.ckpt",
                sampler=TimeSeriesSampler(net, window=10),
                **self.POINT,
            )
        assert not (tmp_path / "run.ckpt").exists()


class TestExecutePointCheckpointing:
    POINT = SweepPoint(
        layout="baseline",
        mesh_size=4,
        topology="mesh",
        flit_mode="paper",
        pattern="uniform_random",
        rate=0.08,
        seed=7,
        warmup_packets=15,
        measure_packets=40,
    )

    def test_checkpointed_execution_matches_and_cleans_up(self, tmp_path):
        expected = execute_point(self.POINT).to_dict()
        # What a writer killed between ``open`` and ``os.replace`` leaves
        # behind, under some long-dead pid -- and a neighbour's checkpoint.
        checkpoint = checkpoint_path_for(self.POINT, tmp_path)
        stale = tmp_path / f"{checkpoint.name}.4242.tmp"
        stale.write_bytes(b"half a checkpoint")
        neighbour = tmp_path / f"{'0' * 64}.ckpt"
        neighbour.write_bytes(b"someone else's")
        got = execute_point(
            self.POINT, checkpoint_every=20, checkpoint_dir=tmp_path
        ).to_dict()
        assert got == expected
        assert [p.name for p in tmp_path.iterdir()] == [neighbour.name]

    def test_interrupted_point_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        from repro.chaos.sites import reset_chaos_sites, write_site_plan

        expected = execute_point(self.POINT).to_dict()
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"runner.checkpoint": {"exc": "OSError", "calls": [1]}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        reset_chaos_sites()
        with pytest.raises(OSError):
            execute_point(
                self.POINT, checkpoint_every=20, checkpoint_dir=tmp_path
            )
        monkeypatch.delenv("REPRO_CHAOS_PLAN")
        checkpoint = checkpoint_path_for(self.POINT, tmp_path)
        assert checkpoint.exists()
        resumed = execute_point(
            self.POINT, checkpoint_every=20, checkpoint_dir=tmp_path
        ).to_dict()
        assert resumed == expected
        assert not checkpoint.exists()

    @needs_ckernel
    @pytest.mark.parametrize(
        "damage", ["source-key", "shape", "truncated", "no-compiler"]
    )
    def test_refused_arena_image_falls_back_to_scratch(
        self, tmp_path, monkeypatch, damage
    ):
        """A ``"c"`` checkpoint whose arena image names another kernel
        source or network shape in its header, or ends early, is refused
        by ``ck_load`` inside unpickling -- a corrupt snapshot -- and the
        point restarts from scratch, bit-identically.  So is an intact
        one on a host that cannot build the kernel (the restart then
        runs on the event kernel)."""
        import warnings
        from array import array

        import repro.noc.ckernel as ckernel
        from repro.chaos.sites import reset_chaos_sites, write_site_plan
        from repro.noc.ckernel import CKernel

        point = replace(self.POINT, kernel="c")
        expected = execute_point(point).to_dict()
        image = CKernel.image

        def damaged(kernel):
            words = array("q", image(kernel))
            if damage == "no-compiler":
                return words.tobytes()
            if damage == "truncated":
                return words[:-1].tobytes()
            words[0 if damage == "source-key" else 1] += 1
            return words.tobytes()

        monkeypatch.setattr(CKernel, "image", damaged)
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"runner.checkpoint": {"exc": "OSError", "calls": [1]}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        reset_chaos_sites()
        with pytest.raises(OSError):
            execute_point(point, checkpoint_every=20, checkpoint_dir=tmp_path)
        monkeypatch.delenv("REPRO_CHAOS_PLAN")
        monkeypatch.setattr(CKernel, "image", image)
        checkpoint = checkpoint_path_for(point, tmp_path)
        refusal = "arena image refused"
        if damage == "no-compiler":
            refusal = "no C compiler"
            for memo in ("_LIB", "_FAILED"):
                monkeypatch.setattr(ckernel, memo, None)
            monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
        with pytest.raises(SnapshotCorrupt, match=refusal):
            load_snapshot(checkpoint)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = execute_point(
                point, checkpoint_every=20, checkpoint_dir=tmp_path
            ).to_dict()
        assert recovered == expected
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "damage",
        ["bit-flips", "v1-container", "v2-container", "v3-container",
         "v4-container", "foreign-payload", "other-run"],
    )
    def test_corrupt_checkpoint_falls_back_to_scratch(
        self, tmp_path, monkeypatch, damage
    ):
        from repro.chaos.corrupt import flip_bits
        from repro.chaos.sites import reset_chaos_sites, write_site_plan

        expected = execute_point(self.POINT).to_dict()
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"runner.checkpoint": {"exc": "OSError", "calls": [1]}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        reset_chaos_sites()
        with pytest.raises(OSError):
            execute_point(
                self.POINT, checkpoint_every=20, checkpoint_dir=tmp_path
            )
        monkeypatch.delenv("REPRO_CHAOS_PLAN")
        checkpoint = checkpoint_path_for(self.POINT, tmp_path)
        spec = dict(rate=0.08, seed=7, warmup_packets=15, measure_packets=40)
        assert isinstance(load_checkpoint(checkpoint, **spec), RunState)
        if damage == "bit-flips":
            flip_bits(checkpoint, seed=1, flips=3)
        elif damage == "foreign-payload":
            # A valid container of this very version that holds something
            # other than a run state: refused, recomputed.
            save_snapshot({"network": None, "created": 3}, checkpoint)
        elif damage == "other-run":
            # Intact, a run state, but of a run with other knobs.
            run = load_snapshot(checkpoint)
            run.spec = dict(run.spec, seed=8)
            save_snapshot(run, checkpoint)
        else:
            # What a checkpoint left behind by an earlier format looks
            # like to this build: intact, but stamped v1 ... v4 (v4: what
            # the parent commit wrote, a ``SimSnapshot`` around a dict).
            checkpoint.write_bytes(_restamp(checkpoint.read_bytes(), int(damage[1])))
            with pytest.raises(SnapshotVersionMismatch):
                load_snapshot(checkpoint)
        with pytest.raises(SnapshotError):
            load_checkpoint(checkpoint, **spec)
        recovered = execute_point(
            self.POINT, checkpoint_every=20, checkpoint_dir=tmp_path
        ).to_dict()
        assert recovered == expected
        assert not checkpoint.exists()
