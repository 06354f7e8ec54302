"""Tests for the shard package: manifest ledger round-trips, planner
partitioning, the DP-anchor replay contract, bitwise sharded-scan
equivalence, crash-resume, and the fault-injection harness.

The load-bearing acceptance property: a manifest run with
``workers_per_shard=1`` — including one interrupted by SIGKILL and
resumed — merges to records *bitwise* identical to a single
uninterrupted ``scan_stream`` over each unit.
"""

import glob
import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import GridSpec, build_plans_from_positions
from repro.core.results import merge_scan_results
from repro.core.reuse import (
    DpSeed,
    SumMatrixCache,
    dp_replay_seed,
    simulate_dp_actions,
)
from repro.core.scan import OmegaConfig, scan_stream
from repro.datasets.alignment import SHM_NAME_PREFIX, SNPAlignment
from repro.datasets.generators import haplotype_block_alignment
from repro.datasets.msformat import write_ms
from repro.datasets.streaming import (
    InMemoryStreamSource,
    StreamingAlignmentReader,
)
from repro.errors import ManifestError, ScanConfigError, ShardError
from repro.shard import (
    Manifest,
    WorkItem,
    build_manifest,
    expand_inputs,
    merge_manifest,
    run_manifest,
    shard_scan,
)
from repro.shard.runner import (
    HOLD_DIR_ENV,
    _shard_replay_plan,
    _strip_warmup,
)
from repro.shard.planner import partition_costs

CONFIG = OmegaConfig(grid=GridSpec(n_positions=12, max_window=0.25))
BUDGET = 60


def _write_multi_ms(path):
    write_ms(
        [
            haplotype_block_alignment(20, 80, seed=11),
            haplotype_block_alignment(20, 60, seed=12),
        ],
        str(path),
    )
    return str(path)


@pytest.fixture
def multi_ms(tmp_path):
    return _write_multi_ms(tmp_path / "multi.ms")


def _reference(path, replicate, *, config=CONFIG, snp_budget=BUDGET):
    """Single-process streamed scan of one ms replicate — the bitwise
    ground truth every sharded run must reproduce."""
    src = StreamingAlignmentReader(
        path, format="ms", length=1.0, replicate=replicate
    )
    return scan_stream(src, config, snp_budget=snp_budget)


def _assert_bitwise(got, ref):
    np.testing.assert_array_equal(got.positions, ref.positions)
    np.testing.assert_array_equal(got.omegas, ref.omegas)
    np.testing.assert_array_equal(got.left_borders_bp, ref.left_borders_bp)
    np.testing.assert_array_equal(
        got.right_borders_bp, ref.right_borders_bp
    )
    np.testing.assert_array_equal(got.n_evaluations, ref.n_evaluations)


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


# --------------------------------------------------------------------- #
# manifest ledger
# --------------------------------------------------------------------- #


class TestManifestLedger:
    def _manifest(self, multi_ms, tmp_path, **kw):
        kw.setdefault("snp_budget", BUDGET)
        kw.setdefault("shards_per_unit", 3)
        kw.setdefault("length", 1.0)
        return build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            **kw,
        )

    def test_round_trip(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        loaded = Manifest.load(manifest.path)
        assert loaded.snp_budget == manifest.snp_budget
        assert loaded.workers_per_shard == manifest.workers_per_shard
        assert loaded.config == manifest.config
        assert loaded.units == manifest.units
        assert loaded.shards == manifest.shards

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="does not exist"):
            Manifest.load(str(tmp_path / "nope.manifest"))

    def test_corrupt_json_line(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        with open(manifest.path, "a", encoding="ascii") as fh:
            fh.write("{not json\n")
        with pytest.raises(ManifestError, match="not valid JSON"):
            Manifest.load(manifest.path)

    def test_version_gate(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        lines = open(manifest.path, encoding="ascii").read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        with open(manifest.path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="version 99"):
            Manifest.load(manifest.path)

    def test_unknown_record_kind(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        with open(manifest.path, "a", encoding="ascii") as fh:
            fh.write(json.dumps({"kind": "gremlin"}) + "\n")
        with pytest.raises(ManifestError, match="unknown record kind"):
            Manifest.load(manifest.path)

    def test_duplicate_shard_id(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        manifest.shards.append(manifest.shards[0])
        manifest.save()
        with pytest.raises(ManifestError, match="duplicate shard id"):
            Manifest.load(manifest.path)

    def test_tiling_gap(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        manifest.shards[0].grid_lo += 1
        manifest.save()
        with pytest.raises(ManifestError, match="do not tile"):
            Manifest.load(manifest.path)

    def test_unknown_status(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        manifest.shards[0].status = "zombified"
        manifest.save()
        with pytest.raises(ManifestError, match="unknown status"):
            Manifest.load(manifest.path)

    def test_skipped_unit_with_shards(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        manifest.units[0].status = "skipped"
        manifest.units[0].reason = "tampered"
        manifest.save()
        with pytest.raises(ManifestError, match="skipped unit"):
            Manifest.load(manifest.path)

    def test_describe_and_counts(self, multi_ms, tmp_path):
        manifest = self._manifest(multi_ms, tmp_path)
        assert manifest.status_counts()["pending"] == len(manifest.shards)
        text = manifest.describe()
        assert "pending" in text


# --------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------- #


class TestPlanner:
    def test_partition_balance_and_tiling(self):
        costs = np.ones(100)
        spans = partition_costs(costs, 4)
        assert spans[0][0] == 0 and spans[-1][1] == 100
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 2

    def test_partition_clamps_to_grid(self):
        spans = partition_costs(np.ones(3), 10)
        assert spans == [(0, 1), (1, 2), (2, 3)]
        assert all(hi > lo for lo, hi in spans)

    def test_partition_empty_raises(self):
        with pytest.raises(ScanConfigError, match="empty grid"):
            partition_costs(np.ones(0), 2)

    def test_expand_inputs_ms(self, multi_ms):
        items = expand_inputs([multi_ms], format="ms", length=1.0)
        assert [it.replicate for it in items] == [0, 1]
        assert all(it.format == "ms" for it in items)

    def test_expand_inputs_workitem_passthrough(self, multi_ms):
        item = WorkItem(path=multi_ms, replicate=1, length=1.0)
        assert expand_inputs([item]) == [item]

    def test_each_path_censused_once(self, multi_ms, tmp_path, monkeypatch):
        import repro.shard.planner as planner

        calls = []
        census = planner.enumerate_chromosomes

        def counting(path, **kwargs):
            calls.append(path)
            return census(path, **kwargs)

        monkeypatch.setattr(planner, "enumerate_chromosomes", counting)
        manifest = build_manifest(
            [multi_ms, WorkItem(path=multi_ms, replicate=1, length=1.0)],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            length=1.0,
        )
        assert [u.replicate for u in manifest.units] == [0, 1, 1]
        assert calls == [multi_ms]
        with pytest.raises(ManifestError, match="replicate 2 not present"):
            build_manifest(
                [WorkItem(path=multi_ms, replicate=2, length=1.0)],
                CONFIG,
                manifest_path=str(tmp_path / "missing.manifest"),
                snp_budget=BUDGET,
            )

    def test_existing_manifest_rejected(self, multi_ms, tmp_path):
        path = tmp_path / "scan.manifest"
        path.write_text("stale")
        with pytest.raises(ManifestError, match="already exists"):
            build_manifest(
                [multi_ms],
                CONFIG,
                manifest_path=str(path),
                snp_budget=BUDGET,
                length=1.0,
            )

    def test_snp_budget_below_widest_region(self, multi_ms, tmp_path):
        with pytest.raises(ScanConfigError, match="widest omega region"):
            build_manifest(
                [multi_ms],
                CONFIG,
                manifest_path=str(tmp_path / "scan.manifest"),
                snp_budget=2,
                length=1.0,
            )

    def test_bad_knobs_rejected(self, multi_ms, tmp_path):
        for kw, match in [
            (dict(snp_budget=1), "snp_budget"),
            (dict(snp_budget=BUDGET, shards_per_unit=0), "shards_per_unit"),
            (
                dict(snp_budget=BUDGET, workers_per_shard=0),
                "workers_per_shard",
            ),
            (
                dict(snp_budget=BUDGET, target_shard_cost=-1.0),
                "target_shard_cost",
            ),
        ]:
            with pytest.raises(ScanConfigError, match=match):
                build_manifest(
                    [multi_ms],
                    CONFIG,
                    manifest_path=str(tmp_path / "new.manifest"),
                    length=1.0,
                    **kw,
                )

    def test_skipped_unit_recorded(self, tmp_path):
        # Replicate 1 has a single segregating site: enumerable but not
        # scannable — data, not an error.
        aln = haplotype_block_alignment(20, 80, seed=11)
        single = SNPAlignment(
            matrix=np.tile([[0], [1]], (10, 1)),
            positions=np.array([0.5]),
            length=1.0,
        )
        path = str(tmp_path / "mixed.ms")
        write_ms([aln, single], path)
        manifest = build_manifest(
            [path],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            length=1.0,
        )
        statuses = {u.unit: u.status for u in manifest.units}
        assert statuses == {0: "ok", 1: "skipped"}
        skipped = manifest.units[1]
        assert "at least 2" in skipped.reason
        assert all(s.unit == 0 for s in manifest.shards)

    def test_all_units_skipped_raises(self, tmp_path):
        single = SNPAlignment(
            matrix=np.tile([[0], [1]], (10, 1)),
            positions=np.array([0.5]),
            length=1.0,
        )
        path = str(tmp_path / "thin.ms")
        write_ms([single], path)
        with pytest.raises(ManifestError, match="every unit was skipped"):
            build_manifest(
                [path],
                CONFIG,
                manifest_path=str(tmp_path / "scan.manifest"),
                snp_budget=BUDGET,
                length=1.0,
            )

    def test_target_shard_cost_derives_count(self, multi_ms, tmp_path):
        coarse = build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "coarse.manifest"),
            snp_budget=BUDGET,
            target_shard_cost=1e12,
            length=1.0,
        )
        # An absurdly large target collapses each unit to one shard.
        assert len(coarse.shards) == len(
            [u for u in coarse.units if u.status == "ok"]
        )

    def test_cuts_land_on_rebuild_positions(self, multi_ms, tmp_path):
        manifest = build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            shards_per_unit=4,
            length=1.0,
        )
        for unit in manifest.units:
            reader = StreamingAlignmentReader(
                unit.path, format="ms", length=1.0, replicate=unit.replicate
            )
            plans = build_plans_from_positions(
                reader.positions, CONFIG.grid
            )
            valid = [k for k, p in enumerate(plans) if p.valid]
            actions = simulate_dp_actions(
                [(plans[k].region_start, plans[k].region_stop) for k in valid]
            )
            builds = {
                valid[i] for i, a in enumerate(actions) if a == "build"
            }
            shards = manifest.unit_shards(unit.unit)
            for prev, shard in zip(shards, shards[1:]):
                cut = shard.grid_lo
                if cut in builds:
                    # Snapped cuts replay with zero warm-up.
                    scan_lo, _seed = _shard_replay_plan(
                        plans, cut, dp_reuse=CONFIG.dp_reuse
                    )
                    assert scan_lo == cut
                else:
                    # Unsnapped cuts are only allowed when no rebuild
                    # position was available in the cut's window.
                    assert not any(
                        prev.grid_lo < b <= cut for b in builds
                    )


# --------------------------------------------------------------------- #
# the DP-anchor replay contract
# --------------------------------------------------------------------- #

region_sequences = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 10)),
    min_size=1,
    max_size=40,
).map(
    lambda steps: [
        (start, start + width)
        for start, width in zip(
            np.cumsum([s for s, _ in steps]).tolist(),
            [w for _, w in steps],
        )
    ]
)


def _real_cache_trace(regions, *, reuse=True, seed=None, growth=None):
    cache = SumMatrixCache(reuse=reuse, growth_factor=growth)
    if seed is not None:
        cache.seed(seed)
    actions = []
    for start, stop in regions:
        width = stop - start + 1
        cache.region_sums(start, stop, np.zeros((width, width)))
        actions.append(cache.last_action)
    return actions


class TestDpReplay:
    @given(regions=region_sequences)
    @settings(max_examples=60, deadline=None)
    def test_mirror_matches_real_cache(self, regions):
        # The serve decision is a pure function of region geometry, so a
        # zeros r² matrix exercises the identical control flow.
        assert simulate_dp_actions(regions) == _real_cache_trace(regions)

    @given(regions=region_sequences)
    @settings(max_examples=30, deadline=None)
    def test_mirror_matches_fixed_growth(self, regions):
        assert simulate_dp_actions(
            regions, growth_factor=3.0
        ) == _real_cache_trace(regions, growth=3.0)

    def test_reuse_disabled_always_builds(self):
        regions = [(0, 5), (1, 6), (2, 7)]
        assert simulate_dp_actions(regions, reuse=False) == ["build"] * 3

    @given(regions=region_sequences, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_seeded_replay_reproduces_decisions(self, regions, data):
        cut = data.draw(
            st.integers(0, len(regions) - 1), label="call_index"
        )
        start_call, seed = dp_replay_seed(regions, cut)
        assert start_call <= cut
        full = _real_cache_trace(regions)
        replay = _real_cache_trace(regions[start_call:], seed=seed)
        assert replay == full[start_call:]
        assert replay[0] == "build"

    def test_replay_seed_negative_index(self):
        with pytest.raises(ScanConfigError, match=">= 0"):
            dp_replay_seed([(0, 3)], -1)

    def test_seed_after_use_rejected(self):
        cache = SumMatrixCache()
        cache.region_sums(0, 3, np.zeros((4, 4)))
        with pytest.raises(ScanConfigError, match="before the first"):
            cache.seed(DpSeed())

    def test_scan_stream_rejects_parallel_seed(self, multi_ms):
        src = StreamingAlignmentReader(
            multi_ms, format="ms", length=1.0, replicate=0
        )
        with pytest.raises(ScanConfigError, match="n_workers=1"):
            scan_stream(
                src,
                CONFIG,
                snp_budget=BUDGET,
                n_workers=2,
                dp_seed=DpSeed(),
            )


# --------------------------------------------------------------------- #
# in-process slice replay: bitwise without any worker processes
# --------------------------------------------------------------------- #


def _slice_scan(aln, config, snp_budget, lo, hi):
    """What a shard worker computes for grid slice [lo, hi), in-process."""
    plans = build_plans_from_positions(aln.positions, config.grid)
    scan_lo, seed = _shard_replay_plan(
        plans, lo, dp_reuse=config.dp_reuse
    )
    grid = np.asarray(config.grid.positions_from(aln.positions)[scan_lo:hi])
    part = scan_stream(
        InMemoryStreamSource(aln),
        config,
        snp_budget=snp_budget,
        grid_positions=grid,
        dp_seed=seed,
    )
    return _strip_warmup(part, lo - scan_lo)


class TestSliceReplayBitwise:
    def test_every_single_cut(self):
        aln = haplotype_block_alignment(20, 80, seed=11)
        full = scan_stream(
            InMemoryStreamSource(aln), CONFIG, snp_budget=BUDGET
        )
        n = len(full)
        for cut in range(1, n):
            merged = merge_scan_results(
                [
                    _slice_scan(aln, CONFIG, BUDGET, 0, cut),
                    _slice_scan(aln, CONFIG, BUDGET, cut, n),
                ]
            )
            _assert_bitwise(merged, full)

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_random_partitions_bitwise(self, data):
        snp_budget = data.draw(
            st.sampled_from([40, 60, 90]), label="snp_budget"
        )
        omega_batch = data.draw(
            st.sampled_from([1, 3, 8]), label="omega_batch"
        )
        config = OmegaConfig(
            grid=GridSpec(n_positions=12, max_window=0.25),
            omega_batch=omega_batch,
        )
        aln = haplotype_block_alignment(20, 80, seed=11)
        full = scan_stream(
            InMemoryStreamSource(aln), config, snp_budget=snp_budget
        )
        n = len(full)
        cuts = sorted(
            data.draw(
                st.sets(st.integers(1, n - 1), min_size=1, max_size=3),
                label="cuts",
            )
        )
        bounds = [0] + cuts + [n]
        merged = merge_scan_results(
            [
                _slice_scan(aln, config, snp_budget, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            ]
        )
        _assert_bitwise(merged, full)


# --------------------------------------------------------------------- #
# end-to-end: worker processes, ledger, merge
# --------------------------------------------------------------------- #


class TestShardScanEndToEnd:
    def test_bitwise_vs_single_process(self, multi_ms, tmp_path):
        result = shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            shards_per_unit=3,
            max_workers=2,
            length=1.0,
        )
        refs = [_reference(multi_ms, rep) for rep in (0, 1)]
        assert len(result.units) == 2
        for ur, ref in zip(result.units, refs):
            _assert_bitwise(ur.result, ref)
        _assert_bitwise(result.combined, merge_scan_results(refs))
        # Observability sidecars merge losslessly: counters add across
        # shards, covering at least the reference work (warm-up replay
        # at unsnapped cuts is real work and is honestly accounted).
        assert result.combined.reuse.regions_served >= sum(
            ref.reuse.regions_served for ref in refs
        )

    def test_planner_cuts_need_no_warmup(self, multi_ms, tmp_path):
        manifest_path = str(tmp_path / "scan.manifest")
        shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=manifest_path,
            snp_budget=BUDGET,
            shards_per_unit=3,
            length=1.0,
        )
        manifest = Manifest.load(manifest_path)
        metas = glob.glob(
            os.path.join(manifest.sidecar_dir, "shard-*.json")
        )
        assert len(metas) == len(manifest.shards)
        warmups = {}
        for meta_path in metas:
            with open(meta_path, encoding="ascii") as fh:
                meta = json.load(fh)
            warmups[meta["fingerprint"]["shard"]] = meta[
                "warmup_positions"
            ]
        for unit in manifest.units:
            reader = StreamingAlignmentReader(
                unit.path, format="ms", length=1.0, replicate=unit.replicate
            )
            plans = build_plans_from_positions(
                reader.positions, CONFIG.grid
            )
            for shard in manifest.unit_shards(unit.unit):
                scan_lo, _seed = _shard_replay_plan(
                    plans, shard.grid_lo, dp_reuse=CONFIG.dp_reuse
                )
                # Sidecars record exactly the warm-up the replay plan
                # dictates; snapped cuts (the common case) record 0.
                assert warmups[shard.id] == shard.grid_lo - scan_lo

    def test_resume_is_a_noop_when_done(self, multi_ms, tmp_path):
        manifest_path = str(tmp_path / "scan.manifest")
        first = shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=manifest_path,
            snp_budget=BUDGET,
            shards_per_unit=2,
            length=1.0,
        )
        report = run_manifest(manifest_path)
        assert report.executed == []
        assert report.failed == {}
        assert sorted(report.already_done) == [0, 1, 2, 3]
        again = merge_manifest(manifest_path)
        _assert_bitwise(again.combined, first.combined)

    def test_tsv_and_summary(self, multi_ms, tmp_path):
        result = shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            shards_per_unit=2,
            length=1.0,
        )
        tsv = result.to_tsv().splitlines()
        assert tsv[0].startswith("unit\tposition\tomega")
        assert len(tsv) == 1 + len(result.combined)
        assert "max omega" in result.summary()

    def test_merge_incomplete_manifest_raises(self, multi_ms, tmp_path):
        manifest = build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            length=1.0,
        )
        with pytest.raises(ShardError, match="incomplete"):
            merge_manifest(manifest)

    def test_tampered_sidecar_fingerprint_rejected(
        self, multi_ms, tmp_path
    ):
        manifest_path = str(tmp_path / "scan.manifest")
        shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=manifest_path,
            snp_budget=BUDGET,
            length=1.0,
        )
        manifest = Manifest.load(manifest_path)
        meta_path = manifest.sidecar_path(manifest.shards[0].meta)
        with open(meta_path, encoding="ascii") as fh:
            meta = json.load(fh)
        meta["fingerprint"]["grid_hi"] += 1
        with open(meta_path, "w", encoding="ascii") as fh:
            json.dump(meta, fh)
        with pytest.raises(ShardError, match="fingerprint"):
            merge_manifest(manifest_path)

    def test_max_workers_validated(self, multi_ms, tmp_path):
        manifest = build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=str(tmp_path / "scan.manifest"),
            snp_budget=BUDGET,
            length=1.0,
        )
        with pytest.raises(ShardError, match="max_workers"):
            run_manifest(manifest, max_workers=0)


# --------------------------------------------------------------------- #
# recovery rules
# --------------------------------------------------------------------- #


class TestRecovery:
    def _done_manifest(self, multi_ms, tmp_path):
        manifest_path = str(tmp_path / "scan.manifest")
        shard_scan(
            [multi_ms],
            CONFIG,
            manifest_path=manifest_path,
            snp_budget=BUDGET,
            shards_per_unit=2,
            length=1.0,
        )
        return Manifest.load(manifest_path)

    def test_running_with_live_pid_is_foreign(self, multi_ms, tmp_path):
        manifest = self._done_manifest(multi_ms, tmp_path)
        manifest.shards[0].status = "running"
        manifest.shards[0].pid = os.getpid()
        with pytest.raises(ShardError, match="another orchestrator"):
            run_manifest(manifest)

    def test_running_with_dead_pid_swept_and_rerun(
        self, multi_ms, tmp_path
    ):
        manifest = self._done_manifest(multi_ms, tmp_path)
        ref = merge_manifest(manifest).combined
        # A pid that cannot be alive: fork+exit and reap it.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        stale = f"/dev/shm/{SHM_NAME_PREFIX}-{pid}-deadbeef"
        with open(stale, "w", encoding="ascii"):
            pass
        try:
            shard = manifest.shards[0]
            shard.status = "running"
            shard.pid = pid
            report = run_manifest(manifest)
        finally:
            if os.path.exists(stale):
                os.unlink(stale)
        assert os.path.basename(stale) in report.swept
        assert report.executed == [shard.id]
        _assert_bitwise(merge_manifest(manifest).combined, ref)

    def test_failed_shard_rerun(self, multi_ms, tmp_path):
        manifest = self._done_manifest(multi_ms, tmp_path)
        ref = merge_manifest(manifest).combined
        manifest.shards[1].status = "failed"
        manifest.shards[1].error = "injected"
        report = run_manifest(manifest)
        assert report.executed == [manifest.shards[1].id]
        _assert_bitwise(merge_manifest(manifest).combined, ref)

    def test_header_with_scheduler_key_resumes(self, multi_ms, tmp_path):
        """Ledgers written while the scheduler option existed carry
        ``"scheduler": "shared"`` in their header; they still load and
        resume (the key never entered shard fingerprints)."""
        manifest = self._done_manifest(multi_ms, tmp_path)
        ref = merge_manifest(manifest).combined
        manifest.shards[1].status = "failed"
        manifest.shards[1].error = "injected"
        manifest.save()
        lines = open(manifest.path, encoding="ascii").read().splitlines()
        header = json.loads(lines[0])
        assert "scheduler" not in header
        header["scheduler"] = "shared"
        lines[0] = json.dumps(header, sort_keys=True)
        with open(manifest.path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        report = run_manifest(manifest.path)
        assert report.executed == [manifest.shards[1].id]
        _assert_bitwise(merge_manifest(manifest.path).combined, ref)

    def test_done_without_sidecars_rerun(self, multi_ms, tmp_path):
        manifest = self._done_manifest(multi_ms, tmp_path)
        ref = merge_manifest(manifest).combined
        shard = manifest.shards[2]
        os.unlink(manifest.sidecar_path(shard.result))
        report = run_manifest(manifest)
        assert report.executed == [shard.id]
        _assert_bitwise(merge_manifest(manifest).combined, ref)


# --------------------------------------------------------------------- #
# fault injection: SIGKILL mid-scan, then resume
# --------------------------------------------------------------------- #


class TestFaultInjection:
    def test_sigkill_then_resume_is_bitwise(
        self, multi_ms, tmp_path, monkeypatch
    ):
        shm_before = _shm_entries()
        hold_dir = tmp_path / "holds"
        hold_dir.mkdir()
        monkeypatch.setenv(HOLD_DIR_ENV, str(hold_dir))

        # A budget barely above the widest region forces several chunks
        # per shard, so the hold hook (which pauses before every chunk
        # after the first) is guaranteed to engage.
        reader = StreamingAlignmentReader(
            multi_ms, format="ms", length=1.0, replicate=0
        )
        plans = build_plans_from_positions(reader.positions, CONFIG.grid)
        widest = max(p.region_width for p in plans if p.valid)
        budget = widest + 4

        # One shard per unit: each shard spans its unit's full 80/60
        # sites, well over the budget, so every worker ingests several
        # chunks and is guaranteed to park at the hold point.
        manifest_path = str(tmp_path / "scan.manifest")
        manifest = build_manifest(
            [multi_ms],
            CONFIG,
            manifest_path=manifest_path,
            snp_budget=budget,
            shards_per_unit=1,
            length=1.0,
        )
        victim = manifest.shards[0].id
        hold = hold_dir / f"{victim}.hold"
        ack = hold_dir / f"{victim}.holding"
        hold.touch()

        failure = []

        def assassin():
            # Wait for the victim worker to park at the hold point, read
            # its pid from the on-disk ledger (written at spawn), and
            # SIGKILL it — exactly what the OOM killer would do.
            deadline = time.monotonic() + 60
            while not ack.exists():
                if time.monotonic() > deadline:
                    failure.append("worker never reached the hold point")
                    hold.unlink(missing_ok=True)
                    return
                time.sleep(0.01)
            pid = Manifest.load(manifest_path).shard(victim).pid
            if pid is None:
                failure.append("ledger holds no pid for the held shard")
            else:
                os.kill(pid, signal.SIGKILL)
            hold.unlink(missing_ok=True)

        killer = threading.Thread(target=assassin)
        killer.start()
        try:
            report = run_manifest(manifest, max_workers=2)
        finally:
            killer.join()
        assert not failure, failure[0]
        assert list(report.failed) == [victim]
        assert "signal 9" in report.failed[victim]
        assert victim not in report.executed

        # The ledger on disk records the failure durably.
        persisted = Manifest.load(manifest_path)
        assert persisted.shard(victim).status == "failed"
        done_before = [
            s.id for s in persisted.shards if s.status == "done"
        ]
        assert victim not in done_before

        # Resume re-runs only the dead shard...
        monkeypatch.delenv(HOLD_DIR_ENV)
        resumed = run_manifest(manifest_path, max_workers=2)
        assert resumed.executed == [victim]
        assert sorted(resumed.already_done) == done_before
        assert resumed.failed == {}

        # ...and the merged output is bitwise what an uninterrupted
        # single-process run produces.
        result = merge_manifest(manifest_path)
        refs = [
            _reference(multi_ms, rep, snp_budget=budget) for rep in (0, 1)
        ]
        for ur, ref in zip(result.units, refs):
            _assert_bitwise(ur.result, ref)
        _assert_bitwise(result.combined, merge_scan_results(refs))

        # No shared-memory leaks survive the kill + sweep + resume.
        assert _shm_entries() == shm_before
