"""Tests for the persistent RR-sketch store and oracle serving layer.

Contract under test (DESIGN.md store section):

* **Golden serving** — a store built, saved and re-loaded (in this process
  and in a genuinely fresh one via the CLI) answers seed-prefix, spread
  and allocation queries with the exact numbers of an in-memory
  reference: the same PRIMA run and estimation collection, drawn from the
  same stream, with spread read off ``RRCollection.coverage_fraction``.
* **Round-trip fidelity** — every persisted array survives save/load byte
  for byte, memory-mapped or materialized.
* **Stale/corrupt rejection** — fingerprint mismatches raise
  ``StaleStoreError``; bad magic, truncation, version skew and violated
  CSR invariants raise ``SketchStoreError`` instead of serving garbage.
* **Incremental θ-extension** — save → load → extend is byte-identical to
  growing the original live collection (the persisted RNG state makes the
  round trip transparent), and the incrementally merged inverted index
  equals a from-scratch rebuild.
* **Sharded builds** — deterministic in (seed, num_shards), independent of
  the process count, statistically equivalent to single-stream builds.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bundlegrd import bundle_grd
from repro.engine import EngineContext
from repro.graph.generators import random_wc_graph
from repro.graph.io import graph_fingerprint, write_edge_list
from repro.rrset.prima import prima
from repro.rrset.rrgen import RRCollection, build_inverted_index
from repro.store import (
    OracleService,
    SketchStore,
    SketchStoreError,
    StaleStoreError,
    build_sharded,
    build_store,
    extend_store,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class Reference:
    """What ``build_store`` snapshots, kept live in memory.

    PRIMA with the full budget vector, then an independent estimation
    collection, both on one context stream.  Spread answers come from
    ``RRCollection.coverage_fraction`` (an epoch-stamp scan), so the
    store's inverted-index scatter is checked against a different
    computation of the same F_R.
    """

    def __init__(self, graph, max_budget, theta, ctx):
        self.graph = graph
        self.seed_order = prima(graph, range(max_budget, 0, -1), ctx=ctx).seeds
        self.estimator = RRCollection(graph, ctx=ctx)
        self.estimator.extend_to(theta)

    def seeds(self, budget):
        return self.seed_order[:budget]

    def estimate_spread(self, seeds):
        return self.graph.num_nodes * self.estimator.coverage_fraction(seeds)

    def allocate(self, budgets):
        return bundle_grd(self.graph, budgets, seed_order=self.seed_order)


@pytest.fixture(scope="module")
def graph():
    return random_wc_graph(400, 6, seed=19)


@pytest.fixture(scope="module")
def oracle(graph):
    return Reference(
        graph, 10, 3000, EngineContext.create(rng=np.random.default_rng(5))
    )


@pytest.fixture(scope="module")
def store_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "g.sketch"
    build_store(
        graph, 10, ctx=EngineContext.create(seed=5
    ), estimation_rr_sets=3000).save(path)
    return path


class TestGoldenServing:
    def test_seed_prefixes_match_in_memory_oracle(
        self, graph, oracle, store_path
    ):
        service = OracleService.open(store_path, graph)
        assert service.seed_order == oracle.seed_order
        for budget in (0, 1, 5, 10):
            assert service.seeds(budget) == oracle.seeds(budget)

    def test_spread_estimates_match_exactly(self, graph, oracle, store_path):
        """Same persisted collection => identical F_R, not merely close."""
        service = OracleService.open(store_path, graph)
        for budget in (1, 4, 10):
            seeds = service.seeds(budget)
            assert service.estimate_spread(seeds) == oracle.estimate_spread(
                seeds
            )
        assert service.estimate_spread([]) == 0.0
        curve = service.spread_curve([1, 5, 10])
        values = [v for _, v in curve]
        assert values == sorted(values)

    def test_allocation_matches_in_memory_oracle(
        self, graph, oracle, store_path
    ):
        service = OracleService.open(store_path, graph)
        mine = service.allocate([7, 3])
        theirs = oracle.allocate([7, 3])
        assert mine.allocation == theirs.allocation
        assert mine.num_rr_sets == 0  # no new PRIMA run

    def test_budget_range_enforced(self, graph, store_path):
        service = OracleService.open(store_path, graph)
        with pytest.raises(ValueError):
            service.seeds(11)
        with pytest.raises(ValueError):
            service.allocate([11])

    def test_allocate_requires_graph(self, store_path):
        service = OracleService.open(store_path)
        with pytest.raises(ValueError, match="need the graph"):
            service.allocate([2])

    def test_store_backed_seed_order_in_bundlegrd(
        self, graph, oracle, store_path
    ):
        store = SketchStore.load(store_path)
        result = bundle_grd(graph, [6, 2], seed_order=store)
        assert result.seed_order == oracle.seed_order
        other = random_wc_graph(50, 4, seed=1)
        with pytest.raises(StaleStoreError):
            bundle_grd(other, [6, 2], seed_order=store)

    def test_service_and_oracle_as_seed_order_are_fingerprint_checked(
        self, graph, oracle, store_path
    ):
        """Every store-backed seed_order source — the service included —
        must be verified, not just the raw SketchStore."""
        other = random_wc_graph(50, 4, seed=1)
        service = OracleService.open(store_path)  # graph not yet checked
        assert (
            bundle_grd(graph, [4], seed_order=service).seed_order
            == oracle.seed_order
        )
        with pytest.raises(StaleStoreError):
            bundle_grd(other, [4], seed_order=service)

    def test_plain_sequences_still_accepted_as_seed_order(self, graph):
        """range/generators were valid seed_order inputs before the
        store-backed unwrap existed and must stay valid."""
        result = bundle_grd(graph, [3], seed_order=range(5))
        assert result.seed_order == (0, 1, 2, 3, 4)


class TestRoundTrip:
    def test_arrays_survive_byte_identical(self, graph, store_path):
        fresh = build_store(
            graph, 10, ctx=EngineContext.create(seed=5
        ), estimation_rr_sets=3000)
        for mmap in (True, False):
            loaded = SketchStore.load(store_path, mmap=mmap)
            for name in (
                "seed_order", "members", "offsets", "widths",
                "idx_sets", "idx_indptr", "cover_counts",
            ):
                assert np.array_equal(
                    getattr(loaded, name), getattr(fresh, name)
                ), name
            assert loaded.fingerprint == fresh.fingerprint
            assert loaded.rng_state == fresh.rng_state
            assert loaded.num_sets == fresh.num_sets
            assert loaded.max_budget == 10
            assert loaded.world_cursor == 0

    def test_node_selection_identical_on_loaded_arrays(
        self, graph, oracle, store_path
    ):
        """Greedy seeds from the loaded CSR equal those from the live
        collection — the stored sketch is the collection."""
        from repro.rrset.node_selection import greedy_max_coverage

        loaded = SketchStore.load(store_path)
        live_members, live_offsets = oracle.estimator.flat_arrays()
        from_store = greedy_max_coverage(
            graph.num_nodes, loaded.members, loaded.offsets, 8
        )
        from_live = greedy_max_coverage(
            graph.num_nodes, live_members, live_offsets, 8
        )
        assert from_store == from_live

    def test_mmap_arrays_are_memmaps(self, store_path):
        loaded = SketchStore.load(store_path, mmap=True)
        assert isinstance(loaded.members, np.memmap)
        materialized = SketchStore.load(store_path, mmap=False)
        assert not isinstance(materialized.members, np.memmap)

    def test_save_over_own_mmap_source_is_safe(self, graph, tmp_path):
        """load (mmap) → extend → save to the SAME path must not fault:
        the save writes a temp file and atomically replaces."""
        path = tmp_path / "inplace.sketch"
        build_store(
            graph, 4, ctx=EngineContext.create(seed=9
        ), estimation_rr_sets=400).save(path)
        loaded = SketchStore.load(path, mmap=True)  # arrays are memmaps
        extended = extend_store(loaded, graph, 200)
        extended.save(path)  # seed_order still views the old mapping
        reread = SketchStore.load(path)
        assert reread.num_sets == 600
        # And the trivial case: re-saving a loaded store onto itself.
        reread_mmap = SketchStore.load(path, mmap=True)
        reread_mmap.save(path)
        assert SketchStore.load(path).num_sets == 600


class TestStaleAndCorrupt:
    def test_fingerprint_mismatch_rejected(self, store_path):
        other = random_wc_graph(400, 6, seed=77)
        store = SketchStore.load(store_path)
        with pytest.raises(StaleStoreError, match="rebuild the store"):
            store.verify_graph(other)
        with pytest.raises(StaleStoreError):
            OracleService.open(store_path, other)

    def test_fingerprint_sensitivity(self, graph):
        same = random_wc_graph(400, 6, seed=19)
        other = random_wc_graph(400, 6, seed=20)
        assert graph_fingerprint(same) == graph_fingerprint(graph)
        assert graph_fingerprint(other) != graph_fingerprint(graph)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sketch"
        path.write_bytes(b"NOTASKETCHSTORE" * 10)
        with pytest.raises(SketchStoreError, match="bad magic"):
            SketchStore.load(path)

    def test_truncated_file_rejected(self, store_path, tmp_path):
        data = Path(store_path).read_bytes()
        for cut in (4, 20, len(data) // 2, len(data) - 8):
            trunc = tmp_path / f"trunc_{cut}.sketch"
            trunc.write_bytes(data[:cut])
            with pytest.raises(SketchStoreError):
                SketchStore.load(trunc)

    def test_corrupted_header_rejected(self, store_path, tmp_path):
        data = bytearray(Path(store_path).read_bytes())
        data[20] ^= 0xFF  # flip a byte inside the JSON header
        bad = tmp_path / "badheader.sketch"
        bad.write_bytes(bytes(data))
        with pytest.raises(SketchStoreError):
            SketchStore.load(bad)

    def test_unsupported_version_rejected(self, graph, tmp_path, store_path):
        data = Path(store_path).read_bytes()
        header_len = int(np.frombuffer(data[8:16], dtype="<u8")[0])
        header = json.loads(data[16 : 16 + header_len].decode())
        header["format_version"] = 9  # same serialized length as 1
        blob = json.dumps(header, separators=(",", ":")).encode()
        # Same-length substitution keeps offsets valid.
        blob = blob.ljust(header_len, b" ")
        assert len(blob) == header_len
        bad = tmp_path / "version.sketch"
        bad.write_bytes(data[:16] + blob + data[16 + header_len :])
        with pytest.raises(SketchStoreError, match="version"):
            SketchStore.load(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SketchStoreError):
            SketchStore.load(tmp_path / "absent.sketch")

    def test_out_of_range_ids_rejected(self, store_path, tmp_path):
        """A bit-flip inside the member log must fail the range scan
        instead of silently wrapping into a wrong coverage answer."""
        data = bytearray(Path(store_path).read_bytes())
        header_len = int(np.frombuffer(data[8:16], dtype="<u8")[0])
        header = json.loads(data[16 : 16 + header_len].decode())
        data_start = (16 + header_len + 63) // 64 * 64
        spec = header["arrays"]["members"]
        # Overwrite the first member with a negative id.
        offset = data_start + spec["offset"]
        data[offset : offset + 8] = np.array([-1], dtype="<i8").tobytes()
        bad = tmp_path / "range.sketch"
        bad.write_bytes(bytes(data))
        with pytest.raises(SketchStoreError, match="outside"):
            SketchStore.load(bad)


class TestIncrementalExtension:
    def test_extension_byte_identical_to_live_growth(self, graph, tmp_path):
        path = tmp_path / "ext.sketch"
        build_store(
            graph, 6, ctx=EngineContext.create(rng=np.random.default_rng(31)),
            estimation_rr_sets=1200,
        ).save(path)
        oracle = Reference(
            graph, 6, 1200, EngineContext.create(rng=np.random.default_rng(31))
        )
        # Grow the live collection; the loaded store must track it exactly.
        oracle.estimator.generate(800)
        live_members, live_offsets = oracle.estimator.flat_arrays()

        extended = extend_store(SketchStore.load(path), graph, 800)
        assert np.array_equal(extended.members, live_members)
        assert np.array_equal(extended.offsets, live_offsets)
        assert extended.num_sets == 2000
        # The persisted RNG state advanced: extending again continues the
        # stream rather than replaying it.
        assert extended.rng_state != SketchStore.load(path).rng_state

    @staticmethod
    def _assert_index_equals_full_rebuild(store, graph, tmp_path):
        path = tmp_path / "idx.sketch"
        store.save(path)
        extended = extend_store(SketchStore.load(path), graph, 500)
        idx_sets, idx_indptr = build_inverted_index(
            np.asarray(extended.members),
            np.asarray(extended.offsets),
            graph.num_nodes,
        )
        assert np.array_equal(extended.idx_sets, idx_sets)
        assert np.array_equal(extended.idx_indptr, idx_indptr)
        assert np.array_equal(
            extended.cover_counts,
            np.bincount(extended.members, minlength=graph.num_nodes),
        )

    def test_incremental_index_equals_full_rebuild(self, graph, tmp_path):
        store = build_store(
            graph, 5, ctx=EngineContext.create(seed=3
        ), estimation_rr_sets=700)
        self._assert_index_equals_full_rebuild(store, graph, tmp_path)

    def test_incremental_index_equals_full_rebuild_on_sharded_store(
        self, graph, tmp_path
    ):
        """The sharded store's index, cover counts and widths come from
        the collection its shards were appended to."""
        store = build_sharded(
            graph, 5, num_shards=3, processes=0,
            ctx=EngineContext.create(seed=3), estimation_rr_sets=700,
        )
        in_degree = np.diff(graph._in_indptr)
        assert np.array_equal(
            store.widths,
            [in_degree[store.members[a:b]].sum()
             for a, b in zip(store.offsets[:-1], store.offsets[1:])],
        )
        self._assert_index_equals_full_rebuild(store, graph, tmp_path)

    def test_extension_statistical_equivalence(self, graph, tmp_path):
        """Extended stores estimate the same spreads as fresh ones of the
        same total θ (unbiasedness of the appended sample)."""
        path = tmp_path / "stat.sketch"
        build_store(
            graph, 5, ctx=EngineContext.create(seed=3
        ), estimation_rr_sets=1000).save(path)
        extended = extend_store(SketchStore.load(path), graph, 3000)
        fresh = build_store(
            graph, 5, ctx=EngineContext.create(seed=101
        ), estimation_rr_sets=4000)
        seeds = list(extended.seed_order[:5])
        ext_spread = OracleService(extended).estimate_spread(seeds)
        fresh_spread = OracleService(fresh).estimate_spread(seeds)
        # F_R(S) has stderr <= 0.5 / sqrt(theta) per store; 5 sigma.
        sigma = graph.num_nodes * 0.5 * np.sqrt(2.0 / 4000.0)
        assert abs(ext_spread - fresh_spread) < 5.0 * sigma

    def test_extension_rejects_stale_graph(self, graph, tmp_path):
        path = tmp_path / "stale.sketch"
        build_store(
            graph, 4, ctx=EngineContext.create(seed=1
        ), estimation_rr_sets=200).save(path)
        other = random_wc_graph(100, 4, seed=9)
        with pytest.raises(StaleStoreError):
            extend_store(SketchStore.load(path), other, 100)

    def test_negative_add_rejected(self, graph, tmp_path):
        path = tmp_path / "neg.sketch"
        build_store(
            graph, 4, ctx=EngineContext.create(seed=1
        ), estimation_rr_sets=200).save(path)
        with pytest.raises(ValueError):
            extend_store(SketchStore.load(path), graph, -1)

    def test_non_pcg64_rng_state_round_trips(self, graph, tmp_path):
        """Bit-generator states carrying numpy arrays (MT19937's key)
        survive the JSON header and keep extension byte-reproducible."""
        path = tmp_path / "mt.sketch"

        def mt_context():
            return EngineContext.create(
                rng=np.random.Generator(np.random.MT19937(7))
            )

        build_store(
            graph, 4, ctx=mt_context(), estimation_rr_sets=300
        ).save(path)
        oracle = Reference(graph, 4, 300, mt_context())
        oracle.estimator.generate(100)
        live_members, _ = oracle.estimator.flat_arrays()
        extended = extend_store(SketchStore.load(path), graph, 100)
        assert np.array_equal(extended.members, live_members)

    def test_from_flat_rejects_inconsistent_arrays(self, graph):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RRCollection.from_flat(
                graph, rng,
                np.array([1, 2, 3], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
            )


class TestShardedBuild:
    def test_deterministic_across_process_counts(self, graph):
        serial = build_sharded(
            graph, 6, num_shards=3, processes=0, ctx=EngineContext.create(seed=11),
            estimation_rr_sets=600,
        )
        pooled = build_sharded(
            graph, 6, num_shards=3, processes=2, ctx=EngineContext.create(seed=11),
            estimation_rr_sets=600,
        )
        assert np.array_equal(serial.members, pooled.members)
        assert np.array_equal(serial.offsets, pooled.offsets)
        assert np.array_equal(serial.seed_order, pooled.seed_order)
        assert serial.rng_state == pooled.rng_state
        assert serial.num_sets == 600

    def test_statistically_equivalent_to_single_stream(self, graph):
        sharded = build_sharded(
            graph, 5, num_shards=4, processes=0, ctx=EngineContext.create(seed=23),
            estimation_rr_sets=4000,
        )
        single = build_store(
            graph, 5, ctx=EngineContext.create(seed=23
        ), estimation_rr_sets=4000)
        seeds = list(single.seed_order[:5])
        sh = OracleService(sharded).estimate_spread(seeds)
        si = OracleService(single).estimate_spread(seeds)
        sigma = graph.num_nodes * 0.5 * np.sqrt(2.0 / 4000.0)
        assert abs(sh - si) < 5.0 * sigma

    def test_sharded_store_extends(self, graph, tmp_path):
        path = tmp_path / "sharded.sketch"
        build_sharded(
            graph, 4, num_shards=2, processes=0, ctx=EngineContext.create(seed=2),
            estimation_rr_sets=300,
        ).save(path)
        extended = extend_store(SketchStore.load(path), graph, 200)
        assert extended.num_sets == 500

    def test_invalid_parameters(self, graph):
        with pytest.raises(ValueError):
            build_sharded(graph, 4, num_shards=0)
        for builder in (build_sharded, build_store):
            with pytest.raises(ValueError):
                builder(graph, 0)
            with pytest.raises(ValueError):
                builder(graph, 4, estimation_rr_sets=-1)

    def test_arbitrary_triggering_model_rejected(self, graph):
        from repro.diffusion.triggering import AttentionICTriggering

        with pytest.raises(SketchStoreError, match="by name"):
            build_store(
                graph, 4, estimation_rr_sets=100,
                triggering=AttentionICTriggering(2),
            )


class TestCLI:
    """``repro oracle build|extend|query`` — including the acceptance
    golden: a fresh *process* returns the in-memory reference's prefixes."""

    @pytest.fixture(scope="class")
    def cli_env(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        graph = random_wc_graph(200, 5, seed=41)
        graph_path = tmp / "g.txt"
        write_edge_list(graph, graph_path)
        store_path = tmp / "g.sketch"
        return graph_path, store_path

    def test_build_and_query_fresh_process_golden(self, cli_env):
        graph_path, store_path = cli_env
        env_cmd = [sys.executable, "-m", "repro"]
        common = ["--graph", str(graph_path), "--store", str(store_path)]
        build = subprocess.run(
            env_cmd + ["oracle", "build", *common, "--max-budget", "6",
                       "--rr-sets", "800", "--seed", "13"],
            capture_output=True, text=True,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert build.returncode == 0, build.stderr
        query = subprocess.run(
            env_cmd + ["oracle", "query", *common, "--budgets", "3", "6",
                       "--spread"],
            capture_output=True, text=True,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert query.returncode == 0, query.stderr

        # The golden: the in-memory reference on the re-read graph, same seed.
        from repro.graph.io import read_edge_list

        graph, _ = read_edge_list(graph_path)
        oracle = Reference(
            graph, 6, 800, EngineContext.create(rng=np.random.default_rng(13))
        )
        lines = dict(
            line.split(" = ")
            for line in query.stdout.strip().splitlines()
        )
        for budget in (3, 6):
            expected = " ".join(str(s) for s in oracle.seeds(budget))
            assert lines[f"seeds[{budget}]"] == expected
            spread = float(lines[f"spread[{budget}]"])
            assert spread == pytest.approx(
                oracle.estimate_spread(oracle.seeds(budget)), abs=5e-3
            )

    def test_extend_and_allocate_in_process(self, cli_env):
        from repro.cli import main

        graph_path, store_path = cli_env
        common = ["--graph", str(graph_path), "--store", str(store_path)]
        assert main(["oracle", "extend", *common, "--add", "400"]) == 0
        loaded = SketchStore.load(store_path)
        assert loaded.num_sets == 1200
        assert (
            main(["oracle", "query", *common, "--budgets", "2",
                  "--allocate", "4", "2"])
            == 0
        )

    def test_query_stale_store_fails_loudly(self, cli_env, tmp_path):
        from repro.cli import main

        _, store_path = cli_env
        other = random_wc_graph(80, 4, seed=3)
        other_path = tmp_path / "other.txt"
        write_edge_list(other, other_path)
        with pytest.raises(SystemExit, match="was not built from the edge list"):
            main(["oracle", "query", "--graph", str(other_path),
                  "--store", str(store_path), "--budgets", "2"])

    def test_negative_rr_sets_fails_without_writing(self, cli_env, tmp_path):
        from repro.cli import main

        graph_path, _ = cli_env
        path = tmp_path / "negative.sketch"
        for shards in ("1", "2"):
            with pytest.raises(ValueError, match="non-negative"):
                main(["oracle", "build", "--graph", str(graph_path),
                      "--store", str(path), "--max-budget", "4",
                      "--rr-sets", "-1", "--shards", shards])
            assert not path.exists()

    def test_sharded_build_via_cli(self, cli_env, tmp_path):
        from repro.cli import main

        graph_path, _ = cli_env
        sharded_path = tmp_path / "sharded.sketch"
        assert (
            main(["oracle", "build", "--graph", str(graph_path),
                  "--store", str(sharded_path), "--max-budget", "4",
                  "--rr-sets", "400", "--shards", "2", "--seed", "7"])
            == 0
        )
        assert SketchStore.load(sharded_path).num_sets == 400
