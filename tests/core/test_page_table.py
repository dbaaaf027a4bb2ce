"""Tests for the shared page table and placement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address import AddressMapping
from repro.core.page_table import PagePlacement, PageTable
from repro.errors import AddressError, ConfigError

M = AddressMapping()


def make_table(policy="random", clusters=(0, 1, 2, 3), weights=None, seed=3):
    placement = PagePlacement(policy, list(clusters), seed=seed, weights=weights)
    return PageTable(M, placement, page_bytes=4096)


class TestPlacementPolicies:
    def test_local_places_everything_on_one_cluster(self):
        table = make_table("local", clusters=[2])
        for vaddr in range(0, 64 * 4096, 4096):
            assert M.decode(table.translate(vaddr)).cluster == 2

    def test_round_robin_cycles(self):
        table = make_table("round_robin")
        clusters = [
            M.decode(table.translate(v * 4096)).cluster for v in range(8)
        ]
        assert clusters == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_random_covers_all_clusters(self):
        table = make_table("random")
        clusters = {
            M.decode(table.translate(v * 4096)).cluster for v in range(200)
        }
        assert clusters == {0, 1, 2, 3}

    def test_weighted_respects_zero_weight(self):
        table = make_table(
            "weighted", clusters=[0, 1], weights=[1.0, 0.0]
        )
        for v in range(50):
            assert M.decode(table.translate(v * 4096)).cluster == 0

    def test_weighted_split(self):
        table = make_table("weighted", clusters=[0, 1], weights=[0.5, 0.5])
        counts = {0: 0, 1: 0}
        for v in range(400):
            counts[M.decode(table.translate(v * 4096)).cluster] += 1
        assert 120 < counts[0] < 280  # roughly half

    def test_local_requires_single_cluster(self):
        with pytest.raises(ConfigError):
            PagePlacement("local", [0, 1])

    def test_weighted_requires_matching_weights(self):
        with pytest.raises(ConfigError):
            PagePlacement("weighted", [0, 1], weights=[1.0])

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            PagePlacement("striped", [0])

    def test_empty_clusters(self):
        with pytest.raises(ConfigError):
            PagePlacement("random", [])


class TestTranslation:
    def test_same_page_same_frame(self):
        table = make_table()
        p1 = table.translate(4096 * 9 + 100)
        p2 = table.translate(4096 * 9 + 200)
        assert p2 - p1 == 100

    def test_offset_preserved(self):
        table = make_table()
        paddr = table.translate(4096 * 3 + 777)
        assert paddr % 4096 == 777

    def test_different_pages_different_frames(self):
        table = make_table()
        bases = {table.translate(v * 4096) for v in range(100)}
        assert len(bases) == 100

    def test_negative_vaddr_raises(self):
        with pytest.raises(AddressError):
            make_table().translate(-1)

    def test_deterministic_for_same_seed(self):
        t1, t2 = make_table(seed=9), make_table(seed=9)
        for v in range(50):
            assert t1.translate(v * 4096) == t2.translate(v * 4096)

    def test_seed_changes_placement(self):
        t1, t2 = make_table(seed=1), make_table(seed=2)
        diffs = sum(
            t1.translate(v * 4096) != t2.translate(v * 4096) for v in range(50)
        )
        assert diffs > 0

    @settings(max_examples=100, deadline=None)
    @given(vaddr=st.integers(0, 1 << 40))
    def test_translation_is_stable(self, vaddr):
        table = make_table()
        assert table.translate(vaddr) == table.translate(vaddr)


class TestFrameRandomization:
    def test_randomized_mode_spreads_rows(self):
        table = make_table("local", clusters=[0])
        bases = [table.translate(v * 4096) for v in range(64)]
        rows = {M.decode(b).row for b in bases}
        assert len(rows) > 8

    def test_no_duplicate_frames(self):
        table = make_table("local", clusters=[0])
        bases = [table.translate(v * 4096) for v in range(500)]
        assert len(set(bases)) == 500


class TestBookkeeping:
    def test_num_pages(self):
        table = make_table()
        for v in range(10):
            table.translate(v * 4096)
        assert table.num_pages == 10

    def test_pages_per_cluster_sums(self):
        table = make_table()
        for v in range(40):
            table.translate(v * 4096)
        assert sum(table.pages_per_cluster().values()) == 40

    def test_reset_clears_everything(self):
        table = make_table()
        before = table.translate(0)
        table.reset()
        assert table.num_pages == 0
        # A fresh allocation may land elsewhere but must succeed.
        table.translate(0)
        assert table.num_pages == 1
