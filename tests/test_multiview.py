"""Unit tests for the multi-view extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.multiview.dataset import MultiViewDataset
from repro.multiview.translator import MultiViewTranslator


@pytest.fixture
def three_view_dataset() -> MultiViewDataset:
    """Three views where (0,1) share planted structure and view 2 is noise."""
    dataset, __ = generate_planted(
        SyntheticSpec(
            n_transactions=250, n_left=8, n_right=8,
            density_left=0.12, density_right=0.12,
            n_rules=3, confidence=(0.95, 1.0), activation=(0.2, 0.3), seed=17,
        )
    )
    rng = np.random.default_rng(18)
    noise = rng.random((250, 6)) < 0.15
    return MultiViewDataset(
        [dataset.left, dataset.right, noise],
        view_names=["audio", "emotions", "noise"],
        name="three",
    )


class TestDataset:
    def test_construction(self, three_view_dataset):
        assert three_view_dataset.n_views == 3
        assert three_view_dataset.n_transactions == 250

    def test_rejects_single_view(self):
        with pytest.raises(ValueError, match="at least two"):
            MultiViewDataset([np.zeros((2, 2), bool)])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="same number"):
            MultiViewDataset([np.zeros((2, 2), bool), np.zeros((3, 2), bool)])

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError, match="Boolean"):
            MultiViewDataset([np.full((2, 2), 2), np.zeros((2, 2), bool)])

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="view_names"):
            MultiViewDataset(
                [np.zeros((2, 2), bool), np.zeros((2, 2), bool)],
                view_names=["only-one"],
            )

    def test_view_pairs(self, three_view_dataset):
        assert three_view_dataset.view_pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_pair_projection(self, three_view_dataset):
        pair = three_view_dataset.pair(0, 1)
        assert pair.n_transactions == 250
        np.testing.assert_array_equal(pair.left, three_view_dataset.views[0])
        assert "audio" in pair.name and "emotions" in pair.name

    def test_pair_validation(self, three_view_dataset):
        with pytest.raises(ValueError, match="distinct"):
            three_view_dataset.pair(1, 1)
        with pytest.raises(IndexError):
            three_view_dataset.pair(0, 9)

    def test_default_item_names(self, three_view_dataset):
        assert three_view_dataset.item_names[2][0] == "noise:0"

    def test_repr(self, three_view_dataset):
        assert "views=" in repr(three_view_dataset)


class TestTranslator:
    def test_fits_all_pairs(self, three_view_dataset):
        result = MultiViewTranslator(k=1, minsup=3).fit(three_view_dataset)
        assert set(result.pair_results) == {(0, 1), (0, 2), (1, 2)}
        assert result.runtime_seconds > 0

    def test_structured_pair_compresses_best(self, three_view_dataset):
        result = MultiViewTranslator(k=1, minsup=3).fit(three_view_dataset)
        structured = result.pair_results[(0, 1)].compression_ratio
        noise_pairs = [
            result.pair_results[(0, 2)].compression_ratio,
            result.pair_results[(1, 2)].compression_ratio,
        ]
        # Planted structure lives between views 0 and 1 only.
        assert structured < min(noise_pairs)

    def test_aggregate_statistics(self, three_view_dataset):
        result = MultiViewTranslator(k=1, minsup=3).fit(three_view_dataset)
        assert result.n_rules == sum(
            pair.n_rules for pair in result.pair_results.values()
        )
        assert 0 < result.compression_ratio <= 1.0
        summary = result.summary()
        assert summary["n_pairs"] == 3
        assert (0, 1) in summary["per_pair"]

    def test_reduces_to_two_view_case(self):
        dataset, __ = generate_planted(
            SyntheticSpec(n_transactions=150, n_left=6, n_right=6, n_rules=2, seed=19)
        )
        multi = MultiViewDataset([dataset.left, dataset.right])
        result = MultiViewTranslator(k=1, minsup=2).fit(multi)
        from repro.core.translator import TranslatorSelect

        two_view = TranslatorSelect(k=1, minsup=2).fit(multi.pair(0, 1))
        pair_result = result.pair_results[(0, 1)]
        assert pair_result.n_rules == two_view.n_rules
        assert pair_result.compression_ratio == pytest.approx(
            two_view.compression_ratio
        )


@pytest.mark.multiview_smoke
class TestSharedBitsets:
    """The shared per-view packing must be bit-identical to per-pair fits."""

    def test_select_matches_fresh_per_pair_fits(self, three_view_dataset):
        from repro.core.translator import TranslatorSelect

        shared = MultiViewTranslator(k=1, minsup=3).fit(three_view_dataset)
        for pair in three_view_dataset.view_pairs():
            fresh = TranslatorSelect(k=1, minsup=3).fit(
                three_view_dataset.pair(*pair)
            )
            result = shared.pair_results[pair]
            assert set(result.table) == set(fresh.table)
            assert result.total_bits == fresh.total_bits

    def test_exact_matches_fresh_per_pair_fits(self, three_view_dataset):
        from repro.core.translator import TranslatorExact

        shared = MultiViewTranslator(method="exact", max_rule_size=2).fit(
            three_view_dataset
        )
        for pair in three_view_dataset.view_pairs():
            fresh = TranslatorExact(max_rule_size=2).fit(
                three_view_dataset.pair(*pair)
            )
            result = shared.pair_results[pair]
            assert set(result.table) == set(fresh.table)
            assert result.total_bits == fresh.total_bits

    def test_joint_bits_equals_fresh_joint_pack(self, three_view_dataset):
        from repro.core.bitset import BitMatrix
        from repro.mining.twoview import joint_bits

        pair = three_view_dataset.pair(0, 1)
        joint, __ = pair.joined()
        left_bits = BitMatrix.from_bool_columns(three_view_dataset.views[0])
        right_bits = BitMatrix.from_bool_columns(three_view_dataset.views[1])
        stitched = joint_bits(left_bits, right_bits)
        fresh = BitMatrix.from_bool_columns(joint)
        np.testing.assert_array_equal(stitched.words, fresh.words)
        assert stitched.n_bits == fresh.n_bits

    def test_joint_bits_rejects_row_mismatch(self):
        from repro.core.bitset import BitMatrix
        from repro.mining.twoview import joint_bits

        with pytest.raises(ValueError, match="transaction counts"):
            joint_bits(
                BitMatrix.from_bool_columns(np.zeros((8, 2), bool)),
                BitMatrix.from_bool_columns(np.zeros((9, 2), bool)),
            )


@pytest.mark.multiview_smoke
class TestConditionalTranslation:
    def test_residual_rows_shrink_in_pair_order(self, three_view_dataset):
        result = MultiViewTranslator(k=1, minsup=3, conditional=True).fit(
            three_view_dataset
        )
        assert result.conditional
        rows = [result.pair_rows[pair] for pair in three_view_dataset.view_pairs()]
        assert rows[0] == three_view_dataset.n_transactions
        assert all(later <= rows[0] for later in rows[1:])
        # The structured pair (0, 1) fires rules, so later pairs see fewer rows.
        assert rows[1] < rows[0]

    def test_first_pair_matches_unconditional_fit(self, three_view_dataset):
        conditional = MultiViewTranslator(k=1, minsup=3, conditional=True).fit(
            three_view_dataset
        )
        unconditional = MultiViewTranslator(k=1, minsup=3).fit(three_view_dataset)
        assert set(conditional.pair_results[(0, 1)].table) == set(
            unconditional.pair_results[(0, 1)].table
        )

    def test_summary_reports_mode_and_rows(self, three_view_dataset):
        result = MultiViewTranslator(k=1, minsup=3, conditional=True).fit(
            three_view_dataset
        )
        summary = result.summary()
        assert summary["conditional"] is True
        assert all("rows" in cells for cells in summary["per_pair"].values())


@pytest.mark.multiview_smoke
class TestPayloadAndSchemas:
    def test_payload_roundtrip(self, three_view_dataset):
        payload = three_view_dataset.to_payload()
        rebuilt = MultiViewDataset.from_payload(payload)
        assert rebuilt.n_views == three_view_dataset.n_views
        assert rebuilt.view_names == three_view_dataset.view_names
        for mine, theirs in zip(three_view_dataset.views, rebuilt.views):
            np.testing.assert_array_equal(mine, theirs)

    def test_schemas_flow_into_pairs(self):
        from repro.data.preprocessing import frame_to_multi_view

        rng = np.random.default_rng(23)
        frame = {
            "a": rng.normal(0, 1, 80),
            "b": rng.normal(4, 2, 80),
            "c": rng.choice(["p", "q"], 80),
            "d": rng.normal(-2, 1, 80),
        }
        dataset = frame_to_multi_view(frame, n_views=3, rng=3)
        pair = dataset.pair(0, 1)
        assert pair.left_schema is not None and pair.right_schema is not None
        payload = dataset.to_payload()
        rebuilt = MultiViewDataset.from_payload(payload)
        for original, restored in zip(dataset.schemas, rebuilt.schemas):
            assert restored is not None
            assert original.to_payload() == restored.to_payload()
