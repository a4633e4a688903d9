"""Unit tests for repro.crossbar.spec and repro.crossbar.geometry."""

import pytest

from repro.crossbar.geometry import CrossbarFloorplan
from repro.crossbar.spec import CrossbarSpec


class TestCrossbarSpec:
    def test_paper_defaults(self, spec):
        assert spec.raw_bits == 131072  # 16 kB
        assert spec.nanowires_per_half_cave == 20
        assert spec.rules.litho_pitch_nm == 32.0
        assert spec.sigma_t == 0.05

    def test_side_covers_density(self, spec):
        assert spec.side_nanowires**2 >= spec.raw_bits
        assert (spec.side_nanowires - 1) ** 2 < spec.raw_bits

    def test_half_cave_partition(self, spec):
        assert (
            spec.half_caves_per_layer * spec.nanowires_per_half_cave
            >= spec.side_nanowires
        )

    def test_caves_half_of_half_caves(self, spec):
        assert spec.caves_per_layer == -(-spec.half_caves_per_layer // 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CrossbarSpec(raw_kilobytes=0)
        with pytest.raises(ValueError):
            CrossbarSpec(nanowires_per_half_cave=0)
        with pytest.raises(ValueError):
            CrossbarSpec(sigma_t=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_t", float("nan")),
            ("sigma_t", float("inf")),
            ("raw_kilobytes", float("nan")),
            ("raw_kilobytes", float("inf")),
            ("window_margin", 0.0),
            ("window_margin", 1.5),
            ("window_margin", float("nan")),
        ],
    )
    def test_rejects_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ValueError, match="got"):
            CrossbarSpec(**{field: value})

    def test_accepts_full_window_margin(self):
        assert CrossbarSpec(window_margin=1).window_margin == 1


class TestCrossbarFloorplan:
    def floorplan(self, spec, m=10, g=1):
        return CrossbarFloorplan(spec=spec, code_length=m, groups_per_half_cave=g)

    def test_side_length_composition(self, spec):
        fp = self.floorplan(spec)
        assert fp.side_length_nm == pytest.approx(
            fp.core_span_nm
            + fp.cave_wall_span_nm
            + fp.mesowire_span_nm
            + fp.contact_span_nm
        )

    def test_core_span(self, spec):
        fp = self.floorplan(spec)
        assert fp.core_span_nm == pytest.approx(spec.side_nanowires * 10.0)

    def test_area_is_square(self, spec):
        fp = self.floorplan(spec)
        assert fp.total_area_nm2 == pytest.approx(fp.side_length_nm**2)

    def test_longer_codes_cost_area(self, spec):
        short = self.floorplan(spec, m=6)
        long = self.floorplan(spec, m=10)
        assert long.total_area_nm2 > short.total_area_nm2

    def test_more_groups_cost_area(self, spec):
        few = self.floorplan(spec, g=1)
        many = self.floorplan(spec, g=4)
        assert many.total_area_nm2 > few.total_area_nm2

    def test_raw_bit_area_in_plausible_range(self, spec):
        """P_N = 10 nm crosspoints: ~100 nm^2 core + decoder overhead."""
        fp = self.floorplan(spec)
        assert 100 < fp.raw_bit_area_nm2 < 250

    def test_overhead_fraction_bounds(self, spec):
        fp = self.floorplan(spec)
        assert 0 < fp.decoder_overhead_fraction < 0.5

    def test_rejects_bad_parameters(self, spec):
        with pytest.raises(ValueError):
            self.floorplan(spec, m=0)
        with pytest.raises(ValueError):
            self.floorplan(spec, g=0)
