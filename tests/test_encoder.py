import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mlmsim import encoder as enc

# Independent restatement of the ten (range, code) assignments the default
# table must reproduce, written out rather than derived from the module.
EXPECTED_ROWS = [
    (0.00, 0.30, "222"),
    (0.31, 0.60, "122"),
    (0.61, 0.90, "112"),
    (0.91, 1.20, "022"),
    (1.21, 1.50, "012"),
    (1.51, 1.80, "111"),
    (1.81, 2.10, "002"),
    (2.11, 2.40, "011"),
    (2.41, 2.70, "001"),
    (2.71, 3.00, "000"),
]

SWEEP_GRID = np.linspace(0.0, 3.0, 61)


class TestBehavioralTable:
    def test_all_thirty_port_assignments(self):
        for a1, a2, code in EXPECTED_ROWS:
            for probe in (a1, a2, (a1 + a2) / 2):
                got = enc.encode_behavioral(probe)
                for port in range(3):
                    assert got.trits[port] == int(code[port]), (probe, port)

    def test_reference_input_example(self):
        assert str(enc.encode_behavioral(1.3)) == "012"

    def test_domain_endpoints(self):
        assert str(enc.encode_behavioral(0.0)) == "222"
        assert str(enc.encode_behavioral(3.0)) == "000"

    def test_first_boundary(self):
        assert str(enc.encode_behavioral(0.30)) == "222"
        assert str(enc.encode_behavioral(0.31)) == "122"

    def test_out_of_range_rejected(self):
        for bad in (-0.01, 3.01, 5.0):
            with pytest.raises(enc.OutOfRange):
                enc.encode_behavioral(bad)

    def test_exactly_nine_interior_discontinuities(self):
        grid = np.arange(0.0, 3.0 + 1e-9, 0.001)
        codes = [str(enc.encode_behavioral(round(v, 3))) for v in grid]
        changes = sum(1 for a, b in zip(codes, codes[1:]) if a != b)
        assert changes == 9

    def test_row_index_monotone_in_input(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.uniform(0, 3, size=500))
        rows = [enc.DEFAULT_BIN_TABLE.row_index(v) for v in values]
        assert all(a <= b for a, b in zip(rows, rows[1:]))

    def test_each_code_appears_once(self):
        codes = [str(row.code) for row in enc.DEFAULT_BIN_TABLE.rows]
        assert len(set(codes)) == 10

    def test_duplicate_codes_rejected(self):
        rows = (enc.BinRow(0.0, 0.5, enc.TernaryCode.from_string("111")),
                enc.BinRow(0.6, 1.0, enc.TernaryCode.from_string("111")))
        with pytest.raises(ValueError):
            enc.BinTable(rows)


class TestWriteVoltages:
    def test_reference_pattern(self):
        pattern = enc.code_to_write_voltages(enc.TernaryCode((0, 1, 2)))
        assert pattern.port_voltages == (0.0, 2.5, 4.0)

    def test_all_zero_and_all_high(self):
        assert enc.code_to_write_voltages(enc.TernaryCode((0, 0, 0))).port_voltages == (0.0, 0.0, 0.0)
        assert enc.code_to_write_voltages(enc.TernaryCode((2, 2, 2))).port_voltages == (4.0, 4.0, 4.0)

    def test_level_map_is_a_bijection(self):
        for trit, level in enumerate(enc.WRITE_LEVELS):
            assert enc.quantize_write_voltage(level) == trit


class TestQuantize:
    @pytest.mark.parametrize("volts,expected", [
        (4.0, 2), (3.25, 2), (2.5, 1), (1.25, 1), (1.24, 0),
        (0.0, 0), (-0.1, 0), (-0.2, 0), (5.0, 2),
    ])
    def test_midpoint_thresholds(self, volts, expected):
        assert enc.quantize_write_voltage(volts) == expected


class TestStructuralPath:
    def test_reference_input_quantizes_to_table_code(self):
        pattern = enc.encode_structural(1.3)
        assert str(enc.quantize_pattern(pattern)) == "012"

    def test_ideal_config_emits_exact_levels(self):
        for v_in in SWEEP_GRID:
            for volts in enc.encode_structural(float(v_in)).port_voltages:
                assert volts in enc.WRITE_LEVELS

    def test_output_bands(self):
        for v_in in SWEEP_GRID:
            code = enc.encode_behavioral(float(v_in))
            pattern = enc.encode_structural(float(v_in))
            for trit, volts in zip(code.trits, pattern.port_voltages):
                if trit == 2:
                    assert volts >= 3.8
                elif trit == 1:
                    assert 2.0 <= volts <= 2.6
                else:
                    assert -0.2 <= volts <= 0.05

    def test_single_activation_per_port_everywhere(self):
        probes = list(SWEEP_GRID) + enc.DEFAULT_BIN_TABLE.interior_edges()
        for v_in in probes:
            code = enc.encode_behavioral(float(v_in))
            counts = enc.structural_activations(float(v_in))
            for trit, count in zip(code.trits, counts):
                assert count == (1 if trit > 0 else 0), v_in

    def test_out_of_range_rejected(self):
        with pytest.raises(enc.OutOfRange):
            enc.encode_structural(3.2)
        with pytest.raises(enc.OutOfRange):
            enc.structural_activations(3.2)

    def test_detuned_summing_gain_scales_levels(self):
        cfg = enc.EncoderConfig(sum_r2=10_000.0)  # half the unity ratio
        pattern = enc.encode_structural(0.1, cfg=cfg)
        assert pattern.port_voltages == (2.0, 2.0, 2.0)


class TestEquivalence:
    def test_ideal_config_has_zero_mismatches_on_sweep_grid(self):
        report = enc.check_equivalence(grid=SWEEP_GRID)
        assert report.ok
        assert report.n_checked == 61
        assert report.n_skipped == 0

    def test_offset_mismatches_stay_within_offset_of_edges(self):
        offset = 0.05
        cfg = enc.EncoderConfig(comparator_offset=offset)
        grid = np.round(np.arange(0.0, 3.0001, 0.001), 3)
        report = enc.check_equivalence(cfg=cfg, grid=grid, guard_band=0.0)
        assert report.mismatches  # the offset must actually move decisions
        edges = enc.DEFAULT_BIN_TABLE.interior_edges()
        for miss in report.mismatches:
            assert min(abs(miss.v_in - e) for e in edges) <= offset + 1e-9

    def test_empty_grid_gives_empty_report(self):
        report = enc.check_equivalence(grid=[])
        assert report.ok and report.n_checked == 0 and report.n_skipped == 0

    def test_guard_band_skips_edge_points(self):
        edges = enc.DEFAULT_BIN_TABLE.interior_edges()
        report = enc.check_equivalence(grid=[edges[0] + 0.001], guard_band=0.005)
        assert report.n_skipped == 1 and report.n_checked == 0

    def test_random_inputs_agree_off_edges(self):
        rng = np.random.default_rng(31415)
        edges = enc.DEFAULT_BIN_TABLE.interior_edges()
        values = rng.uniform(0.0, 3.0, size=10_000)
        checked = 0
        for v_in in values:
            if min(abs(v_in - e) for e in edges) < 0.005:
                continue
            checked += 1
            behavioral = enc.encode_behavioral(float(v_in))
            structural = enc.quantize_pattern(enc.encode_structural(float(v_in)))
            assert structural == behavioral
        assert checked > 9_000

    @given(v_in=st.floats(0.0, 3.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_property_structural_matches_behavioral(self, v_in):
        edges = enc.DEFAULT_BIN_TABLE.interior_edges()
        assume(min(abs(v_in - e) for e in edges) >= 0.005)
        assert enc.quantize_pattern(enc.encode_structural(v_in)) == enc.encode_behavioral(v_in)


class TestTypesAndConfig:
    def test_code_parsing_round_trip(self):
        assert str(enc.TernaryCode.from_string("201")) == "201"
        with pytest.raises(ValueError):
            enc.TernaryCode.from_string("013")
        with pytest.raises(ValueError):
            enc.TernaryCode((0, 1, 3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            enc.EncoderConfig(sum_r1=0.0)

    @pytest.mark.parametrize("field", ["sum_r1", "sum_r2", "comparator_offset"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            enc.EncoderConfig(**{field: value})
