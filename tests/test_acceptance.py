"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from the independent oracles in oracles.py or
from the reference levels frozen in REFERENCE_LEVELS_20C.
"""

import time
from itertools import product

import numpy as np
import pytest

from mlmsim import controller as ctl
from mlmsim import device as dev
from mlmsim import encoder as enc
from mlmsim import network as net

from oracles import (inversion_count, kcl_residual, ladder_node_voltages, logistic_drift,
                     random_ladder)
from test_network import build_ladder_netlist

# Reference 20 C mean read-out levels of the 10-level cell, in ascending
# (table) order; these are the calibration targets for criterion 8.
REFERENCE_LEVELS_20C = [
    ("222", 4.462e-04),
    ("122", 1.884e-03),
    ("112", 4.319e-03),
    ("022", 4.712e-03),
    ("012", 6.816e-03),
    ("111", 6.967e-03),
    ("002", 7.898e-03),
    ("011", 8.266e-03),
    ("001", 8.513e-03),
    ("000", 8.598e-03),
]

# Ground (probe) resistor of the uncalibrated cell, half of
# network.DEFAULT_R_GROUND; criterion 8 fits the reference levels from it.
UNCALIBRATED_R_GROUND = 100.0

TABLE_ROWS = [
    (0.00, 0.30, "222"), (0.31, 0.60, "122"), (0.61, 0.90, "112"),
    (0.91, 1.20, "022"), (1.21, 1.50, "012"), (1.51, 1.80, "111"),
    (1.81, 2.10, "002"), (2.11, 2.40, "011"), (2.41, 2.70, "001"),
    (2.71, 3.00, "000"),
]

GRID_61 = np.linspace(0.0, 3.0, 61)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s over {self.budget}s budget"
        return elapsed


def test_criterion_1_encoder_table_exactness():
    clock = Stopwatch(1.0)
    for a1, a2, code in TABLE_ROWS:
        for probe in (a1, a2, (a1 + a2) / 2):
            got = enc.encode_behavioral(probe)
            for port in range(3):
                assert got.trits[port] == int(code[port])
    example = enc.encode_behavioral(1.3)
    assert str(example) == "012"
    assert enc.code_to_write_voltages(example).port_voltages == (0.0, 2.5, 4.0)
    elapsed = clock.check()
    print(f"\ncriterion 1 PASS: all 30 table assignments and the 1.3 V example "
          f"exact ({elapsed:.2f}s)")


def test_criterion_2_structural_behavioral_equivalence():
    clock = Stopwatch(5.0)
    report = enc.check_equivalence(grid=GRID_61, guard_band=0.005)
    assert report.ok and report.n_checked == 61
    for v_in in GRID_61:
        code = enc.encode_behavioral(float(v_in))
        pattern = enc.encode_structural(float(v_in))
        for trit, volts in zip(code.trits, pattern.port_voltages):
            if trit == 2:
                assert volts >= 3.8
            elif trit == 1:
                assert 2.0 <= volts <= 2.6
            else:
                assert -0.2 <= volts <= 0.05
    elapsed = clock.check()
    print(f"criterion 2 PASS: 61/61 points equivalent, all structural levels "
          f"inside the output bands ({elapsed:.2f}s)")


def test_criterion_3_solver_correctness():
    clock = Stopwatch(10.0)
    rng = np.random.default_rng(2027)
    for _ in range(1000):
        v_src, rs, rp = random_ladder(rng)
        nl = build_ladder_netlist(v_src, rs, rp)
        result = net.solve_dc(nl)
        expected = ladder_node_voltages(v_src, rs, rp)
        np.testing.assert_allclose(result.node_voltages[1:len(rs) + 2], expected,
                                   rtol=1e-9, atol=1e-15)
        assert kcl_residual(result) <= 1e-9

    elements = [net.VoltageSource(1, 0, 2.0), net.VoltageSource(3, 0, -1.0),
                net.Resistor(1, 2, 500.0), net.Resistor(2, 0, 1500.0),
                net.Resistor(2, 3, 800.0), net.Resistor(3, 0, 2200.0)]
    nl = net.Netlist(4, elements)
    base = net.solve_dc(nl)
    for k in (2.0, -1.0, 0.5):
        scaled = net.solve_dc(nl, source_values={0: 2.0 * k, 1: -1.0 * k})
        np.testing.assert_allclose(scaled.node_voltages, k * base.node_voltages,
                                   rtol=1e-9, atol=1e-15)
    only_a = net.solve_dc(nl, source_values={1: 0.0})
    only_b = net.solve_dc(nl, source_values={0: 0.0})
    np.testing.assert_allclose(base.node_voltages,
                               only_a.node_voltages + only_b.node_voltages,
                               rtol=1e-9, atol=1e-15)
    elapsed = clock.check()
    print(f"criterion 3 PASS: 1000 ladder networks match the reduction oracle "
          f"to 1e-9, KCL/linearity/superposition hold ({elapsed:.2f}s)")


def test_criterion_4_device_model_numerics():
    clock = Stopwatch(5.0)
    params = dev.MemristorParams(drift_rate=1.0, window_p=1)
    cases = [(0.2, 1.0), (0.2, 2.0), (0.7, -1.5), (0.45, 0.8)]
    dt, total = 1e-6, 0.1
    w = np.array([c[0] for c in cases])
    v = np.array([c[1] for c in cases])
    for _ in range(int(round(total / dt))):
        dev.step_array(w, v, dt, params, dev.DeviceModelKind.LINEAR_DRIFT)
    worst = 0.0
    for k, (w0, volt) in enumerate(cases):
        worst = max(worst, abs(w[k] - logistic_drift(w0, 1.0, volt, total)))
    assert worst <= 1e-6

    rng = np.random.default_rng(99)
    fuzz_params = dev.MemristorParams(drift_rate=3000.0)
    wf = rng.uniform(0, 1, size=64)
    steps = 0
    while steps < 10_000:
        dev.step_array(wf, rng.uniform(-5, 5, size=64),
                       rng.uniform(1e-7, 1e-5), fuzz_params,
                       dev.DeviceModelKind.LINEAR_DRIFT)
        assert (wf >= 0.0).all() and (wf <= 1.0).all()
        steps += 64
    elapsed = clock.check()
    print(f"criterion 4 PASS: Euler matches the logistic closed form to "
          f"{worst:.2e} (<=1e-6) at dt=1us; state bounded over 10^4 fuzz steps "
          f"({elapsed:.2f}s)")


def test_criterion_5_ten_distinct_levels():
    clock = Stopwatch(10.0)
    cell = ctl.make_cell()
    scan = ctl.write_then_read_all_codes(cell, ctl.CycleConfig())
    assert str(scan.measurements[0].code) == "222"
    assert str(scan.measurements[-1].code) == "000"
    assert len(scan.measurements) == 10
    assert scan.min_separation >= 0.02
    elapsed = clock.check()
    print(f"criterion 5 PASS: 10 levels, min separation "
          f"{scan.min_separation:.1%} of span (>=2%), extremes 222/000 "
          f"({elapsed:.2f}s)")


def test_criterion_6_staircase_reproduction():
    clock = Stopwatch(30.0)
    cell = ctl.make_cell()
    measurements = ctl.run_input_sweep(cell, "behavioral", ctl.CycleConfig())
    assert len(measurements) == 61
    assert len({m.v_out for m in measurements}) == 10
    per_bin = {}
    for m in measurements:
        per_bin.setdefault(str(m.code), set()).add(m.v_out)
    assert all(len(values) == 1 for values in per_bin.values())

    codes = {str(m.code) for m in measurements}
    assert codes == {code for _, _, code in TABLE_ROWS}
    # per-port staircases: three-valued, equal to the owning table column
    for port in range(3):
        trace = [enc.code_to_write_voltages(m.code).port_voltages[port]
                 for m in measurements]
        assert set(trace) <= set(enc.WRITE_LEVELS)
        for m in measurements:
            row_code = next(code for a1, _, code in reversed(TABLE_ROWS)
                            if m.v_in >= a1 - 1e-12)
            assert enc.code_to_write_voltages(m.code).port_voltages[port] == \
                enc.WRITE_LEVELS[int(row_code[port])]
    elapsed = clock.check()
    print(f"criterion 6 PASS: 61-point sweep is a 10-level staircase, exact "
          f"within bins, port traces match the table columns ({elapsed:.2f}s)")


def test_criterion_7_temperature_negligibility():
    clock = Stopwatch(60.0)
    cell = ctl.make_cell()
    quiet = ctl.run_temperature_study(cell, temps_c=(20.0, 30.0, 40.0, 50.0),
                                      trials=2, cfg=ctl.CycleConfig())
    assert all(s.stdev == 0.0 for s in quiet)
    worst_drift = 0.0
    for _, _, code in TABLE_ROWS:
        means = [s.mean for s in quiet if str(s.code) == code]
        assert len(means) == 4
        worst_drift = max(worst_drift, (max(means) - min(means)) / np.mean(means))
    assert worst_drift <= 0.01

    noise = ctl.NoiseConfig(source_noise_sigma=1e-3, rng_seed=424242)
    first = ctl.run_temperature_study(cell, temps_c=(20.0, 50.0), trials=3,
                                      noise=noise, cfg=ctl.CycleConfig())
    second = ctl.run_temperature_study(cell, temps_c=(20.0, 50.0), trials=3,
                                       noise=noise, cfg=ctl.CycleConfig())
    assert [(s.mean, s.stdev) for s in first] == [(s.mean, s.stdev) for s in second]
    assert all(s.stdev > 0 for s in first)
    elapsed = clock.check()
    print(f"criterion 7 PASS: per-code mean drift {worst_drift:.3%} (<=1%) over "
          f"20-50C, zero-noise stdev exactly 0, seeded study reproducible "
          f"({elapsed:.2f}s)")


def test_criterion_8_calibration():
    clock = Stopwatch(300.0)
    # self-consistency round trip: targets produced by the simulator itself
    round_cfg = ctl.CycleConfig(dt=4e-6)
    gen_cell = ctl.make_cell(net.CellTopology(r_ground=150.0),
                             dev.MemristorParams(drift_rate=2300.0, r_off=80000.0))
    v_gen, _ = ctl.simulate_levels(gen_cell, round_cfg)
    synth_targets = list(zip((code for _, _, code in TABLE_ROWS), v_gen))
    round_trip = ctl.calibrate(synth_targets, cfg=round_cfg, n_restarts=2,
                               seed=3, maxiter=400)
    worst_round = max(abs(r) for _, _, _, r in round_trip.per_code)
    assert worst_round <= 1e-3

    # reference targets from the uncalibrated starting point
    base = dev.MemristorParams(drift_rate=2500.0)
    topo = net.CellTopology(r_ground=UNCALIBRATED_R_GROUND)
    fit = ctl.calibrate(REFERENCE_LEVELS_20C, base_params=base,
                        base_topology=topo, cfg=ctl.CycleConfig(dt=2e-6),
                        n_restarts=3, seed=7, maxiter=120)
    assert fit.residual_best <= 0.5 * fit.residual_initial
    assert fit.inversions <= 8
    worst_mag = max(abs(r) for _, _, _, r in fit.per_code)
    note = (f"worst per-code magnitude error {worst_mag:.1%}"
            + (" (>20%, reported per the topology open question)"
               if worst_mag > 0.20 else ""))
    elapsed = clock.check()
    print(f"criterion 8 PASS: round trip recovers levels to {worst_round:.3%} "
          f"(<=0.1%); reference fit improves residual "
          f"{fit.residual_initial:.3g} -> {fit.residual_best:.3g} "
          f"({fit.improvement:.0%}, >=50%) with {fit.inversions} inversions "
          f"(<=8); {note} ({elapsed:.1f}s)")


def test_criterion_9_non_destructive_read():
    clock = Stopwatch(60.0)
    cell = ctl.make_cell()
    cfg = ctl.CycleConfig()
    worst = 0.0
    for _, _, code in TABLE_ROWS:
        pattern = enc.code_to_write_voltages(enc.TernaryCode.from_string(code))
        written = np.array(ctl.run_cycle(cell, pattern, cfg).final_device_states)
        _, after, drift = ctl.run_read_phase(cell, written, cfg)
        worst = max(worst, drift, np.abs(after - written).max())
    # a long read must stay quiet too
    long_read = ctl.CycleConfig(t_read=2e-3)
    written = np.array(ctl.run_cycle(cell,
                                     enc.code_to_write_voltages(
                                         enc.TernaryCode((0, 1, 2))),
                                     long_read).final_device_states)
    _, _, drift = ctl.run_read_phase(cell, written, long_read)
    worst = max(worst, drift)
    assert worst < 1e-3
    elapsed = clock.check()
    print(f"criterion 9 PASS: max read-phase state motion {worst:.2e} of full "
          f"scale (<0.1%) across all codes and a 10x read window "
          f"({elapsed:.2f}s)")


def test_criterion_5_bonus_27_code_collapse():
    # equal sub-cell resistors collapse the 27 codes onto <=10 levels
    clock = Stopwatch(30.0)
    cell = ctl.make_cell()
    patterns = np.array([[enc.WRITE_LEVELS[t] for t in trits]
                         for trits in product((0, 1, 2), repeat=3)])
    v_out, _, _, _ = ctl._run_batch(cell, patterns, ctl.CycleConfig())
    groups = {}
    for trits, value in zip(product((0, 1, 2), repeat=3), v_out):
        groups.setdefault(tuple(sorted(trits)), []).append(value)
    assert len(groups) == 10
    for values in groups.values():
        assert max(values) - min(values) <= 1e-12 * max(values)
    clock.check()
    print("criterion 5 note: all 27 codes collapse onto the 10 multiset levels "
          "under the symmetric wiring")
