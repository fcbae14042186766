import numpy as np
import pytest

from mlmsim import controller as ctl
from mlmsim import device as dev
from mlmsim import network as net

from oracles import (dense_sources, divider_vout, kcl_residual, ladder_node_voltages,
                     network_power, random_ladder)


# FLOAT_KERNEL_MAX_ROWS values that put every batch on one kernel, numpy or floats
ONE_KERNEL = (0, 10**6)


def build_ladder_netlist(v_src, r_series, r_shunt):
    """Chain node 1 driven by the source, rung i adds series + shunt."""
    n = len(r_series)
    elements = [net.VoltageSource(1, 0, v_src)]
    for i in range(n):
        elements.append(net.Resistor(i + 1, i + 2, r_series[i]))
        elements.append(net.Resistor(i + 2, 0, r_shunt[i]))
    return net.Netlist(n + 2, elements)


class TestSolveBasics:
    def test_symmetric_divider_midpoint(self):
        nl = net.Netlist(3, [net.VoltageSource(1, 0, 5.0),
                             net.Resistor(1, 2, 1_000.0),
                             net.Resistor(2, 0, 1_000.0)])
        result = net.solve_dc(nl)
        assert result.node_voltages[2] == pytest.approx(2.5, abs=1e-12)

    def test_all_sources_off_gives_zero_solution(self):
        nl = net.Netlist(3, [net.VoltageSource(1, 0, 5.0, active=False),
                             net.Resistor(1, 2, 1_000.0),
                             net.Resistor(2, 0, 1_000.0)])
        result = net.solve_dc(nl)
        assert np.all(result.node_voltages == 0.0)
        assert result.total_source_power == 0.0

    def test_ohms_law_power(self):
        nl = net.Netlist(2, [net.VoltageSource(1, 0, 5.0), net.Resistor(1, 0, 1_000.0)])
        result = net.solve_dc(nl)
        assert network_power(result) == pytest.approx(0.025, rel=1e-12)
        assert result.total_source_power == pytest.approx(0.025, rel=1e-12)

    def test_memristor_divider_formula(self):
        # read-style divider: source, device, series resistor, ground resistor
        nl = net.Netlist(4, [net.VoltageSource(1, 0, 0.05),
                             net.MemristorRef(1, 2, device=0),
                             net.Resistor(2, 3, 500.0),
                             net.Resistor(3, 0, 200.0)])
        for r_dev in (1_000.0, 33_000.0, 100_000.0):
            result = net.solve_dc(nl, [r_dev])
            expected = divider_vout(0.05, r_dev + 500.0, 200.0)
            assert result.node_voltages[3] == pytest.approx(expected, rel=1e-12)

    def test_source_current_convention(self):
        nl = net.Netlist(2, [net.VoltageSource(1, 0, 5.0), net.Resistor(1, 0, 100.0)])
        result = net.solve_dc(nl)
        # element currents run a->b; the source carries the return current
        assert result.element_currents[1] == pytest.approx(0.05)
        assert result.element_currents[0] == pytest.approx(-0.05)


class TestSolveAgainstLadderOracle:
    def test_matches_reduction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v_src, rs, rp = random_ladder(rng)
            nl = build_ladder_netlist(v_src, rs, rp)
            result = net.solve_dc(nl)
            expected = ladder_node_voltages(v_src, rs, rp)
            got = result.node_voltages[1:len(rs) + 2]
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-15)
            assert kcl_residual(result) <= 1e-9

    def test_power_balance_on_random_ladders(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v_src, rs, rp = random_ladder(rng)
            result = net.solve_dc(build_ladder_netlist(v_src, rs, rp))
            dissipated = network_power(result)
            assert dissipated >= 0
            assert dissipated == pytest.approx(result.total_source_power, rel=1e-9)


class TestLinearNetworkProperties:
    def _two_source_net(self):
        elements = [net.VoltageSource(1, 0, 2.0),
                    net.VoltageSource(3, 0, -1.0),
                    net.Resistor(1, 2, 500.0),
                    net.Resistor(2, 0, 1_500.0),
                    net.Resistor(2, 3, 800.0),
                    net.Resistor(3, 0, 2_200.0)]
        return net.Netlist(4, elements)

    @pytest.mark.parametrize("k", [2.0, -1.0, 0.5])
    def test_linearity_in_source_scale(self, k):
        nl = self._two_source_net()
        base = net.solve_dc(nl)
        scaled = net.solve_dc(nl, source_values={0: 2.0 * k, 1: -1.0 * k})
        np.testing.assert_allclose(scaled.node_voltages, k * base.node_voltages,
                                   rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(scaled.element_currents, k * base.element_currents,
                                   rtol=1e-9, atol=1e-15)

    def test_superposition(self):
        nl = self._two_source_net()
        both = net.solve_dc(nl)
        only_a = net.solve_dc(nl, source_values={1: 0.0})
        only_b = net.solve_dc(nl, source_values={0: 0.0})
        np.testing.assert_allclose(
            both.node_voltages, only_a.node_voltages + only_b.node_voltages,
            rtol=1e-9, atol=1e-15)

    def test_reciprocity_transfer_resistance(self):
        # with a 1 V drive at node i, V_j / I_i must be symmetric under i<->j
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_nodes = int(rng.integers(4, 9))
            elements = []
            for node in range(2, n_nodes):
                other = int(rng.integers(1, node))
                elements.append(net.Resistor(node, other, float(rng.uniform(50, 5e4))))
            elements.append(net.Resistor(1, 0, float(rng.uniform(50, 5e4))))
            for _ in range(3):
                a, b = rng.choice(np.arange(n_nodes), size=2, replace=False)
                elements.append(net.Resistor(int(a), int(b), float(rng.uniform(50, 5e4))))
            i_node, j_node = (int(x) for x in
                              rng.choice(np.arange(1, n_nodes), size=2, replace=False))
            src_i = len(elements)
            elements.append(net.VoltageSource(i_node, 0, 1.0, active=False))
            src_j = len(elements)
            elements.append(net.VoltageSource(j_node, 0, 1.0, active=False))
            nl = net.Netlist(n_nodes, elements)

            drive_i = net.solve_dc(nl, source_values={src_i: 1.0})
            drive_j = net.solve_dc(nl, source_values={src_j: 1.0})
            r_ji = drive_i.node_voltages[j_node] / -drive_i.element_currents[src_i]
            r_ij = drive_j.node_voltages[i_node] / -drive_j.element_currents[src_j]
            assert r_ji == pytest.approx(r_ij, rel=1e-9)


class TestSingularDetection:
    def test_floating_island_is_singular(self):
        nl = net.Netlist(4, [net.VoltageSource(1, 0, 1.0),
                             net.Resistor(1, 0, 100.0),
                             net.Resistor(2, 3, 100.0)])
        with pytest.raises(net.SingularNetwork):
            net.solve_dc(nl)

    def test_conflicting_sources_are_singular(self):
        nl = net.Netlist(2, [net.VoltageSource(1, 0, 1.0),
                             net.VoltageSource(1, 0, 2.0),
                             net.Resistor(1, 0, 100.0)])
        with pytest.raises(net.SingularNetwork):
            net.solve_dc(nl)

    def test_isolated_node_is_singular(self):
        nl = net.Netlist(3, [net.VoltageSource(1, 0, 1.0),
                             net.Resistor(1, 0, 10.0)])
        with pytest.raises(net.SingularNetwork):
            net.solve_dc(nl)

    def test_residual_tolerance_is_per_right_hand_side(self):
        # the first right-hand side's solution is off by 2e-6, over its own
        # tolerance of 1e-6; the second's scale of 4 must not excuse it
        rhs = np.array([[1.0, 4.0], [0.0, 0.0]])
        sol = rhs.copy()
        sol[0, 0] += 2e-6
        net._check_solution(np.eye(2), sol[:, 1:], rhs[:, 1:])
        for a_mat, x, z in [(np.eye(2), sol[:, :1], rhs[:, :1]),
                            (np.eye(2), sol, rhs),
                            # the batched layout of MnaTemplate.solve
                            (np.broadcast_to(np.eye(2), (2, 2, 2)), sol.T[..., None],
                             rhs.T[..., None])]:
            with pytest.raises(net.SingularNetwork):
                net._check_solution(a_mat, x, z)


class TestNetlistValidation:
    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError):
            net.Netlist(2, [net.Resistor(0, 5, 100.0)])

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            net.Netlist(2, [net.Resistor(0, 1, 0.0)])

    def test_solve_requires_all_device_resistances(self):
        nl = net.Netlist(3, [net.VoltageSource(1, 0, 1.0),
                             net.MemristorRef(1, 2, device=0),
                             net.Resistor(2, 0, 10.0)])
        with pytest.raises(ValueError):
            net.solve_dc(nl, [])


class TestCellBuilder:
    def test_three_subcell_inventory(self):
        nl, ports = net.build_mlm_cell(net.CellTopology())
        kinds = [type(e).__name__ for e in nl.elements]
        assert kinds.count("MemristorRef") == 3
        assert len(ports.write) == 3
        assert len(ports.reset) == 3
        assert len(ports.read) >= 1
        assert kinds.count("Resistor") >= 7
        assert nl.device_count == 3
        # every source starts switched off
        assert all(not nl.elements[i].active
                   for i in ports.write + ports.reset + ports.read)

    def test_equal_subcells_read_divider(self):
        topo = net.CellTopology(r_series=500.0, r_ground=200.0)
        nl, ports = net.build_mlm_cell(topo)
        for r_dev in (1_000.0, 40_000.0):
            result = net.solve_dc(nl, [r_dev] * 3,
                                  source_values=dict.fromkeys(ports.read, 0.05))
            # three equal branches in parallel above r_ground
            expected = divider_vout(0.05, (r_dev + 500.0) / 3, 200.0)
            assert result.node_voltages[ports.probe_node] == pytest.approx(
                expected, rel=1e-12)

    def test_per_subcell_resistor_lists(self):
        topo = net.CellTopology(r_series=(400.0, 500.0, 600.0))
        nl, _ = net.build_mlm_cell(topo)
        series = [e.ohms for e in nl.elements
                  if isinstance(e, net.Resistor) and e.ohms in (400.0, 500.0, 600.0)]
        assert sorted(series) == [400.0, 500.0, 600.0]

    def test_wrong_length_resistor_list_rejected(self):
        with pytest.raises(net.InvalidTopology):
            net.CellTopology(r_series=(400.0, 500.0))

    def test_negative_read_series_rejected(self):
        with pytest.raises(net.InvalidTopology):
            net.CellTopology(read_series_ohms=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"r_ground": float("nan")},
        {"r_ground": float("inf")},
        {"r_series": float("nan")},
        {"r_series": (500.0, float("nan"), 500.0)},
        {"r_write": (1500.0, 1500.0, float("inf"))},
        {"read_series_ohms": float("inf")},
        {"read_series_ohms": float("nan")},
    ], ids=["r_ground-nan", "r_ground-inf", "r_series-nan", "r_series-entry-nan",
            "r_write-entry-inf", "read_series_ohms-inf", "read_series_ohms-nan"])
    def test_non_finite_value_rejected(self, kwargs):
        with pytest.raises(net.InvalidTopology, match="finite"):
            net.CellTopology(**kwargs)


def assert_rowwise_close(actual, desired, rtol):
    """Within rtol of the largest magnitude in each row, so a branch voltage
    near zero beside larger ones is measured on its row's scale."""
    scale = np.abs(desired).max(axis=-1, keepdims=True)
    assert (np.abs(actual - desired) <= rtol * scale).all()


class TestStar:
    """Each phase's closed form, as both kernels evaluate it, against the dense solve."""

    @staticmethod
    def _random_phase(rng, kind, batch):
        """(drive, pin) for a star of the kind, each amplitude near its nominal value."""
        def around(volts):
            return volts + rng.normal(0.0, 0.01, size=batch)
        pin = None
        if kind == "reset":
            pin = np.column_stack([around(4.0) for _ in range(3)])
            drive = np.column_stack([around(0.0) for _ in range(3)])
        elif kind == "write":
            drive = np.column_stack([around(rng.choice([0.0, 2.5, 4.0], size=batch))
                                     for _ in range(3)])
        else:
            drive = np.column_stack([around(0.05) for _ in range(3)])
        return drive, pin

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_solve(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        topology = net.CellTopology(
            r_series=tuple(rng.uniform(100.0, 2000.0, size=3)),
            r_write=tuple(rng.uniform(500.0, 3000.0, size=3)),
            r_ground=rng.uniform(50.0, 1000.0),
            read_series_ohms=0.0 if seed % 2 else rng.uniform(10.0, 200.0))
        cell = ctl.make_cell(topology)
        nl, ports, params = cell.netlist, cell.ports, cell.params
        batch = 6
        w = rng.uniform(0.0, 1.0, size=(batch, 3))
        w[0] = (0.0, 1.0, 0.5)
        temperature = np.full(batch, rng.uniform(250.0, 400.0))
        g = 1.0 / dev.resistance_array(w, params, temperature[:, None])
        dev_a = [nl.elements[e].a for e in ports.devices]
        dev_b = [nl.elements[e].b for e in ports.devices]
        # each step's branch admittances, branch voltages and V_M, per row,
        # as a kernel hands them to the star's settle
        solved = np.empty((7, batch))
        settle = net.Star.settle

        def recording(star, block, peak, probe, tail=0):
            solved[...] = block[0]
            settle(star, block, peak, probe, tail)

        monkeypatch.setattr(net.Star, "settle", recording)
        for kind in ("reset", "write", "read"):
            drive, pin = self._random_phase(rng, kind, batch)
            # one step from the states w: its power is the peak
            star = net.Star(topology, kind, 1, drive, pin)
            sources = dense_sources(ports, kind, drive, pin)
            tmpl = net.MnaTemplate(nl, dict.fromkeys(sources, 0.0))
            z = tmpl.rhs(sources)
            volts, i_src = tmpl.solve(g, z)
            for limit in ONE_KERNEL:
                monkeypatch.setattr(ctl, "FLOAT_KERNEL_MAX_ROWS", limit)
                solved[...] = np.nan
                _, _, power = ctl._run_phases(cell, ctl.CycleConfig(), [star], w.copy(),
                                              temperature)
                v_dev, v_m = solved[3:6].T, solved[6]
                if kind == "reset":
                    # no kernel computes the reset's V_M, a constant of the
                    # phase: Millman's node of the pinned terminals behind
                    # r_series, which the star's reset power takes
                    g_series = 1.0 / np.array(topology.r_series)
                    v_m = ((pin * g_series).sum(axis=1)
                           / (g_series.sum() + 1.0 / topology.r_ground))
                assert_rowwise_close(v_dev, volts[:, dev_a] - volts[:, dev_b], 1e-12)
                assert_rowwise_close(v_m[:, None], volts[:, [ports.probe_node]], 1e-12)
                # the power sums products of amplitudes and currents of
                # either sign, so its tolerance is 5e-12
                assert_rowwise_close(power[:, None],
                                     -(z[..., tmpl.nv:] * i_src).sum(-1)[:, None], 5e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'erase'"):
            net.Star(net.CellTopology(), "erase", 1, np.zeros((1, 3)))
