"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload builds its inputs from the seed alone (config JSON or code
sequence); the program sees only those inputs. `run_op` is the timed
part. `check` inspects one op's output and returns a list of problems;
`final_check` runs the dense-reference comparison outside the timed region.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np

import oracle
from mlmsim import cli, config, controller, encoder

# The ten read-out codes of the reference bin table, lowest input first.
TABLE_CODES = ("222", "122", "112", "022", "012", "111", "002", "011", "001", "000")
ORACLE_RTOL = 1e-9


def _quiet(fn, *args):
    """Call fn with its stdout captured; the CLI reports on stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Staircase:
    """`mlmsim sweep` on the empty config: 61 fresh cells in one batch."""

    name = "staircase"
    cycles_per_op = 61
    traced_ops = 2

    def __init__(self, seed, workdir):
        self.config_path = str(workdir / "empty.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write("{}\n")
        self.out = str(workdir / "sweep.csv")
        self.oracle_row = int(np.random.default_rng(seed).integers(61))
        self.checked_rows = None

    def restart(self):
        pass

    def run_op(self, i):
        return _quiet(cli.main, ["sweep", "--config", self.config_path, "--out", self.out])

    def check(self, i, exit_code):
        if exit_code != 0:
            return [f"sweep exited {exit_code}"]
        rows = _read_csv(self.out)
        problems = []
        if len(rows) != 61:
            problems.append(f"{len(rows)} sweep rows, expected 61")
        levels = {row["v_out"] for row in rows}
        if len(levels) != 10:
            problems.append(f"{len(levels)} distinct levels, expected 10")
        ranked = sorted(rows, key=lambda row: float(row["v_out"]))
        if ranked and (ranked[0]["code"], ranked[-1]["code"]) != ("222", "000"):
            problems.append(f"lowest {ranked[0]['code']} / highest {ranked[-1]['code']}, "
                            "expected 222 / 000")
        if not problems and self.checked_rows is None:
            self.checked_rows = rows
        return problems

    def final_check(self):
        """One seeded sweep row against the dense reference, on a fresh cell."""
        if self.checked_rows is None:
            return []
        row = self.checked_rows[self.oracle_row]
        sim = config.load_config(self.config_path)
        ref, _ = oracle.dense_cycle(sim.make_cell(), oracle.code_voltages(row["code"]),
                                    sim.cycle)
        # The CSV keeps ten significant digits, well inside ORACLE_RTOL.
        err = oracle.relative_mismatch(float(row["v_out"]), ref)
        if err > ORACLE_RTOL:
            return [f"sweep row {self.oracle_row} ({row['code']}) differs from the "
                    f"dense reference by {err:.3e} relative"]
        return []


class TempStudy:
    """`mlmsim temp-study` with sigma = 1 mV: 4 serial 10-row simulations."""

    name = "temp-study"
    temps = ("20", "50")
    trials = 2
    cycles_per_op = len(TABLE_CODES) * len(temps) * trials
    traced_ops = 2

    def __init__(self, seed, workdir):
        self.config_path = str(workdir / "noise.json")
        doc = {"noise": {"source_noise_sigma": 1e-3, "rng_seed": seed}}
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        self.seed = seed
        self.out = str(workdir / "temp_study.csv")
        self.first_bytes = None

    def restart(self):
        pass

    def run_op(self, i):
        return _quiet(cli.main, ["temp-study", "--config", self.config_path,
                                 "--temps", ",".join(self.temps),
                                 "--trials", str(self.trials),
                                 "--seed", str(self.seed), "--out", self.out])

    def check(self, i, exit_code):
        if exit_code != 0:
            return [f"temp-study exited {exit_code}"]
        with open(self.out, "rb") as handle:
            data = handle.read()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        problems = []
        cover = {(row["code"], float(row["temp_C"])) for row in rows}
        expected = {(c, float(t)) for c in TABLE_CODES for t in self.temps}
        if len(rows) != len(expected) or cover != expected:
            problems.append(f"{len(rows)} rows do not cover {len(TABLE_CODES)} codes "
                            f"x {len(self.temps)} temperatures")
        if not all(float(row["stdev_V"]) > 0 for row in rows):
            problems.append("a per-code stdev is not positive")
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("CSV differs from the first op of this seed")
        return problems

    def final_check(self):
        return []


class WriteChain:
    """One default cell reprogrammed over a seeded code sequence, batch 1."""

    name = "write-chain"
    cycles_per_op = 1
    traced_ops = 10

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.codes = [TABLE_CODES[k] for k in rng.integers(len(TABLE_CODES), size=4096)]
        self.patterns = [encoder.code_to_write_voltages(encoder.TernaryCode.from_string(c))
                         for c in self.codes]
        self.oracle_rng = np.random.default_rng([seed, 1])
        self.cell = controller.make_cell()
        self.cfg = controller.CycleConfig()
        self.history = []        # (code, w0, measurement) per successful op
        self.restart()

    def restart(self):
        self.w = None
        self.position = 0

    def run_op(self, i):
        k = self.position % len(self.codes)
        w0 = self.w
        m = controller.run_cycle(self.cell, self.patterns[k], self.cfg, w0=w0)
        self.w = m.final_device_states
        self.position += 1
        return self.codes[k], w0, m

    def check(self, i, result):
        code, w0, m = result
        problems = []
        if str(m.code) != code:
            problems.append(f"cycle {i} wrote {m.code}, requested {code}")
        if not (math.isfinite(m.v_out) and 0.0 < m.v_out < self.cfg.v_read):
            problems.append(f"cycle {i} read-out {m.v_out!r} outside (0, v_read)")
        states = np.asarray(m.final_device_states)
        if not (np.all(np.isfinite(states)) and np.all((states >= 0) & (states <= 1))):
            problems.append(f"cycle {i} states {states} outside [0, 1]")
        if not problems:
            self.history.append(result)
        return problems

    def final_check(self):
        """One seeded cycle, with the states it carried in, against the reference."""
        if not self.history:
            return []
        pick = min(len(self.history), 17)
        k = int(self.oracle_rng.integers(1, pick)) if pick > 1 else 0
        code, w0, m = self.history[k]
        ref_v, ref_w = oracle.dense_cycle(self.cell, oracle.code_voltages(code),
                                          self.cfg, w0=w0)
        err = max(oracle.relative_mismatch(m.v_out, ref_v),
                  oracle.relative_mismatch(m.final_device_states, ref_w))
        if err > ORACLE_RTOL:
            return [f"chained cycle {k} ({code}) differs from the dense reference "
                    f"by {err:.3e} relative"]
        return []


WORKLOADS = {w.name: w for w in (Staircase, TempStudy, WriteChain)}
