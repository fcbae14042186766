"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the mlmsim layers through their
module or class attributes, so no program file changes: `cli` and
`controller` look these names up through module attributes at call time.
Each span records its name, start, end, parent span and op id. Spans stay
in memory until the run ends; `save` writes them out and `report` turns
them into per-layer numbers. A layer's self time is its span time minus
the time of its child spans.

Bookkeeping that inspects arguments (rows per solve, whether a device step
changed any state, the distinct source rows of a simulation call) runs
outside the timed interval of the span it belongs to, so it lands in the
parent's self time.
"""

import functools
import time

import numpy as np

from mlmsim import cli, config, controller, device, encoder, network

# Controller entry points that each run one batched simulation.
SIM_FUNCTIONS = ("run_cycle", "run_input_sweep", "simulate_levels", "peak_source_power")


class Tracer:
    def __init__(self):
        self.names = []          # span kind -> "layer:function"
        self.kind = []           # per span
        self.parent = []
        self.op = []
        self.start = []
        self.end = []
        self.op_id = -1
        self._stack = [-1]
        self._patches = []
        self._sims = []          # active simulation calls, innermost last
        self.sim_rows = []       # (rows, distinct source rows) per finished call
        self.solve_rows = 0
        self.steps_changed = 0

    # -- installation --------------------------------------------------------

    def install(self):
        self._wrap(cli, "main", "cli")
        # cli imported load_config by name, so its copy is wrapped too.
        for owner in (cli, config):
            self._wrap(owner, "load_config", "config")
        for name in ("encode_behavioral", "encode_structural"):
            self._wrap(encoder, name, "encoder")
        for name in SIM_FUNCTIONS:
            self._wrap(controller, name, "controller", self._sim_enter, self._sim_exit)
        self._wrap(network.MnaTemplate, "__init__", "network.template")
        self._wrap(network.MnaTemplate, "solve", "network.solve", None, self._solve_exit)
        self._wrap(device, "resistance_array", "device.resistance")
        self._wrap(device, "step_array", "device.step", self._step_enter, self._step_exit)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr, layer, enter=None, leave=None):
        original = getattr(owner, attr)
        kind_id = len(self.names)
        self.names.append(f"{layer}:{attr}")
        kind, parent, op, start, end, stack = (
            self.kind, self.parent, self.op, self.start, self.end, self._stack)
        perf_counter = time.perf_counter

        @functools.wraps(original)
        def span(*args, **kwargs):
            ctx = enter(args) if enter else None
            idx = len(start)
            kind.append(kind_id)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if leave:
                    leave(ctx, args, kwargs)

        setattr(owner, attr, span)
        self._patches.append((owner, attr, original))

    # -- per-call bookkeeping ------------------------------------------------

    def _sim_enter(self, args):
        ctx = {"rows": 0, "z": [], "last_z": None}
        self._sims.append(ctx)
        return ctx

    def _sim_exit(self, ctx, args, kwargs):
        self._sims.pop()
        rows = ctx["rows"]
        if not rows:
            return
        blocks = [np.broadcast_to(z, (rows, z.shape[-1])) for z in ctx["z"]]
        distinct = np.unique(np.hstack(blocks), axis=0).shape[0] if blocks else rows
        self.sim_rows.append((rows, distinct))

    def _solve_exit(self, ctx, args, kwargs):
        g = args[1] if len(args) > 1 else kwargs.get("device_conductances")
        z = args[2] if len(args) > 2 else kwargs.get("z")
        rows = int(np.prod(np.shape(g)[:-1]))
        self.solve_rows += rows
        if self._sims:
            sim = self._sims[-1]
            sim["rows"] = max(sim["rows"], rows)
            # One right-hand side per phase: a new object marks a new phase.
            if z is not None and z is not sim["last_z"]:
                sim["last_z"] = z
                sim["z"].append(np.asarray(z))

    def _step_enter(self, args):
        return args[0].copy()

    def _step_exit(self, before, args, kwargs):
        if not np.array_equal(before, args[0]):
            self.steps_changed += 1

    # -- output --------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "kind": np.array(self.kind, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def report(self, n_ops):
        """Per-layer numbers, per traced op unless the name says otherwise."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        layer_of = np.array([n.split(":")[0] for n in self.names])
        span_layer = layer_of[a["kind"]]

        def self_time(layer):
            return float(self_s[span_layer == layer].sum()) / n_ops

        def calls(layer):
            return int((span_layer == layer).sum())

        n_sims = len(self.sim_rows)
        rows = sum(r for r, _ in self.sim_rows)
        distinct = sum(d for _, d in self.sim_rows)
        solve_s = self_s[span_layer == "network.solve"].sum()
        n_steps = calls("device.step")
        return {
            "cli.self_s": self_time("cli"),
            "config.self_s": self_time("config"),
            "encoder.calls": calls("encoder") / n_ops,
            "encoder.self_s": self_time("encoder"),
            "controller.sim_calls": n_sims / n_ops,
            "controller.rows_per_call": rows / n_sims if n_sims else 0.0,
            "controller.unique_row_ratio": distinct / rows if rows else 0.0,
            "controller.self_s": self_time("controller"),
            "network.template_builds": calls("network.template") / n_ops,
            "network.template_s": self_time("network.template"),
            "network.solve_calls": calls("network.solve") / n_ops,
            "network.solve_rows": self.solve_rows / n_ops,
            "network.solve_s": self_time("network.solve"),
            "network.solve_us_per_row": (float(solve_s) / self.solve_rows * 1e6
                                         if self.solve_rows else 0.0),
            "device.step_calls": n_steps / n_ops,
            "device.step_s": self_time("device.step"),
            "device.resistance_s": self_time("device.resistance"),
            "device.active_step_ratio": self.steps_changed / n_steps if n_steps else 0.0,
        }
