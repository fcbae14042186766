"""Command-line front end: encode, sweep, temp-study and calibrate.

Every command that writes files also drops a `<output>.manifest.json` next
to each output carrying the resolved config hash, the seed, the tool
version and a timestamp, so runs can be traced back to their inputs. With
a fixed config and seed the data outputs are byte-identical across runs.
A command checks that it can write each output and its manifest, and
that no two of them name one file, before it simulates.

Exit codes: 0 success, 1 domain or configuration error, 2 simulation error
(singular network, non-quiescent read, failed calibration).
"""

import argparse
import contextlib
import csv
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from . import controller as ctl
from . import encoder as enc
from . import network as net
from .config import ConfigError, config_hash, load_config

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SIMULATION = 2


def _resolve_seed(args, sim):
    """The --seed flag, or else the config's noise.rng_seed."""
    return sim.noise.rng_seed if args.seed is None else args.seed


def _write_manifest(out_path, sim, seed):
    manifest = {
        "config_hash": config_hash(sim),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(f"{out_path}.manifest.json", manifest)


@contextlib.contextmanager
def _output(path, mode="w", **open_args):
    """An output file open for writing, its directory created first.

    Any OSError while creating or writing it (a directory in its place, a
    parent that cannot be made, a full disk) becomes a ConfigError that
    names the path.
    """
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, mode, encoding="utf-8", **open_args) as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(*outputs):
    """Raise the ConfigError that writing an output or its manifest would.

    Two of those paths that resolve to one file are an error too: the later
    write would replace the earlier. Each path is opened for appending,
    which leaves an existing file as it is; a file that the check creates
    is removed again.
    """
    paths = [p for out in outputs for p in (out, f"{out}.manifest.json")]
    resolved = [os.path.realpath(p) for p in paths]
    for k, path in enumerate(resolved):
        if path in resolved[:k]:
            raise ConfigError(f"{paths[resolved.index(path)]} and {paths[k]} are the "
                              "same file; give each output its own path")
    for path in paths:
        existed = os.path.lexists(path)
        with _output(path, mode="a"):
            pass
        if not existed:
            os.remove(path)


def _write_json(path, document):
    with _output(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path, header, rows):
    with _output(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value):
    return f"{value:.9e}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args):
    sim = load_config(args.config)
    code = enc.encode_behavioral(args.v_in, sim.table)
    ideal = enc.code_to_write_voltages(code)
    structural = enc.encode_structural(args.v_in, sim.table, sim.enc_cfg)
    quantized = enc.quantize_pattern(structural)
    print(f"{code} -> " + " ".join(f"{v:g}V" for v in ideal.port_voltages))
    print("structural: "
          + " ".join(f"{v:.3f}V" for v in structural.port_voltages)
          + f" (quantized {quantized})")
    return EXIT_OK


def cmd_sweep(args):
    sim = load_config(args.config)
    seed = _resolve_seed(args, sim)
    noise = ctl.NoiseConfig(sim.noise.source_noise_sigma, seed)
    structural = args.encoder == "structural"
    patterns_out = args.patterns_out or _derive_patterns_path(args.out)
    _check_writable(args.out, patterns_out)

    measurements = ctl.run_input_sweep(
        sim.make_cell(), args.encoder, sim.cycle, table=sim.table, enc_cfg=sim.enc_cfg,
        noise=noise)
    temp_c = sim.cycle.temperature - 273.15
    rows = [[f"{m.v_in:.6g}", str(m.code), f"{temp_c:.6g}", 0, _fmt(m.v_out)]
            for m in measurements]
    _write_csv(args.out, ["v_in", "code", "temp_C", "trial", "v_out"], rows)
    _write_manifest(args.out, sim, seed)

    header = ["v_in", "code", "v_w1", "v_w2", "v_w3"]
    pattern_rows = []
    for m in measurements:
        row = [f"{m.v_in:.6g}", str(m.code)] + [_fmt(v) for v in m.pattern.port_voltages]
        if structural:
            row.append(str(enc.quantize_pattern(m.pattern)))
        pattern_rows.append(row)
    if structural:
        header = header + ["code_quantized"]
    _write_csv(patterns_out, header, pattern_rows)
    _write_manifest(patterns_out, sim, seed)

    peak = max(m.peak_power for m in measurements)
    distinct = len({_fmt(m.v_out) for m in measurements})
    print(f"wrote {len(measurements)} sweep points to {args.out} "
          f"({distinct} distinct levels)")
    print(f"wrote write patterns to {patterns_out}")
    print(f"peak network source power over the sweep: {peak * 1e3:.3f} mW")
    return EXIT_OK


def _derive_patterns_path(out):
    root, ext = os.path.splitext(out)
    return f"{root}_patterns{ext or '.csv'}"


def cmd_temp_study(args):
    sim = load_config(args.config)
    seed = _resolve_seed(args, sim)
    temps = [float(t) for t in args.temps.split(",") if t.strip()]
    noise = ctl.NoiseConfig(sim.noise.source_noise_sigma, seed)
    _check_writable(args.out)
    stats = ctl.run_temperature_study(
        sim.make_cell(), temps_c=temps, trials=args.trials, noise=noise,
        cfg=sim.cycle, table=sim.table)
    rows = [[str(s.code), f"{s.temp_c:.6g}", _fmt(s.mean), _fmt(s.stdev)]
            for s in stats]
    _write_csv(args.out, ["code", "temp_C", "mean_V", "stdev_V"], rows)
    _write_manifest(args.out, sim, seed)

    print(f"wrote {len(rows)} rows to {args.out}")
    if len(temps) < 2:
        print("per-code mean drift across temperatures: needs two or more "
              "temperatures, no verdict")
        return EXIT_OK
    drift = 0.0
    for row in sim.table.rows:
        means = np.array([s.mean for s in stats if s.code == row.code])
        # relative to |mean|: a negative read gives negative levels
        drift = max(drift, (means.max() - means.min()) / abs(means.mean()))
    verdict = "within" if drift <= 0.01 else "OUTSIDE"
    print(f"max per-code mean drift across temperatures: {drift:.4%} "
          f"({verdict} the 1% bound)")
    return EXIT_OK


def _read_targets(path):
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            targets = []
            header_allowed = True
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) < 2:
                    raise ConfigError(f"{where}: expected code,v_out, got {','.join(row)!r}")
                try:
                    targets.append((row[0].strip(), float(row[1])))
                except ValueError:
                    if not header_allowed:
                        raise ConfigError(f"{where}: v_out {row[1]!r} is not a number") from None
                header_allowed = False  # only the first row may be a header
    except OSError as exc:
        raise ConfigError(f"cannot read targets {path}: {exc}") from None
    if not targets:
        raise ConfigError(f"no (code, v_out) rows found in {path}")
    return targets


def cmd_calibrate(args):
    sim = load_config(args.config)
    seed = _resolve_seed(args, sim)
    targets = _read_targets(args.targets)
    _check_writable(args.out)
    result = ctl.calibrate(
        targets, base_params=sim.params, base_topology=sim.topology,
        cfg=sim.cycle, table=sim.table,
        n_restarts=args.restarts, seed=seed, maxiter=args.maxiter)
    report = {
        "params": {
            "r_on": result.params.r_on,
            "r_off": result.params.r_off,
            "drift_rate": result.params.drift_rate,
            "v_th_pos": result.params.v_th_pos,
            "v_th_neg": result.params.v_th_neg,
        },
        "r_ground": result.topology.r_ground,
        "residual_initial": result.residual_initial,
        "residual_best": result.residual_best,
        "improvement": result.improvement,
        "inversions_vs_table_order": result.inversions,
        "ordering": list(result.ordering),
        "per_code": [
            {"code": c, "target_V": t, "achieved_V": a, "rel_error": r}
            for c, t, a, r in result.per_code
        ],
        "evaluations": result.n_evaluations,
    }
    _write_json(args.out, report)
    _write_manifest(args.out, sim, seed)
    print(f"residual {result.residual_initial:.4g} -> {result.residual_best:.4g} "
          f"({result.improvement:.1%} improvement), "
          f"{result.inversions} ordering inversions")
    worst = max(abs(r) for _, _, _, r in result.per_code)
    if worst > 0.20:
        print(f"note: worst per-code magnitude error {worst:.1%} exceeds 20%")
    print(f"wrote calibration report to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_DOMAIN."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def build_parser():
    # subparsers are built with the same class, so they exit the same way
    parser = _Parser(
        prog="mlmsim",
        description="Multi-level memristive memory cell simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode one input voltage to a write pattern")
    p.add_argument("v_in", type=float)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sweep", help="input sweep producing the level staircase")
    p.add_argument("--config", default=None)
    p.add_argument("--encoder", choices=("behavioral", "structural"),
                   default="behavioral")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--patterns-out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("temp-study", help="per-code statistics over temperatures")
    p.add_argument("--config", default=None)
    p.add_argument("--temps", default="20,30,40,50",
                   help="comma-separated temperatures in C; write a list that "
                        "starts with a negative value as --temps=-10,20")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="temp_study.csv")
    p.set_defaults(func=cmd_temp_study)

    p = sub.add_parser("calibrate", help="fit device/network parameters to targets")
    p.add_argument("--config", default=None)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", default="calibration.json")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--maxiter", type=int, default=150)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, enc.OutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (net.SingularNetwork, net.InvalidTopology, ctl.NonQuiescentRead,
            ctl.DegenerateLevels, ctl.CalibrationFailed) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
