"""Simulator configuration: one JSON document, every field defaulted.

The empty document {} is the defaults; no file, or a blank one, reads as {}.
It is the reference experiment: the three-sub-cell cell with the default
device parameters (not fitted to the reference levels), the standard bin
table, and the standard cycle timing. Sections mirror the module types:

    {
      "device":   {"r_on": ..., "v_th_pos": 0.3, ...},
      "topology": {"r_series": 500, "read_series_ohms": 0, ...},
      "encoder":  {"bins": [[0.0, 0.3, "222"], ...], "sum_r2": 20000, ...},
      "cycle":    {"v_reset": 4.0, "dt": 5e-7, ...},
      "noise":    {"source_noise_sigma": 0.0, "rng_seed": 0}
    }

Unknown keys anywhere are an error (reported with their full path), and
JSON syntax errors surface with line/column. The resolved configuration
hashes deterministically, so written-out defaults and an empty file
produce the same hash.
"""

import dataclasses
import hashlib
import json
import math

from . import controller as ctl
from . import device as dev
from . import encoder as enc
from . import network as net


class ConfigError(Exception):
    """Configuration file failed to parse or referenced unknown/invalid fields."""


@dataclasses.dataclass
class SimConfig:
    params: dev.MemristorParams
    topology: net.CellTopology
    table: enc.BinTable
    enc_cfg: enc.EncoderConfig
    cycle: ctl.CycleConfig
    noise: ctl.NoiseConfig

    def make_cell(self):
        return ctl.make_cell(self.topology, self.params)

    def resolved(self):
        """Fully-defaulted plain-dict form, suitable for hashing/manifests."""
        doc = {name: {f.name: getattr(part, f.name) for f in dataclasses.fields(part)}
               for name, part in (("device", self.params), ("topology", self.topology),
                                  ("encoder", self.enc_cfg), ("cycle", self.cycle),
                                  ("noise", self.noise))}
        doc["encoder"]["bins"] = [[row.a1, row.a2, str(row.code)] for row in self.table.rows]
        return doc


def _section(data, name):
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    return section


def _take(section, path, known):
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown key {path}.{sorted(unknown)[0]}")


def _build(cls, section, path):
    _take(section, path, [f.name for f in dataclasses.fields(cls)])
    try:
        return cls(**section)
    except (ValueError, TypeError, net.InvalidTopology) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_encoder(section):
    table = enc.DEFAULT_BIN_TABLE
    if "bins" in section:
        try:
            rows = []
            for entry in section["bins"]:
                a1, a2, code = entry
                rows.append(enc.BinRow(float(a1), float(a2),
                                       enc.TernaryCode.from_string(str(code))))
            table = enc.BinTable(tuple(rows))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"encoder.bins: {exc}") from None
    section = {k: v for k, v in section.items() if k != "bins"}
    cfg = _build(enc.EncoderConfig, section, "encoder")
    return table, cfg


def _reject_constant(name):
    """JSON parse hook for NaN / Infinity / -Infinity, which no field accepts."""
    raise ConfigError(f"non-finite number {name} is not allowed in a config")


def _finite(convert):
    """JSON parse hook for number literals, rejecting one that overflows a float."""
    def parse(text):
        if not math.isfinite(float(text)):
            raise ConfigError(f"number {text} overflows a float")
        return convert(text)
    return parse


def _reject_booleans(value, path):
    """Raise ConfigError at the first true or false in a parsed document; no field takes one."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: {json.dumps(value)} is not allowed in a config; "
                          "no field takes a boolean")
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _reject_booleans(item, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}")


def load_config(path=None) -> SimConfig:
    """Load a config file; None or a blank file reads as {}, the defaults."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text.strip() or "{}", parse_constant=_reject_constant,
                          parse_float=_finite(float), parse_int=_finite(int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _take(data, "config", ("device", "topology", "encoder", "cycle", "noise"))
    for name, section in data.items():
        _reject_booleans(section, name)

    params = _build(dev.MemristorParams, _section(data, "device"), "device")
    topology = _build(net.CellTopology, _section(data, "topology"), "topology")
    table, enc_cfg = _parse_encoder(_section(data, "encoder"))
    cycle = _build(ctl.CycleConfig, _section(data, "cycle"), "cycle")
    noise = _build(ctl.NoiseConfig, _section(data, "noise"), "noise")
    return SimConfig(params, topology, table, enc_cfg, cycle, noise)


def config_hash(config: SimConfig) -> str:
    """Stable hash of the fully-resolved configuration."""
    canonical = json.dumps(config.resolved(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
