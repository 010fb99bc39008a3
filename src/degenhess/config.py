"""Run descriptions: a line-oriented key = value grammar with one [base]
section, strict validation with line numbers, and a canonical serializer
whose output parses back to the same config.

Top-level keys: n, k, p, alpha, eps and J are required; the rest default
to the RunConfig fields of the same names. The four stage-driver keys
(tau, seed, quad_points, node_budget) take their defaults from
StairConfig, so a config that names none of them runs exactly like
StairConfig(). The run keys are box_lo and box_hi (the unit box, which
RunConfig fills from n) and out_dir (runs/out). Any other key is an
unknown key.
The [base] section appears once and needs a family key; every other
entry is passed to the base builder, scalars as floats, space-separated
rows as vectors, semicolon-separated rows as matrices. A key given twice,
at the top level or inside [base], is an error.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from degenhess.fields import Box, ScalarFieldC2, make_base
from degenhess.staircase import StairConfig


class ConfigError(ValueError):
    """Parse or validation failure; message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_INT_KEYS = ("n", "k", "J", "seed", "quad_points", "node_budget")
_FLOAT_KEYS = ("p", "alpha", "eps", "tau")
_STR_KEYS = ("out_dir",)
_VEC_KEYS = ("box_lo", "box_hi")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS + _VEC_KEYS
_REQUIRED = ("n", "k", "p", "alpha", "eps", "J")


@dataclass(frozen=True, eq=True)
class BaseSpec:
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    n: int
    k: int
    p: float
    alpha: float
    eps: float
    J: int
    base: BaseSpec
    tau: float | None = StairConfig.tau
    seed: int = StairConfig.seed
    box_lo: tuple = ()
    box_hi: tuple = ()
    quad_points: int = StairConfig.quad_points
    node_budget: int = StairConfig.node_budget
    out_dir: str = "runs/out"

    def __post_init__(self):
        # an unset box is the unit box in n dimensions
        if not self.box_lo:
            object.__setattr__(self, "box_lo", (0.0,) * self.n)
        if not self.box_hi:
            object.__setattr__(self, "box_hi", (1.0,) * self.n)

    def stair_config(self):
        return StairConfig(
            **{f.name: getattr(self, f.name) for f in fields(StairConfig)}
        )

    def build_field(self):
        base = make_base(self.base.family, self.base.params, self.n)
        return ScalarFieldC2(base, Box(self.box_lo, self.box_hi))


def _strip(line):
    # '#' starts a comment anywhere on the line
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _parse_scalar(tok, line):
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"cannot parse number '{tok}'", line) from None


def _parse_param_value(text, line):
    if ";" in text:
        rows = [r.strip() for r in text.split(";")]
        mat = [[_parse_scalar(t, line) for t in r.split()] for r in rows if r]
        if len({len(r) for r in mat}) > 1:
            raise ConfigError("matrix rows must have equal length", line)
        return mat
    toks = text.split()
    if len(toks) > 1:
        return [_parse_scalar(t, line) for t in toks]
    return _parse_scalar(toks[0], line) if toks else None


def _parse_int(text, key, line):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected integer for '{key}'", line) from None


def _parse_float(text, key, line):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected number for '{key}'", line) from None


def parse_config(text):
    """Parse and validate a run description, first error wins."""
    raw = {}
    lines = {}
    base_family = None
    base_params = {}
    base_line = None
    base_lines = {}
    section = None
    for no, src in enumerate(text.splitlines(), start=1):
        line = _strip(src)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != "base":
                raise ConfigError(f"unknown section '[{name}]'", no)
            if section == "base":
                raise ConfigError("duplicate section '[base]'", no)
            section = "base"
            base_line = no
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("expected key = value", no)
        if section == "base":
            if key in base_lines:
                raise ConfigError(f"duplicate key '{key}' in [base]", no)
            base_lines[key] = no
            if key == "family":
                base_family = value
            else:
                if not value:
                    raise ConfigError(f"empty value for '{key}'", no)
                base_params[key] = _parse_param_value(value, no)
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'", no)
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'", no)
        lines[key] = no
        if key in _INT_KEYS:
            raw[key] = _parse_int(value, key, no)
        elif key in _FLOAT_KEYS:
            raw[key] = _parse_float(value, key, no)
        elif key in _VEC_KEYS:
            raw[key] = tuple(_parse_scalar(t, no) for t in value.split())
        else:
            if not value:
                raise ConfigError(f"empty value for '{key}'", no)
            raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
    if base_family is None:
        raise ConfigError("missing [base] section with a family key", base_line)

    def fail(msg, key):
        raise ConfigError(msg, lines.get(key))

    n, k, p = raw["n"], raw["k"], raw["p"]
    vals = {f.name: f.default for f in fields(RunConfig)
            if f.default is not MISSING}
    vals.update(raw)
    cfg = RunConfig(base=BaseSpec(base_family, dict(base_params)), **vals)
    if not 2 <= k <= n <= 3:
        fail("requires 2 <= k <= n <= 3", "k" if k < 2 or k > n else "n")
    if p < 1.0:
        fail("requires 1 <= p", "p")
    if p >= k:
        fail("requires p < k", "p")
    if not 0.0 < vals["alpha"] < 1.0:
        fail("alpha must lie in (0,1)", "alpha")
    if vals["eps"] <= 0.0:
        fail("eps must be positive", "eps")
    if vals["J"] < 1:
        fail("J must be a positive integer", "J")
    if vals["tau"] is not None and not 0.0 < vals["tau"] < 1.0:
        fail("tau must lie in (0,1)", "tau")
    for key in _VEC_KEYS:
        if key in raw and len(raw[key]) != n:
            fail(f"{key} needs {n} entries", key)
    if any(h <= l for l, h in zip(cfg.box_lo, cfg.box_hi)):
        fail("box_hi must exceed box_lo per axis", "box_hi")
    if vals["quad_points"] < 2:
        fail("quad_points must be at least 2", "quad_points")
    if vals["node_budget"] < 1:
        fail("node_budget must be positive", "node_budget")

    try:
        cfg.build_field()
    except (ValueError, TypeError) as exc:
        where = base_lines.get("family", base_line)
        raise ConfigError(str(exc), where) from None
    return cfg


def _fmt_num(v):
    if isinstance(v, int):
        return str(v)
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e16 else repr(f)


def _fmt_param(v):
    if isinstance(v, str):
        return v
    if isinstance(v, list) and v and isinstance(v[0], list):
        return "; ".join(" ".join(_fmt_num(x) for x in row) for row in v)
    if isinstance(v, (list, tuple)):
        return " ".join(_fmt_num(x) for x in v)
    return _fmt_num(v)


def serialize_config(cfg):
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Keys follow the RunConfig field order; tau is left out when unset.
    """
    out = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if f.name == "base" or v is None:
            continue
        out.append(f"{f.name} = {_fmt_param(v)}")
    out.extend(["", "[base]", f"family = {cfg.base.family}"])
    for key in sorted(cfg.base.params):
        out.append(f"{key} = {_fmt_param(cfg.base.params[key])}")
    return "\n".join(out) + "\n"
