"""Run configuration: a single versioned JSON document.

The module only maps the document onto the model records and back.
The schema is strict: unknown keys are rejected with the offending key
named, every mode carries exactly one of beta or lambda (lambda is
converted once on load) and exactly one of omega or material.  Model
rules stay with the model: parse_config builds the template once, which
checks labels and couplings, and fit names go through
fitting.resolve_parameter, all surfacing as ConfigError.  A fit block
naming both aliases of a coupling loads; FitProblem rejects it.
Writing is canonical (sorted keys, two-space indent, trailing newline)
so a write - read - write cycle is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import KittelMaterial, ModeSpec, lambda_to_beta
from .dataio import read_text
from .errors import ConfigError, DataFormatError, InvalidSystem, NegativeCoupling
from .fitting import resolve_parameter
from .sweep import SystemTemplate, TemplateMagnon, ThicknessModel
from .synth import NoiseSpec

SCHEMA_VERSION = 1


def _expect_keys(obj: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected a key/value table, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(map(repr, unknown))}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{context}: missing key(s) {', '.join(map(repr, missing))}")


def _finite(value) -> float | None:
    """A JSON number as a finite float, or None (booleans, other types,
    non-finite values and integers too large for a float).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number(obj: dict, context: str, key: str) -> float:
    value = _finite(obj[key])
    if value is None:
        raise ConfigError(f"{context}: {key!r} must be a finite number, got {obj[key]!r}")
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: count points from start to stop inclusive."""

    start: float
    stop: float
    count: int

    def to_array(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class FitConfig:
    method: str  # "map" or "branches"
    free: tuple[dict, ...]  # raw parameter entries, resolved by the CLI
    n_ridges: int | None
    min_separation: float | None


@dataclass(frozen=True)
class ThicknessConfig:
    model: ThicknessModel
    thicknesses: tuple[float, ...]
    crosslink_slope: float
    crosslink_intercept: float
    varied: str
    linked: str | None


@dataclass(frozen=True)
class RunConfig:
    version: int
    modes: tuple[ModeSpec | TemplateMagnon, ...]  # in file order
    couplings: tuple[tuple[str, str, float], ...]
    field_grid: GridSpec
    freq_grid: GridSpec
    noise: NoiseSpec | None
    fit: FitConfig | None
    thickness: ThicknessConfig | None
    display_scale: float

    def template(self) -> SystemTemplate:
        return _template(self.modes, self.couplings)

    def material_modes(self) -> dict[str, KittelMaterial]:
        return {m.label: m.material for m in self.modes if isinstance(m, TemplateMagnon)}


def _template(modes, couplings) -> SystemTemplate:
    """Sweepable template: the resonator (the one ModeSpec), the rest magnons."""
    resonator = next(m for m in modes if isinstance(m, ModeSpec))
    magnons = tuple(m for m in modes if isinstance(m, TemplateMagnon))
    table = {}
    for a, b, g in couplings:  # the template sees a pair repeated as written only once
        if table.setdefault((a, b), g) != g:
            raise InvalidSystem(f"coupling pair {(min(a, b), max(a, b))} given twice with different values")
    return SystemTemplate(resonator=resonator, magnons=magnons, couplings=table)


# ── Parsing ────────────────────────────────────────────────────────────


def _parse_mode(entry: dict, context: str) -> ModeSpec | TemplateMagnon:
    """The resonator as a ModeSpec, a magnon as a TemplateMagnon."""
    _expect_keys(entry, context, ("label", "alpha"), ("beta", "lambda", "omega", "material"))
    label = entry["label"]
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{context}: 'label' must be a nonempty string")
    alpha = _number(entry, context, "alpha")
    has_beta, has_lambda = "beta" in entry, "lambda" in entry
    if has_beta == has_lambda:
        raise ConfigError(f"{context}: give exactly one of 'beta' or 'lambda'")
    beta = _number(entry, context, "beta") if has_beta else lambda_to_beta(_number(entry, context, "lambda"))
    has_omega, has_material = "omega" in entry, "material" in entry
    if has_omega == has_material:
        raise ConfigError(f"{context}: give exactly one of 'omega' or 'material'")
    if has_omega:
        return ModeSpec(label=label, omega=_number(entry, context, "omega"), alpha=alpha, beta=beta)
    raw = entry["material"]
    _expect_keys(raw, f"{context}.material", ("gamma", "four_pi_m"))
    material = KittelMaterial(gamma=_number(raw, f"{context}.material", "gamma"),
                              four_pi_m=_number(raw, f"{context}.material", "four_pi_m"))
    return TemplateMagnon(label=label, alpha=alpha, beta=beta, material=material)


def _parse_grid(entry: dict, context: str) -> GridSpec:
    _expect_keys(entry, context, ("start", "stop", "count"))
    start = _number(entry, context, "start")
    stop = _number(entry, context, "stop")
    count = entry["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"{context}: 'count' must be an integer >= 1, got {count!r}")
    if count > np.iinfo(np.intp).max:  # np.linspace could not size the grid
        raise ConfigError(f"{context}: 'count' must be at most {np.iinfo(np.intp).max}, got {count!r}")
    if count == 1:
        if start != stop:
            raise ConfigError(f"{context}: a single-point grid needs start == stop")
    elif not start < stop:
        raise ConfigError(f"{context}: 'start' must be below 'stop'")
    return GridSpec(start=start, stop=stop, count=count)


def _parse_fit(entry: dict, template: SystemTemplate) -> FitConfig:
    _expect_keys(entry, "fit", ("method", "free"), ("n_ridges", "min_separation"))
    method = entry["method"]
    if method not in ("map", "branches"):
        raise ConfigError(f"fit: 'method' must be 'map' or 'branches', got {method!r}")
    raw_free = entry["free"]
    if not isinstance(raw_free, list):
        raise ConfigError("fit: 'free' must be a list of parameter entries")
    for k, item in enumerate(raw_free):
        _expect_keys(item, f"fit.free[{k}]", ("name", "lower", "upper"), ("initial",))
        name = item["name"]
        if not isinstance(name, str):
            raise ConfigError(f"fit.free[{k}]: 'name' must be a string")
        try:
            resolve_parameter(template, name)
        except InvalidSystem as exc:
            raise ConfigError(f"fit.free[{k}]: {exc}") from None
        _number(item, f"fit.free[{k}]", "lower")
        _number(item, f"fit.free[{k}]", "upper")
        if "initial" in item:
            _number(item, f"fit.free[{k}]", "initial")
    n_ridges = entry.get("n_ridges")
    if n_ridges is not None and (isinstance(n_ridges, bool) or not isinstance(n_ridges, int) or n_ridges < 1):
        raise ConfigError(f"fit: 'n_ridges' must be an integer >= 1, got {n_ridges!r}")
    min_separation = None
    if "min_separation" in entry:
        min_separation = _number(entry, "fit", "min_separation")
        if min_separation <= 0:
            raise ConfigError("fit: 'min_separation' must be > 0")
    return FitConfig(method=method, free=tuple(dict(item) for item in raw_free),
                     n_ridges=n_ridges, min_separation=min_separation)


def _parse_thickness(entry: dict, template: SystemTemplate) -> ThicknessConfig:
    _expect_keys(entry, "thickness",
                 ("slope", "intercept", "t_min", "t_max", "thicknesses", "crosslink", "varied"),
                 ("linked",))
    model = ThicknessModel(slope=_number(entry, "thickness", "slope"),
                           intercept=_number(entry, "thickness", "intercept"),
                           t_min=_number(entry, "thickness", "t_min"),
                           t_max=_number(entry, "thickness", "t_max"))
    raw_t = entry["thicknesses"]
    if not isinstance(raw_t, list) or not raw_t:
        raise ConfigError("thickness: 'thicknesses' must be a nonempty list")
    thicknesses = []
    for value in raw_t:
        number = _finite(value)
        if number is None:
            raise ConfigError(f"thickness: bad thickness value {value!r}")
        thicknesses.append(number)
    crosslink = entry["crosslink"]
    _expect_keys(crosslink, "thickness.crosslink", ("slope", "intercept"))
    varied = entry["varied"]
    linked = entry.get("linked")
    try:
        for name in (varied, linked) if linked is not None else (varied,):
            template.magnon(name)
    except InvalidSystem as exc:
        raise ConfigError(f"thickness: {exc}") from None
    return ThicknessConfig(
        model=model,
        thicknesses=tuple(thicknesses),
        crosslink_slope=_number(crosslink, "thickness.crosslink", "slope"),
        crosslink_intercept=_number(crosslink, "thickness.crosslink", "intercept"),
        varied=varied,
        linked=linked,
    )


def parse_config(document: str) -> RunConfig:
    """RunConfig from JSON text; every schema violation is a ConfigError."""
    try:
        raw = json.loads(document)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"not valid JSON: {exc}") from None
    _expect_keys(raw, "config", ("version", "modes", "couplings", "field_grid", "freq_grid"),
                 ("noise", "fit", "thickness", "display_scale"))
    version = raw["version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config: unsupported version {version!r} (this build reads {SCHEMA_VERSION})")
    raw_modes = raw["modes"]
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ConfigError("config: 'modes' must be a nonempty list")
    try:
        modes = tuple(_parse_mode(m, f"modes[{k}]") for k, m in enumerate(raw_modes))
        fixed = [m for m in modes if isinstance(m, ModeSpec)]
        if len(fixed) != 1:
            raise ConfigError(f"config: exactly one fixed-frequency mode required, got {len(fixed)}")
        raw_couplings = raw["couplings"]
        if not isinstance(raw_couplings, list):
            raise ConfigError("config: 'couplings' must be a list")
        couplings = []
        for k, item in enumerate(raw_couplings):
            _expect_keys(item, f"couplings[{k}]", ("pair", "g"))
            pair = item["pair"]
            if (not isinstance(pair, list) or len(pair) != 2
                    or any(not isinstance(x, str) for x in pair)):
                raise ConfigError(f"couplings[{k}]: 'pair' must be two mode labels")
            couplings.append((pair[0], pair[1], _number(item, f"couplings[{k}]", "g")))
        template = _template(modes, couplings)
        noise = None
        if "noise" in raw:
            _expect_keys(raw["noise"], "noise", ("sigma", "seed"))
            seed = raw["noise"]["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ConfigError(f"noise: 'seed' must be an integer, got {seed!r}")
            noise = NoiseSpec(sigma=_number(raw["noise"], "noise", "sigma"), seed=seed)
        fit = _parse_fit(raw["fit"], template) if "fit" in raw else None
        thickness = _parse_thickness(raw["thickness"], template) if "thickness" in raw else None
        display_scale = 1.0
        if "display_scale" in raw:
            display_scale = _number(raw, "config", "display_scale")
            if display_scale <= 0:
                raise ConfigError("config: 'display_scale' must be > 0")
        config = RunConfig(version=version, modes=modes, couplings=tuple(couplings),
                           field_grid=_parse_grid(raw["field_grid"], "field_grid"),
                           freq_grid=_parse_grid(raw["freq_grid"], "freq_grid"),
                           noise=noise, fit=fit, thickness=thickness, display_scale=display_scale)
    except (InvalidSystem, NegativeCoupling) as exc:
        raise ConfigError(str(exc)) from None
    return config


def load_config(path) -> RunConfig:
    try:
        text = read_text(path)
    except DataFormatError as exc:  # not UTF-8
        raise ConfigError(str(exc)) from None
    return parse_config(text)


# ── Canonical writing ──────────────────────────────────────────────────


def config_to_dict(config: RunConfig) -> dict:
    out: dict = {
        "version": config.version,
        "display_scale": config.display_scale,
        "modes": [asdict(mode) for mode in config.modes],
        "couplings": [{"pair": [a, b], "g": g} for a, b, g in config.couplings],
        "field_grid": asdict(config.field_grid),
        "freq_grid": asdict(config.freq_grid),
    }
    if config.noise is not None:
        out["noise"] = asdict(config.noise)
    if config.fit is not None:  # n_ridges and min_separation are None when absent
        out["fit"] = {k: v for k, v in asdict(config.fit).items() if v is not None}
    if config.thickness is not None:
        t = config.thickness
        block = {**asdict(t.model), "thicknesses": list(t.thicknesses), "varied": t.varied,
                 "linked": t.linked,
                 "crosslink": {"slope": t.crosslink_slope, "intercept": t.crosslink_intercept}}
        out["thickness"] = {k: v for k, v in block.items() if v is not None}  # linked is optional
    return out


def dump_config(config: RunConfig) -> str:
    """Canonical JSON text (sorted keys, two-space indent, newline end)."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
