"""Run configuration: a single versioned JSON document.

The module only maps the document onto the model records and back, and
checks only its shape.  The schema is strict: unknown keys are rejected
with the offending key named, every mode carries exactly one of beta or
lambda (lambda is converted once on load) and exactly one of omega or
material.  Model rules stay with the model: each number a record owns
goes to it unchecked (the records check every scalar through
core._real), parse_config builds the template once, which checks labels
and couplings and which RunConfig keeps for template() to return, the fit
block's FitProblem, which checks the whole box (fitting.ridge_option
checks n_ridges and min_separation), and the thickness block's
ThicknessSeries, which checks the thickness law, the thicknesses, the
crosslink, the magnon labels and every coupling of the series, all
surfacing as ConfigError.  Both blocks hold that same template.  _number
applies the same rule to the numbers no record owns: grid ends and
display_scale.
Writing is canonical (sorted keys, two-space indent, trailing newline)
so a write - read - write cycle is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import KittelMaterial, ModeSpec, _real, lambda_to_beta
from .dataio import read_text
from .errors import ConfigError, DataFormatError, InvalidSystem, NegativeCoupling
from .fitting import FitProblem, FreeParameter, ridge_option
from .sweep import SystemTemplate, TemplateMagnon, ThicknessSeries
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


def _number(obj: dict, context: str, key: str, bound: str = "") -> float:
    """core._real of a number that no model record owns."""
    return _real(obj[key], f"{context}: {key!r}", bound)


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
    problem: FitProblem  # initial None where the config gives none
    n_ridges: int | None
    min_separation: float | None


@dataclass(frozen=True)
class RunConfig:
    version: int
    modes: tuple[ModeSpec | TemplateMagnon, ...]  # in file order
    couplings: tuple[tuple[str, str, float], ...]
    field_grid: GridSpec
    freq_grid: GridSpec
    noise: NoiseSpec | None
    fit: FitConfig | None
    thickness: ThicknessSeries | None
    display_scale: float
    model: SystemTemplate = field(repr=False, compare=False)  # built once, by parse_config

    def template(self) -> SystemTemplate:
        return self.model

    def material_modes(self) -> dict[str, KittelMaterial]:
        return {m.label: m.material for m in self.model.magnons}


# ── Parsing ────────────────────────────────────────────────────────────


def _parse_mode(entry: dict, context: str) -> ModeSpec | TemplateMagnon:
    """The resonator as a ModeSpec, a magnon as a TemplateMagnon.  A
    number the records reject is reported with the mode's context."""
    _expect_keys(entry, context, ("label", "alpha"), ("beta", "lambda", "omega", "material"))
    label = entry["label"]
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{context}: 'label' must be a nonempty string")
    if ("beta" in entry) == ("lambda" in entry):
        raise ConfigError(f"{context}: give exactly one of 'beta' or 'lambda'")
    if ("omega" in entry) == ("material" in entry):
        raise ConfigError(f"{context}: give exactly one of 'omega' or 'material'")
    try:
        beta = entry["beta"] if "beta" in entry else lambda_to_beta(entry["lambda"])
        if "omega" in entry:
            return ModeSpec(label=label, omega=entry["omega"], alpha=entry["alpha"], beta=beta)
        _expect_keys(entry["material"], f"{context}.material", ("gamma", "four_pi_m"))
        return TemplateMagnon(label=label, alpha=entry["alpha"], beta=beta,
                              material=KittelMaterial(**entry["material"]))
    except InvalidSystem as exc:
        raise ConfigError(f"{context}: {exc}") from None


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
    free = []
    for k, item in enumerate(raw_free):
        _expect_keys(item, f"fit.free[{k}]", ("name", "lower", "upper"), ("initial",))
        if item.get("initial", 0.0) is None:  # None is a FreeParameter's "not given"
            raise ConfigError(f"fit.free[{k}]: 'initial' must be a finite real, got None")
        try:
            free.append(FreeParameter(**item))
        except InvalidSystem as exc:
            raise ConfigError(f"fit.free[{k}]: {exc}") from None
    try:
        problem = FitProblem(template, tuple(free))
        options = {key: ridge_option(key, entry[key])
                   for key in ("n_ridges", "min_separation") if key in entry}
    except InvalidSystem as exc:
        raise ConfigError(f"fit: {exc}") from None
    return FitConfig(method=method, problem=problem, n_ridges=options.get("n_ridges"),
                     min_separation=options.get("min_separation"))


def _parse_thickness(entry: dict, template: SystemTemplate) -> ThicknessSeries:
    _expect_keys(entry, "thickness",
                 ("slope", "intercept", "t_min", "t_max", "thicknesses", "crosslink", "varied"),
                 ("linked",))
    raw_t = entry["thicknesses"]
    if not isinstance(raw_t, list) or not raw_t:
        raise ConfigError("thickness: 'thicknesses' must be a nonempty list")
    crosslink = entry["crosslink"]
    _expect_keys(crosslink, "thickness.crosslink", ("slope", "intercept"))
    try:
        return ThicknessSeries(template, entry["slope"], entry["intercept"], entry["t_min"],
                               entry["t_max"], tuple(raw_t), crosslink["slope"],
                               crosslink["intercept"], entry["varied"], entry.get("linked"))
    except (InvalidSystem, NegativeCoupling) as exc:
        raise ConfigError(f"thickness: {exc}") from None


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
            couplings.append((pair[0], pair[1], item["g"]))
        magnons = tuple(m for m in modes if isinstance(m, TemplateMagnon))
        template = SystemTemplate(fixed[0], magnons, [((a, b), g) for a, b, g in couplings])
        couplings = [(a, b, template.coupling(a, b)) for a, b, _ in couplings]  # g as a float
        noise = None
        if "noise" in raw:
            _expect_keys(raw["noise"], "noise", ("sigma", "seed"))
            noise = NoiseSpec(**raw["noise"])
        fit = _parse_fit(raw["fit"], template) if "fit" in raw else None
        thickness = _parse_thickness(raw["thickness"], template) if "thickness" in raw else None
        display_scale = 1.0
        if "display_scale" in raw:
            display_scale = _number(raw, "config", "display_scale", "> 0")
        config = RunConfig(version=version, modes=modes, couplings=tuple(couplings),
                           field_grid=_parse_grid(raw["field_grid"], "field_grid"),
                           freq_grid=_parse_grid(raw["freq_grid"], "freq_grid"),
                           noise=noise, fit=fit, thickness=thickness, display_scale=display_scale,
                           model=template)
    except InvalidSystem as exc:
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
    if config.fit is not None:  # n_ridges, min_separation and initials are None when absent
        fit = config.fit
        block = {"method": fit.method, "n_ridges": fit.n_ridges, "min_separation": fit.min_separation,
                 "free": [{k: v for k, v in asdict(p).items() if v is not None}
                          for p in fit.problem.free]}
        out["fit"] = {k: v for k, v in block.items() if v is not None}
    if config.thickness is not None:
        t = config.thickness
        block = {"slope": t.slope, "intercept": t.intercept, "t_min": t.t_min, "t_max": t.t_max,
                 "thicknesses": list(t.thicknesses), "varied": t.varied, "linked": t.linked,
                 "crosslink": {"slope": t.crosslink_slope, "intercept": t.crosslink_intercept}}
        out["thickness"] = {k: v for k, v in block.items() if v is not None}  # linked is optional
    return out


def dump_config(config: RunConfig) -> str:
    """Canonical JSON text (sorted keys, two-space indent, newline end)."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
