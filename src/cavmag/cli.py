"""Command-line front end.

Subcommands: kittel, map, branches, fit, thickness, synth.  Exit codes:
0 success, 2 configuration or model error, 3 file I/O error, 4 fit did
not converge, 5 malformed data file.  Output files always store model
units; kittel's --freq-scale (or the config display_scale) only
rescales frequencies printed to the terminal.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .core import _real, kittel_frequency
from .dataio import (
    format_float,
    read_spectrum_csv,
    write_branches_csv,
    write_pgm,
    write_spectrum_csv,
    write_thickness_csv,
)
from .errors import CavmagError, ConfigError, DataFormatError, InvalidSystem
from .fitting import (
    FitProblem,
    FitResult,
    RidgeSet,
    coupling_guess_from_ridges,
    extract_ridges,
    fit_branches,
    fit_map,
    linear_regression,
)
from .sweep import compute_branches, compute_map, crossing_window, gap_at_crossing, thickness_sweep
from .synth import NoiseSpec, synth_map


def _parse_fields_list(text: str) -> list[float]:
    """--fields as floats; an empty list or an empty part is an error."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--fields expects comma-separated numbers, got {text!r}") from None


def _display_scale(config: RunConfig, args) -> float:
    """The scale of printed frequencies: --freq-scale, checked by the rule
    of the config's display_scale, else display_scale."""
    if args.freq_scale is None:
        return config.display_scale
    try:
        return _real(args.freq_scale, "--freq-scale", "> 0")
    except InvalidSystem as exc:
        raise ConfigError(str(exc)) from None


@contextmanager
def _grids_in_memory(config: RunConfig):
    """Turn a MemoryError met while sizing or filling the config grids
    into a ConfigError that names the grid sizes."""
    try:
        yield
    except MemoryError:
        raise ConfigError(
            f"field_grid ({config.field_grid.count} points) x freq_grid "
            f"({config.freq_grid.count} points) does not fit in memory") from None


def _heatmap_path(args) -> Path | None:
    """Where --heatmap writes: --out with the suffix .pgm, else None.

    ConfigError if that is --out itself, before anything is computed.  An
    --out with no name (such as "/") gets no heatmap: the spectrum CSV
    cannot be written there, and its error is the one reported.
    """
    out = Path(args.out)
    if args.heatmap and out.suffix == ".pgm":
        raise ConfigError(f"--out {args.out!r} is the file --heatmap writes; "
                          f"give --out a suffix other than .pgm")
    return out.with_suffix(".pgm") if args.heatmap and out.name else None


def _write_map(out, heatmap: Path | None, spectrum) -> None:
    """The heatmap, then the spectrum CSV: truncating an existing heatmap
    just after the CSV is closed would wait for the CSV's data to reach
    the disk (ext4's auto_da_alloc)."""
    if heatmap is not None:
        write_pgm(heatmap, spectrum)
    write_spectrum_csv(out, spectrum)


# ── Subcommands ────────────────────────────────────────────────────────


def cmd_kittel(args) -> int:
    config = load_config(args.config)
    scale = _display_scale(config, args)
    materials = config.material_modes()
    if args.material is not None:
        if args.material not in materials:
            raise ConfigError(f"unknown material mode {args.material!r}; "
                              f"choose from {sorted(materials)}")
        materials = {args.material: materials[args.material]}
    if not materials:
        raise ConfigError("config has no field-driven mode")
    with _grids_in_memory(config):
        fields = (_parse_fields_list(args.fields) if args.fields is not None
                  else list(config.field_grid.to_array()))
        rows = []
        for label, material in materials.items():
            for h in fields:
                rows.append((label, float(h), kittel_frequency(material, float(h), label)))
    for label, h, omega in rows:  # every scaled frequency is checked before any is printed
        if not np.isfinite(omega * scale):
            raise ConfigError(f"display scale {format_float(scale)} overflows the frequency "
                              f"of {label!r} at h={format_float(h)}")
    print("label h_oe omega")
    for label, h, omega in rows:
        print(f"{label} {format_float(h)} {format_float(omega * scale)}")
    if args.out is not None:
        lines = ["label,h_oe,omega"]
        lines += [f"{label},{format_float(h)},{format_float(omega)}" for label, h, omega in rows]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_map(args) -> int:
    heatmap = _heatmap_path(args)
    config = load_config(args.config)
    with _grids_in_memory(config):
        spectrum = compute_map(config.template(),
                               config.field_grid.to_array(), config.freq_grid.to_array())
    _write_map(args.out, heatmap, spectrum)
    print(f"map: {spectrum.fields.size} fields x {spectrum.freqs.size} freqs -> {args.out}")
    return 0


def cmd_branches(args) -> int:
    config = load_config(args.config)
    with _grids_in_memory(config):
        curves = compute_branches(config.template(), config.field_grid.to_array())
    write_branches_csv(args.out, curves)
    print(f"branches: {curves.fields.size} fields x {curves.branches.shape[1]} branches -> {args.out}")
    return 0


def _resolve_fit_problem(config: RunConfig, data) -> tuple[FitProblem, RidgeSet | None]:
    """The config's fit problem with each missing initial filled in, plus
    the data's ridges when a branch fit or a coupling's start needs them.

    A coupling starts from half the minimal ridge splitting near its
    magnon's crossing, every other parameter from the template's value,
    each clipped into its box.
    """
    if config.fit is None:
        raise ConfigError("config has no 'fit' block")
    fit_cfg, problem = config.fit, config.fit.problem
    ridges = None
    if fit_cfg.method == "branches" or any(
            p.initial is None and kind == "g" for p, (kind, _) in zip(problem.free, problem.slots)):
        freq_step = (data.freqs[-1] - data.freqs[0]) / max(data.freqs.size - 1, 1)
        n_ridges = fit_cfg.n_ridges if fit_cfg.n_ridges is not None else len(config.modes)
        min_separation = (fit_cfg.min_separation if fit_cfg.min_separation is not None
                          else max(4.0 * freq_step, 1e-9))
        ridges = extract_ridges(data, n_ridges, min_separation)
    if all(p.initial is not None for p in problem.free):
        return problem, ridges
    template, order = problem.template, problem.template.mode_order()
    free = []
    for p, (kind, slots) in zip(problem.free, problem.slots):
        if p.initial is None:
            if kind == "g":
                magnon = order[slots[0] if order[slots[1]] == template.resonator.label else slots[1]]
                start = coupling_guess_from_ridges(ridges, crossing_window(template, magnon))
            else:
                start = template.arrays[kind][slots[0]]
            p = replace(p, initial=float(np.clip(start, p.lower, p.upper)))
        free.append(p)
    return FitProblem(template, tuple(free)), ridges


def _report_lines(result: FitResult, order: list[str]) -> list[str]:
    lines = [
        f"converged: {'true' if result.converged else 'false'}",
        f"iterations: {result.iterations}",
        f"residual: {format_float(result.residual)}",
        f"n_data: {result.n_data}",
    ]
    for name in order:
        lines.append(f"parameter: {name} value: {format_float(result.params[name])} "
                     f"stderr: {format_float(result.stderr[name])}")
    return lines


def cmd_fit(args) -> int:
    config = load_config(args.config)
    data = read_spectrum_csv(args.data)
    problem, ridges = _resolve_fit_problem(config, data)
    if config.fit.method == "map":
        result = fit_map(data, problem)
    else:
        result = fit_branches(ridges, problem)
    lines = _report_lines(result, [p.name for p in problem.free])
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if result.converged else 4


def cmd_thickness(args) -> int:
    config = load_config(args.config)
    series = config.thickness
    if series is None:
        raise ConfigError("config has no 'thickness' block")
    maps_dir = None if args.maps_dir is None else Path(args.maps_dir)
    if maps_dir is not None:
        maps_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for (t, g2, g1), (_, template) in zip(series.rows, thickness_sweep(series)):
        gap_p2 = gap_at_crossing(template, series.varied).gap
        if series.linked is not None:
            gap_p1 = gap_at_crossing(template, series.linked).gap
        else:
            g1, gap_p1 = 0.0, 0.0
        rows.append((t, g1, g2, gap_p1, gap_p2))
        if maps_dir is not None:
            with _grids_in_memory(config):
                spectrum = compute_map(template, config.field_grid.to_array(),
                                       config.freq_grid.to_array())
            write_spectrum_csv(maps_dir / f"map_t{format_float(t)}.csv", spectrum)
    write_thickness_csv(args.out, rows)
    if len(rows) >= 2:  # a one-point series cannot support the trend fits
        ts = [r[0] for r in rows]
        g2_est = [r[4] / 2.0 for r in rows]
        fit_t = linear_regression(ts, g2_est)
        print(f"g2_of_t: slope: {format_float(fit_t.slope)} "
              f"intercept: {format_float(fit_t.intercept)} "
              f"r_squared: {format_float(fit_t.r_squared)}")
        if series.linked is not None:
            g1_est = [r[3] / 2.0 for r in rows]
            fit_link = linear_regression(g2_est, g1_est)
            print(f"g1_of_g2: slope: {format_float(fit_link.slope)} "
                  f"intercept: {format_float(fit_link.intercept)} "
                  f"r_squared: {format_float(fit_link.r_squared)}")
    print(f"thickness: {len(rows)} rows -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    heatmap = _heatmap_path(args)
    config = load_config(args.config)
    noise = config.noise if config.noise is not None else NoiseSpec(sigma=0.0, seed=0)
    if args.seed is not None:
        noise = NoiseSpec(sigma=noise.sigma, seed=args.seed)
    with _grids_in_memory(config):
        spectrum = synth_map(config.template(), config.field_grid.to_array(),
                             config.freq_grid.to_array(), noise)
    _write_map(args.out, heatmap, spectrum)
    print(f"synth: sigma={format_float(noise.sigma)} seed={noise.seed} -> {args.out}")
    return 0


# ── Parser and entry point ─────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavmag",
        description="Coupled-mode sweeps and fits for resonator-mediated magnon hybrids.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub, out_required=False, heatmap=False, seed=False):
        sub.add_argument("--config", required=True, help="run configuration (JSON)")
        sub.add_argument("--out", required=out_required, help="output file path")
        if heatmap:
            sub.add_argument("--heatmap", action="store_true",
                             help="also write a PGM heatmap next to --out")
        if seed:
            sub.add_argument("--seed", type=int, default=None,
                             help="override the noise seed (unsigned 64-bit)")

    p_kittel = subparsers.add_parser("kittel", help="tabulate the field dispersion")
    common(p_kittel)
    p_kittel.add_argument("--freq-scale", type=float, default=None,
                          help="display scale for frequencies printed to the terminal")
    p_kittel.add_argument("--material", default=None, help="restrict to one field-driven mode")
    p_kittel.add_argument("--fields", default=None,
                          help="comma-separated fields in Oe (default: the config field grid)")
    p_kittel.set_defaults(func=cmd_kittel)

    p_map = subparsers.add_parser("map", help="compute a transmission map")
    common(p_map, out_required=True, heatmap=True)
    p_map.set_defaults(func=cmd_map)

    p_branches = subparsers.add_parser("branches", help="compute eigenvalue branches")
    common(p_branches, out_required=True)
    p_branches.set_defaults(func=cmd_branches)

    p_fit = subparsers.add_parser("fit", help="fit free parameters to a measured map")
    common(p_fit)
    p_fit.add_argument("--data", required=True, help="spectrum CSV to fit against")
    p_fit.set_defaults(func=cmd_fit)

    p_thickness = subparsers.add_parser("thickness", help="run a film-thickness series")
    common(p_thickness, out_required=True)
    p_thickness.add_argument("--maps-dir", default=None,
                             help="also write a map CSV per thickness into this directory")
    p_thickness.set_defaults(func=cmd_thickness)

    p_synth = subparsers.add_parser("synth", help="generate a noisy synthetic map")
    common(p_synth, out_required=True, heatmap=True, seed=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except CavmagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
