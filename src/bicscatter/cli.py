"""Batch command-line interface.

Eight verbs emit the standard datasets as CSV (curves) or JSON (structured
results). Output is deterministic: the same configuration produces
byte-identical files when --reproducible suppresses the timestamp.

Configuration may come from flags or from a flat key-value run file
(`key = value`, `#` comments); flags override the file, and ``_OPTIONS``
gives every option its type and default. CSV files carry a
`#`-prefixed metadata block, a header row, and 12-significant-digit values.

Exit codes: 0 success, 2 validation error, 3 numerical failure; failures
print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .background import Doublet, fit_lambda, hadamard_residual, model_phase_and_sigma
from .darboux import PotentialParams, _sign_changes, _w1, potential_v4
from .errors import NumericalError, ValidationError
from .jost import bound_state
from .numerics import ComplexRectangle, _grid_count, _unwrap_grid
from .resonances import (
    Resonance,
    _x_window,
    default_search_box,
    doublet_of,
    find_resonances,
    gamow_state,
    sweep_cutoff,
)
from .scattering import (
    TruncatedConfig,
    _checked_grid,
    cross_section,
    phase_shift,
)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


class _Option(NamedTuple):
    type: type
    default: object
    help: Optional[str] = None


# every option of every command, by the name its flag and run-file key share;
# a flag's own default is None, so that main can tell a flag from its absence
_OPTIONS: Dict[str, _Option] = {
    "alpha": _Option(float, 1.0),
    "beta": _Option(float, None, "default: the bic line 3*alpha*q"),
    "q": _Option(float, 1.0),
    "bic": _Option(bool, False, "pin beta = 3*alpha*q"),
    "cutoff": _Option(float, 5000.0, "truncation radius a"),
    "config": _Option(str, None, "key = value run file"),
    "out": _Option(str, None, "output path"),
    "reproducible": _Option(bool, False,
                            "omit the timestamp so identical runs are byte-identical"),
    "r-max": _Option(float, 30.0),
    "dr": _Option(float, 0.01),
    "beta-list": _Option(str, None, "comma-separated betas; negative values allowed here"),
    "wide-box": _Option(bool, False, "count the 30 string members with |(k - q) a| <= 50 "
                                     "instead of just the doublet (refused where q a <= 50; "
                                     "29 roots or refused for 50 < q a <~ 62)"),
    "box": _Option(str, None, "custom box: re_min,re_max,im_min,im_max"),
    "root-index": _Option(int, 0, "doublet member, 0 or 1"),
    "k-min": _Option(float, None, "default: 0.995 q"),
    "k-max": _Option(float, None, "default: 1.005 q"),
    "dk": _Option(float, 1e-6),
    "mode": _Option(str, "exact", "exact, model or both"),
    "window": _Option(str, None, "fit window: k_lo,k_hi"),
    "a-list": _Option(str, None, "comma-separated cutoffs"),
}
# the options every command takes
_COMMON = ("alpha", "beta", "q", "bic", "config", "out", "reproducible")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValidationError(f"run-file key {key!r}: expected boolean, got {raw!r}")


def _from_file(key: str, raw: str):
    """A run-file value converted by its option's type."""
    kind = _OPTIONS[key].type
    if kind is bool:
        return _as_bool(raw, key)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ValidationError(f"run-file key {key!r}: {exc}") from exc


def parse_run_file(path: str) -> Dict[str, object]:
    """Flat `key = value` file; blank lines and # comments ignored. Every
    key must be an option of some command (``_OPTIONS``), so one file serves
    several commands, and every value is converted by its option's type on
    loading, whichever command reads the file."""
    out: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _OPTIONS:
                    raise ValidationError(
                        f"{path}:{lineno}: unknown key {key!r} (not an option of any command)"
                    )
                out[key] = _from_file(key, value.strip())
    except OSError as exc:
        raise ValidationError(f"cannot read run file {path}: {exc}") from exc
    return out


def _build_params(s: argparse.Namespace) -> PotentialParams:
    if s.beta is None:
        return PotentialParams.bic(alpha=s.alpha, q=s.q)
    return _params_at_beta(s, s.beta)


def _params_at_beta(s: argparse.Namespace, beta: float) -> PotentialParams:
    """PotentialParams at an explicit beta; --bic with a beta off the bic
    line is refused."""
    params = PotentialParams(alpha=s.alpha, beta=beta, q=s.q)
    if s.bic and not params.bic_mode:
        raise ValidationError(
            f"--bic contradicts --beta {beta} (3*alpha*q = {3.0 * s.alpha * s.q})"
        )
    return params


def _config(s: argparse.Namespace) -> TruncatedConfig:
    """The truncated problem at the parameters and the cutoff of s."""
    return TruncatedConfig(params=_build_params(s), a=s.cutoff)


def _doublet(config: TruncatedConfig) -> Tuple[Resonance, Resonance]:
    """The resonance doublet of the default search box."""
    return doublet_of(find_resonances(config), config.params.q)


def _metadata(s: argparse.Namespace, params: PotentialParams, **extra) -> dict:
    """The metadata of the command s.command: its parameters, the cutoff
    where the command takes one, then ``extra``, then the timestamp unless
    --reproducible."""
    meta = {
        "command": s.command,
        "version": __version__,
        "alpha": params.alpha,
        "beta": params.beta,
        "q": params.q,
        "bic_mode": params.bic_mode,
    }
    if "cutoff" in vars(s):
        meta["cutoff"] = s.cutoff
    meta.update(extra)
    if not s.reproducible:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


# rows per %-format call in _write_csv: bounds the builtin floats alive at once
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, meta: dict, header: Sequence[str], columns: Sequence[np.ndarray]):
    """Metadata block, header row, then the columns at 12 significant digits.

    Columns must be floating point. Each block of rows becomes builtin floats
    in one ``tolist`` and text in one %-format, which spells every value as
    ``_fmt`` does (``'%.12g' % x == f"{x:.12g}"``).
    """
    for name, col in zip(header, columns):
        if np.asarray(col).dtype.kind != "f":
            raise TypeError(f"CSV column {name!r} is not floating point")
    table = np.column_stack(columns)
    row_fmt = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value if isinstance(value, str) else _fmt(value)}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _r_grid(s: argparse.Namespace) -> np.ndarray:
    r_max, dr = s.r_max, s.dr
    if not (0 < r_max < math.inf and 0 < dr < math.inf):
        raise ValidationError("r-max and dr must be positive and finite")
    _grid_count(0.0, r_max + 0.5 * dr, dr)
    return np.arange(0.0, r_max + 0.5 * dr, dr)


# phase-shift and cross-section rows skip this neighborhood of k = q, where d
# and g vanish to fourth order and the sampled phase is rounding noise
Q_EXCLUSION = 1e-5


def _k_grid(s: argparse.Namespace, q: float) -> np.ndarray:
    """The k rows on [k-min, k-max] (by default [0.995 q, 1.005 q]) outside
    |k - q| <= Q_EXCLUSION; ValidationError if fewer than two are left, or
    if they are not strictly increasing (``scattering._checked_grid``), as
    where dk is below the spacing of floats at k."""
    k_min = 0.995 * q if s.k_min is None else s.k_min
    k_max = 1.005 * q if s.k_max is None else s.k_max
    dk = s.dk
    if not (0 < k_min < k_max < math.inf and 0 < dk < math.inf):
        raise ValidationError("need 0 < k-min < k-max and dk > 0, all finite")
    _grid_count(k_min, k_max + 0.5 * dk, dk)
    grid = np.arange(k_min, k_max + 0.5 * dk, dk)
    grid = grid[np.abs(grid - q) > Q_EXCLUSION]
    if grid.size < 2:
        raise ValidationError(
            f"the k grid keeps {grid.size} row(s) outside |k - q| <= {Q_EXCLUSION:g} "
            f"(excluded_near_q); need at least 2"
        )
    return _checked_grid(grid)


def _floats_csv(raw: str, key: str, form: Optional[str] = None) -> List[float]:
    """The comma-separated numbers of raw; given a form such as "k_lo,k_hi",
    exactly as many as it names."""
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{key}: expected comma-separated numbers: {exc}") from exc
    if form is not None and len(vals) != len(form.split(",")):
        raise ValidationError(f"{key} must be {form}")
    return vals


# ---------------------------------------------------------------- commands


def _beta_path(out: str, beta: float) -> str:
    """The file of one beta of a --beta-list: out with _beta<beta> before
    its extension (.csv if it has none)."""
    stem, dot, ext = out.rpartition(".")
    return f"{stem if dot else out}_beta{_fmt(beta)}.{ext if dot else 'csv'}"


def cmd_w1(s: argparse.Namespace) -> None:
    if s.beta_list is not None:
        betas = _floats_csv(s.beta_list, "beta-list")
        if not betas:
            raise ValidationError(f"beta-list {s.beta_list!r} holds no beta")
    else:
        betas = [3.0 * s.alpha * s.q if s.beta is None else s.beta]
    all_params = [_params_at_beta(s, beta) for beta in betas]
    paths = [s.out] if len(betas) == 1 else [_beta_path(s.out, p.beta) for p in all_params]
    if len(set(paths)) < len(paths):
        raise ValidationError(f"beta-list {s.beta_list!r} names one file twice: betas equal "
                              "to 12 significant digits share a file name")
    r = _r_grid(s)
    for params, path in zip(all_params, paths):
        w1 = _w1(params, r, 0)[0]
        meta = _metadata(s, params, diagnostic=params.beta < 0,
                         sign_changes=_sign_changes(w1).size)
        _write_csv(path, meta, ["r", "w1"], [r, w1])


def cmd_potential(s: argparse.Namespace) -> None:
    params = _build_params(s)
    if not params.bic_mode:
        raise ValidationError("potential command requires the bic-mode potential")
    r = _r_grid(s)
    v = potential_v4(params, r)
    psi = bound_state(params)
    psi_sq = psi(r) ** 2
    meta = _metadata(s, params, psi_b_norm=psi.norm)
    _write_csv(s.out, meta, ["r", "v4", "psi_b_sq"], [r, v, psi_sq])


def _resonance_box(s: argparse.Namespace, config: TruncatedConfig) -> ComplexRectangle:
    if s.box:
        return ComplexRectangle(*_floats_csv(s.box, "box", "re_min,re_max,im_min,im_max"))
    if s.wide_box:
        return _x_window(config, 50.0, -5.0, -0.05)
    return default_search_box(config)


def cmd_resonances(s: argparse.Namespace) -> None:
    config = _config(s)
    params = config.params
    box = _resonance_box(s, config)
    found = find_resonances(config, box)
    doublet = set()
    if len(found) >= 2:
        doublet = {id(r) for r in doublet_of(found, params.q)}
    payload = {
        "meta": _metadata(s, params),
        "a": config.a,
        "alpha": params.alpha,
        "beta": params.beta,
        "q": params.q,
        "box": dataclasses.asdict(box),
        "winding_count": len(found),
        "roots": [
            {
                "re": r.k_re,
                "im": r.k_complex.imag,
                "half_width": r.half_width,
                "residual": r.residual,
                "doublet": id(r) in doublet,
            }
            for r in found
        ],
    }
    _write_json(s.out, payload)


def cmd_gamow(s: argparse.Namespace) -> None:
    index = s.root_index
    if index not in (0, 1):
        raise ValidationError("root-index must be 0 or 1 (doublet member)")
    config = _config(s)
    state = gamow_state(config, _doublet(config)[index])
    r = _r_grid(s)
    psi_sq = np.abs(state(r)) ** 2
    v = potential_v4(config.params, r)
    meta = _metadata(
        s, config.params,
        root_index=index,
        k_re=state.resonance.k_re,
        half_width=state.resonance.half_width,
        n_squared_re=state.N_squared.real,
        n_squared_im=state.N_squared.imag,
        sqrt_branch="principal",
    )
    _write_csv(s.out, meta, ["r", "psi_n_sq", "v4"], [r, psi_sq, v])


def cmd_phase_shift(s: argparse.Namespace) -> None:
    config = _config(s)
    k = _k_grid(s, config.params.q)
    raw = phase_shift(config, k)
    unwrapped = _unwrap_grid(lambda start, stop: raw[start:stop], k)
    ramp_removed = unwrapped + k * config.a
    meta = _metadata(s, config.params, excluded_near_q=Q_EXCLUSION)
    _write_csv(
        s.out,
        meta,
        ["k", "delta_raw", "delta_unwrapped", "delta_ramp_removed"],
        [k, raw, unwrapped, ramp_removed],
    )


def cmd_cross_section(s: argparse.Namespace) -> None:
    mode = s.mode
    if mode not in ("exact", "model", "both"):
        raise ValidationError(f"mode must be exact, model, or both, got {mode!r}")
    config = _config(s)
    k = _k_grid(s, config.params.q)
    header: List[str] = ["k"]
    columns: List[np.ndarray] = [k]
    extra: dict = {"mode": mode, "excluded_near_q": Q_EXCLUSION}
    if mode in ("exact", "both"):
        header.append("sigma_exact")
        columns.append(cross_section(config, k))
    if mode in ("model", "both"):
        fit = fit_lambda(config, Doublet.from_resonances(*_doublet(config)))
        _, sigma_model = model_phase_and_sigma(fit, k)
        header.append("sigma_model")
        columns.append(sigma_model)
        extra.update(
            lambda0=fit.lambda0,
            lambda1=fit.lambda1,
            max_deviation=hadamard_residual(config, fit),
        )
    meta = _metadata(s, config.params, **extra)
    _write_csv(s.out, meta, header, columns)


def cmd_fit_background(s: argparse.Namespace) -> None:
    config = _config(s)
    pair = _doublet(config)
    window = tuple(_floats_csv(s.window, "window", "k_lo,k_hi")) if s.window else None
    fit = fit_lambda(config, Doublet.from_resonances(*pair), window=window)
    payload = {
        "meta": _metadata(s, config.params,
                          mu_identifiability="mu(k) cancels from delta and sigma; "
                                             "only lambda0, lambda1 are estimated"),
        "lambda0": fit.lambda0,
        "lambda1": fit.lambda1,
        "minima": fit.fit_report["minima"],
        "condition_number": fit.fit_report["condition_number"],
        "max_deviation": hadamard_residual(config, fit),
        "window": fit.fit_report["window"],
        "overlapping_resonances": fit.fit_report["overlapping_resonances"],
    }
    _write_json(s.out, payload)


def cmd_sweep_cutoff(s: argparse.Namespace) -> None:
    params = _build_params(s)
    if not s.a_list:
        raise ValidationError("sweep-cutoff requires --a-list (comma-separated cutoffs)")
    a_values = _floats_csv(s.a_list, "a-list")
    result = sweep_cutoff(params, a_values)
    lines = [{"meta": _metadata(s, params, a_list=a_values)}]
    for row in result.rows:
        lines.append(
            {
                "a": row.a,
                "k1": row.first.k_re,
                "half_width1": row.first.half_width,
                "k2": row.second.k_re,
                "half_width2": row.second.half_width,
            }
        )
    lines.append({"gamma_monotone": result.gamma_monotone})
    with open(s.out, "w", encoding="utf-8", newline="\n") as fh:
        for obj in lines:
            fh.write(json.dumps(obj) + "\n")


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], None]
    help: str
    out: str  # the default of --out
    options: Tuple[str, ...]  # beyond _COMMON


_GRID_R = ("r-max", "dr")
_GRID_K = ("k-min", "k-max", "dk")
# the commands that build a TruncatedConfig (_config) take the cutoff
_COMMANDS: Dict[str, _Command] = {
    "w1": _Command(cmd_w1, "W1(r) curves (one file per beta)", "w1.csv",
                   (*_GRID_R, "beta-list")),
    "potential": _Command(cmd_potential, "V(r) and normalized |psi_B|^2", "potential.csv",
                          _GRID_R),
    "resonances": _Command(cmd_resonances, "certified zero census in a complex-k box",
                           "resonances.json", ("cutoff", "wide-box", "box")),
    "gamow": _Command(cmd_gamow, "normalized resonance eigenfunction profile", "gamow.csv",
                      ("cutoff", "root-index", *_GRID_R)),
    "phase-shift": _Command(cmd_phase_shift, "phase shift across the doublet window",
                            "phase_shift.csv", ("cutoff", *_GRID_K)),
    "cross-section": _Command(cmd_cross_section, "exact and model cross sections",
                              "cross_section.csv", ("cutoff", *_GRID_K, "mode")),
    "fit-background": _Command(cmd_fit_background,
                               "fit lambda0 + lambda1*k to the exact minima",
                               "fit_background.json", ("cutoff", "window")),
    "sweep-cutoff": _Command(cmd_sweep_cutoff, "doublet trajectory over a list of cutoffs",
                             "sweep_cutoff.jsonl", ("a-list",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="bicscatter",
        description="Datasets for a truncated four-fold-degenerate potential: "
                    "W1, V, the embedded bound state, resonances, Gamow states, "
                    "phase shifts, cross sections, and the two-resonance "
                    "background fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in _COMMON + command.options:
            option = _OPTIONS[key]
            kind = {"action": "store_true"} if option.type is bool else {"type": option.type}
            p.add_argument(f"--{key}", default=None, help=option.help, **kind)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        file_cfg = parse_run_file(args.config) if args.config else {}
        # each setting once: the flag, else the run file, else the table
        for key in _COMMON + command.options:
            dest = key.replace("-", "_")
            if getattr(args, dest) is None:
                default = command.out if key == "out" else _OPTIONS[key].default
                setattr(args, dest, file_cfg.get(key, default))
        command.run(args)
        return 0
    except ValidationError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericalError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
