"""Batch command-line interface.

Eight verbs emit the standard datasets as CSV (curves) or JSON (structured
results). Output is deterministic: the same configuration produces
byte-identical files when --reproducible suppresses the timestamp.

Configuration may come from flags or from a flat key-value run file
(`key = value`, `#` comments); flags override the file. CSV files carry a
`#`-prefixed metadata block, a header row, and 12-significant-digit values.

Exit codes: 0 success, 2 validation error, 3 numerical failure; failures
print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .background import Doublet, fit_lambda, hadamard_residual, model_phase_and_sigma
from .darboux import PotentialParams, _sign_changes, potential_v4, w1_bundle
from .errors import NumericalError, ValidationError
from .jost import bound_state
from .numerics import ComplexRectangle, _grid_count
from .resonances import (
    default_search_box,
    doublet_of,
    find_resonances,
    gamow_state,
    sweep_cutoff,
)
from .scattering import (
    TruncatedConfig,
    _checked_grid,
    _unwrap_principal,
    cross_section,
    phase_shift,
)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def parse_run_file(path: str) -> Dict[str, str]:
    """Flat `key = value` file; blank lines and # comments ignored. Every
    key must be an option of some command (``_run_file_keys``)."""
    out: Dict[str, str] = {}
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
                if key not in _run_file_keys():
                    raise ValidationError(
                        f"{path}:{lineno}: unknown key {key!r} (not an option of any command)"
                    )
                out[key] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read run file {path}: {exc}") from exc
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValidationError(f"run-file key {key!r}: expected boolean, got {raw!r}")


class _Settings:
    """Flag-over-file-over-default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace, file_cfg: Dict[str, str]):
        self._args = args
        self._file = file_cfg

    def get(self, key: str, default, conv=float):
        flag_val = getattr(self._args, key.replace("-", "_"), None)
        if flag_val is not None:
            return flag_val
        if key in self._file:
            raw = self._file[key]
            try:
                return _as_bool(raw, key) if conv is bool else conv(raw)
            except ValueError as exc:
                raise ValidationError(f"run-file key {key!r}: {exc}") from exc
        return default


def _build_params(s: _Settings) -> PotentialParams:
    alpha = s.get("alpha", 1.0)
    q = s.get("q", 1.0)
    beta = s.get("beta", None)
    if beta is None:
        return PotentialParams.bic(alpha=alpha, q=q)
    return _params_at_beta(s, alpha, q, beta)


def _params_at_beta(s: _Settings, alpha: float, q: float, beta: float,
                    diagnostic: bool = False) -> PotentialParams:
    """PotentialParams at an explicit beta; --bic with a beta off the bic
    line is refused."""
    params = PotentialParams(alpha=alpha, beta=beta, q=q, diagnostic=diagnostic)
    if s.get("bic", False, conv=bool) and not params.bic_mode:
        raise ValidationError(
            f"--bic contradicts --beta {beta} (3*alpha*q = {3.0 * alpha * q})"
        )
    return params


def _metadata(s: _Settings, command: str, params: PotentialParams,
              extra: Optional[dict] = None, cutoff: Optional[float] = None) -> dict:
    meta = {
        "command": command,
        "version": __version__,
        "alpha": params.alpha,
        "beta": params.beta,
        "q": params.q,
        "bic_mode": params.bic_mode,
    }
    if cutoff is not None:
        meta["cutoff"] = cutoff
    if extra:
        meta.update(extra)
    if not s.get("reproducible", False, conv=bool):
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


def _r_grid(s: _Settings) -> np.ndarray:
    r_max = s.get("r-max", 30.0)
    dr = s.get("dr", 0.01)
    if not (0 < r_max < math.inf and 0 < dr < math.inf):
        raise ValidationError("r-max and dr must be positive and finite")
    _grid_count(0.0, r_max + 0.5 * dr, dr)
    return np.arange(0.0, r_max + 0.5 * dr, dr)


# phase-shift and cross-section rows skip this neighborhood of k = q, where d
# and g vanish to fourth order and the sampled phase is rounding noise
Q_EXCLUSION = 1e-5


def _k_grid(s: _Settings, q: float) -> np.ndarray:
    k_min = s.get("k-min", 0.995)
    k_max = s.get("k-max", 1.005)
    dk = s.get("dk", 1e-6)
    if not (0 < k_min < k_max < math.inf and 0 < dk < math.inf):
        raise ValidationError("need 0 < k-min < k-max and dk > 0, all finite")
    _grid_count(k_min, k_max + 0.5 * dk, dk)
    grid = np.arange(k_min, k_max + 0.5 * dk, dk)
    return grid[np.abs(grid - q) > Q_EXCLUSION]


def _floats_csv(raw: str, key: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{key}: expected comma-separated numbers: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_w1(s: _Settings) -> None:
    alpha = s.get("alpha", 1.0)
    q = s.get("q", 1.0)
    beta_list = s.get("beta-list", None, conv=str)
    betas = (
        _floats_csv(beta_list, "beta-list")
        if beta_list
        else [s.get("beta", 3.0 * alpha * q)]
    )
    all_params = [_params_at_beta(s, alpha, q, beta, diagnostic=beta < 0) for beta in betas]
    out = s.get("out", "w1.csv", conv=str)
    r = _r_grid(s)
    for params in all_params:
        w1 = w1_bundle(params, r).w1
        meta = _metadata(
            s, "w1", params,
            extra={"diagnostic": params.diagnostic, "sign_changes": _sign_changes(w1).size},
        )
        path = out
        if len(betas) > 1:
            stem, dot, ext = out.rpartition(".")
            base = stem if dot else out
            path = f"{base}_beta{_fmt(params.beta)}.{ext if dot else 'csv'}"
        _write_csv(path, meta, ["r", "w1"], [r, w1])


def cmd_potential(s: _Settings) -> None:
    params = _build_params(s)
    if not params.bic_mode:
        raise ValidationError("potential command requires the bic-mode potential")
    r = _r_grid(s)
    v = potential_v4(params, r)
    psi = bound_state(params)
    psi_sq = psi(r) ** 2
    meta = _metadata(s, "potential", params, extra={"psi_b_norm": psi.norm})
    _write_csv(
        s.get("out", "potential.csv", conv=str),
        meta,
        ["r", "v4", "psi_b_sq"],
        [r, v, psi_sq],
    )


def _resonance_box(s: _Settings, config: TruncatedConfig) -> ComplexRectangle:
    box_spec = s.get("box", None, conv=str)
    if box_spec:
        vals = _floats_csv(box_spec, "box")
        if len(vals) != 4:
            raise ValidationError("box must be re_min,re_max,im_min,im_max")
        return ComplexRectangle(*vals)
    if s.get("wide-box", False, conv=bool):
        q = config.params.q
        return ComplexRectangle(q - 0.01, q + 0.01, -0.001, -1e-5)
    return default_search_box(config)


def cmd_resonances(s: _Settings) -> None:
    params = _build_params(s)
    a = s.get("cutoff", 5000.0)
    config = TruncatedConfig(params=params, a=a)
    box = _resonance_box(s, config)
    found = find_resonances(config, box)
    doublet = set()
    if len(found) >= 2:
        doublet = {id(r) for r in doublet_of(found, params.q)}
    payload = {
        "meta": _metadata(s, "resonances", params, cutoff=a),
        "a": a,
        "alpha": params.alpha,
        "beta": params.beta,
        "q": params.q,
        "box": {
            "re_min": box.re_min,
            "re_max": box.re_max,
            "im_min": box.im_min,
            "im_max": box.im_max,
        },
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
    _write_json(s.get("out", "resonances.json", conv=str), payload)


def cmd_gamow(s: _Settings) -> None:
    params = _build_params(s)
    a = s.get("cutoff", 5000.0)
    index = int(s.get("root-index", 0, conv=int))
    if index not in (0, 1):
        raise ValidationError("root-index must be 0 or 1 (doublet member)")
    config = TruncatedConfig(params=params, a=a)
    pair = doublet_of(find_resonances(config), params.q)
    state = gamow_state(config, pair[index])
    r = _r_grid(s)
    psi_sq = np.abs(state(r)) ** 2
    v = potential_v4(params, r)
    meta = _metadata(
        s, "gamow", params, cutoff=a,
        extra={
            "root_index": index,
            "k_re": state.resonance.k_re,
            "half_width": state.resonance.half_width,
            "n_squared_re": state.N_squared.real,
            "n_squared_im": state.N_squared.imag,
            "sqrt_branch": "principal",
        },
    )
    _write_csv(
        s.get("out", "gamow.csv", conv=str),
        meta,
        ["r", "psi_n_sq", "v4"],
        [r, psi_sq, v],
    )


def cmd_phase_shift(s: _Settings) -> None:
    params = _build_params(s)
    a = s.get("cutoff", 5000.0)
    config = TruncatedConfig(params=params, a=a)
    k = _checked_grid(_k_grid(s, params.q))
    raw = phase_shift(config, k)
    unwrapped = _unwrap_principal(lambda start, stop: raw[start:stop], k)
    ramp_removed = unwrapped + k * a
    meta = _metadata(
        s, "phase-shift", params, cutoff=a,
        extra={"excluded_near_q": Q_EXCLUSION},
    )
    _write_csv(
        s.get("out", "phase_shift.csv", conv=str),
        meta,
        ["k", "delta_raw", "delta_unwrapped", "delta_ramp_removed"],
        [k, raw, unwrapped, ramp_removed],
    )


def cmd_cross_section(s: _Settings) -> None:
    params = _build_params(s)
    a = s.get("cutoff", 5000.0)
    mode = s.get("mode", "exact", conv=str)
    if mode not in ("exact", "model", "both"):
        raise ValidationError(f"mode must be exact, model, or both, got {mode!r}")
    config = TruncatedConfig(params=params, a=a)
    k = _k_grid(s, params.q)
    header: List[str] = ["k"]
    columns: List[np.ndarray] = [k]
    extra: dict = {"mode": mode, "excluded_near_q": Q_EXCLUSION}
    if mode in ("exact", "both"):
        header.append("sigma_exact")
        columns.append(cross_section(config, k))
    if mode in ("model", "both"):
        pair = doublet_of(find_resonances(config), params.q)
        fit = fit_lambda(config, Doublet.from_resonances(*pair))
        _, sigma_model = model_phase_and_sigma(fit, k)
        header.append("sigma_model")
        columns.append(sigma_model)
        extra.update(
            lambda0=fit.lambda0,
            lambda1=fit.lambda1,
            max_deviation=hadamard_residual(config, fit),
        )
    meta = _metadata(s, "cross-section", params, cutoff=a, extra=extra)
    _write_csv(s.get("out", "cross_section.csv", conv=str), meta, header, columns)


def cmd_fit_background(s: _Settings) -> None:
    params = _build_params(s)
    a = s.get("cutoff", 5000.0)
    config = TruncatedConfig(params=params, a=a)
    pair = doublet_of(find_resonances(config), params.q)
    window = None
    window_spec = s.get("window", None, conv=str)
    if window_spec:
        vals = _floats_csv(window_spec, "window")
        if len(vals) != 2:
            raise ValidationError("window must be k_lo,k_hi")
        window = (vals[0], vals[1])
    fit = fit_lambda(config, Doublet.from_resonances(*pair), window=window)
    payload = {
        "meta": _metadata(
            s, "fit-background", params, cutoff=a,
            extra={"mu_identifiability": "mu(k) cancels from delta and sigma; "
                                         "only lambda0, lambda1 are estimated"},
        ),
        "lambda0": fit.lambda0,
        "lambda1": fit.lambda1,
        "minima": fit.fit_report["minima"],
        "condition_number": fit.fit_report["condition_number"],
        "max_deviation": hadamard_residual(config, fit),
        "window": fit.fit_report["window"],
        "overlapping_resonances": fit.fit_report["overlapping_resonances"],
    }
    _write_json(s.get("out", "fit_background.json", conv=str), payload)


def cmd_sweep_cutoff(s: _Settings) -> None:
    params = _build_params(s)
    a_list_spec = s.get("a-list", None, conv=str)
    if not a_list_spec:
        raise ValidationError("sweep-cutoff requires --a-list (comma-separated cutoffs)")
    a_values = _floats_csv(a_list_spec, "a-list")
    result = sweep_cutoff(params, a_values)
    lines = [{"meta": _metadata(s, "sweep-cutoff", params, extra={"a_list": a_values})}]
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
    path = s.get("out", "sweep_cutoff.jsonl", conv=str)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in lines:
            fh.write(json.dumps(obj) + "\n")


_COMMANDS = {
    "w1": cmd_w1,
    "potential": cmd_potential,
    "resonances": cmd_resonances,
    "gamow": cmd_gamow,
    "phase-shift": cmd_phase_shift,
    "cross-section": cmd_cross_section,
    "fit-background": cmd_fit_background,
    "sweep-cutoff": cmd_sweep_cutoff,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, each returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--beta", type=float, default=None)
    common.add_argument("--q", type=float, default=None)
    common.add_argument("--bic", action="store_true", default=None,
                        help="pin beta = 3*alpha*q")
    common.add_argument("--cutoff", type=float, default=None, help="truncation radius a")
    common.add_argument("--config", type=str, default=None, help="key = value run file")
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--reproducible", action="store_true", default=None,
                        help="omit the timestamp so identical runs are byte-identical")

    parser = argparse.ArgumentParser(
        prog="bicscatter",
        description="Datasets for a truncated four-fold-degenerate potential: "
                    "W1, V, the embedded bound state, resonances, Gamow states, "
                    "phase shifts, cross sections, and the two-resonance "
                    "background fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("w1", parents=[common], help="W1(r) curves (one file per beta)")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--dr", type=float, default=None)
    p.add_argument("--beta-list", type=str, default=None,
                   help="comma-separated betas; negative values allowed here")

    p = sub.add_parser("potential", parents=[common],
                       help="V(r) and normalized |psi_B|^2")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--dr", type=float, default=None)

    p = sub.add_parser("resonances", parents=[common],
                       help="certified zero census in a complex-k box")
    p.add_argument("--wide-box", action="store_true", default=None,
                   help="scan the wider string of zeros instead of just the doublet")
    p.add_argument("--box", type=str, default=None,
                   help="custom box: re_min,re_max,im_min,im_max")

    p = sub.add_parser("gamow", parents=[common],
                       help="normalized resonance eigenfunction profile")
    p.add_argument("--root-index", type=int, default=None, help="doublet member, 0 or 1")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--dr", type=float, default=None)

    for name in ("phase-shift", "cross-section"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--k-min", type=float, default=None)
        p.add_argument("--k-max", type=float, default=None)
        p.add_argument("--dk", type=float, default=None)
        if name == "cross-section":
            p.add_argument("--mode", type=str, default=None,
                           choices=("exact", "model", "both"))

    p = sub.add_parser("fit-background", parents=[common],
                       help="fit lambda0 + lambda1*k to the exact minima")
    p.add_argument("--window", type=str, default=None, help="fit window: k_lo,k_hi")

    p = sub.add_parser("sweep-cutoff", parents=[common],
                       help="doublet trajectory over a list of cutoffs")
    p.add_argument("--a-list", type=str, default=None)
    return parser


@functools.cache
def _run_file_keys() -> frozenset:
    """The options of every command, spelled as ``_Settings.get`` reads
    them: the keys a run file may hold, so one file serves several commands."""
    dests = set()
    for command in _COMMANDS:
        dests.update(vars(_build_parser().parse_args([command])))
    dests.discard("command")
    return frozenset(d.replace("_", "-") for d in dests)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    file_cfg: Dict[str, str] = {}
    try:
        if args.config:
            file_cfg = parse_run_file(args.config)
        _COMMANDS[args.command](_Settings(args, file_cfg))
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
