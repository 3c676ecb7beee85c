"""Command-line surface: spectra, sampled eigenfunctions, hierarchy
traces, and verification runs, emitted as CSV or JSON.

Exit codes: 0 success / all suites pass, 1 verification failure,
2 usage error.  Floats are printed with 17 significant digits so CSV
output round-trips exactly; identical flags give byte-identical output.
``_FLOAT`` is the one float format: ``_fmt`` and every CSV body use it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .ladder import build_from_ground, chain_prefactor
from .model import MAX_LEVEL, ModelParams, k_from_mass, mass_from_k, spectrum
from .wavefun import build_eigenfunction, evaluate, inner_product

USAGE_ERROR = 2
_FLOAT = "%.17g"
# Largest eigenfunction --samples: the positions and values are formed
# in memory before the table is written.
MAX_SAMPLES = 100_000
# Rows per piece of a CSV body: only one piece is held as text at a time.
_CSV_CHUNK = 4096


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "eigenfunction":
            return _cmd_eigenfunction(args)
        if args.command == "hierarchy":
            return _cmd_hierarchy(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --output
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


@functools.cache  # a constant: parse_args keeps no state on the parser
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susy-pt",
        description="Deformed Poschl-Teller oscillator family: spectra, "
        "eigenfunctions, supersymmetric hierarchy, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, require_k=True):
        p.add_argument("--omega", type=float, default=1.0, help="oscillator frequency (> 0)")
        p.add_argument("--epsilon", type=float, default=1.0, help="deformation parameter (> 0)")
        group = p.add_mutually_exclusive_group(required=require_k)
        group.add_argument("--k", type=float, help="envelope exponent (> 1)")
        group.add_argument("--mass", type=float, help="particle mass (> 0); converted to k")

    def add_output(p, formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("spectrum", help="energy levels E_n^2, E_n and n(n+2k)")
    add_params(p)
    p.add_argument("--n-max", type=int, default=8, help=f"highest level (0..{MAX_LEVEL})")
    add_output(p)

    p = sub.add_parser("eigenfunction", help="sampled level-n eigenfunction")
    add_params(p)
    p.add_argument("--n", type=int, default=0, help=f"level index (0..{MAX_LEVEL})")
    p.add_argument("--samples", type=int, default=201, help=f"sample count incl. endpoints (2..{MAX_SAMPLES})")
    add_output(p)

    p = sub.add_parser("hierarchy", help="raising chain norms down to level k")
    add_params(p)
    p.add_argument("--n", type=int, default=1, help=f"level assembled by the chain (0..{MAX_LEVEL})")
    add_output(p)

    p = sub.add_parser("verify", help="run property suites; exit 0 iff all pass")
    add_params(p, require_k=False)
    p.add_argument("--n-max", type=int, default=verify_mod.VERIFIED_LEVEL, help=f"highest level exercised (0..{verify_mod.VERIFIED_LEVEL})")
    p.add_argument("--grid-n", type=int, default=4096, help=f"discretization size for the eigensolver suite (16..{verify_mod.MAX_GRID_N})")
    p.add_argument("--suite", action="append", choices=verify_mod.SUITE_NAMES, help="run only the named suite (repeatable)")
    p.add_argument("--richardson", action="store_true", help="extrapolated eigensolver cross-check (1e-6 tolerance)")
    add_output(p, formats=("text", "json"))
    return parser


def _resolve_params(args) -> ModelParams:
    if args.mass is not None:
        k = k_from_mass(args.mass, args.omega, args.epsilon)
        return ModelParams(args.omega, args.epsilon, k)
    return ModelParams(args.omega, args.epsilon, args.k)


def _fmt(value: float) -> str:
    return _FLOAT % value


def _params_comment(p: ModelParams) -> str:
    return (
        f"# params: omega={_fmt(p.omega)} epsilon={_fmt(p.epsilon)} "
        f"k={_fmt(p.k)} mass={_fmt(mass_from_k(p))} hat_omega={_fmt(p.hat_omega)}"
    )


def _open_output(path: str):
    """The --output destination, opened for writing as a context manager
    ('-' is stdout, left open).  verify opens it before its suites run,
    as a shell redirect would, so a bad path fails at once."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _csv(header, rows, comments=(), trailers=()):
    """The CSV text in pieces: the comments and header, the body
    _CSV_CHUNK rows at a time, then the trailers.  rows is any iterable
    of tuples, read one chunk at a time."""
    yield "\n".join([*comments, ",".join(header)]) + "\n"
    rows = iter(rows)
    chunk = list(itertools.islice(rows, _CSV_CHUNK))
    if chunk:  # one %-template, typed by the first row, formats every chunk
        row = ",".join(_FLOAT if isinstance(v, float) else "%s" for v in chunk[0])
    while chunk:
        yield "\n".join([row] * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)) + "\n"
        chunk = list(itertools.islice(rows, _CSV_CHUNK))
    if trailers:
        yield "\n".join(trailers) + "\n"


def _write_table(args, params: ModelParams, head: dict, key: str, header, rows, tail: dict) -> int:
    """The one table writer.  CSV: the params comment, '# name=value' per
    head field, the header and body, then '# name=%.17g' per tail field.
    JSON: params, the head fields, one object per row under key, then the
    tail fields."""
    if args.format == "csv":
        pieces = _csv(
            header,
            rows,
            comments=[_params_comment(params), *(f"# {name}={v}" for name, v in head.items())],
            trailers=[f"# {name}={_fmt(v)}" for name, v in tail.items()],
        )
    else:
        table = [dict(zip(header, row)) for row in rows]
        doc = {"params": _params_json(params), **head, key: table, **tail}
        pieces = [json.dumps(doc, indent=2) + "\n"]
    with _open_output(args.output) as fh:
        fh.writelines(pieces)
    return 0


def _cmd_spectrum(args) -> int:
    params = _resolve_params(args)
    rows = [
        (lvl.n, float(lvl.e_squared), math.sqrt(lvl.e_squared), float(lvl.delta_eig))
        for lvl in spectrum(params, args.n_max).levels
    ]
    return _write_table(args, params, {}, "levels", ("n", "e_squared", "e", "delta_eig"), rows, {})


def _cmd_eigenfunction(args) -> int:
    params = _resolve_params(args)
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must lie in 2..{MAX_SAMPLES}, got {args.samples}")
    wf = build_eigenfunction(params, args.n)
    x = np.linspace(-params.half_width, params.half_width, args.samples)
    values = evaluate(wf, x)
    rows = itertools.chain.from_iterable(  # Python floats, one chunk at a time
        zip(x[i : i + _CSV_CHUNK].tolist(), values[i : i + _CSV_CHUNK].tolist())
        for i in range(0, x.size, _CSV_CHUNK)
    )
    return _write_table(args, params, {"n": args.n}, "samples", ("x", "value"), rows, {})


def _cmd_hierarchy(args) -> int:
    params = _resolve_params(args)
    n, k = args.n, params.k
    assembled = build_from_ground(params, n)
    steps = []
    for j in range(n):
        k_level = k + n - 1 - j
        factor = math.sqrt((j + 1) * (j + 1 + 2.0 * k_level))
        steps.append((j, float(k_level), factor))
    tail = {
        "prefactor": chain_prefactor(k, n),
        "final_norm": math.sqrt(inner_product(assembled, assembled)),
    }
    return _write_table(args, params, {"n": n}, "steps", ("step", "k_level", "factor"), steps, tail)


def _cmd_verify(args) -> int:
    if args.k is not None or args.mass is not None:
        battery = [_resolve_params(args)]
    else:
        battery = None  # default fixture battery
    with _open_output(args.output) as fh:
        report = verify_mod.run_all(
            battery,
            n_max=args.n_max,
            grid_n=args.grid_n,
            suites=args.suite,
            richardson=args.richardson,
        )
        fh.write(report.to_json() + "\n" if args.format == "json" else report.to_text() + "\n")
    return 0 if report.all_passed else 1


def _params_json(p: ModelParams) -> dict:
    return {
        "omega": p.omega,
        "epsilon": p.epsilon,
        "k": p.k,
        "mass": mass_from_k(p),
        "hat_omega": p.hat_omega,
        "half_width": p.half_width,
    }


if __name__ == "__main__":
    sys.exit(main())
