"""Command-line front end.

Subcommands: classify, jsr, smp, sturmian, lyap, fricke, christoffel,
signature, example, realize, symmetrize, montecarlo, reproduce.  Pairs
are read from JSON files ({"A": [[..],[..]], "B": [[..],[..]]},
row-major; "-" reads stdin), words are ASCII 0/1 strings, and analysis
commands accept --batch with newline-delimited pair JSON.  All output
goes to stdout (floats printed at 15 significant digits for byte-stable
reruns), diagnostics to stderr.  Exit codes: 0 success, 1 precondition
violation or arithmetic failure, 2 I/O or usage error.  In a --batch
stream a line that is not a pair does not stop the run: it prints
{"line": n, "error": "..."} in place of its result, the other lines are
still analysed, and the exit code at the end is 2.
``smplab --version`` prints the version and the scan-kernel backend.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

from .linalg import FiveTuple, MatrixPair, five_tuple

__all__ = ["reproduce_all", "main"]


def _round15(obj):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.15g}")
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    print(json.dumps(_round15(obj)))


def _open(path: str):
    """The file at path, or stdin (left open) for "-", as a context manager."""
    return nullcontext(sys.stdin) if path == "-" else open(path, "r", encoding="utf-8")


def _load_pair(path: str) -> MatrixPair:
    with _open(path) as fh:
        return MatrixPair.from_json_dict(json.loads(fh.read()))


def _run_batch(path: str, analyse) -> int:
    """Print analyse(pair) as one JSON line per nonblank --batch line.

    A line that is not a pair prints {"line": n, "error": ...} instead (n
    counts from 1) and the stream goes on; the return value is then 2,
    else 0.
    """
    code = 0
    with _open(path) as stream:
        for n, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                pair = MatrixPair.from_json_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                _emit_json({"line": n, "error": f"malformed pair: {exc!r}"})
                code = 2
                continue
            _emit_json(analyse(pair))
    return code


def _parse_tuple(text: str) -> FiveTuple:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"a 5-tuple needs 5 comma-separated values, got {text!r}")
    return FiveTuple(*(float(s) for s in parts))


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_seed(text: str) -> int:
    """A --seed value; numpy seeds only with non-negative ints."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative int, got {seed}")
    return seed


# ------------------------------------------------------------------ commands

def _cmd_classify(opts) -> int:
    from .regions import classify, classify_tuple

    tol = opts["tol"]
    if opts.get("batch"):
        return _run_batch(opts["batch"], lambda pair: classify(pair, tol).to_json_dict())
    if opts.get("tuple") not in (None, True):
        flags = classify_tuple(_parse_tuple(opts["tuple"]), tol)
    elif opts.get("pair"):
        pair = _load_pair(opts["pair"])
        if opts.get("tuple") is True:  # bare --tuple: go through the invariants
            flags = classify_tuple(five_tuple(pair), tol)
        else:
            flags = classify(pair, tol)
    else:
        raise ValueError("classify needs --pair or --tuple")
    _emit_json(flags.to_json_dict())
    return 0


def _cmd_jsr(opts) -> int:
    from .jsr import brute_force

    if opts.get("batch"):
        return _run_batch(opts["batch"], lambda pair: brute_force(
            pair, opts["max_len"]).to_json_dict())
    report = brute_force(_load_pair(opts["pair"]), opts["max_len"])
    _emit_json(report.to_json_dict())
    return 0


def _cmd_smp(opts) -> int:
    from .jsr import certify

    if opts.get("batch"):
        return _run_batch(opts["batch"],
                          lambda pair: certify(pair, opts["tol"]).to_json_dict())
    _emit_json(certify(_load_pair(opts["pair"]), opts["tol"]).to_json_dict())
    return 0


def _cmd_sturmian(opts) -> int:
    from .sturmian import maximize_sturmian

    report = maximize_sturmian(_load_pair(opts["pair"]), opts["resolution"])
    _emit_json(report.to_json_dict())
    return 0


def _cmd_lyap(opts) -> int:
    from .sturmian import lyapunov_irrational, lyapunov_rational

    pair = _load_pair(opts["pair"])
    gamma = opts["gamma"]
    if "/" in gamma or "." not in gamma:
        frac = Fraction(gamma)
        sample = lyapunov_rational(pair, frac.numerator, frac.denominator)
        print(f"{sample.value:.15g}")
    else:
        est = lyapunov_irrational(pair, float(gamma), opts["depth"])
        print(f"{est.value:.15g}")
        print(f"error estimate {est.error:.3g} at convergent {est.convergent}",
              file=sys.stderr)
    return 0


def _cmd_fricke(opts) -> int:
    from .fricke import evaluate, fricke_poly

    poly = fricke_poly(opts["word"])
    if opts.get("at"):
        print(f"{evaluate(poly, _parse_tuple(opts['at'])):.15g}")
    else:
        print(poly.format())
    return 0


def _cmd_christoffel(opts) -> int:
    from .words import christoffel, christoffel_tree

    if opts.get("tree") is not None:
        nodes = christoffel_tree(opts["tree"])
        _emit_json([{"u": n.u, "v": n.v, "depth": n.depth} for n in nodes])
        return 0
    if not opts.get("slope"):
        raise ValueError("christoffel needs --slope or --tree")
    frac = Fraction(opts["slope"])
    print(christoffel(frac.numerator, frac.denominator))
    return 0


def _cmd_signature(opts) -> int:
    from .words import signature

    sig = signature(opts["word"])
    print(f"{sig.m},{sig.k},{sig.l}")
    return 0


def _cmd_example(opts) -> int:
    from .constructions import counterexample_family, verify_example

    fam = counterexample_family(opts["n"])
    out = {
        "n": fam.n,
        "c": fam.c,
        "A": fam.A.rows(),
        "B": fam.B.rows(),
        "polygon_half_vertices": [list(v) for v in fam.polygon.half_vertices],
    }
    if opts.get("verify"):
        out["verification"] = verify_example(opts["n"], opts["max_len"]).to_json_dict()
    _emit_json(out)
    return 0


def _cmd_realize(opts) -> int:
    from .constructions import realize_from_tuple

    pair = realize_from_tuple(_parse_tuple(opts["tuple"]))
    _emit_json(pair.to_json_dict())
    return 0


def _cmd_symmetrize(opts) -> int:
    from .constructions import symmetrize

    _emit_json(symmetrize(_load_pair(opts["pair"]), opts["tol"]).to_json_dict())
    return 0


def _cmd_montecarlo(opts) -> int:
    from .regions import monte_carlo_regions

    counts = monte_carlo_regions(opts["seed"], opts["samples"], opts["dist"])
    print("region,count")
    for key, value in counts.items():
        print(f"{key},{value}")
    return 0


def reproduce_all(seed: int = 0, only: list[str] | None = None) -> int:
    """Run the acceptance criteria, print one pass/fail line per criterion."""
    from .acceptance import CRITERIA

    failures = 0
    for name, fn in CRITERIA:
        if only and name not in only:
            continue
        result = fn(seed)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.seconds:.1f}s): {result.detail}")
        failures += 0 if result.passed else 1
    return 0 if failures == 0 else 1


def _cmd_reproduce(opts) -> int:
    from .acceptance import criterion_names

    if opts.get("list"):
        for name in criterion_names():
            print(name)
        return 0
    unknown = sorted(set(opts.get("only") or ()) - set(criterion_names()))
    if unknown:
        print(f"error: unknown criterion name(s) {', '.join(unknown)}; "
              f"valid names: {', '.join(criterion_names())}", file=sys.stderr)
        return 2
    return reproduce_all(opts["seed"], opts.get("only"))


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__, kernels

    top = argparse.ArgumentParser(
        prog="smplab",
        description="Region classification and optimal-product certificates "
                    "for pairs of real 2x2 matrices.")
    top.add_argument("--version", action="version",
                     version=f"smplab {__version__} (kernels: {kernels.BACKEND})")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_pair(p, batch=False):
        p.add_argument("--pair", help="pair JSON file ('-' for stdin)")
        if batch:
            p.add_argument("--batch", help="newline-delimited pair JSON file")

    p = add("classify", _cmd_classify, help="region flags and margins")
    add_pair(p, batch=True)
    p.add_argument("--tuple", nargs="?", const=True, default=None,
                   help="classify a 5-tuple x,y,z,u,v (bare flag: classify "
                        "the --pair through its invariants)")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("jsr", _cmd_jsr, help="brute-force bounds report")
    add_pair(p, batch=True)
    p.add_argument("--max-len", type=int, default=12, dest="max_len")

    p = add("smp", _cmd_smp, help="certified or candidate optimal product")
    add_pair(p, batch=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("sturmian", _cmd_sturmian,
            help="maximize the Sturmian parameter (co-parallel)")
    add_pair(p)
    p.add_argument("--resolution", type=_parse_fraction, default=Fraction(1, 1024))

    p = add("lyap", _cmd_lyap, help="Lyapunov value of one Sturmian slope")
    add_pair(p)
    p.add_argument("--gamma", required=True,
                   help="slope as p/q (exact) or a decimal (convergent approximation)")
    p.add_argument("--depth", type=int, default=12,
                   help="convergent depth for decimal slopes")

    p = add("fricke", _cmd_fricke, help="integer trace polynomial of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--at", help="evaluate at 5-tuple x,y,z,u,v")

    p = add("christoffel", _cmd_christoffel, help="Christoffel word or tree")
    p.add_argument("--slope", help="p/q in lowest terms")
    p.add_argument("--tree", type=int, help="print the tree to this depth")

    p = add("signature", _cmd_signature, help="(zeros, ones, 01-count) of a word")
    p.add_argument("--word", required=True)

    p = add("example", _cmd_example, help="invariant-polygon family member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")

    p = add("realize", _cmd_realize, help="matrices attaining a 5-tuple")
    p.add_argument("--tuple", required=True)

    p = add("symmetrize", _cmd_symmetrize, help="symmetric form of a crossing pair")
    add_pair(p)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add(
        "montecarlo", _cmd_montecarlo, help="region frequencies as CSV",
        description="CSV columns: region,count. Rows: cross, mix, neg, copar, "
                    "anti, complex, reducible, indeterminate, union4, "
                    "cross&mix, cross&neg, copar&cross, total.")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--dist", default="normal", choices=["normal", "uniform01"])

    p = add("reproduce", _cmd_reproduce, help="run the acceptance criteria")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--list", action="store_true", help="print criterion names only")
    p.add_argument("--only", nargs="*", help="restrict to these criterion names")
    return top


def main(argv: list[str] | None = None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    try:
        return opts.pop("handler")(opts)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
