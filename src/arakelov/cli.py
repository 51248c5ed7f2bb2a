"""Command-line front door: JSON in, JSON out, stable error codes.

Exit codes: 0 success, 1 domain error (degenerate input, residue
characteristic 2, a rational beyond float range, ...), 2 usage error (an
unwritable --out path among them).  All randomness is seeded; the
environment variable ARAKELOV_SEED overrides --seed.  Results go to stdout
(or --out) and are byte-identical across runs with the same inputs and seed;
the run manifest (with wall time) goes to stderr on exit 0 and on exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, adelic, energy_arch, energy_ua, lattes, places, suite, tree
from .errors import ArakelovError, NonFiniteResult


class UsageError(Exception):
    """A missing or malformed command-line argument (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors are ``UsageError``s, so that they
    print JSON like every other usage error; ``--help`` still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_place(args) -> places.Place:
    token, eps = args.place, args.epsilon
    try:
        if token in (None, "inf", "arch"):
            return places.Place("archimedean", None, eps)
        if token == "trivial":
            return places.Place("trivial", None, eps)
        return places.finite(int(token), eps)
    except ValueError as exc:
        raise UsageError(f"--place/--epsilon: {exc}") from None


def _parsed(args, dest: str, parse, flag: str | None = None):
    """``parse(args.<dest>)``; a missing or unparsable value is a usage error."""
    flag = flag or "--" + dest.replace("_", "-")
    text = getattr(args, dest, None)
    if text is None:
        raise UsageError(f"{flag} is required")
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError, KeyError, TypeError, OSError) as exc:
        raise UsageError(f"{flag}: invalid value {text!r} ({exc})") from None


def _json(parse, *extra):
    """A ``_parsed`` parser: ``parse(json.loads(text), *extra)``."""
    return lambda text: parse(json.loads(text), *extra)


def _array(items, numbers: bool = False) -> list:
    """A JSON array, of numbers other than bools when ``numbers`` is set."""
    if not isinstance(items, list):
        raise TypeError("expected a JSON array")
    if numbers and not all(type(x) in (int, float) for x in items):
        raise TypeError("expected a JSON array of numbers")
    return items


def _in_range(lo: int, hi: float = math.inf):
    """A ``_parsed`` parser for an integer in [lo, hi]."""

    def check(n: int) -> int:
        if not lo <= n <= hi:
            raise ValueError(f"must be at least {lo}" if hi == math.inf else f"must lie in [{lo}, {hi}]")
        return n

    return check


_NONNEGATIVE = _in_range(0)  # --count, --level and the seed
_HEIGHT = _in_range(2)  # height 1 has only the rationals +-1
_SAMPLES = _in_range(100, 10**7)
_ORACLE_N = _in_range(2, 10**6)


def _seed(args) -> int:
    """ARAKELOV_SEED when it is set, else --seed: a nonnegative integer."""
    env = os.environ.get("ARAKELOV_SEED")
    if env is None:
        return _parsed(args, "seed", _NONNEGATIVE)
    try:
        return _NONNEGATIVE(int(env))
    except ValueError as exc:
        raise UsageError(f"ARAKELOV_SEED: invalid value {env!r} ({exc})") from None


def _config_json(cfg) -> dict:
    lengths = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.type == "float"}
    return {"variant": cfg.variant, **lengths}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_places(args) -> dict:
    v = _parse_place(args)
    op = args.op
    if op == "logabs":
        return {"log_abs": places.log_abs(_parsed(args, "x", places.parse_rational), v)}
    if op == "valuation":
        p = _parsed(args, "p", places.finite).p  # a prime, or a usage error
        val = places.padic_valuation(_parsed(args, "x", places.parse_rational), p)
        return {"valuation": "inf" if val == math.inf else int(val)}
    if op == "residual":
        x = _parsed(args, "x", places.parse_rational)
        return {"residual": places.product_formula_residual(x)}
    if op in ("height", "affine-height"):
        coords = _parsed(args, "coords", _json(lambda cs: list(map(places.parse_rational, _array(cs)))))
        if op == "height":
            return {"projective_height": places.projective_height(coords)}
        return {"affine_height": places.affine_height(coords)}
    values = _parsed(args, "values", _json(lambda xs: _array(xs, numbers=True)))
    return {"submax": places.submax(values)}  # op == "submax"


def _cmd_tree(args) -> dict:
    v = _parse_place(args)
    if args.op == "classify":
        ia = _parsed(args, "ia", _json(tree.segment_from_json, v))
        ib = _parsed(args, "ib", _json(tree.segment_from_json, v))
        return {"config": _config_json(tree.classify_pair(ia, ib, v))}
    x = _parsed(args, "x", _json(tree.tree_point_from_json, v))
    y = _parsed(args, "y", _json(tree.tree_point_from_json, v))
    if args.op == "join":
        return {"join": tree.tree_point_to_json(tree.join(x, y, v))}
    if args.op == "kernel":
        return {"hsia_log_kernel": tree.hsia_log_kernel(x, y, v)}
    return {"path_length": tree.path_length(x, y, v)}  # op == "length"


def _cmd_energy_ua(args) -> dict:
    v = _parse_place(args)
    ia = energy_ua.segment_measure(_parsed(args, "ia", _json(tree.segment_from_json, v)))
    ib = energy_ua.segment_measure(_parsed(args, "ib", _json(tree.segment_from_json, v)))
    n = _parsed(args, "oracle_n", _ORACLE_N)
    report = energy_ua.lower_bound_report(ia, ib, v)
    return {
        "closed": report["energy"],
        "config": _config_json(tree.classify_pair(ia.support, ib.support, v)),
        "bounds": report["bounds"],
        "oracle": energy_ua.energy_oracle(ia, ib, v, n=n),
    }


def _cmd_energy_arch(args) -> dict:
    n = _parsed(args, "samples", _SAMPLES)
    lam_a = _parsed(args, "lambda_a", places.parse_p1_point)
    lam_b = _parsed(args, "lambda_b", places.parse_p1_point)
    mu_a = energy_arch.LattesMeasure(lam_a, n)
    energy, quad_err = energy_arch.lattes_pairing(mu_a, energy_arch.LattesMeasure(lam_b, n))
    return {
        "energy": energy,
        "quad_err": quad_err,
        "level": mu_a.level,
        "tolerance": adelic.arch_tolerance(n),
        "samples": n,
    }


def _cmd_lattes(args) -> dict:
    if args.op == "segment":
        v = _parse_place(args)
        quad = _parsed(args, "gamma", _json(lambda g: lattes.as_side(_array(g))))
        seg = lattes.lattes_segment(quad, v)
        return {
            "segment": tree.segment_to_json(seg),
            "length": seg.length,
            "length_units_of_log_p": lattes.lattes_segment_length_units(quad, v),
        }
    if args.op == "torsion":
        lam = _parsed(args, "lam", places.parse_p1_point, "--lambda")
        level = _parsed(args, "level", _NONNEGATIVE)
        pts = lattes.torsion_images(lam, level)
        return {
            "level": level,
            "points": [
                {"point": "inf" if p is places.INFINITY else [p.real, p.imag], "mult": m}
                for p, m in pts
            ],
            "distinct": len(pts),
            "total_multiplicity": sum(m for _, m in pts),
        }
    # op == "eval"
    lam = _parsed(args, "lam", places.parse_p1_point, "--lambda")
    val = lattes.legendre_lattes_eval(lam, _parsed(args, "t", places.parse_p1_point))
    return {"value": places.format_p1_point(val)}


def _cmd_adelic(args) -> dict:
    seed = _seed(args)
    if args.op == "energy":
        config = _json(adelic.pair_config_from_json)
        if args.config:
            cfg = _parsed(args, "config", lambda path: config(Path(path).read_text("utf-8")))
        else:
            cfg = _parsed(args, "config_json", config)
        n = _parsed(args, "arch_samples", _SAMPLES)
        return adelic.global_energy(cfg, arch_samples=n).to_json()
    if args.op == "gap-scan":
        return adelic.gap_scan(
            count=_parsed(args, "count", _NONNEGATIVE),
            seed=seed,
            height=_parsed(args, "height", _HEIGHT),
            arch_samples=_parsed(args, "arch_samples", _SAMPLES),
        )
    if args.op == "bft":
        a = _parsed(args, "lambda_a", places.parse_p1_point)
        b = _parsed(args, "lambda_b", places.parse_p1_point)
        level = _parsed(args, "level", _NONNEGATIVE)
        tol = _parsed(args, "tol", lattes.positive_tolerance)
        return adelic.bft_scan(a, b, level, tol=tol)
    count = _parsed(args, "count", _NONNEGATIVE)  # op == "suite"
    return adelic.suite_scan(count=count, seed=seed, height=_parsed(args, "height", _HEIGHT))


def _cmd_suite(args) -> dict:
    return suite.run_battery(quick=bool(args.quick), seed=_seed(args))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="arakelov",
        description="Energies and heights on the Berkovich projective line over Q",
    )
    ap.add_argument("--out", help="write the result JSON to this file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, place=False, seed=False):
        # accepted after the subcommand as well; SUPPRESS keeps a top-level
        # --out from being clobbered by the subparser default
        p.add_argument("--out", default=argparse.SUPPRESS,
                       help="write the result JSON to this file instead of stdout")
        if place:
            p.add_argument("--place", help="prime, 'inf', or 'trivial'")
            p.add_argument("--epsilon", type=float, default=1.0)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("places", help="valuations, absolute values, heights")
    p.add_argument("op", choices=["logabs", "valuation", "residual", "height", "affine-height", "submax"])
    p.add_argument("--x")
    p.add_argument("--p", type=int)
    p.add_argument("--coords")
    p.add_argument("--values")
    common(p, place=True)
    p.set_defaults(func=_cmd_places)

    p = sub.add_parser("tree", help="joins, kernels, lengths, pair classification")
    p.add_argument("op", choices=["join", "kernel", "length", "classify"])
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--ia")
    p.add_argument("--ib")
    common(p, place=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("energy", help="segment or archimedean energies")
    esub = p.add_subparsers(dest="energy_kind", required=True)
    pu = esub.add_parser("ua", help="ultrametric segment-vs-segment energy")
    pu.add_argument("--ia", required=True)
    pu.add_argument("--ib", required=True)
    pu.add_argument("--oracle-n", type=int, default=1000, help="2 to 10^6")
    common(pu, place=True)
    pu.set_defaults(func=_cmd_energy_ua)
    pa = esub.add_parser("arch", help="Lattes-Lattes energy over C by torus-grid quadrature")
    pa.add_argument("--lambda-a", required=True)
    pa.add_argument("--lambda-b", required=True)
    pa.add_argument("--samples", type=int, default=20000,
                    help="100 to 10^7; sets the grid level min(7, max(2, ceil(log_4 n)))")
    pa.add_argument("--seed", type=int, default=0, help="accepted; changes no output")
    common(pa)
    pa.set_defaults(func=_cmd_energy_arch)

    p = sub.add_parser("lattes", help="equilibrium segments and torsion images")
    p.add_argument("op", choices=["segment", "torsion", "eval"])
    p.add_argument("--gamma", help='quadruple JSON, e.g. \'["inf","0","1","1/9"]\'')
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--t")
    common(p, place=True)
    p.set_defaults(func=_cmd_lattes)

    p = sub.add_parser("adelic", help="global energies, scans, inequality suite")
    p.add_argument("op", choices=["energy", "gap-scan", "bft", "suite"])
    p.add_argument("--config", help="path to a pair-config JSON file")
    p.add_argument("--config-json", help="inline pair-config JSON")
    p.add_argument("--arch-samples", type=int, default=4000, help="100 to 10^7")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--height", type=int, default=20)
    p.add_argument("--lambda-a")
    p.add_argument("--lambda-b")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-7)
    common(p, seed=True)
    p.set_defaults(func=_cmd_adelic)

    p = sub.add_parser("suite", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=_cmd_suite)

    return ap


_parser = functools.cache(build_parser)  # one parser per process; parse_args leaves it as it was


def _result_text(result: dict) -> str:
    """The result as JSON; an infinite or NaN float has no JSON form and is an error."""
    try:
        return json.dumps(result, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"the result is not finite: {exc}") from None


def _write_out(path: str, text: str) -> None:
    """Write the result to ``--out``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"--out: cannot write {path!r} ({exc.strerror})") from None


def _digest(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _print_manifest(argv: list[str], args: argparse.Namespace, started: float) -> None:
    """The run manifest, one JSON line on stderr: after every parsed command,
    whether it succeeded or failed with a domain error."""
    manifest = {
        "command": argv,
        "input_digest": _digest(args),
        "seed": os.environ.get("ARAKELOV_SEED") or getattr(args, "seed", None),
        "versions": {"arakelov": __version__},
        "wall_time_s": round(time.time() - started, 3),
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.time()
    try:
        args = _parser().parse_args(argv)
        result = args.func(args)
        text = _result_text(result)
        if args.out:
            _write_out(args.out, text)
    except ArakelovError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        _print_manifest(argv, args, started)
        return 1
    except UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}, sort_keys=True))
        return 2
    if not args.out:
        print(text)
    _print_manifest(argv, args, started)
    if args.command == "suite" and result.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
