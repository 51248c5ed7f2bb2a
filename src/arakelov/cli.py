"""Command-line front door: JSON in, JSON out, stable error codes.

Exit codes: 0 success, 1 domain error (degenerate input, residue
characteristic 2, ...), 2 usage error.  All randomness is seeded; the
environment variable ARAKELOV_SEED overrides --seed.  Results go to stdout
(or --out) and are byte-identical across runs with the same inputs and seed;
the run manifest (with wall time) goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__, adelic, energy_arch, energy_ua, lattes, places, suite, tree
from .errors import ArakelovError


class UsageError(Exception):
    """A missing or malformed command-line argument (exit code 2)."""


def _parse_place(args) -> places.Place:
    token = getattr(args, "place", None)
    eps = float(getattr(args, "epsilon", 1.0) or 1.0)
    try:
        if token in (None, "inf", "arch"):
            return places.Place("archimedean", None, eps)
        if token == "trivial":
            return places.TRIVIAL
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
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: invalid value {text!r}") from None


def _seed(args) -> int:
    env = os.environ.get("ARAKELOV_SEED")
    if env is not None:
        return int(env)
    return int(getattr(args, "seed", 0) or 0)


def _segment_measure_from_arg(text: str, v: places.Place) -> energy_ua.SegmentMeasure:
    return energy_ua.segment_measure(tree.segment_from_json(json.loads(text), v))


def _config_json(cfg) -> dict:
    out = {"variant": cfg.variant, "la": cfg.la, "lb": cfg.lb}
    if cfg.variant == "disjoint":
        out.update(
            {"la1": cfg.la1, "la2": cfg.la2, "lb1": cfg.lb1, "lb2": cfg.lb2, "d_ab": cfg.d_ab}
        )
    else:
        out.update(
            {"l_ab": cfg.l_ab, "la1": cfg.la1, "la2": cfg.la2, "lb1": cfg.lb1, "lb2": cfg.lb2}
        )
    return out


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
    if op == "height":
        coords = [places.parse_rational(c) for c in json.loads(args.coords)]
        return {"projective_height": places.projective_height(coords)}
    if op == "affine-height":
        coords = [places.parse_rational(c) for c in json.loads(args.coords)]
        return {"affine_height": places.affine_height(coords)}
    if op == "submax":
        return {"submax": places.submax(json.loads(args.values))}
    raise argparse.ArgumentTypeError(f"unknown places op {op!r}")


def _cmd_tree(args) -> dict:
    v = _parse_place(args)
    if args.op == "classify":
        ia = tree.segment_from_json(json.loads(args.ia), v)
        ib = tree.segment_from_json(json.loads(args.ib), v)
        return {"config": _config_json(tree.classify_pair(ia, ib, v))}
    x = tree.tree_point_from_json(json.loads(args.x), v)
    y = tree.tree_point_from_json(json.loads(args.y), v)
    if args.op == "join":
        return {"join": tree.tree_point_to_json(tree.join(x, y, v))}
    if args.op == "kernel":
        return {"hsia_log_kernel": tree.hsia_log_kernel(x, y, v)}
    if args.op == "length":
        return {"path_length": tree.path_length(x, y, v)}
    raise argparse.ArgumentTypeError(f"unknown tree op {args.op!r}")


def _cmd_energy_ua(args) -> dict:
    v = _parse_place(args)
    ia = _segment_measure_from_arg(args.ia, v)
    ib = _segment_measure_from_arg(args.ib, v)
    closed = energy_ua.energy_closed_form(ia, ib, v)
    out = {
        "closed": closed,
        "config": _config_json(tree.classify_pair(ia.support, ib.support, v)),
        "bounds": energy_ua.lower_bound_report(ia, ib, v)["bounds"],
    }
    if args.oracle_n:
        out["oracle"] = energy_ua.energy_oracle(ia, ib, v, n=int(args.oracle_n))
    return out


def _cmd_energy_arch(args) -> dict:
    seed = _seed(args)
    n = int(args.samples)
    lam_a = _parsed(args, "lambda_a", places.parse_p1_point)
    lam_b = _parsed(args, "lambda_b", places.parse_p1_point)
    energy, stderr = energy_arch.lattes_sq_energy_arch(lam_a, lam_b, n, seed=seed)
    return {
        "energy": energy,
        "stderr": stderr,
        "tolerance": adelic.ARCH_NOISE_COEFF / math.sqrt(n),
        "samples": n,
    }


def _cmd_lattes(args) -> dict:
    if args.op == "segment":
        v = _parse_place(args)
        quad = lattes.as_quadruple(json.loads(args.gamma))
        seg = lattes.lattes_segment(quad, v)
        return {
            "segment": tree.segment_to_json(seg),
            "length": seg.length,
            "length_units_of_log_p": lattes.lattes_segment_length_units(quad, v),
        }
    if args.op == "torsion":
        pts = lattes.torsion_images(
            _parsed(args, "lam", places.parse_p1_point, "--lambda"),
            int(args.level),
            tol=float(args.tol),
        )
        return {
            "level": int(args.level),
            "points": [
                {"point": "inf" if p is places.INFINITY else [p.real, p.imag], "mult": m}
                for p, m in pts
            ],
            "distinct": len(pts),
            "total_multiplicity": sum(m for _, m in pts),
        }
    if args.op == "eval":
        lam = lattes.LegendreParam(_parsed(args, "lam", places.parse_p1_point, "--lambda"))
        val = lattes.legendre_lattes_eval(lam, _parsed(args, "t", places.parse_p1_point))
        return {"value": places.format_p1_point(val)}
    raise argparse.ArgumentTypeError(f"unknown lattes op {args.op!r}")


def _cmd_adelic(args) -> dict:
    seed = _seed(args)
    if args.op == "energy":
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        else:
            obj = json.loads(args.config_json)
        cfg = adelic.pair_config_from_json(obj)
        report = adelic.global_energy(
            cfg, arch_samples=int(args.arch_samples), seed=seed
        )
        return report.to_json()
    if args.op == "gap-scan":
        return adelic.gap_scan(
            count=int(args.count),
            seed=seed,
            height=int(args.height),
            arch_samples=int(args.arch_samples),
        )
    if args.op == "bft":
        a = _parsed(args, "lambda_a", places.parse_p1_point)
        b = _parsed(args, "lambda_b", places.parse_p1_point)
        return adelic.bft_scan(a, b, int(args.level), tol=float(args.tol))
    if args.op == "suite":
        return adelic.suite_scan(count=int(args.count), seed=seed, height=int(args.height))
    raise argparse.ArgumentTypeError(f"unknown adelic op {args.op!r}")


def _cmd_suite(args) -> dict:
    return suite.run_battery(quick=bool(args.quick), seed=_seed(args))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    pu.add_argument("--oracle-n", type=int, default=1000)
    common(pu, place=True)
    pu.set_defaults(func=_cmd_energy_ua)
    pa = esub.add_parser("arch", help="Monte Carlo Lattes energy over C")
    pa.add_argument("--lambda-a", required=True)
    pa.add_argument("--lambda-b", required=True)
    pa.add_argument("--samples", type=int, default=20000)
    common(pa, seed=True)
    pa.set_defaults(func=_cmd_energy_arch)

    p = sub.add_parser("lattes", help="equilibrium segments and torsion images")
    p.add_argument("op", choices=["segment", "torsion", "eval"])
    p.add_argument("--gamma", help='quadruple JSON, e.g. \'["inf","0","1","1/9"]\'')
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--t")
    common(p, place=True)
    p.set_defaults(func=_cmd_lattes)

    p = sub.add_parser("adelic", help="global energies, scans, inequality suite")
    p.add_argument("op", choices=["energy", "gap-scan", "bft", "suite"])
    p.add_argument("--config", help="path to a pair-config JSON file")
    p.add_argument("--config-json", help="inline pair-config JSON")
    p.add_argument("--arch-samples", type=int, default=4000)
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


def _digest(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        result = args.func(args)
    except ArakelovError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
        return 1
    except UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}, sort_keys=True))
        return 2
    text = json.dumps(result, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    manifest = {
        "command": argv,
        "input_digest": _digest(args),
        "seed": os.environ.get("ARAKELOV_SEED") or getattr(args, "seed", None),
        "versions": {"arakelov": __version__},
        "wall_time_s": round(time.time() - started, 3),
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)
    if args.command == "suite" and result.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
