"""Composable subcommands over JSON documents: generation, enumeration, cycles, decompositions, f-vectors, verification.

Exit codes: 0 success, 1 usage or I/O error, 2 input validation failure,
3 verification failure (a violated identity or a census mismatch), 4 internal
error.  An internal error, such as a DecompositionError (among them Lambda
and Delta complexes that do not coincide) or a chamber whose integer witness
fails its check, is a bug, not bad input: its traceback goes to stderr and
the exit code is 4."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from math import comb
from typing import Callable, Sequence

from . import io
from .arrangements import enumerate_topes, generate
from .complexes import delta_face_masks, lambda_face_masks, long_f_vector
from .core import parse_sign_vector
from .cycles import canonical_hypercube_cycle, find_symmetric_cycle, validate_cycle
from .decomposition import decompose
from .dehn_sommerville import check_ds
from .oracles import census, nu_counts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topecycles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate an instance (arrangement or tope set)")
    p.add_argument("kind", choices=["hypercube", "rank2_fan", "moment_curve", "totally_cyclic_fan"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, help="ambient dimension (moment_curve only)")
    _output_options(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("topes", help="enumerate the chambers of an arrangement")
    p.add_argument("--arrangement", required=True, metavar="FILE")
    _output_options(p)
    p.set_defaults(func=_cmd_topes)

    cyc = sub.add_parser("cycle", help="symmetric-cycle operations")
    cyc_sub = cyc.add_subparsers(dest="cycle_command", required=True, parser_class=_Parser)

    p = cyc_sub.add_parser("canonical", help="the canonical hypercube cycle")
    p.add_argument("--t", type=int, required=True)
    _output_options(p)
    p.set_defaults(func=_cmd_cycle_canonical)

    p = cyc_sub.add_parser("find", help="search a tope set for a symmetric cycle")
    p.add_argument("--topes", required=True, metavar="FILE")
    p.add_argument("--start", help="start tope as a '+'/'-' string")
    p.add_argument("--seed", type=int, default=0)
    _output_options(p)
    p.set_defaults(func=_cmd_cycle_find)

    p = cyc_sub.add_parser("validate", help="check the symmetric-cycle invariants")
    p.add_argument("--cycle", required=True, metavar="FILE")
    p.add_argument("--topes", metavar="FILE", help="additionally require membership in this tope set")
    _output_options(p)
    p.set_defaults(func=_cmd_cycle_validate)

    p = sub.add_parser("decompose", help="minimal decomposition of a tope over a cycle")
    p.add_argument("--tope", required=True)
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    _output_options(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fvector", help="long f-vector of the complex attached to a tope")
    p.add_argument("--tope", required=True)
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    p.add_argument("--method", choices=["lambda", "delta", "both"], default="lambda")
    _output_options(p, tsv=True)
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("verify-ds", help="check the Dehn-Sommerville type relations")
    p.add_argument("--fvector", metavar="FILE", help="f-vector document to check")
    p.add_argument("--tope", help="tope whose complex to check (with --cycle)")
    p.add_argument("--cycle", metavar="FILE|canonical")
    _output_options(p)
    p.set_defaults(func=_cmd_verify_ds)

    p = sub.add_parser("census", help="decomposition-size histogram over a tope set")
    p.add_argument("--topes", required=True, metavar="FILE")
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    p.add_argument("--expect-hypercube", action="store_true", help="compare against 2*C(t,j) and fail on mismatch")
    p.add_argument("--list-topes", action="store_true", help="include the topes of each size class")
    _output_options(p, tsv=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("nu", help="feasible-subsystem counts of a rank-2 arrangement")
    p.add_argument("--arrangement", required=True, metavar="FILE")
    _output_options(p, tsv=True)
    p.set_defaults(func=_cmd_nu)

    return parser


def _output_options(p: argparse.ArgumentParser, tsv: bool = False) -> None:
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    if tsv:
        p.add_argument("--format", choices=["json", "tsv"], default="json")


def _write(args, doc: dict, tsv_render: Callable[[dict], str] | None = None) -> None:
    if getattr(args, "format", "json") == "tsv" and tsv_render is not None:
        text = tsv_render(doc)
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cycle_arg(spec: str, t_hint: int | None):
    if spec == "canonical":
        if t_hint is None:
            raise ValueError("--cycle canonical needs the ground-set size from context")
        return canonical_hypercube_cycle(t_hint)
    return io.cycle_from_doc(io.load_doc(spec))


def _cmd_gen(args) -> int:
    instance = generate(args.kind, args.t, args.r)
    if isinstance(instance, list):
        doc = io.tope_set_to_doc(args.t, instance)
    else:
        doc = io.arrangement_to_doc(instance)
    _write(args, doc)
    return EXIT_OK


def _cmd_topes(args) -> int:
    arr = io.arrangement_from_doc(io.load_doc(args.arrangement))
    _write(args, io.tope_set_to_doc(arr.t, enumerate_topes(arr)))
    return EXIT_OK


def _cmd_cycle_canonical(args) -> int:
    _write(args, io.cycle_to_doc(canonical_hypercube_cycle(args.t)))
    return EXIT_OK


def _cmd_cycle_find(args) -> int:
    t, topes = io.tope_set_from_doc(io.load_doc(args.topes))
    start = parse_sign_vector(args.start) if args.start else None
    cycle = find_symmetric_cycle(topes, start=start, seed=args.seed)
    if cycle is None:
        _write(args, {"found": False, "t": t})
    else:
        _write(args, io.cycle_to_doc(cycle))
    return EXIT_OK


def _cmd_cycle_validate(args) -> int:
    vertices = io.cycle_vertices_from_doc(io.load_doc(args.cycle))
    tope_set = None
    if args.topes:
        _, tope_set = io.tope_set_from_doc(io.load_doc(args.topes))
    violations = validate_cycle(vertices, tope_set)
    _write(
        args,
        {
            "ok": not violations,
            "violations": [{"kind": v.kind, "where": list(v.where), "detail": v.detail} for v in violations],
        },
    )
    return EXIT_OK if not violations else EXIT_INVALID


def _cmd_decompose(args) -> int:
    tope = parse_sign_vector(args.tope)
    cycle = _load_cycle_arg(args.cycle, len(tope))
    _write(args, io.decomposition_to_doc(decompose(tope, cycle)))
    return EXIT_OK


def _cmd_fvector(args) -> int:
    tope = parse_sign_vector(args.tope)
    cycle = _load_cycle_arg(args.cycle, len(tope))
    if args.method == "delta":
        f = long_f_vector(delta_face_masks(tope, cycle), cycle.t)
        doc = io.fvector_to_doc(cycle.t, f, method="delta")
    else:
        # lambda_face_masks checks Lambda = Delta and raises DecompositionError (exit 4) otherwise
        f = long_f_vector(lambda_face_masks(tope, cycle), cycle.t)
        extra = {"coincide": True} if args.method == "both" else {}
        doc = io.fvector_to_doc(cycle.t, f, method=args.method, **extra)
    _write(args, doc, functools.partial(_vector_tsv, "f"))
    return EXIT_OK


def _cmd_verify_ds(args) -> int:
    if args.fvector:
        _, f = io.fvector_from_doc(io.load_doc(args.fvector))
    elif args.tope and args.cycle:
        tope = parse_sign_vector(args.tope)
        cycle = _load_cycle_arg(args.cycle, len(tope))
        f = long_f_vector(lambda_face_masks(tope, cycle), cycle.t)
    else:
        raise _UsageError("verify-ds needs --fvector or both --tope and --cycle")
    report = check_ds(f)
    _write(args, io.ds_report_to_doc(report))
    return EXIT_OK if report.passes else EXIT_VERIFY


def _cmd_census(args) -> int:
    t, topes = io.tope_set_from_doc(io.load_doc(args.topes))
    cycle = _load_cycle_arg(args.cycle, t)
    result = census(topes, cycle, list_topes=args.list_topes)
    expected = match = None
    if args.expect_hypercube:
        expected = {j: 2 * comb(t, j) for j in range(1, t + 1, 2)}
        match = result.histogram == expected
    _write(args, io.census_to_doc(result, expected, match), _census_tsv)
    return EXIT_VERIFY if match is False else EXIT_OK


def _cmd_nu(args) -> int:
    arr = io.arrangement_from_doc(io.load_doc(args.arrangement))
    counts = nu_counts(arr.normals)
    _write(args, {"t": arr.t, "nu": list(counts)}, functools.partial(_vector_tsv, "nu"))
    return EXIT_OK


def _census_tsv(doc: dict) -> str:
    expected = doc.get("expected")
    hist = doc["histogram"]
    keys = sorted({int(j) for j in hist} | ({int(j) for j in expected} if expected else set()))
    if expected is None:
        lines = ["j\tcount"] + [f"{j}\t{hist.get(str(j), 0)}" for j in keys]
    else:
        lines = ["j\tcount\texpected\tmatch"]
        for j in keys:
            count = hist.get(str(j), 0)
            want = expected.get(str(j), 0)
            lines.append(f"{j}\t{count}\t{want}\t{str(count == want).lower()}")
    return "\n".join(lines) + "\n"


def _vector_tsv(key: str, doc: dict) -> str:
    lines = [f"j\t{key}"] + [f"{j}\t{x}" for j, x in enumerate(doc[key])]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, io.SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"topecycles: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"topecycles: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception:  # anything else is a bug in the package, never bad input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
