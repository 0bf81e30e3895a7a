"""Composable subcommands over JSON documents: generation, enumeration, cycles, decompositions, f-vectors, verification.

Exit codes: 0 success, 1 usage or I/O error (an argument the command cannot
use, a document that is not UTF-8 JSON or nests deeper than the JSON decoder
reads, and an integer past the interpreter's digit limit in a document read or
written are usage errors), 2 input validation failure, 3 verification failure
(a violated identity, or a census of the whole hypercube whose histogram is
not 2*C(t,j)), 4 internal error.
An internal error, such as a DecompositionError (among them Lambda and Delta
complexes that do not coincide) or a chamber whose integer witness fails its
check, is a bug, not bad input: its traceback goes to stderr and the exit
code is 4.

``main`` parses an argument list with the parser of the command its leading
words name, recorded in ``_COMMANDS`` as ``build_parser`` adds it, and only an
argument list that names no command (``-h``, an unknown command, none at all)
with the whole tree.  Each command returns its document and exit code, and
``main`` writes the document (``_write``, its one call) as
``json.dumps(doc, indent=2)`` does; ``_json_text`` raises TypeError for a
value no document holds.  ``topes`` cuts its strings from the one form in
which the chambers are certified.  Every command that reads a tope list
reads it with ``io.tope_set_from_doc``, as distinct strings and their form,
so ``census`` cuts its columns from that form and lists those strings."""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import traceback
from itertools import compress
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Sequence

from . import io
from .arrangements import _tope_form, hypercube_topes, moment_curve, rank2_fan, totally_cyclic_fan
from .complexes import lambda_face_masks
from .core import DimensionError, Violation, _form_columns, _form_texts, _mask_text, _masks, _minus_mask, _selectors, parse_sign_vector
from .cycles import CycleError, SymmetricCycle, _find_cycle_masks, canonical_hypercube_cycle
from .decomposition import decompose
from .dehn_sommerville import check_ds
from .oracles import _size_classes, nu_counts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

_ARRANGEMENTS = {"rank2_fan": rank2_fan, "moment_curve": moment_curve, "totally_cyclic_fan": totally_cyclic_fan}
_SIGN_OPTIONS = ("--tope", "--start")  # options whose value is a '+'/'-' string
_COMMANDS: dict[tuple[str, ...], argparse.ArgumentParser] = {}  # each command's parser, by the words that name it


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers are built through parser_class, so they inherit this
        super().__init__(*args, allow_abbrev=False, **kwargs)  # "--top -+-" would miss the join below

    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a separate value that starts with '-' as an option, so a sign
        # vector after --tope or --start is joined to it: "--tope -+-" becomes "--tope=-+-"
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _SIGN_OPTIONS and arg.startswith("-") and not arg.strip("+-"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _command(p: argparse.ArgumentParser, func, *words: str) -> None:
    """Finish a command's parser: --output last in its help, func as its handler, p in _COMMANDS under words."""
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=func)
    _COMMANDS[words] = p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topecycles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate an instance (arrangement or tope set)")
    p.add_argument("kind", choices=["hypercube", *_ARRANGEMENTS])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, help="ambient dimension (moment_curve only)")
    _command(p, _cmd_gen, "gen")

    p = sub.add_parser("topes", help="enumerate the chambers of an arrangement")
    p.add_argument("--arrangement", required=True, metavar="FILE")
    _command(p, _cmd_topes, "topes")

    cyc = sub.add_parser("cycle", help="symmetric-cycle operations")
    cyc_sub = cyc.add_subparsers(dest="cycle_command", required=True, parser_class=_Parser)

    p = cyc_sub.add_parser("canonical", help="the canonical hypercube cycle")
    p.add_argument("--t", type=int, required=True)
    _command(p, _cmd_cycle_canonical, "cycle", "canonical")

    p = cyc_sub.add_parser("find", help="search a tope set for a symmetric cycle")
    p.add_argument("--topes", required=True, metavar="FILE")
    p.add_argument("--start", help="start tope as a '+'/'-' string")
    p.add_argument("--seed", type=int, default=0)
    _command(p, _cmd_cycle_find, "cycle", "find")

    p = cyc_sub.add_parser("validate", help="check the symmetric-cycle invariants")
    p.add_argument("--cycle", required=True, metavar="FILE")
    p.add_argument("--topes", metavar="FILE", help="additionally require membership in this tope set")
    _command(p, _cmd_cycle_validate, "cycle", "validate")

    p = sub.add_parser("decompose", help="minimal decomposition of a tope over a cycle")
    p.add_argument("--tope", required=True)
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    _command(p, _cmd_decompose, "decompose")

    p = sub.add_parser("fvector", help="long f-vector of the complex attached to a tope")
    p.add_argument("--tope", required=True)
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    _command(p, _cmd_fvector, "fvector")

    p = sub.add_parser("verify-ds", help="check the Dehn-Sommerville type relations")
    p.add_argument("--fvector", required=True, metavar="FILE", help="f-vector document to check")
    _command(p, _cmd_verify_ds, "verify-ds")

    p = sub.add_parser("census", help="decomposition-size histogram over a tope set")
    p.add_argument("--topes", required=True, metavar="FILE")
    p.add_argument("--cycle", required=True, metavar="FILE|canonical")
    p.add_argument("--list-topes", action="store_true", help="include the topes of each size class")
    _command(p, _cmd_census, "census")

    p = sub.add_parser("nu", help="feasible-subsystem counts of a rank-2 arrangement")
    p.add_argument("--arrangement", required=True, metavar="FILE")
    _command(p, _cmd_nu, "nu")

    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of the command the leading words of argv name, parsed by that command's parser
    alone; an argv whose words name no command goes through the whole tree, which words the top-level
    usage and "invalid choice" errors.  Both routes use the same parser objects."""
    if not _COMMANDS:
        build_parser()  # records each command's parser in _COMMANDS
    for n in (1, 2):
        leaf = _COMMANDS.get(tuple(argv[:n]))
        if leaf is not None:
            return leaf.parse_args(argv[n:])
    return build_parser().parse_args(argv)


def _json_text(v, pad: str) -> str:
    """``json.dumps(v, indent=2)``, its lines after the first indented by pad, for the values a document
    holds: dicts with str keys, lists, str, int and bool.  Anything else, None and tuples among it,
    raises TypeError naming its type."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, list):
        if not v:
            return "[]"
        try:  # a list of strings, such as the topes, in one C pass
            items = list(map(encode_basestring_ascii, v))
        except TypeError:
            items = [_json_text(x, inner) for x in v]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(x, inner) for k, x in v.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"not written by the document writer: {type(v).__name__}")


def _write(args, doc: dict) -> None:
    """Write the document a command returned to stdout, or over the file ``--output`` names; ``main``
    is its one caller.

    The file is opened without truncation, which can cost many times the write itself,
    and written from its start; a regular file is then cut at the end of the document,
    and any other file (/dev/null, a pipe, a terminal) is only written.  A write that
    fails part way exits 1, as any OSError does, and leaves a prefix of the new document
    over the old file's tail.  The text is what ``json.dumps(doc, indent=2)`` writes, built by
    ``_json_text`` rather than by the standard library's pure-Python indenting encoder, before
    the file is opened, so an integer past the interpreter's digit limit writes nothing."""
    try:
        text = _json_text(doc, "") + "\n"
    except ValueError:  # raised by int.__repr__ alone, for an integer past the digit limit
        limit = f"{sys.get_int_max_str_digits()} digits this interpreter writes"
        raise _UsageError(f"{args.output or 'stdout'}: an integer has more than the {limit}") from None
    if not args.output:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)  # open(path, "w") without O_TRUNC
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _load_cycle_arg(spec: str, t: int):
    if spec == "canonical":
        return canonical_hypercube_cycle(t)
    return io.cycle_from_doc(io.load_doc(spec))


def _cmd_gen(args) -> tuple[dict, int]:
    if (args.r is None) == (args.kind == "moment_curve"):
        raise _UsageError("--r is required by moment_curve and accepted by no other kind")
    if args.kind == "hypercube":
        doc = io.tope_set_to_doc(args.t, hypercube_topes(args.t))
    else:
        params = (args.t,) if args.r is None else (args.t, args.r)
        doc = io.arrangement_to_doc(_ARRANGEMENTS[args.kind](*params))
    return doc, EXIT_OK


def _cmd_topes(args) -> tuple[dict, int]:
    # the document io.tope_set_to_doc(arr.t, enumerate_topes(arr)) gives, its strings cut from the
    # form the topes were certified in, so no tope is packed twice
    arr = io.arrangement_from_doc(io.load_doc(args.arrangement))
    return {"t": arr.t, "topes": _form_texts(_tope_form(arr), arr.t)}, EXIT_OK


def _cmd_cycle_canonical(args) -> tuple[dict, int]:
    return io.cycle_to_doc(canonical_hypercube_cycle(args.t)), EXIT_OK


def _cmd_cycle_find(args) -> tuple[dict, int]:
    """``find_symmetric_cycle``'s search on the minus masks of the distinct listed strings, each mask
    keyed to its string; with no --start the starts come '+' before '-', ascending order for the strings."""
    t, strings, form = io.tope_set_from_doc(io.load_doc(args.topes))
    members = dict(zip(_masks(form, t), strings))
    if args.start is None:
        starts = sorted(members, key=members.__getitem__)
    else:  # read where find_symmetric_cycle reads start: when the search asks for it, after the pool checks
        starts = (_minus_mask(parse_sign_vector(s), t) for s in [args.start])
    cycle = _find_cycle_masks(members, t, starts, args.seed)
    return {"found": False, "t": t} if cycle is None else io.cycle_to_doc(cycle), EXIT_OK


def _cmd_cycle_validate(args) -> tuple[dict, int]:
    t, masks = io.cycle_masks_from_doc(io.load_doc(args.cycle))
    members = None
    if args.topes:
        tope_t, _, form = io.tope_set_from_doc(io.load_doc(args.topes))
        if tope_t != t:
            raise DimensionError(f"tope set t={tope_t} does not match cycle ground set t={t}")
        members = set(_masks(form, t))
    try:
        SymmetricCycle(masks)
        violations = []
    except CycleError as exc:
        violations = exc.violations
    # membership is checked after the invariants, and not at all for a cycle of the wrong shape
    if members is not None and not (violations and violations[0].kind == "shape"):
        violations += [
            Violation("membership", (k,), f"vertex {k} ({_mask_text(m, t)}) is not in the tope set")
            for k, m in enumerate(masks)
            if m not in members
        ]
    doc = {
        "ok": not violations,
        "violations": [{"kind": v.kind, "where": list(v.where), "detail": v.detail} for v in violations],
    }
    return doc, EXIT_OK if not violations else EXIT_INVALID


def _cmd_decompose(args) -> tuple[dict, int]:
    tope = parse_sign_vector(args.tope)
    cycle = _load_cycle_arg(args.cycle, len(tope))
    return io.decomposition_to_doc(decompose(tope, cycle)), EXIT_OK


def _cmd_fvector(args) -> tuple[dict, int]:
    # a Lambda/Delta mismatch raises DecompositionError (exit 4)
    tope = parse_sign_vector(args.tope)
    cycle = _load_cycle_arg(args.cycle, len(tope))
    return io.fvector_to_doc(lambda_face_masks(tope, cycle).f_vector), EXIT_OK


def _cmd_verify_ds(args) -> tuple[dict, int]:
    _, f = io.fvector_from_doc(io.load_doc(args.fvector))
    report = check_ds(f)
    return io.ds_report_to_doc(report), EXIT_OK if report.passes else EXIT_VERIFY


def _cmd_census(args) -> tuple[dict, int]:
    """The document of the library ``census`` of the listed topes, written by ``io.census_to_doc``, with
    no tuple made: ``_size_classes`` runs on the columns of the distinct strings' form, and a listed
    class is its strings in ascending order, census's order, since '+' < '-'."""
    t, strings, form = io.tope_set_from_doc(io.load_doc(args.topes))
    cycle = _load_cycle_arg(args.cycle, t)
    if cycle.t != t:
        raise DimensionError(f"tope length {t} does not match cycle ground set t={cycle.t}")
    n = len(strings)
    classes = _size_classes(_form_columns(form, t), n, cycle)
    histogram = {s: m.bit_count() for s, m in classes}
    expected = None
    # the topes are distinct and of the cycle's length, so 2^t of them are the whole hypercube;
    # t is the length of the strings read, so 2^t stays cheap
    if n == 2**t:
        expected = {j: 2 * comb(t, j) for j in range(1, t + 1, 2)}
    listed = {s: sorted(compress(strings, _selectors(m, n))) for s, m in classes} if args.list_topes else None
    doc = io.census_to_doc(t, histogram, expected, listed)
    return doc, EXIT_VERIFY if doc.get("match") is False else EXIT_OK


def _cmd_nu(args) -> tuple[dict, int]:
    arr = io.arrangement_from_doc(io.load_doc(args.arrangement))
    return {"t": arr.t, "nu": list(nu_counts(arr))}, EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        doc, code = args.func(args)
        _write(args, doc)
        return code
    except (_UsageError, io.SchemaError, OSError) as exc:
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
