"""Command-line front end.

Subcommands:

    solve      boundary file -> CSV of u on a polar grid (x, y, re, im)
    expand     boundary file -> JSON of series coefficients
    bounds     JSON report of every bound constant at (alpha, beta, p)
    audit      run a named check suite; exit 1 when violations are found
    identities shorthand for `audit --suite identities`

Exit codes: 0 success / audit pass, 1 audit violations, 2 bad arguments,
3 malformed input file, or a `solve` document of Fourier order at least
nodes/2, whose modes the nodes cannot tell from their aliases.  Output
is deterministic for a fixed seed and configuration up to the
`timestamp` field of JSON reports.

Each command computes its whole result, then writes every output
through one writer, `_write_outputs`, all or none.  No output is opened
before its result exists, so a command that exits 2 or 3 on its
arguments or input file leaves its `--out` and `--csv` files untouched.
A command that cannot write an output in full exits 3 and leaves every
output as it was.  JSON is the
text of `json.dumps(doc, indent=2)` byte for byte, a non-finite float
written as null, made in one pass by `_json_text`, which takes about half
the time of `json.dumps`: the standard library writes indented JSON with
its pure-Python encoder.  CSV is the text of csv.writer with each float
written to 17 significant digits, made by `_csv_chunks` from blocks of
columns: a block of float columns in one formatting pass, as float text
needs no quoting, and any other block through csv.writer.  `solve` hands
it the grid `_CSV_BLOCK` rows at a time and the writer writes each
block's text as it is made, so the text held at once does not grow with
the grid.

`main` builds the argument parser once per process, on its first call,
and looks up the subcommand's handler at each call, so a replaced
`cmd_*` function takes effect at once.  This saves time only where one
process calls `main` many times, as the tests and perfbench do; the
`abharmonic` console script calls it once per process.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import math
import os
import stat
import sys
from contextlib import suppress
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from . import boundary
from ._quad import DEFAULT_NODES, circle_nodes
from .audit import DEFAULT_SEED, SUITE_NAMES, run_suite
from .bounds import HolderPair, full_report
from .errors import BoundaryFileError, ConvergenceError, DomainError, ParameterError
from .harmonic import check_nodes, coefficients_from_boundary, poisson_extension
from .kernel import make_params

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_ARGS = 2
EXIT_BAD_FILE = 3

# solve's rows per CSV block: the floats and text held at once stay near 1.5 MB
_CSV_BLOCK = 4096


def _parse_nodes(text: str) -> int:
    try:
        return check_nodes(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def _parse_grid(text: str):
    try:
        nr, nt = text.lower().split("x")
        nr, nt = int(nr), int(nt)
    except ValueError as exc:
        raise ParameterError(f"--grid expects NRxNT, got {text!r}") from exc
    if nr < 1 or nt < 1:
        raise ParameterError("--grid dimensions must be positive")
    return nr, nt


# the text of a str, int, bool or None by exact type; floats are written
# where they are met, as they are the bulk of every report
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(obj, indent: int) -> str:
    """The text of json.dumps(obj, indent=indent), byte for byte, except
    that a non-finite float is written as null: JSON has no NaN or
    infinity, and a non-finite audit margin is already a violation.  What
    json.dumps rejects raises as it does there: TypeError for an object it
    cannot write, ValueError for a non-finite float key."""
    parts = []
    _json_parts(obj, parts, "\n", " " * indent)
    return "".join(parts)


def _json_parts(obj, parts: list, newline: str, step: str) -> None:
    # obj appended to parts at the depth whose line breaks are newline
    if isinstance(obj, dict):
        brackets, items = "{}", obj.items()
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", enumerate(obj)
    else:
        parts.append(_json_scalar(obj))
        return
    if not obj:
        parts.append(brackets)
        return
    inner = newline + step
    sep = brackets[0] + inner
    keyed = brackets == "{}"
    for k, v in items:
        parts.append(sep)
        sep = "," + inner
        if keyed:
            parts.append(encode_basestring_ascii(k) + ": " if isinstance(k, str) else _json_key(k))
        t = type(v)
        if t is float:
            parts.append(float.__repr__(v) if -math.inf < v < math.inf else "null")
        elif t in _SCALAR_TEXT:
            parts.append(_SCALAR_TEXT[t](v))
        else:
            _json_parts(v, parts, inner, step)
    parts.append(newline + brackets[1])


def _json_scalar(obj) -> str:
    # a leaf that is not of an exact scalar type, tested in json's order
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _SCALAR_TEXT[type(obj)](obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if -math.inf < obj < math.inf else "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    # a dict key that is not a str and its separator, converted as
    # json.dumps converts it
    if isinstance(key, float) and not -math.inf < key < math.inf:
        raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
    if isinstance(key, (int, float)) or key is None:
        return '"' + _json_scalar(key) + '": '
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _csv_chunks(header, blocks):
    """The CSV text of header, then of the rows of each block: a chunk of
    text for the header and one for each block.

    A block is a sequence of equal-length columns; its i-th row holds the
    i-th item of each.  A float is written to 17 significant digits, None
    as an empty field, anything else as csv.writer writes it.  A block
    whose columns hold only floats is formatted in one pass, a row per
    template; any other goes through csv.writer.  Blocks may come from a
    generator: each block is drawn only once the previous chunk is taken."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerow(header)
    yield lines.pop()
    for columns in blocks:
        rows = zip(*columns)
        if all(set(map(type, c)) <= {float} for c in columns):
            # float text needs no quoting, so this is what csv.writer writes
            template = ",".join(["%.17g"] * len(columns)) + "\r\n"
            yield "".join(map(template.__mod__, rows))
        else:
            # csv writes None as an empty field
            writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
            yield "".join(lines)
            lines.clear()


def _write_outputs(outputs) -> None:
    """Write each output of outputs, (path, chunks) pairs with chunks an
    iterable of text, to its path, or to stdout where the path is empty:
    all or none.  A path that names no file, or a regular file through any
    symlinks, gets its text in a new file beside the file it names, with
    that file's mode or, for a new file, the mode `open` gives; these files
    replace their targets only once all are written, so an output that
    cannot be created, opened or written in full leaves every output as it
    was.  Any other path, such as os.devnull, a FIFO or /dev/fd/N, is
    opened before anything is replaced and written after; stdout is
    written last.  Chunks are written as they are drawn, so a generator's
    text is never held whole."""
    made, opened = [], []
    try:
        for i, (path, chunks) in enumerate(outputs):
            if not path:
                continue
            try:
                st = os.stat(path)
            except FileNotFoundError:
                st = None
            if st is not None and not stat.S_ISREG(st.st_mode):
                # written through; open refuses a directory
                opened.append((open(path, "w", newline="", encoding="utf-8"), chunks))
                continue
            if st is not None and not os.access(path, os.W_OK):
                # where open(path, "w") would be refused
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            # a symlink's file is replaced, not the link; realpath walks every
            # component, so it is taken only for a link
            target = os.path.realpath(path) if os.path.islink(path) else path
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            try:
                with open(tmp, "x", newline="", encoding="utf-8") as fh:
                    made.append((tmp, target))
                    if st is not None:
                        os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
                    fh.writelines(chunks)
            except OSError as exc:
                # name the output, not its temporary file
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp, target in made:
            os.replace(tmp, target)
        made.clear()
        for fh, chunks in opened:
            fh.writelines(chunks)
    finally:
        for fh, _ in opened:
            fh.close()
        # the temporary files not moved into place
        for tmp, _ in made:
            with suppress(FileNotFoundError):
                os.remove(tmp)
    for path, chunks in outputs:
        if not path:
            sys.stdout.writelines(chunks)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_solve(args) -> int:
    params = make_params(args.alpha, args.beta)
    f = boundary.load(args.boundary)
    try:
        # argparse has checked --nodes, so only the Fourier order can fail here
        u = poisson_extension(params, f, args.nodes)
    except DomainError as exc:  # a file the nodes cannot serve: exit 3, not 2
        raise BoundaryFileError(str(exc)) from exc
    nr, nt = args.grid
    radii = [(i + 1) / (nr + 1) * args.rmax for i in range(nr)]
    # every ring before any point: a bad radius raises before a file is opened
    values = u._circles([(r, 0.0) for r in radii], nt).ravel()
    points = (np.array(radii)[:, None] * np.exp(1j * circle_nodes(nt))).ravel()
    columns = (points.real, points.imag, values.real, values.imag)
    blocks = ([c[i : i + _CSV_BLOCK].tolist() for c in columns] for i in range(0, points.size, _CSV_BLOCK))
    _write_outputs([(args.out, _csv_chunks(("x", "y", "re", "im"), blocks))])
    return EXIT_OK


def cmd_expand(args) -> int:
    params = make_params(args.alpha, args.beta)
    f = boundary.load(args.boundary)
    coeffs = coefficients_from_boundary(params, f)
    doc = {
        "alpha": params.alpha,
        "beta": params.beta,
        "coefficients": {str(k): [v.real, v.imag] for k, v in sorted(coeffs.coeffs.items())},
        "timestamp": _timestamp(),
    }
    _write_outputs([(args.out, [_json_text(doc, 2) + "\n"])])
    return EXIT_OK


def cmd_bounds(args) -> int:
    params = make_params(args.alpha, args.beta)
    hp = HolderPair.from_p(args.p)
    report = full_report(params, hp, nodes=args.nodes)
    doc = {
        "alpha": params.alpha,
        "beta": params.beta,
        "p": "inf" if math.isinf(hp.p) else hp.p,
        "report": report.to_dict(),
        "timestamp": _timestamp(),
    }
    _write_outputs([(args.out, [_json_text(doc, 2) + "\n"])])
    return EXIT_OK


def cmd_audit(args) -> int:
    params = make_params(args.alpha, args.beta)
    hp = HolderPair.from_p(args.p)
    results = run_suite(args.suite, params, hp, seed=args.seed, nodes=args.nodes)
    violations = sum(r.cases_violated for r in results)
    doc = {
        "suite": args.suite,
        "alpha": params.alpha,
        "beta": params.beta,
        "p": "inf" if math.isinf(hp.p) else hp.p,
        "seed": args.seed,
        "violations": violations,
        "results": [r.to_dict() for r in results],
        "timestamp": _timestamp(),
    }
    outputs = [(args.out, [_json_text(doc, 2) + "\n"])]
    csv_path = getattr(args, "csv", None)
    if csv_path:
        blocks = [(r.ids, r.radii, r.margins.tolist()) for r in results]
        outputs.append((csv_path, _csv_chunks(("case", "r", "margin"), blocks)))
    _write_outputs(outputs)
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def _add_common(sub):
    sub.add_argument("--alpha", type=float, default=0.0, help="first weight")
    sub.add_argument("--beta", type=float, default=0.0, help="second weight")
    sub.add_argument("--p", type=float, default=2.0, help="boundary exponent, number or 'inf'")
    sub.add_argument(
        "--nodes",
        type=_parse_nodes,
        default=DEFAULT_NODES,
        help="quadrature nodes, a power of two >= 64: the Poisson nodes of solve and of the five "
        "boundary checks, the bound-constant nodes of bounds; lemma and identity checks use 2048",
    )
    sub.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED, help="seed for randomized checks")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abharmonic",
        description="Weighted-kernel harmonic extensions on the unit disk: "
        "solve, expand, evaluate bound constants, and audit inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="evaluate the extension on a polar grid")
    _add_common(s)
    s.add_argument("boundary", help="boundary-data JSON document")
    s.add_argument("--grid", type=_parse_grid, default=(16, 64), help="NRxNT polar grid")
    s.add_argument("--rmax", type=float, default=0.95, help="outermost grid radius")

    s = subs.add_parser("expand", help="boundary data to series coefficients")
    _add_common(s)
    s.add_argument("boundary", help="boundary-data JSON document")

    s = subs.add_parser("bounds", help="report all bound constants")
    _add_common(s)

    s = subs.add_parser("audit", help="run a named check suite")
    _add_common(s)
    s.add_argument("--suite", choices=SUITE_NAMES, default="all")
    s.add_argument("--csv", default=None, help="also write per-case margins as CSV")

    s = subs.add_parser("identities", help="run the identity checks")
    _add_common(s)
    s.set_defaults(suite="identities")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0,) else EXIT_OK
    # the handlers are looked up at each call, not kept in the cached parser
    handlers = {
        "solve": cmd_solve,
        "expand": cmd_expand,
        "bounds": cmd_bounds,
        "audit": cmd_audit,
        "identities": cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except BoundaryFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except (ParameterError, DomainError, ConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
