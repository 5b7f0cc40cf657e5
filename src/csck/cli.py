"""Command-line front end.

Subcommands: ``character``, ``evaluate``, ``scan``, ``locate``, ``verify``,
``sample-face``.  Reports are emitted as text, JSON or CSV on stdout (or
``--out``); diagnostics go to stderr only.  All numbers in reports are exact
strings ("p/q" or decimal integers); ``--approx`` adds float fields *beside*
the exact ones, never instead.

Exit codes: 0 success, 2 invalid input or usage, 3 internal invariant
violation (a proven identity failed, i.e. a bug), 4 verification failure,
141 (128 + SIGPIPE) stdout closed by its reader before the report ended; the
run then stops quietly, with nothing on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from . import __version__, cone
from .character import Dims, InvariantViolation, KahlerClass, compute_obstruction, obstruction_at, slope
from .cone import DEFAULT_WIDTH, SIGN_NAMES
from .exact import parse_rational, shown, sign

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141


def _printable(what: str, *values: Fraction | None) -> None:
    """Refuse, before any report line, a rational with more digits than ``str``
    converts: ``sys.get_int_max_str_digits()``, where 0 is no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before Python 3.10.7
    if limit and any(v is not None and max(abs(v.numerator), v.denominator) >= 10**limit for v in values):
        raise ValueError(f"{what} exceeds the printable digit limit of {limit} digits")


def _parse_class(text: str) -> KahlerClass:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated coordinates, got {shown(text)}")
    cls = KahlerClass(*(parse_rational(p) for p in parts))
    _printable("a class coordinate", *cls)
    return cls


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_width(text: str | None) -> Fraction:
    width = DEFAULT_WIDTH if text is None else parse_rational(text)
    if width <= 0:
        raise ValueError("--width must be positive")
    return width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csck",
        description="Exact cscK obstruction computations for P(H_m (+) H_n) over CP^m x CP^n.",
    )
    parser.add_argument("--version", action="version", version=f"csck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", type=Path, default=None, help="write the report to a file instead of stdout")
        p.add_argument("--no-meta", action="store_true", help="suppress the run-metadata header")
        p.add_argument("--approx", action="store_true", help="add float fields beside the exact ones")

    def add_dims(p: argparse.ArgumentParser) -> None:
        p.add_argument("-m", type=int, required=True, help=f"1 to {cone.MAX_DIM}")
        p.add_argument("-n", type=int, required=True, help=f"1 to {cone.MAX_DIM}")

    p = sub.add_parser("character", help="emit g, h and the obstruction polynomial F")
    add_dims(p)
    add_common(p, ("text", "json"))

    p = sub.add_parser("evaluate", help="evaluate F, the slope and the region label at one class")
    add_dims(p)
    p.add_argument("--class", dest="cls", required=True, help="x,y,z, each P/Q, an integer or a decimal")
    add_common(p, ("json", "text", "csv"))

    p = sub.add_parser("scan", help="batch verdicts over dimension pairs")
    dim_range = f"range a..b (or single value), 1 to {cone.MAX_DIM}"
    p.add_argument("-m", "--m", dest="m_range", required=True, help=dim_range)
    p.add_argument("-n", "--n", dest="n_range", required=True, help=dim_range)
    p.add_argument("--all-pairs", action="store_true", help="include pairs with m >= n")
    p.add_argument(
        "--jobs", type=int, default=1, help=f"parallel workers, 1 to {cone.MAX_JOBS} (result is order-independent)"
    )
    p.add_argument("--width", default=None, help="witness isolation width P/Q (default 1/2^20, at least 1/2^2048)")
    add_common(p, ("csv", "json", "text"))

    p = sub.add_parser("locate", help="isolate zero classes of F on a segment")
    add_dims(p)
    p.add_argument("--from", dest="start", required=True, help="segment start x,y,z")
    p.add_argument("--to", dest="end", required=True, help="segment end x,y,z")
    p.add_argument("--width", default=None, help="isolation width P/Q (default 1/2^20, at least 1/2^2048)")
    add_common(p, ("json", "text"))

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--deep", action="store_true", help="add the cyclotomic congruence battery")
    add_common(p, ("text", "json"))

    p = sub.add_parser("sample-face", help="signs on the interior lattice of the face x+y+z=1")
    add_dims(p)
    p.add_argument("--resolution", type=int, required=True, help=f"face denominator R, 3 to {cone.MAX_RESOLUTION}")
    add_common(p, ("csv", "json", "text"))

    return parser


def _emit(args: argparse.Namespace, params: dict, body: dict | Iterable[str]) -> None:
    """Write a report: a JSON object, or text lines (plain or CSV).

    The run-metadata header goes first unless ``--no-meta`` is set: a
    ``meta`` key for JSON, ``# key=value`` comment lines for text.  Text
    lines, and the items of a JSON value given as an iterator, are written as
    they are yielded, so a long report is never held whole.
    """
    if not args.no_meta:
        # imported here: only the meta header needs a clock, and datetime costs every start-up
        from datetime import datetime, timezone

        meta = {
            "tool": "csck",
            "version": __version__,
            "command": args.command,
            "params": params,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        if isinstance(body, dict):
            body = {"meta": meta, **body}
        else:
            header = [f"# {k}={meta[k]}" for k in ("tool", "version", "command", "generated_at")]
            body = chain(header, [f"# params={json.dumps(params)}"], body)
    lines = _json_lines(body) if isinstance(body, dict) else body
    if args.out is None:
        _write_lines(sys.stdout, lines)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as out:
            _write_lines(out, lines)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


# one encoder for every piece; a batch of list items costs one encode call
_JSON = json.JSONEncoder(indent=2)
_JSON_BATCH = 256


def _json_lines(obj: dict) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` for a non-empty ``obj``, in
    pieces.  A value that is an iterator is written as a list, encoded
    ``_JSON_BATCH`` items at a time, so the list is never held whole."""
    yield "{"
    last = len(obj) - 1
    for index, (key, value) in enumerate(obj.items()):
        head, tail = f"  {json.dumps(key)}: ", "," if index < last else ""
        if not isinstance(value, Iterator):
            yield head + _JSON.encode(value).replace("\n", "\n  ") + tail
            continue
        pending = None
        while batch := list(islice(value, _JSON_BATCH)):
            yield head + "[" if pending is None else pending + ","
            # the batch's items without the brackets, one level deeper
            pending = "  " + _JSON.encode(batch)[2:-2].replace("\n", "\n  ")
        if pending is None:
            yield head + "[]" + tail
        else:
            yield pending
            yield "  ]" + tail
    yield "}"


def _write_lines(out: TextIO, lines: Iterable[str]) -> None:
    """The lines joined by newlines, plus one final newline."""
    sep = ""
    for line in lines:
        out.write(sep)
        out.write(line)
        sep = "\n"
    out.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: Sequence[str], rows: Iterable[dict]) -> Iterator[str]:
    """A header line and one line per row, each row's cells read by column name."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(_cell(row[k]) for k in header)


def _approx(args: argparse.Namespace, **values) -> dict:
    """``<name>_approx`` float fields beside the exact ones, only under ``--approx``."""
    if not args.approx:
        return {}
    out = {}
    for name, v in values.items():
        try:
            approx = [float(c) for c in v] if isinstance(v, tuple) else None if v is None else float(v)
        except OverflowError:
            raise ValueError(f"--approx: {name} is beyond float range") from None
        out[f"{name}_approx"] = approx
    return out


def _dims(args: argparse.Namespace) -> Dims:
    """The pair (-m, -n), refused past :data:`cone.MAX_DIM` before any work."""
    if max(args.m, args.n) > cone.MAX_DIM:
        raise ValueError(f"-m and -n must be at most {cone.MAX_DIM}, got ({args.m}, {args.n})")
    return Dims(args.m, args.n)


def _cmd_character(args: argparse.Namespace) -> int:
    polys = compute_obstruction(_dims(args))
    _emit(args, {"m": args.m, "n": args.n}, polys.to_json() if args.format == "json" else [str(polys.F)])
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    d = _dims(args)
    cls = _parse_class(args.cls)
    value = obstruction_at(d, cls)
    mu = slope(d, cls) if cls.x * cls.y * cls.z != 0 else None
    _printable("F or the slope", value, mu)
    region = cone.in_kahler_triangle(d, cls)
    if value != 0:
        csck: bool | None = False
    elif region == cone.REGION_INSIDE:
        csck = True
    else:
        csck = None  # F vanishes but the class is not certified Kahler
    params = {"m": args.m, "n": args.n, "class": [str(v) for v in cls]}
    payload = {
        **params,
        "F": str(value),
        "mu": None if mu is None else str(mu),
        "sign": SIGN_NAMES[sign(value)],
        "kahler_region": region,
        "cscK_in_class": csck,
        **_approx(args, F=value, mu=mu),
    }
    if args.format == "json":
        body = payload
    elif args.format == "csv":
        header = ("m", "n", "x", "y", "z", "F", "mu", "sign", "kahler_region", "cscK_in_class")
        header += ("F_approx", "mu_approx") if args.approx else ()
        body = _csv(header, [{**payload, **dict(zip("xyz", payload["class"]))}])
    else:
        keys = ("F", "mu", "sign", "kahler_region", "cscK_in_class", "F_approx")
        body = [f"{key} = {payload[key]}" for key in keys if key in payload]
    _emit(args, params, body)
    return EXIT_OK


_SCAN_COLUMNS = ("m", "n", "limit_l1", "limit_l2", "F_at_c1", "ke_admissible", "sign_change_found", "paper_backed")


def _cmd_scan(args: argparse.Namespace) -> int:
    m_lo, m_hi = _parse_range(args.m_range)
    n_lo, n_hi = _parse_range(args.n_range)
    rows = cone.scan_range(
        m_lo, m_hi, n_lo, n_hi, all_pairs=args.all_pairs, jobs=args.jobs, width=_parse_width(args.width)
    )
    params = {
        "m": f"{m_lo}..{m_hi}",
        "n": f"{n_lo}..{n_hi}",
        "all_pairs": args.all_pairs,
    }
    objs = [
        {**row.to_json(), **_approx(args, limit_l1=row.limit1, limit_l2=row.limit2, F_at_c1=row.f_at_c1)}
        for row in rows
    ]
    if args.format == "json":
        body = {"rows": objs}
    elif args.format == "csv":
        approx = ("limit_l1_approx", "limit_l2_approx", "F_at_c1_approx") if args.approx else ()
        body = _csv(_SCAN_COLUMNS + approx, objs)
    else:
        body = [" ".join(f"{k}={_cell(obj[k])}" for k in _SCAN_COLUMNS) for obj in objs]
    _emit(args, params, body)
    return EXIT_OK


def _cmd_locate(args: argparse.Namespace) -> int:
    d = _dims(args)
    start = _parse_class(args.start)
    end = _parse_class(args.end)
    width = _parse_width(args.width)
    _printable("--width", width)
    report = cone.isolate_on_segment(d, start, end, width)
    printed = (v for root in report.roots for v in (*root.interval, *root.midpoint_class))
    _printable("a root interval or midpoint class", *printed)
    params = {
        "m": args.m,
        "n": args.n,
        "from": [str(v) for v in start],
        "to": [str(v) for v in end],
        "width": str(width),
    }
    if args.format == "json":
        body = report.to_json()
        for obj, root in zip(body["intervals"], report.roots):
            obj.update(_approx(args, lo=root.interval.lo, hi=root.interval.hi, midpoint_class=root.midpoint_class))
    else:
        body = [f"sign_from = {SIGN_NAMES[report.sign_start]}", f"sign_to = {SIGN_NAMES[report.sign_end]}"]
        if report.identically_zero:
            body.append("identically zero along the segment")
        elif not report.roots:
            body.append("no roots in (0, 1)")
        for root in report.roots:
            inside = "inside certified triangle" if root.inside_certified else "Kahler status unknown"
            body.append(
                f"root in ({root.interval.lo}, {root.interval.hi}); "
                f"midpoint class {root.midpoint_class}; {inside}"
            )
    _emit(args, params, body)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here: the battery and the localization routes it loads serve no other command
    from . import verification

    results = verification.run_checks(deep=args.deep)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        body = {"results": [r.to_json() for r in results], "failures": len(failed)}
    else:
        body = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} [{r.elapsed:.2f}s]" for r in results]
        body.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    _emit(args, {"deep": args.deep}, body)
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_sample_face(args: argparse.Namespace) -> int:
    samples = cone.sample_face(_dims(args), args.resolution)
    params = {"m": args.m, "n": args.n, "resolution": args.resolution}
    if args.format == "json":
        body = {"samples": ({**s.to_json(), **_approx(args, point=s.point)} for s in samples)}
    elif args.format == "csv":
        # the cells of _csv, formatted per line: the coordinates are Fractions in [0, 1]
        approx = ",x_approx,y_approx,z_approx" if args.approx else ""
        lines = (
            f"{x},{y},{z},{SIGN_NAMES[s]},{region}" + (f",{float(x)!r},{float(y)!r},{float(z)!r}" if approx else "")
            for (x, y, z), s, region in samples
        )
        body = chain(["x,y,z,sign,region" + approx], lines)
    else:
        body = (f"{s.point} sign={SIGN_NAMES[s.sign]} region={s.region}" for s in samples)
    _emit(args, params, body)
    return EXIT_OK


_COMMANDS = {
    "character": _cmd_character,
    "evaluate": _cmd_evaluate,
    "scan": _cmd_scan,
    "locate": _cmd_locate,
    "verify": _cmd_verify,
    "sample-face": _cmd_sample_face,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # a reader that closed the pipe early is met here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
