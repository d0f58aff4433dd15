"""Command line front end.

Commands: classify, ncc, control, table, render, search, fragility.
Exit codes: 0 success, 2 for unreadable/invalid input or flags, 1 for
internal errors.  Results go to stdout (or files under --out); stderr
carries only error messages.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .control import RegionClass, Verdict, control_of_pattern, ncc_status
from .pattern import PatternError, PeriodicPattern, parse, serialize
from .pieces import (KNIGHT, LANCE, SILVER, Moveset, Orientation, PieceKind,
                     chess_knight_moveset, reverse_chariot_moveset,
                     sideways_silver_moveset)
from .render import LAYERS, RenderSpec, render
from .search import (KIND_COLUMNS, ROW_ORDER, SearchBounds, find_crystal,
                     fragility_check, satisfies_table)
from .symmetry import (FriezeGroup, IsometryKind, classify_frieze,
                       detect_symmetries, group_of)

_VERDICT_WORD = {Verdict.COMPLETE: "complete",
                 Verdict.NEARLY_COMPLETE: "nearly",
                 Verdict.FAILS: "fail"}
_REGION_WORD = {RegionClass.INSIDE: "Inside", RegionClass.BASE: "Base",
                RegionClass.OUTSIDE: "Outside"}

_SUBSTITUTIONS = {
    "lance=reverse-chariot": (LANCE, reverse_chariot_moveset),
    "silver=sideways-silver": (SILVER, sideways_silver_moveset),
    "knight=chess-knight": (KNIGHT, chess_knight_moveset),
}


class CliError(Exception):
    """A usage error: ``main`` prints its message and exits 2."""


def _load(path: str) -> PeriodicPattern:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:  # a ParseError or PatternError
        raise CliError(f"{path}: {exc}") from exc


def _write(path: str | Path | None, text: str) -> None:
    """Write an output file, or stdout when ``path`` is empty; a path that
    cannot be written is a usage error, not an internal one."""
    if not path:
        sys.stdout.write(text)
        return
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _out_dir(path: str) -> Path:
    """Create the ``--out`` directory (before any long work)."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc
    return out


def _verdict_line(status) -> str:
    if status.verdict is Verdict.COMPLETE:
        return "verdict=Complete"
    if status.verdict is Verdict.NEARLY_COMPLETE:
        return f"verdict=NearlyComplete:{_REGION_WORD[status.uncontrolled_class]}"
    w = status.witness
    return f"verdict=Fails@({w[0]},{w[1]})"


def cmd_classify(args) -> int:
    p = _load(args.file)
    flags = detect_symmetries(p)
    print(f"group={group_of(flags).label}")
    for w in flags.witnesses:
        if w.kind is IsometryKind.REFLECT_H:
            print(f"h y={w.axis_y:g}")
        elif w.kind is IsometryKind.REFLECT_V:
            print(f"v x={w.axis_x:g}")
        elif w.kind is IsometryKind.GLIDE_H:
            print(f"g y={w.axis_y:g} shift={w.shift[0]}")
        elif w.kind is IsometryKind.GLIDE_V:
            print(f"g x={w.axis_x:g} shift={w.shift[1]}")
        else:
            print(f"r center=({w.center[0]:g},{w.center[1]:g})")
    return 0


def cmd_ncc(args) -> int:
    p = _load(args.file)
    status = ncc_status(p)
    print(_verdict_line(status))
    if args.oracle:
        from . import oracle
        board = oracle.replicate(p, oracle.sufficient_copies(p))
        agree = oracle.brute_ncc(board) == status
        print(f"oracle={'agree' if agree else 'disagree'}")
        if not agree:
            return 1
    return 0


def cmd_control(args) -> int:
    p = _load(args.file)
    ctrl = control_of_pattern(p)
    for cls in sorted(ctrl.listed):
        print(f"class ({cls[0]},{cls[1]})")
    for seg in ctrl.segments:
        a, d = seg.anchor, seg.direction
        print(f"segment ({a[0]},{a[1]})+({d[0]},{d[1]})*{seg.length}")
    for line in ctrl.free_lines:
        a, d = line.anchor, line.direction
        print(f"free ({a[0]},{a[1]})+({d[0]},{d[1]})")
    return 0


def _load_fixture_dir(path: str | None,
                      ) -> dict[FriezeGroup, PeriodicPattern]:
    """The 7 crystals in ``path`` (the bundled ones when it is empty) by
    group: 7 files of 7 distinct groups are every group."""
    if not path:
        from .fixtures import crystals_dir
        path = str(crystals_dir())
    files = sorted(Path(path).glob("*.pattern"))
    if len(files) != 7:
        raise CliError(f"{path}: expected 7 .pattern files, found {len(files)}")
    out: dict[FriezeGroup, PeriodicPattern] = {}
    for f in files:
        p = _load(str(f))
        g = classify_frieze(p)
        if g in out:
            raise CliError(f"{path}: two fixtures classify to {g.label}")
        out[g] = p
    return out


def cmd_table(args) -> int:
    fixtures = _load_fixture_dir(args.fixtures)
    table = satisfies_table(fixtures)
    lines = ["group\t" + "\t".join(k.name for k in KIND_COLUMNS)]
    for group in ROW_ORDER:
        row = [group.label]
        for kind in KIND_COLUMNS:
            row.append(_VERDICT_WORD[table[group][kind].verdict])
        lines.append("\t".join(row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_render(args) -> int:
    p = _load(args.file)
    spec = RenderSpec(format=args.format,
                      layers=tuple(args.layers.split(",")),
                      periods=args.periods)
    _write(args.out, render(p, spec))
    return 0


def _parse_target(text: str):
    if len(text) != 8 or any(ch not in "xXoO0" for ch in text):
        raise CliError("target must be 8 chars of x (fail) / o (satisfy)")
    return {kind: ch in "oO0" for kind, ch in zip(KIND_COLUMNS, text)}


def cmd_search(args) -> int:
    try:
        group = FriezeGroup(args.group)
    except ValueError as exc:
        raise CliError(f"unknown group {args.group!r}") from exc
    target = _parse_target(args.target)
    if args.limit is not None and args.limit < 1:
        raise CliError(f"--limit must be at least 1, got {args.limit}")
    try:
        w, _, h = args.box.partition("x")
        box = (int(w), int(h))
    except ValueError as exc:
        raise CliError(f"bad box {args.box!r}") from exc
    orients = frozenset((Orientation.UP, Orientation.DOWN)) \
        if args.both_orientations else frozenset((Orientation.UP,))
    try:
        bounds = SearchBounds(args.max_pieces, box, args.max_period,
                              orientations=orients,
                              allow_decorations=args.decor)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    outdir = _out_dir(args.out) if args.out else None
    reports = find_crystal(group, target, bounds, limit=args.limit)
    rows = ["index\tgroup\tpieces\tperiod\t" +
            "\t".join(k.name for k in KIND_COLUMNS)]
    for i, rep in enumerate(reports):
        rows.append("\t".join(
            [str(i), rep.group.label, str(len(rep.pattern.pieces)),
             f"({rep.pattern.t[0]},{rep.pattern.t[1]})"]
            + [_VERDICT_WORD[rep.details[k].verdict] for k in KIND_COLUMNS]))
        if outdir:
            _write(outdir / f"{group.label}_{i:03d}.pattern",
                   serialize(rep.pattern))
    if outdir:
        _write(outdir / "report.tsv", "\n".join(rows) + "\n")
    print(f"found={len(reports)}")
    return 0


def cmd_fragility(args) -> int:
    fixtures = _load_fixture_dir(args.fixtures)
    substitution: dict[PieceKind, Moveset] = {}
    for name in args.substitute or []:
        entry = _SUBSTITUTIONS.get(name)
        if entry is None:
            raise CliError(f"unknown substitution {name!r}; options: "
                           + ", ".join(sorted(_SUBSTITUTIONS)))
        kind, builder = entry
        substitution[kind] = builder()
    changed = fragility_check(fixtures, substitution)
    for group, kind in changed:
        print(f"{group.label}\t{kind.name}")
    print(f"changed={len(changed)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, so every call of ``main`` can share it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    ap = argparse.ArgumentParser(
        prog="shogi-frieze",
        description="Analyze periodic shogi patterns: control conditions, "
                    "frieze classification, search.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="frieze group and witness isometries")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ncc", help="neighborhood control verdict")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_ncc)

    p = sub.add_parser("control",
                       help="control classes, long segments and free lines")
    p.add_argument("file")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("table", help="7x8 verdict table from fixture crystals")
    p.add_argument("fixtures", nargs="?",
                   help="directory of 7 crystal files (default: bundled)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("render", help="ascii or svg diagram")
    p.add_argument("file")
    p.add_argument("--format", default="ascii", choices=["ascii", "svg"])
    p.add_argument("--layers", default="pieces",
                   help="comma separated subset of " + ",".join(LAYERS))
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("search", help="exhaustive bounded crystal search")
    p.add_argument("--group", required=True)
    p.add_argument("--target", required=True,
                   help="8 chars, x=fail o=satisfy, column order "
                        + ",".join(k.name for k in KIND_COLUMNS))
    p.add_argument("--max-pieces", type=int, required=True)
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--box", required=True, help="WxH")
    p.add_argument("--decor", action="store_true")
    p.add_argument("--both-orientations", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fragility", help="table cells changed by a moveset "
                                         "substitution")
    p.add_argument("--fixtures", help="crystal directory (default: bundled)")
    p.add_argument("--substitute", action="append",
                   help="one of: " + ", ".join(sorted(_SUBSTITUTIONS)))
    p.set_defaults(func=cmd_fragility)

    return ap, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one parser pass: a known
    command goes straight to its subparser, and leftovers are reported by
    the top-level parser as ``parse_args`` would, so output and exit codes
    are the same.  No command, an unknown one and ``-h`` stay with the
    top-level parser."""
    ap, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        ap.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (CliError, PatternError) as exc:  # ParseError is a PatternError
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
