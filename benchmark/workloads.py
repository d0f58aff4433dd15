"""The three workloads: each loads its inputs, lists the operations of one
pass, and checks the outputs of a pass after the timed passes.

An operation is a zero-argument callable returning its output; a CLI
command's output is `(exit code, stdout, stderr)`.  `check` raises
`CheckError` for a wrong output and `KnownFault` for one that a named fault
of the program explains (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import shogi_frieze as sf
from shogi_frieze import cli, control, search, symmetry

import checks
import inputs
from checks import BruteForm, CheckError, KnownFault, expect
from patterns import normalized, read, rep

FIXTURES = Path(sf.__file__).resolve().parent / "fixtures" / "crystals"


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (code, out.getvalue(), err.getvalue())


def stdout_of(output, stem: str = "") -> str:
    """The stdout of a CLI command that must succeed.  The second file of a
    custom-kind pair is refused while kinds live in one process-global
    registry; that refusal is the known fault, any other is wrong."""
    code, out, err = output
    if code == 0:
        return out
    if (code == 2 and "already registered" in err
            and stem in inputs.CUSTOM_REFUSED):
        raise KnownFault(f"refused: {err.strip()}")
    raise CheckError(f"exit {code}: {err.strip()}")


def parse_all(files):
    """Parse every file with the package, as set-up does; a file the
    package rejects stays unparsed."""
    out = {}
    for f in files:
        try:
            out[f.stem] = sf.parse(f.read_text("utf-8"))
        except (sf.PatternError, ValueError):
            out[f.stem] = None
    return out


class CliAnalyze:
    """Each generated file through ncc, classify, control and svg render;
    the custom-kind pairs and the vertical files likewise; then table,
    fragility with each substitution, one small search with --out, and
    ncc/classify on every file the search wrote."""

    COMMANDS = ("ncc", "classify", "control", "render")

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.files = sorted(work.glob("*.pattern"))
        self.found = work / "found"
        parse_all(self.files)

    def ops(self):
        ops = []
        for f in self.files:
            for cmd in self.COMMANDS:
                argv = [cmd, str(f)]
                if cmd == "render":
                    argv += ["--format", "svg", "--layers",
                             "pieces,partition,control"]
                ops.append((f"{cmd}:{f.stem}", lambda a=argv: run_cli(a)))
        ops.append(("table", lambda: run_cli(["table"])))
        for name in checks.SUBSTITUTIONS:
            ops.append((f"fragility:{name}", lambda n=name: run_cli(
                ["fragility", "--substitute", n])))
        ops.append(("search", self._search))
        for cmd in ("ncc", "classify"):
            ops.append((f"{cmd}:found", lambda c=cmd: self._read_back(c)))
        return ops

    def _search(self):
        shutil.rmtree(self.found, ignore_errors=True)
        return run_cli(["search", *inputs.SEARCH_ARGS,
                        "--out", str(self.found)])

    def _read_back(self, cmd):
        return tuple(run_cli([cmd, str(f)]) for f in self._found_files())

    def _found_files(self):
        return sorted(self.found.glob("*.pattern"))

    def check(self, name: str, output) -> None:
        if name.startswith(("fragility:", "table", "search")):
            fixtures = getattr(self, "_fixtures", None)
            if fixtures is None:
                specs = [normalized(read(f.read_text("utf-8")))
                         for f in sorted(FIXTURES.glob("*.pattern"))]
                fixtures = self._fixtures = {
                    g: BruteForm(s)
                    for g, s in checks.fixture_groups(specs).items()}
        if name == "table":
            checks.check_table(fixtures, stdout_of(output))
        elif name.startswith("fragility:"):
            checks.check_fragility(fixtures, name.split(":", 1)[1],
                                   stdout_of(output))
        elif name == "search":
            specs = [read(f.read_text("utf-8")) for f in self._found_files()]
            expect(stdout_of(output) == f"found={len(specs)}\n",
                   "search count")
            checks.check_reports(inputs.SEARCH_GROUP, inputs.SEARCH_TARGET,
                                 specs)
            checks.check_complete(specs, checks.brute_search(
                inputs.SEARCH_GROUP, inputs.SEARCH_TARGET,
                *inputs.SEARCH_SPACE))
        elif name.endswith(":found"):
            cmd = name.split(":")[0]
            files = self._found_files()
            expect(len(output) == len(files), "read-back count")
            for f, out in zip(files, output):
                self._check_file(cmd, f, stdout_of(out))
        else:
            cmd, stem = name.split(":")
            self._check_file(cmd, self.work / f"{stem}.pattern",
                             stdout_of(output, stem))

    def _check_file(self, cmd, path, out):
        spec = normalized(read(path.read_text("utf-8")))
        if cmd == "classify":
            checks.check_classify(spec, out)
            return
        form = BruteForm(spec)
        if cmd == "ncc":
            checks.check_ncc(form, out)
        elif cmd == "control":
            checks.check_control(form, out)
        else:
            checks.check_render_svg(form, out)


def scan(group: str, target: dict[str, bool], bounds: sf.SearchBounds):
    kinds = {k.name: k for k in search.KIND_COLUMNS}
    return search.find_crystal(symmetry.FriezeGroup(group),
                               {kinds[k]: v for k, v in target.items()},
                               bounds)


class Search:
    """Two full bounded scans through find_crystal, no limit; the seed
    picks which runs first.  Each scan's completeness is checked on a
    smaller space: (max pieces, box, max period) over both orientations."""

    def __init__(self, seed: int, work: Path):
        kinds = search.KIND_COLUMNS
        p1 = ("p1", {k.name: False for k in kinds},
              sf.SearchBounds(3, (3, 3), 3), (3, (3, 2), 2))
        p11g = ("p11g", {k.name: k.name == "king" for k in kinds},
                sf.SearchBounds(4, (4, 3), 4), (2, (2, 3), 4))
        self.scans = [p1, p11g] if seed % 2 == 0 else [p11g, p1]

    def ops(self):
        return [(f"find_crystal:{group}",
                 lambda g=group, t=target, b=bounds: scan(g, t, b))
                for group, target, bounds, _ in self.scans]

    def check(self, name: str, reports) -> None:
        group = name.split(":")[1]
        target, small = next((t, s) for g, t, _, s in self.scans
                             if g == group)
        expect(len(reports) > 0, f"{group} scan found nothing")
        for r in reports:
            expect(r.group.value == group, "report group")
            expect({k.name: v for k, v in r.vector.items()} == target,
                   "report vector differs from the target")
        checks.check_reports(group, target,
                             [checks.spec_of(r.pattern) for r in reports])
        found = scan(group, target, sf.SearchBounds(*small))
        checks.check_complete([checks.spec_of(r.pattern) for r in found],
                              checks.brute_search(group, target, *small))


class LongPeriod:
    """classify_frieze, ncc_status and control_of_pattern on patterns whose
    translation is long."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.patterns = parse_all(sorted(work.glob("*.pattern")))

    def ops(self):
        p = self.patterns
        ops = [(f"classify:single_{T}",
                lambda q=p[f"single_{T}"]: symmetry.classify_frieze(q))
               for T in inputs.SINGLE_PERIODS]
        big = f"single_{inputs.SINGLE_PERIODS[-1]}"
        ops.append((f"ncc:{big}", lambda q=p[big]: control.ncc_status(q)))
        ops.append(("classify:diagonal",
                    lambda q=p["diagonal"]: symmetry.classify_frieze(q)))
        for name in ("rook", "diagonal"):
            ops.append((f"ncc:{name}",
                        lambda q=p[name]: control.ncc_status(q)))
            ops.append((f"control:{name}",
                        lambda q=p[name]: control.control_of_pattern(q)))
        return ops

    def check(self, name: str, output) -> None:
        """The same motif at a small period, checked by the oracle, must
        give the same group and verdict; control is checked by walking
        every move on the long period itself."""
        cmd, pattern = name.split(":")
        family = pattern.split("_")[0]
        small = normalized(read(
            (self.work / f"{family}_small.pattern").read_text("utf-8")))
        big = normalized(read(
            (self.work / f"{pattern}.pattern").read_text("utf-8")))
        if cmd == "classify":
            want = checks.brute_group(small)
            expect(output.value == want,
                   f"{pattern}: group {output.value}, small period {want}")
        elif cmd == "ncc":
            want = BruteForm(small).status()
            got = checks.engine_status(output)
            expect(got[:2] == want[:2],
                   f"{pattern}: verdict {got[:2]}, small period {want[:2]}")
            classes, lines = checks.walk_control(big)
            nbhd = {rep((p.cell[0] + dx, p.cell[1] + dy), big.t)
                    for p in big.pieces
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy}
            unc = {c for c in nbhd if c not in classes and not any(
                checks.on_line(c, a, d, big.t) for a, d in lines)}
            expect(set(output.uncontrolled) == unc,
                   f"{pattern}: uncontrolled cells differ from the walk")
            expect(got[2] is None or got[2] == min(unc),
                   f"{pattern}: witness {got[2]}")
        else:
            classes, lines = checks.walk_control(big)
            expect(set(output.classes) == classes,
                   f"{pattern}: control classes differ from the walk")
            expect({(l.anchor, l.direction) for l in output.free_lines}
                   == lines, f"{pattern}: free lines differ from the walk")


WORKLOADS = {"cli-analyze": CliAnalyze, "search": Search,
             "long-period": LongPeriod}
