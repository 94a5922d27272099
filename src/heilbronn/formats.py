"""Text file formats: point sets, grid arrangements, and witness payloads.

All formats are UTF-8 text designed to diff cleanly:

* point set -- one "x y" pair per line, '#' starts a comment; floats are
  written with repr (shortest round-trip decimal), so save/load is
  bit-exact.
* grid -- header line "grid <K> <n>", then n lines "x y" of integers.
* witness -- line 1 "HW1 <kind> K=<K> n=<n>", line 2 the bit string in
  length-prefixed hex.
"""

from __future__ import annotations

from pathlib import Path

from .coding import BitString
from .geometry import GridArrangement, PointSet
from .witnesses import WITNESS_KINDS, WitnessReport


class FormatError(ValueError):
    """A data file violated its format; message names the line."""


def save_pointset(points: PointSet, path) -> None:
    lines = [f"{p.x!r} {p.y!r}" for p in points.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _data_lines(path) -> list[tuple[int, str, str]]:
    """(line number, raw line, text before any '#' stripped) of every line
    that holds data; comments and blank lines are skipped."""
    lines = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, raw, line))
    return lines


def _xy_lines(path, lines: list[tuple[int, str, str]], number, kind: str):
    """(line number, x, y) of each 'x y' data line, in file order, both
    coordinates converted by ``number``; one that does not convert is a
    "non-<kind> coordinate"."""
    for lineno, raw, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
        try:
            x, y = number(parts[0]), number(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-{kind} coordinate in {raw!r}") from None
        yield lineno, x, y


def _parse_pointset(path, lines: list[tuple[int, str, str]]) -> PointSet:
    coords = []
    for lineno, x, y in _xy_lines(path, lines, float, "numeric"):
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise FormatError(f"{path}:{lineno}: coordinate outside the unit square")
        coords.append((x, y))
    return PointSet.from_coords(coords)


def load_pointset(path) -> PointSet:
    return _parse_pointset(path, _data_lines(path))


def save_grid(a: GridArrangement, path) -> None:
    lines = [f"grid {a.K} {a.n}"]
    lines.extend(f"{p.x} {p.y}" for p in a.points)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_grid(path, lines: list[tuple[int, str, str]]) -> GridArrangement:
    if not lines:
        raise FormatError(f"{path}: missing 'grid <K> <n>' header")
    lineno, _, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "grid":
        raise FormatError(f"{path}:{lineno}: expected header 'grid <K> <n>'")
    try:
        K, n = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-integer grid header") from None
    rows = [(x, y) for _, x, y in _xy_lines(path, lines[1:], int, "integer")]
    if len(rows) != n:
        raise FormatError(f"{path}: header promises {n} pebbles, found {len(rows)}")
    try:
        return GridArrangement.from_points(K, rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_grid(path) -> GridArrangement:
    return _parse_grid(path, _data_lines(path))


def load_points(path) -> GridArrangement | PointSet:
    """A grid file (its first data line starts with 'grid ') as a
    GridArrangement, any other file as a point set; the file is read once."""
    lines = _data_lines(path)
    if lines and lines[0][2].startswith("grid "):
        return _parse_grid(path, lines)
    return _parse_pointset(path, lines)


def save_witness(report: WitnessReport, K: int, n: int, path) -> None:
    text = f"HW1 {report.kind} K={K} n={n}\n{report.payload.to_hex()}\n"
    Path(path).write_text(text, encoding="utf-8")


def load_witness(path) -> tuple[str, int, int, BitString]:
    """Returns (kind, K, n, payload)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise FormatError(f"{path}: witness file needs a header and a payload line")
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "HW1":
        raise FormatError(f"{path}:1: expected 'HW1 <kind> K=<K> n=<n>'")
    kind = parts[1]
    if kind not in WITNESS_KINDS:
        raise FormatError(f"{path}:1: unknown witness kind {kind!r}")
    try:
        if not (parts[2].startswith("K=") and parts[3].startswith("n=")):
            raise ValueError
        K = int(parts[2][2:])
        n = int(parts[3][2:])
    except ValueError:
        raise FormatError(f"{path}:1: malformed K=/n= fields") from None
    try:
        payload = BitString.from_hex(lines[1])
    except ValueError as exc:
        raise FormatError(f"{path}:2: {exc}") from None
    return kind, K, n, payload
