"""Plain-text complex files.

Two headers: `skeleton n k` followed by one top face per line, or
`facets n` followed by maximal faces (downward closure is applied on
read; n above FACE_BUDGET is refused there, as the ground set is built
whole).  Faces are ascending space-separated integers, `#` starts a
comment, blank lines are skipped.  Emission is canonical (sorted faces,
single spaces, trailing newline) so emit(parse(emit(X))) is byte-stable.
A block file, the input of a Steiner-system complex, has no header: one
block per line, with the same comments and blank lines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, TooLarge, UnrepresentableComplex, VertexOutOfRange
from .simplexes import (
    FACE_BUDGET,
    Complex,
    GeneralComplex,
    SkeletonComplex,
    Simplex,
    _top_array,
    closure,
    from_top_faces,
)


@dataclass(frozen=True)
class ParsedComplex:
    complex: Union[SkeletonComplex, GeneralComplex]
    relabel_map: Optional[dict[int, int]]  # original label -> new label


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _ints(line: str, lineno: int) -> list[int]:
    vals = []
    for tok in line.split():
        try:
            vals.append(int(tok))
        except ValueError:
            raise ParseError(f"bad integer {tok!r}", line=lineno) from None
    return vals


def parse_complex_text(text: str, relabel: bool = False) -> ParsedComplex:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    toks = header.split()
    if toks[0] == "skeleton":
        if len(toks) != 3:
            raise ParseError("header must be 'skeleton n k'", line=lineno)
        n, k = _ints(" ".join(toks[1:]), lineno)
        body = lines[1:]
    elif toks[0] == "facets":
        if len(toks) != 2:
            raise ParseError("header must be 'facets n'", line=lineno)
        n = _ints(toks[1], lineno)[0]
        if n > FACE_BUDGET:
            # the ground set is built whole, before any facet is read
            raise TooLarge(f"facets header: {n} vertices exceed the budget "
                           f"of {FACE_BUDGET}")
        k = None
        body = lines[1:]
    else:
        raise ParseError(f"unknown header {toks[0]!r}", line=lineno)

    raw_faces: list[tuple[int, list[int]]] = []
    for ln, line in body:
        raw_faces.append((ln, _ints(line, ln)))

    mapping: Optional[dict[int, int]] = None
    if relabel:
        labels = sorted({v for _, face in raw_faces for v in face})
        if any(v < 0 for v in labels):
            raise VertexOutOfRange("negative vertex label")
        if len(labels) > n:
            raise ParseError(
                f"{len(labels)} distinct labels exceed declared n={n}")
        mapping = {v: i for i, v in enumerate(labels)}
        raw_faces = [(ln, [mapping[v] for v in face]) for ln, face in raw_faces]
    else:
        for ln, face in raw_faces:
            for v in face:
                if not 0 <= v < n:
                    raise VertexOutOfRange(
                        f"line {ln}: vertex {v} outside [0, {n})")

    if k is not None:
        X: Union[SkeletonComplex, GeneralComplex] = from_top_faces(
            n, k, [face for _, face in raw_faces])
    else:
        X = closure([face for _, face in raw_faces], n)
    return ParsedComplex(complex=X, relabel_map=mapping)


def parse_complex_file(path: str, relabel: bool = False) -> ParsedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_complex_text(text, relabel=relabel)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _block(line: str, lineno: int) -> Simplex:
    """One block line as a sorted tuple of distinct vertex ids, at least 0."""
    block = tuple(sorted(_ints(line, lineno)))
    if block and block[0] < 0:
        raise ParseError(f"negative vertex {block[0]}", line=lineno)
    for a, b in zip(block, block[1:]):
        if a == b:
            raise ParseError(f"repeated vertex {a}", line=lineno)
    return block


def parse_block_file(path: str) -> list[Simplex]:
    """The blocks of a design file: one block of distinct vertex ids a
    line, each sorted, with comments and blank lines as in a complex file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    try:
        blocks = [_block(line, ln) for ln, line in lines]
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    if not blocks:
        raise ParseError(f"{path}: no blocks")
    return blocks


def _maximal_faces(X: GeneralComplex) -> list[Simplex]:
    """The facets of X in lexicographic order: in a downward-closed face
    set a face is maximal iff it is no face of another with one vertex
    dropped, so one pass over the faces finds them.  This branch of
    emit_complex is library API: no command writes a GeneralComplex."""
    covered = {sigma[:i] + sigma[i + 1:] for sigma in X.faces for i in range(len(sigma))}
    return sorted(X.faces - covered)


def emit_complex(X: Complex) -> str:
    """Canonical text form; raises when the format cannot express X."""
    if isinstance(X, SkeletonComplex):
        # one % format over the sorted top array, no tuple per face
        tops = _top_array(X)
        line = " ".join(["%d"] * (X.k + 1)) + "\n"
        return f"skeleton {X.n} {X.k}\n" + line * len(tops) % tuple(tops.ravel().tolist())
    if sorted(X.ground) != list(range(X.n)):
        raise UnrepresentableComplex("ground set is not 0..n-1; relabel first")
    if X.dim == -1:
        raise UnrepresentableComplex(
            "the complex whose only face is the empty simplex has no facet form")
    out = [f"facets {X.n}"]
    if not X.is_void:
        out.extend(" ".join(map(str, f)) for f in _maximal_faces(X))
    return "\n".join(out) + "\n"


def write_complex_file(path: str, X: Complex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_complex(X))
