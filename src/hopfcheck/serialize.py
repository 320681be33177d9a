"""JSON import/export for algebras and Hopf data.

Schemas (scalars are { "order": N, "coeffs": [["num","den"], ...] }):

  algebra: { "dim": n, "unit": [scalar...], "structure": [[[scalar...]...]...] }
           with structure[i][j] the dense coordinate vector of e_i e_j;
  hopf:    the algebra schema plus "comult" (an n^2 x n matrix, columns
           indexed by basis vectors, rows by first-leg-major tensor pairs),
           "counit" ([scalar...]) and "antipode" (an n x n matrix).

Ingest validates the defining axioms on construction and reports the first
broken one by name.  It pays Python work once per distinct scalar value and
once per list, not once per entry.  ingest_algebra parses scalars while json
decodes the file, through cyclotomic.scalar_hook, which parses each distinct
spelling once and shares the resulting immutable Cyclotomic by value, so the
decoded tree holds one value per distinct value rather than a dict, two lists
and two strings per scalar.  The readers vet each list of such values at C speed
and decide whether a value is zero once per distinct value (for the first
MEMO_LIMIT distinct values); a list holding anything else, a value met after
that limit, or an order that raises the lcm of the document's orders, is
read entry by entry through a ScalarMemo, which parses and locates whatever
the hook left as JSON and applies the cap on that lcm.  Only that per-entry
path reports errors, so each names the exact entry.  The readers consume
their document: they empty it once its fields are read, so that
ingest_algebra frees the decoded tree before the associativity certificate
runs.

ingest_algebra holds at most WINDOW characters of the file's text at once
(_Window): each value the text in view holds whole goes to json's own
scanner, and only containers that do not fit are walked member by member,
so a document no longer than the window is decoded by one scan, as
json.load decodes it.  A document the window refuses (text that is not
UTF-8 or not JSON, a BOM, trailing data, nesting past the recursion limit,
an integer past Python's digit limit, or a string or number longer than
half the window) is decoded whole with a fresh hook, as json.load decodes
it, so that it gets the same value or the same error.

The window also packs each coordinate list (each structure[i][j], and each
row of comult and antipode) as soon as it is decoded (_Packed): its length,
the one zero object it repeats, and a dict of its other entries by
position.  So the reader holds a dense document's nonzero cells, not a tree
of n^3 list pointers, and a packed structure list whose other entries are
all nonzero becomes its cell as it is.  The readers vet a packed list's
other entries as they vet a list's; whenever its zero is not the zero they
have vetted, its length is wrong or an entry is in doubt, they unpack it
into the identical list and read that, so every value and every error is
the one that json.load's tree gives.

Once the window has met the zero, it reads the zero's usual spelling Z
(json.dumps's text of it, {"order": 1, "coeffs": [["0", "1"]]} at order 1,
which algebra_to_json documents hold, or its compact text when only that
one is in the window's text ahead) as null in the members of a walked
list that holds coordinate lists (_Window.nulled): a member is read over
1.25 times the length of the one before it, with each exact occurrence of Z
replaced by "null", so json reads each such zero as a literal, with no dict
and no hook call, and _Packed takes None as the zero.  The replacement is
made in pieces shorter than CPython's two-way search threshold
(_nulled_text), and gives the text that one str.replace gives.  A guard
at C speed proves that reading json's: the text holds no null and no
backslash, every null stands outside a string, and the value is lists of
None and Cyclotomic values down to the coordinate lists.  Whenever it cannot, or that text
holds no Z, or the member outgrows it, the member is scanned as before, so
every value and every error is unchanged.  A document no longer than the
window is scanned whole before any zero is known, and so is read as before.
"""

import json
import re
from itertools import compress, repeat
from json.decoder import WHITESPACE
from operator import is_not

from .cyclotomic import MEMO_LIMIT, ZERO, Cyclotomic, ScalarMemo, cyc_from_json, phi_degree, scalar_hook
from .linalg import Matrix, sparse_of
from .algebra import EMPTY_CELL, AlgebraError, StructureAlgebra
from .hopf import HopfAxiomError, HopfData


class IngestError(ValueError):
    pass


def algebra_to_json(alg: StructureAlgebra) -> dict:
    n = alg.dim
    zero = ZERO
    structure = []
    for i in range(n):
        plane = []
        for j in range(n):
            vec = [zero] * n
            for k, v in alg.rows[i][j].items():
                vec[k] = v
            plane.append([v.to_json() for v in vec])
        structure.append(plane)
    return {
        "dim": n,
        "unit": [v.to_json() for v in alg.unit],
        "structure": structure,
    }


def hopf_to_json(h: HopfData) -> dict:
    out = algebra_to_json(h.algebra)
    out["comult"] = h.comult_matrix().to_json()
    out["counit"] = [v.to_json() for v in h.counit]
    out["antipode"] = h.antipode.to_json()
    return out


# What _Reading.zero holds before the document's first zero is vetted: no
# JSON value is this object, so every entry is vetted until a zero is.
_NO_ZERO = object()


class _Packed:
    """A coordinate list as the window holds it: its length n, the one
    object `zero` that it repeats, and a dict of its other entries by
    position, in order.  In a list that the window read with the zero's
    usual spelling as null (`nulled`), None stands for `zero` too."""

    __slots__ = ("n", "zero", "others")

    def __init__(self, values: list, zero, nulled: bool = False):
        self.n = len(values)
        self.zero = zero
        skipped = None if nulled else zero
        kept = compress(range(self.n), map(is_not, values, repeat(skipped)))
        self.others = {k: v for k in kept if (v := values[k]) is not zero}

    def unpacked(self) -> list:
        """The list itself."""
        values = [self.zero] * self.n
        for k, v in self.others.items():
            values[k] = v
        return values


class _Reading(ScalarMemo):
    """The ScalarMemo of one document's reading, which also keeps the
    distinct values it has vetted.  A vetted value is a Cyclotomic whose
    order divides the lcm `order`; that lcm only grows, so a vetted value
    stays vetted.  `fit` maps the id of each vetted value to the value
    (holding it, so that the id stays its own) and stops growing at
    MEMO_LIMIT values, as the memo does; `nonzero` holds the ids of those
    that are not zero, and `zero` is the first zero vetted, which a dense
    document repeats in most of its entries."""

    def __init__(self):
        super().__init__()
        self.fit: dict[int, Cyclotomic] = {}
        self.nonzero: set[int] = set()
        self.zero = _NO_ZERO

    def vetted(self, values) -> bool:
        """Whether every one of values is a vetted value, vetting in order
        those met for the first time; False at the first that is not a
        Cyclotomic, whose order would raise the lcm, or that finds `fit`
        full."""
        fit = self.fit
        for v in values:
            if id(v) not in fit:
                if type(v) is not Cyclotomic or self.order % v.order or len(fit) >= MEMO_LIMIT:
                    return False
                fit[id(v)] = v
                if v:
                    self.nonzero.add(id(v))
                elif self.zero is _NO_ZERO:
                    self.zero = v
        return True

    def others(self, values: list):
        """The positions of the entries of values that are not `zero`, when
        every entry is a vetted value; None otherwise.  Entries that are
        `zero` are skipped at C speed."""
        ks = list(compress(range(len(values)), map(is_not, values, repeat(self.zero))))
        return ks if self.vetted(map(values.__getitem__, ks)) else None

    def packed(self, vec: _Packed):
        """The nonzero entries {k: scalar} of a packed list whose zero is
        `zero` and whose other entries are vetted values, which is what
        reading vec.unpacked() would give: the record's own dict when none
        of them is zero.  None for any other packed list."""
        others = vec.others
        if vec.zero is not self.zero or not self.vetted(others.values()):
            return None
        nonzero = self.nonzero
        if nonzero.issuperset(map(id, others.values())):
            return others
        return {k: c for k, c in others.items() if id(c) in nonzero}


def _each(values, memo: _Reading, where: str) -> list:
    """The scalars of a JSON list read entry by entry through the document's
    memo; the location of a bad entry is spelled out only when one is found."""
    out = []
    for k, obj in enumerate(values):
        try:
            out.append(cyc_from_json(obj, memo))
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"bad scalar in {where}[{k}]: {exc}") from exc
    return out


def _scalars(values, memo: _Reading, where: str) -> list:
    """The scalars of a JSON list: the list itself when it holds vetted
    values only, which is what reading it entry by entry would give."""
    if type(values) is list and memo.others(values) is not None:
        return values
    return _each(values, memo, where)


def _cell(vec, memo: _Reading, n: int, where: str):
    """The nonzero entries {k: scalar} of the coordinate list of length n at
    where, with each distinct value judged zero or not once per document.  A
    packed list that _Reading.packed cannot read is unpacked and read as the
    list, so that any error names the entry that reading the list names."""
    if type(vec) is _Packed:
        if vec.n == n and (cell := memo.packed(vec)) is not None:
            return cell or EMPTY_CELL
        vec = vec.unpacked()
    _require_list(vec, n, where)
    ks = memo.others(vec)
    if ks is None:
        return {k: c for k, c in enumerate(_each(vec, memo, where)) if c}
    nonzero = memo.nonzero
    return {k: c for k in ks if id(c := vec[k]) in nonzero} or EMPTY_CELL


def _row(values, memo: _Reading, where: str) -> tuple:
    """(length, nonzero entries {k: scalar}) of the matrix row at where,
    read as _cell reads a coordinate list."""
    if type(values) is _Packed:
        if (row := memo.packed(values)) is not None:
            return values.n, row
        values = values.unpacked()
    if not isinstance(values, list):
        raise IngestError(f"{where} must be a list, got {type(values).__name__}")
    values = _scalars(values, memo, where)
    return len(values), sparse_of(values)


def _require_list(value, n: int, where: str) -> None:
    if not isinstance(value, list):
        raise IngestError(f"{where} must be a list, got {type(value).__name__}")
    if len(value) != n:
        raise IngestError(f"{where} must have length dim")


def _read_algebra(obj: dict, memo: _Reading):
    """Validated (dim, sparse rows, unit) of an algebra document."""
    try:
        n = obj["dim"]
        unit_json = obj["unit"]
        structure = obj["structure"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"missing algebra field: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise IngestError(f"dim must be an integer, got {n!r}")
    if n < 0:
        raise IngestError("dim must be nonnegative")
    _require_list(unit_json, n, "unit")
    _require_list(structure, n, "structure")
    unit = _scalars(unit_json, memo, "unit")
    rows = []
    for i, plane in enumerate(structure):
        _require_list(plane, n, f"structure[{i}]")
        row = []
        for j, vec in enumerate(plane):
            row.append(_cell(vec, memo, n, f"structure[{i}][{j}]"))
        rows.append(row)
    return n, rows, unit


def _read_matrix(obj, memo: _Reading, where: str, shape: tuple) -> Matrix:
    """The Matrix of the Matrix.to_json form at where, which must be a
    shape[0] x shape[1] matrix; its rows are read before its integer "rows"
    and "cols" are checked against them and against shape."""
    expected = f"{where} must be a {shape[0]} x {shape[1]} matrix"
    if not isinstance(obj, dict):
        raise IngestError(f'{expected}, an object with "rows", "cols" and "entries"; '
                          f"got {type(obj).__name__}")
    missing = [key for key in ("rows", "cols", "entries") if key not in obj]
    if missing:
        raise IngestError(f'{expected}, an object with "rows", "cols" and "entries"; '
                          f"{missing[0]!r} is missing")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise IngestError(f"{where} entries must be a list of rows, got {type(entries).__name__}")
    rows = [_row(r, memo, f"{where}[{i}]") for i, r in enumerate(entries)]
    nrows, ncols = obj["rows"], obj["cols"]
    for v in (nrows, ncols):
        if not isinstance(v, int) or isinstance(v, bool):
            raise IngestError(f"{where} rows and cols must be integers, got {v!r}")
    width = rows[0][0] if rows else ncols
    for i, (length, _) in enumerate(rows):
        if length != width:
            raise IngestError(f"{expected}, got ragged rows: {where}[{i}] has {length} entries, "
                              f"{where}[0] has {width}")
    if (len(rows), width) != shape:
        raise IngestError(f"{expected}, got {len(rows)} x {width} entries")
    if (nrows, ncols) != shape:
        raise IngestError(f"{expected}, got rows {nrows} and cols {ncols}")
    return Matrix.sparse([row for _, row in rows], width)


def _read_hopf(obj: dict, memo: _Reading):
    """(dim, rows, unit, comult, counit, antipode) of a Hopf document: comult
    an n^2 x n matrix, counit a list of n scalars and antipode an n x n
    matrix, n its dim."""
    n, rows, unit = _read_algebra(obj, memo)
    for field in ("comult", "counit", "antipode"):
        if field not in obj:
            raise IngestError(f"missing hopf field: {field!r}")
    comult = _read_matrix(obj["comult"], memo, "comult", (n * n, n))
    _require_list(obj["counit"], n, "counit")
    counit = _scalars(obj["counit"], memo, "counit")
    antipode = _read_matrix(obj["antipode"], memo, "antipode", (n, n))
    return n, rows, unit, comult, counit, antipode


def _build_algebra(n: int, rows, unit, name: str) -> StructureAlgebra:
    try:
        return StructureAlgebra(n, rows, unit, name=name)
    except (AlgebraError, ValueError) as exc:
        raise IngestError(f"algebra axioms fail: {exc}") from exc


def algebra_from_json(obj: dict, *, name: str = "ingested") -> StructureAlgebra:
    """Validate and build an algebra document.  This consumes obj: it is
    emptied once its fields are read, so that a caller holding the only
    other reference frees the decoded tree before the axioms are checked."""
    n, rows, unit = _read_algebra(obj, _Reading())
    obj.clear()
    return _build_algebra(n, rows, unit, name)


def hopf_from_json(obj: dict, *, name: str = "ingested") -> HopfData:
    """Validate and build a Hopf document, consuming obj as algebra_from_json
    does.  Every field is read before any axiom is checked."""
    n, rows, unit, comult, counit, antipode = _read_hopf(obj, _Reading())
    obj.clear()
    alg = _build_algebra(n, rows, unit, name)
    try:
        return HopfData(alg, comult, counit, antipode, name=name)
    except HopfAxiomError as exc:
        raise IngestError(f"hopf axiom fails: {exc.axiom}") from exc
    except ValueError as exc:
        raise IngestError(str(exc)) from exc


# The most text of a document that ingest holds at once, in characters; the
# most it reads in one call; and the most text a walked container's first
# member is scanned over before that member is walked in turn.
WINDOW = 1 << 20
_PIECE = 1 << 16
_FIRST = 1 << 12

# The length of the pieces in which _Window.nulled replaces the zero's
# spelling.  CPython 3.11 and later search a text of 30,000 characters or
# more with the two-way algorithm, and str.replace then pays that
# algorithm's setup again for every match; below that length it does not.
_REPLACED = 25_000


# A JSON string literal in text that holds no backslash, where every quote
# either opens or closes one.
_STRING = re.compile(r'"[^"]*"')

# The types that the entries of a coordinate list read nulled may have,
# besides None, and still be the list that json.load decodes.
_CYCLOTOMIC = frozenset((Cyclotomic,))


def _nulled_text(buf: str, start: int, end: int, z: str) -> str:
    """buf[start:end].replace(z, "null"), for a z that cannot overlap
    itself, replaced in pieces of about _REPLACED characters: each piece
    ends just before the first z that starts _REPLACED characters or more
    after the piece's start."""
    pieces = []
    while (cut := buf.find(z, start + _REPLACED, end)) >= 0:
        pieces.append(buf[start:cut].replace(z, "null"))
        start = cut
    pieces.append(buf[start:end].replace(z, "null"))
    return "".join(pieces)


# Where a document's coordinate lists sit, for the window to pack them: a
# shape is a dict of the shapes of an object's members by key, or for a list
# the number of list levels between it and the lists to pack (0: pack the
# list itself).  The planes of "structure" hold coordinate lists, and the
# "entries" of "comult" and "antipode" hold rows.
_COORDINATE_LISTS = {"structure": 2, "comult": {"entries": 1}, "antipode": {"entries": 1}}


class _Window:
    """The JSON text of an open file, held at most WINDOW characters at a time.

    Each value that the text in view holds whole is decoded by json's own
    scanner, with the document's object hook.  Only containers that do not
    fit are walked here: their members in order, the last of duplicate keys
    winning, and the hook called on each finished object, as the scanner
    does.  The document's value is walked when the file is longer than the
    window.  Inside a walked container, a member container is scanned over
    at most twice the length of the longest member before it (_FIRST
    characters for the first member), and walked when it is longer or when
    a window cannot hold that much, so that the text scanned twice stays
    shorter than the containers that are walked.  What the window cannot
    decode raises ValueError or RecursionError, and the whole file is then
    decoded instead.

    The lists that _COORDINATE_LISTS locates are packed as soon as they are
    decoded, whether scanned whole or walked.  Once a zero is known, each
    member of a walked list that holds such lists is first read with the
    zero's usual spelling as null (nulled), which spares json the dict and
    the hook call of every zero.

    A scan that a container outgrows has run the hook on the objects it
    finished, and the walk scans them again.  That is safe with scalar_hook,
    which only inserts keys that are absent into its memos of spellings and
    of values and only raises its lcm of orders to an lcm: a second call on an object returns a value equal to
    the first's and leaves the hook as it was."""

    def __init__(self, fh, hook):
        self.fh = fh
        self.hook = hook
        self.zero = None  # the first zero met in a list to pack
        self.spelling = None  # the JSON text that the hook decodes to zero itself
        self.clear = 0  # no spelling starts between the last search's start and here
        self.scan = json.JSONDecoder(object_hook=hook).raw_decode
        self.buf = ""
        self.pos = 0
        self.done = 0  # characters dropped before buf
        self.eof = False
        self.fill()

    def fill(self) -> None:
        """Drop the text before pos and read up to a full window.  It is read
        a piece at a time, so that the file object keeps only the last
        piece's text and bytes."""
        pieces = [self.buf[self.pos:]]
        self.buf = ""
        self.done += self.pos
        size = len(pieces[0])
        while size < WINDOW and not self.eof:
            ask = min(WINDOW - size, _PIECE)
            pieces.append(self.fh.read(ask))
            size += len(pieces[-1])
            # a text file returns fewer characters than asked only at its end
            self.eof = len(pieces[-1]) < ask
        self.buf, self.pos = "".join(pieces), 0

    def peek(self) -> str:
        """The next character that is not JSON whitespace, with pos on it;
        "" at the end of the file."""
        while True:
            self.pos = WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if self.eof:
                return ""
            self.fill()

    def value(self, bound: int, shape, last: int = 0):
        """The JSON value at the next character that is not whitespace, with
        the lists that shape locates in it packed.  A container is scanned
        over at most `bound` characters, and walked when it is longer or
        when a window cannot hold `bound` characters; at the end of the file
        all the text left is in view and is scanned.  Half a window at least
        is brought into view, and `bound` characters when a window holds
        them.  A list that holds coordinate lists is first read nulled over
        1.25 times `last`, the length of the member before it."""
        first = self.peek()
        container = first == "{" or first == "["
        if not self.eof and len(self.buf) - self.pos < max(WINDOW // 2, min(bound, WINDOW)):
            self.fill()
        if first == "[" and last and type(shape) is int and self.spelling is not None:
            value = self.nulled(last + last // 4, shape)
            if value is not None:
                return value
        if self.eof or not container:
            # A string that the window's edge cuts fails to scan.  A number
            # scans as a shorter number, and the rest of it (a digit, ".",
            # "e" or "E") then stands where a delimiter belongs, so the walk
            # refuses it.
            value, self.pos = self.scan(self.buf, self.pos)
            return self.packed(value, shape)
        if bound <= len(self.buf) - self.pos:
            try:
                value, end = self.scan(self.buf[self.pos:self.pos + bound], 0)
            except json.JSONDecodeError:
                pass
            else:
                self.pos += end
                return self.packed(value, shape)
        return self.walk({}, "}", shape) if first == "{" else self.walk([], "]", shape)

    def walk(self, items, close: str, shape):
        """The container at pos, member by member, into the empty items,
        with the lists that shape locates in it packed."""
        self.pos += 1
        longest = _FIRST // 2
        last = 0
        inner = shape - 1 if type(shape) is int and shape else None
        if self.peek() == close:
            self.pos += 1
        else:
            while True:
                if close == "}":
                    if self.peek() != '"':
                        raise ValueError("expecting a property name")
                    key = self.value(0, None)
                    if self.peek() != ":":
                        raise ValueError("expecting ':'")
                    self.pos += 1
                    inner = shape.get(key) if type(shape) is dict else None
                start = self.done + self.pos
                member = self.value(2 * longest, inner, last)
                last = self.done + self.pos - start
                longest = max(longest, last)
                if close == "}":
                    items[key] = member
                else:
                    items.append(member)
                delimiter = self.peek()
                self.pos += 1
                if delimiter == close:
                    break
                if delimiter != ",":
                    raise ValueError("expecting ',' or the container's end")
        if close == "}":
            return self.hook(items)
        return self.pack(items) if shape == 0 else items

    def packed(self, value, shape):
        """value, decoded whole, with the lists that shape locates in it
        packed in place."""
        if type(shape) is dict:
            if type(value) is dict:
                for key, inner in shape.items():
                    if key in value:
                        value[key] = self.packed(value[key], inner)
        elif shape is not None and type(value) is list:
            if shape == 0:
                return self.pack(value)
            for k, member in enumerate(value):
                value[k] = self.packed(member, shape - 1)
        return value

    def packed_nulled(self, value, shape: int):
        """value, decoded with None for the zero, with its lists nested shape
        levels deep packed in place; None unless value is such lists down to
        coordinate lists that hold only None and Cyclotomic values.  Each
        list's entries other than None and the zero are its record's
        `others`, so only those have their type read."""
        if type(value) is not list:
            return None
        if shape == 0:
            vec = _Packed(value, self.zero, True)
            return vec if _CYCLOTOMIC.issuperset(map(type, vec.others.values())) else None
        for k, member in enumerate(value):
            if (member := self.packed_nulled(member, shape - 1)) is None:
                return None
            value[k] = member
        return value

    def nulled(self, size: int, shape: int):
        """The list at pos, read over at most `size` characters with each
        occurrence of the zero's spelling Z read as null, with its lists
        packed and pos moved past it; None whenever that reading cannot be
        proven to be json's.

        Let T be the text read and T' the text with each Z replaced by
        "null".  T' is scanned only when T holds a Z (without one there is
        nothing to spare) and no "null", so that every null of T' is a Z of
        T, and no backslash, so that no string of T or T' holds a quote and
        the quotes pair up in order, as _STRING pairs them.  Stripping the
        strings of T' must keep every null: each Z of T then starts outside
        a string, and since Z's own quotes pair up among themselves, T and
        T' have the same tokens apart from Z in place of null.  Scanned,
        each Z gives the zero itself (the hook's memo answers it, with no
        change of state, which is how `spelling` was chosen), so T' gives
        T's value with None for each zero that Z spells, and the hook sees
        the same objects apart from the Z it skips.  That value is taken
        only when it is lists nested shape levels deep down to coordinate
        lists of None and Cyclotomic values, so that every None stands where
        _Packed reads it as the zero; a Z anywhere else (in a scalar, or as
        a plane) leaves some other value.  No two occurrences of "null"
        overlap, and T holds none, so the nulls of T' are exactly the Z
        replaced: T' is len(Z) - 4 characters shorter than T for each, and
        the end of its value lies that much further on in T for each null
        before it.

        T' is built in pieces of about _REPLACED characters, each cut just
        before a Z, rather than by one T.replace(Z, "null"): on a text longer
        than CPython's two-way threshold, replace pays that search's setup
        once per Z, which made it the largest cost of reading a dense
        document.  Z's only "{" is its first character, so no two Z overlap,
        no Z crosses a cut, and the pieces joined are T.replace(Z, "null")
        character for character."""
        z = self.spelling
        end = min(self.pos + size, len(self.buf))
        start = max(self.pos, self.clear - self.done)
        if self.buf.find(z, start, end) < 0:
            # members only move forward, so this text is never searched again
            self.clear = self.done + max(start, end - len(z) + 1)
            return None
        buf = self.buf
        if buf.find("null", self.pos, end) >= 0 or buf.find("\\", self.pos, end) >= 0:
            return None
        text = _nulled_text(buf, self.pos, end, z)
        nulls = (end - self.pos - len(text)) // (len(z) - 4)
        if _STRING.sub("", text).count("null") != nulls:
            return None
        try:
            value, scanned = self.scan(text, 0)
        except json.JSONDecodeError:
            return None
        value = self.packed_nulled(value, shape)
        if value is not None:
            self.pos += scanned + (len(z) - 4) * (nulls - text.count("null", scanned))
        return value

    def pack(self, values: list):
        """values as a _Packed whose zero is the first zero Cyclotomic met in
        a list to pack; values itself until one is met.  With the zero, it
        learns the zero's usual spelling: json.dumps's text of it at its
        order, with the default separators or, when only that one is in the
        window's text ahead, the compact ones (",", ":"), once the hook
        decodes that text to the zero itself."""
        if self.zero is None:
            self.zero = next((v for v in values if type(v) is Cyclotomic and not v), None)
            if self.zero is None:
                return values
            order = self.zero.order
            zero = {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}
            z = json.dumps(zero)
            compact = json.dumps(zero, separators=(",", ":"))
            if self.buf.find(z, self.pos) < 0 and self.buf.find(compact, self.pos) >= 0:
                z = compact
            value, end = self.scan(z, 0)
            if value is self.zero and end == len(z):
                self.spelling = z
        return _Packed(values, self.zero)

    def document(self):
        value = self.value(0, _COORDINATE_LISTS)
        if self.peek():
            raise ValueError("extra data")
        return value


# What _decode returns for a document that the window refuses; no JSON value
# is this object.
_REFUSED = object()


def _decode(path: str):
    """The JSON value of the file at path, decoded with a scalar_hook as
    json.load decodes it, holding at most a window of its text at once; or
    _REFUSED.  The lists that _COORDINATE_LISTS locates are packed (_Packed)
    as they are decoded, once a zero has been met in one of them.  Its
    frames reach json's scanner no less deep than json.load's do from
    ingest_algebra, so it refuses whatever is nested too deeply for
    json.load, and then ingest_algebra runs json.load itself."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _Window(fh, scalar_hook()).document()
        except (ValueError, RecursionError):
            return _REFUSED


def ingest_algebra(path: str):
    """Load a JSON file holding either schema; returns HopfData when the
    coalgebra fields are present, else StructureAlgebra."""
    try:
        obj = _decode(path)
        if obj is _REFUSED:
            # decoded whole with a fresh hook, as before the window, so that
            # the document gets the same value or the same error
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh, object_hook=scalar_hook())
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bytes that are not text, an integer literal above
        # Python's digit limit, or nesting deeper than the recursion limit
        raise IngestError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise IngestError("top-level JSON value must be an algebra object")
    if "comult" in obj or "counit" in obj or "antipode" in obj:
        return hopf_from_json(obj)
    return algebra_from_json(obj)
