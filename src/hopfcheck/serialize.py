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
spelling once and shares the resulting immutable Cyclotomic, so the decoded
tree holds one value per distinct spelling rather than a dict, two lists and
two strings per scalar.  The readers vet each list of such values at C speed
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
"""

import json
from itertools import compress, repeat
from json.decoder import WHITESPACE
from operator import is_not

from .cyclotomic import MEMO_LIMIT, ZERO, Cyclotomic, ScalarMemo, cyc_from_json, scalar_hook
from .linalg import Matrix, shaped_matrix
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

    def others(self, values: list):
        """The positions of the entries of values that are not `zero`, when
        every entry is a vetted value (vetting those met for the first
        time); None when one is not a Cyclotomic, its order would raise the
        lcm, or `fit` is full.  Entries that are `zero` are skipped at C
        speed."""
        fit = self.fit
        out = []
        for k in compress(range(len(values)), map(is_not, values, repeat(self.zero))):
            v = values[k]
            if id(v) not in fit:
                if type(v) is not Cyclotomic or self.order % v.order or len(fit) >= MEMO_LIMIT:
                    return None
                fit[id(v)] = v
                if v:
                    self.nonzero.add(id(v))
                elif self.zero is _NO_ZERO:
                    self.zero = v
            out.append(k)
        return out


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


def _cell(vec: list, memo: _Reading, where: str):
    """The nonzero entries {k: scalar} of a coordinate list, with each
    distinct value judged zero or not once per document."""
    ks = memo.others(vec)
    if ks is None:
        return {k: c for k, c in enumerate(_each(vec, memo, where)) if c}
    nonzero = memo.nonzero
    return {k: c for k in ks if id(c := vec[k]) in nonzero} or EMPTY_CELL


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
            where = f"structure[{i}][{j}]"
            _require_list(vec, n, where)
            row.append(_cell(vec, memo, where))
        rows.append(row)
    return n, rows, unit


def _read_matrix(obj: dict, memo: _Reading, where: str) -> Matrix:
    entries = [_scalars(r, memo, f"{where}[{i}]") for i, r in enumerate(obj["entries"])]
    return shaped_matrix(obj, entries)


def _read_hopf(obj: dict, memo: _Reading):
    """(dim, rows, unit, comult, counit, antipode) of a Hopf document."""
    n, rows, unit = _read_algebra(obj, memo)
    try:
        comult = _read_matrix(obj["comult"], memo, "comult")
        counit = _scalars(obj["counit"], memo, "counit")
        antipode = _read_matrix(obj["antipode"], memo, "antipode")
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"bad hopf field: {exc}") from exc
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

    A scan that a container outgrows has run the hook on the objects it
    finished, and the walk scans them again.  That is safe with scalar_hook,
    which only inserts keys that are absent and only raises its lcm of
    orders to an lcm: a second call on an object returns a value equal to
    the first's and leaves the hook as it was."""

    def __init__(self, fh, hook):
        self.fh = fh
        self.hook = hook
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

    def value(self, bound: int):
        """The JSON value at the next character that is not whitespace.  A
        container is scanned over at most `bound` characters, and walked
        when it is longer or when a window cannot hold `bound` characters;
        at the end of the file all the text left is in view and is scanned.
        Half a window at least is brought into view, and `bound` characters
        when a window holds them."""
        first = self.peek()
        container = first == "{" or first == "["
        if not self.eof and len(self.buf) - self.pos < max(WINDOW // 2, min(bound, WINDOW)):
            self.fill()
        if self.eof or not container:
            # A string that the window's edge cuts fails to scan.  A number
            # scans as a shorter number, and the rest of it (a digit, ".",
            # "e" or "E") then stands where a delimiter belongs, so the walk
            # refuses it.
            value, self.pos = self.scan(self.buf, self.pos)
            return value
        if bound <= len(self.buf) - self.pos:
            try:
                value, end = self.scan(self.buf[self.pos:self.pos + bound], 0)
                self.pos += end
                return value
            except json.JSONDecodeError:
                pass
        return self.walk({}, "}") if first == "{" else self.walk([], "]")

    def walk(self, items, close: str):
        """The container at pos, member by member, into the empty items."""
        self.pos += 1
        longest = _FIRST // 2
        if self.peek() == close:
            self.pos += 1
        else:
            while True:
                if close == "}":
                    if self.peek() != '"':
                        raise ValueError("expecting a property name")
                    key = self.value(0)
                    if self.peek() != ":":
                        raise ValueError("expecting ':'")
                    self.pos += 1
                start = self.done + self.pos
                member = self.value(2 * longest)
                longest = max(longest, self.done + self.pos - start)
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
        return self.hook(items) if close == "}" else items

    def document(self):
        value = self.value(0)
        if self.peek():
            raise ValueError("extra data")
        return value


# What _decode returns for a document that the window refuses; no JSON value
# is this object.
_REFUSED = object()


def _decode(path: str):
    """The JSON value of the file at path, decoded with a scalar_hook as
    json.load decodes it, holding at most a window of its text at once; or
    _REFUSED.  Its frames reach json's scanner no less deep than json.load's
    do from ingest_algebra, so it refuses whatever is nested too deeply for
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
