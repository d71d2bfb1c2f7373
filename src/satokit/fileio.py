"""Parsers and writers for the on-disk formats.

.lat   lattice: header `tate rank=<n> field=<F<p>|Q>`, a bounds line, then
       one basis row per line as comma-separated scalars over the monomial
       coordinates (exponent ascending, unit index ascending).
.lmx   Laurent matrix: header `lmx rows=<r> cols=<c> field=<...>`, then one
       entry per line in row-major order, each entry a `+`-joined list of
       `c*t^e` terms (`0` for the zero entry).
.sset  simplicial set: lines `simplex <dim> <id> faces <id_0> ... <id_dim>`;
       vertices omit the faces clause.
.coch  cochain: header `group <presentation>`, then lines
       `value <simplex-id> <comma-separated integer coordinates>`.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroup import format_group, parse_group
from .exactlin import Field
from .laurent import LaurentMatrix, LaurentPoly
from .simptors import Cochain, validate_simplicial_set
from .tate import TateSpace, lattice_normalize


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = " at line %d" % line
            if col is not None:
                loc += ", column %d" % col
        super().__init__(message + loc)


def _body(text):
    """(line number, stripped line) of every line that is not blank or a
    comment."""
    lines = [(i + 1, l.strip()) for i, l in enumerate(text.splitlines())]
    return [(i, l) for i, l in lines if l and not l.startswith("#")]


def _scalar_of(field, token, line, col):
    token = token.strip()
    try:
        if field.is_rational:
            if "/" in token:
                num, den = token.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(token))
        # lattice_normalize and LaurentPoly normalize it
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad scalar %r" % token, line, col)


def _parse_kv(parts, key, line):
    for p in parts:
        if p.startswith(key + "="):
            return p[len(key) + 1:]
    raise ParseError("missing %s= in header" % key, line)


def _parse_int_kv(parts, key, line):
    value = _parse_kv(parts, key, line)
    try:
        return int(value)
    except ValueError:
        raise ParseError("bad %s=%s" % (key, value), line)


def _parse_field_kv(parts, line):
    try:
        return Field.parse(_parse_kv(parts, "field", line))
    except ValueError as exc:
        raise ParseError("bad field: %s" % exc, line)


# --- lattices ---------------------------------------------------------------

def parse_lattice(text):
    body = _body(text)
    if not body:
        raise ParseError("empty lattice file", 1)
    ln, header = body[0]
    parts = header.split()
    if not parts or parts[0] != "tate":
        raise ParseError("lattice header must start with 'tate'", ln)
    rank = _parse_int_kv(parts, "rank", ln)
    if rank < 0:
        raise ParseError("negative rank=%d" % rank, ln)
    field = _parse_field_kv(parts, ln)
    if len(body) < 2:
        raise ParseError("missing bounds line", ln)
    ln2, bline = body[1]
    bparts = bline.split()
    if not bparts or bparts[0] != "bounds":
        raise ParseError("expected bounds line", ln2)
    lo = _parse_int_kv(bparts, "lo", ln2)
    hi = _parse_int_kv(bparts, "hi", ln2)
    if lo > hi:
        raise ParseError("bounds lo=%d above hi=%d" % (lo, hi), ln2)
    width = (hi - lo) * rank
    rows = []
    for ln3, rline in body[2:]:
        tokens = rline.split(",")
        try:  # over F_p, int() strips blanks as _scalar_of does
            row = [] if field.is_rational else list(map(int, tokens))
        except ValueError:  # _scalar_of locates the bad token
            row = []
        row = row or [_scalar_of(field, t, ln3, col + 1)
                      for col, t in enumerate(tokens)]
        if len(row) != width:
            raise ParseError("basis row has %d entries, expected %d"
                             % (len(row), width), ln3)
        rows.append(row)
    space = TateSpace(field, rank)
    return lattice_normalize(space, lo, hi, rows)


def format_lattice(lat):
    out = ["tate rank=%d field=%s" % (lat.space.rank, lat.field),
           "bounds lo=%d hi=%d" % (lat.lo, lat.hi)]
    for r in lat.rows:
        out.append(",".join(str(x) for x in r))
    return "\n".join(out) + "\n"


# --- Laurent matrices --------------------------------------------------------

def _parse_laurent_entry(field, token, line):
    token = token.strip()
    if token == "0":
        return LaurentPoly.zero(field)
    terms = []
    for col, part in enumerate(token.split("+")):
        part = part.strip()
        if "*t^" not in part:
            raise ParseError("bad term %r (need c*t^e)" % part, line, col + 1)
        c_tok, e_tok = part.split("*t^", 1)
        c = _scalar_of(field, c_tok, line, col + 1)
        try:
            e = int(e_tok)
        except ValueError:
            raise ParseError("bad exponent %r" % e_tok, line, col + 1)
        terms.append((e, c))
    return LaurentPoly(field, terms)


def parse_laurent_matrix(text):
    body = _body(text)
    if not body:
        raise ParseError("empty matrix file", 1)
    ln, header = body[0]
    parts = header.split()
    if not parts or parts[0] != "lmx":
        raise ParseError("matrix header must start with 'lmx'", ln)
    nrows = _parse_int_kv(parts, "rows", ln)
    ncols = _parse_int_kv(parts, "cols", ln)
    if nrows < 0 or ncols < 0:
        raise ParseError("negative rows=%d cols=%d" % (nrows, ncols), ln)
    field = _parse_field_kv(parts, ln)
    entries = []
    for ln2, eline in body[1:]:
        entries.append(_parse_laurent_entry(field, eline, ln2))
    if len(entries) != nrows * ncols:
        raise ParseError("expected %d entries, found %d"
                         % (nrows * ncols, len(entries)),
                         body[-1][0] if body else 1)
    rows = [entries[r * ncols:(r + 1) * ncols] for r in range(nrows)]
    return LaurentMatrix(field, rows, ncols)


def format_laurent_matrix(m):
    out = ["lmx rows=%d cols=%d field=%s" % (m.nrows, m.ncols, m.field)]
    for row in m.entries:
        for x in row:
            if x.is_zero():
                out.append("0")
            else:
                out.append("+".join("%s*t^%d" % (c, e) for e, c in x.terms))
    return "\n".join(out) + "\n"


# --- simplicial sets ----------------------------------------------------------

def parse_simplicial_set(text):
    raw = []
    for ln, line in _body(text):
        parts = line.split()
        if parts[0] != "simplex":
            raise ParseError("expected 'simplex' line", ln)
        if len(parts) < 3:
            raise ParseError("simplex line needs dim and id", ln)
        try:
            dim = int(parts[1])
        except ValueError:
            raise ParseError("bad dimension %r" % parts[1], ln, 2)
        if dim < 0:
            raise ParseError("negative dimension %d" % dim, ln, 2)
        sid = parts[2]
        if dim == 0:
            if len(parts) > 3:
                raise ParseError("vertex with a faces clause", ln)
            raw.append((sid, 0, ()))
            continue
        if len(parts) < 4 or parts[3] != "faces":
            raise ParseError("missing faces clause", ln)
        faces = tuple(parts[4:])
        if len(faces) != dim + 1:
            raise ParseError("simplex of dim %d needs %d faces, found %d"
                             % (dim, dim + 1, len(faces)), ln)
        raw.append((sid, dim, faces))
    return validate_simplicial_set(raw)


def format_simplicial_set(cx):
    out = []
    for d in sorted(cx.simplices):
        for sid in cx.ids(d):
            if d == 0:
                out.append("simplex 0 %s" % sid)
            else:
                out.append("simplex %d %s faces %s"
                           % (d, sid, " ".join(cx.faces[sid])))
    return "\n".join(out) + "\n"


# --- cochains -------------------------------------------------------------------

def parse_cochain(text, complex_, degree=None):
    group = None
    values = {}
    deg_seen = None
    for ln, line in _body(text):
        parts = line.split()
        if parts[0] == "group":
            if group is not None:
                raise ParseError("second group header", ln)
            if len(parts) != 2:
                raise ParseError("group line needs one presentation", ln)
            try:
                group = parse_group(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), ln)
            continue
        if parts[0] != "value":
            raise ParseError("expected 'group' or 'value' line", ln)
        if group is None:
            raise ParseError("value before group header", ln)
        if len(parts) != 3:
            raise ParseError("value line needs id and coordinates", ln)
        sid = parts[1]
        if sid not in complex_.dim_of:
            raise ParseError("unknown simplex %r" % sid, ln, 2)
        try:
            coords = [int(x) for x in parts[2].split(",")]
        except ValueError:
            raise ParseError("bad coordinates %r" % parts[2], ln, 3)
        if len(coords) != group.ngens:
            raise ParseError("expected %d coordinates" % group.ngens, ln, 3)
        d = complex_.dim_of[sid]
        if deg_seen is None:
            deg_seen = d
        elif d != deg_seen:
            raise ParseError("values on simplices of mixed dimension", ln)
        values[sid] = group.elem(coords)
    if group is None:
        raise ParseError("missing group header", 1)
    if deg_seen is None:
        if degree is None:
            raise ParseError("empty cochain needs an explicit degree", 1)
        deg_seen = degree
    if degree is not None and deg_seen != degree:
        raise ParseError("cochain has degree %d, expected %d"
                         % (deg_seen, degree), 1)
    return Cochain(complex_, deg_seen, group, values)


def format_cochain(c):
    out = ["group %s" % format_group(c.group)]
    for sid in c.complex.ids(c.degree):
        g = c.value(sid)
        out.append("value %s %s" % (sid, ",".join(str(x) for x in g.coords)))
    return "\n".join(out) + "\n"
