"""Line-oriented scenario files describing a verification run.

Grammar (one construct per line, ``#`` starts a full-line comment):

    [scenario]                  section header; some take an argument,
    [curve Z1]                  e.g. the curve label
    key = value                 assignment inside the current section
    point = P 1 0 0             labeled point inside a [curve] section
    check <kind> k=v k="v v"    inside [checks]; every check needs cite=

Sections: ``scenario`` (name), ``ring`` (variables, poly),
``automorphism`` (modulus, exponents), ``cycle`` (tau),
``curve <label>`` (plane, variables, poly, point lines), ``pencil``
(overrides for the built-in quartic pencil), ``checks``.

Parsing is strict: unknown sections, unknown keys, malformed values, a
variable named twice, a ``[ring]`` or ``[automorphism]`` without all its
keys (an empty header included), an ``[automorphism]`` whose modulus is
not positive or whose exponents do not match the ``[ring]`` variables,
and missing citations all raise :class:`ParseError` carrying line and
column, so a bad input file is distinguishable from a failed check.  A
check line's attributes are kept as text; the runner checks them against
the kind's attribute table.
"""

from __future__ import annotations

from fractions import Fraction


class ParseError(ValueError):
    """Scenario file rejected; carries 1-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CheckSpec:
    """One ``check`` line: kind, attribute map, source line, citation."""

    __slots__ = ("kind", "attrs", "line", "cite")

    def __init__(self, kind, attrs, line):
        self.kind = kind
        self.attrs = dict(attrs)
        self.line = line
        self.cite = self.attrs.pop("cite")

    def __repr__(self):
        return f"CheckSpec({self.kind!r}, line {self.line})"


class CurveDecl:
    """A projective plane curve with labeled rational points."""

    __slots__ = ("label", "plane", "variables", "poly", "points")

    def __init__(self, label):
        self.label = label
        self.plane = None
        self.variables = None
        self.poly = None
        self.points = {}


class ScenarioFile:
    """Parsed scenario: declarations plus an ordered check list."""

    __slots__ = ("name", "ring", "automorphism", "cycle", "curves",
                 "pencil_overrides", "checks")

    def __init__(self):
        self.name = None
        self.ring = None
        self.automorphism = None
        self.cycle = None
        self.curves = {}
        self.pencil_overrides = {}
        self.checks = []


_SECTION_KEYS = {
    "scenario": {"name"},
    "ring": {"variables", "poly"},
    "automorphism": {"modulus", "exponents"},
    "cycle": {"tau"},
    "curve": {"plane", "variables", "poly", "point"},
    "pencil": {"line0", "line1", "line2", "line3", "strict_transform",
               "declared_quadratic", "closed_form_num", "closed_form_den"},
    "checks": set(),
}
# sections stored as a dict of their keys, None when the file has none
_KEYED = ("ring", "automorphism", "cycle")


def parse_scenario(text):
    scn = ScenarioFile()
    section = None
    curve = None
    lines = {}  # (section, key), "[header]" or (header, point) -> its line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section, curve = _parse_header(scn, line, lineno)
            if section in _KEYED and getattr(scn, section) is None:
                setattr(scn, section, {})  # present, if empty, from here on
            header = f"[curve {curve.label}]" if curve else f"[{section}]"
            lines[header] = lineno
            continue
        if section is None:
            raise ParseError("content before the first section header", lineno)
        if section == "checks":
            scn.checks.append(_parse_check(line, lineno))
            continue
        key, value = _parse_assignment(line, lineno)
        if key not in _SECTION_KEYS[section]:
            raise ParseError(f"key {key!r} is not valid in [{section}]", lineno)
        _store(scn, section, curve, key, value, lineno)
        lines[section, key] = lineno
        if key == "point":
            lines[header, value.split()[0]] = lineno
    _validate(scn, lines)
    return scn


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _parse_header(scn, line, lineno):
    if not line.endswith("]"):
        raise ParseError("unterminated section header", lineno, len(line))
    inner = line[1:-1].strip()
    parts = inner.split()
    if not parts:
        raise ParseError("empty section header", lineno)
    name = parts[0]
    if name not in _SECTION_KEYS:
        raise ParseError(f"unknown section [{name}]", lineno)
    if name == "curve":
        if len(parts) != 2:
            raise ParseError("[curve] needs exactly one label", lineno)
        label = parts[1]
        if label in scn.curves:
            raise ParseError(f"curve {label!r} declared twice", lineno)
        curve = CurveDecl(label)
        scn.curves[label] = curve
        return name, curve
    if len(parts) != 1:
        raise ParseError(f"section [{name}] takes no argument", lineno)
    return name, None


def _parse_assignment(line, lineno):
    if "=" not in line:
        raise ParseError("expected 'key = value'", lineno)
    key, _, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if not key:
        raise ParseError("empty key", lineno)
    if not value:
        raise ParseError(f"empty value for key {key!r}", lineno)
    return key, value


def _store(scn, section, curve, key, value, lineno):
    if section == "scenario":
        scn.name = value
    elif section == "ring":
        scn.ring[key] = _names(value, lineno) if key == "variables" else value
    elif section == "automorphism":
        if key == "modulus":
            scn.automorphism[key] = _int(value, lineno)
        else:
            scn.automorphism[key] = [_int(tok, lineno) for tok in value.split()]
    elif section == "cycle":
        scn.cycle[key] = [_int(tok, lineno) for tok in value.split()]
    elif section == "curve":
        if key == "point":
            parts = value.split()
            if len(parts) < 3:
                raise ParseError("point needs a label and coordinates", lineno)
            label = parts[0]
            if label in curve.points:
                raise ParseError(f"point {label!r} declared twice", lineno)
            coords = tuple(_fraction(tok, lineno) for tok in parts[1:])
            if not any(coords):
                raise ParseError(f"point {label!r} of curve {curve.label!r} "
                                 "has all coordinates zero", lineno)
            curve.points[label] = coords
        elif key in ("plane", "variables"):
            setattr(curve, key, _names(value, lineno))
        else:
            curve.poly = value
    elif section == "pencil":
        scn.pencil_overrides[key] = value


def _parse_check(line, lineno):
    tokens = _tokenize(line, lineno)
    if not tokens or tokens[0][0] != "check":
        raise ParseError("only 'check' lines are allowed in [checks]", lineno)
    if len(tokens) < 2 or "=" in tokens[1][0]:
        raise ParseError("check line needs a kind", lineno)
    kind = tokens[1][0]
    attrs = {}
    for text, column in tokens[2:]:
        if "=" not in text:
            raise ParseError(f"expected attr=value, got {text!r}", lineno, column)
        name, _, value = text.partition("=")
        if not name or name in attrs:
            raise ParseError(f"bad or repeated attribute {name!r}", lineno, column)
        attrs[name] = value
    if "cite" not in attrs or not attrs["cite"]:
        raise ParseError(f"check {kind!r} is missing cite=", lineno)
    return CheckSpec(kind, attrs, lineno)


def _tokenize(line, lineno):
    """Split on whitespace, honouring double quotes inside attr values."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        while i < n and line[i].isspace():
            i += 1
        if i >= n:
            break
        start = i
        chunk = []
        while i < n and not line[i].isspace():
            if line[i] == '"':
                close = line.find('"', i + 1)
                if close < 0:
                    raise ParseError("unterminated quote", lineno, i + 1)
                chunk.append(line[i + 1:close])
                i = close + 1
            else:
                chunk.append(line[i])
                i += 1
        tokens.append(("".join(chunk), start + 1))
    return tokens


def _names(value, lineno):
    names = value.split()
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"variable {name!r} declared twice", lineno)
    return names


def _int(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


def _fraction(token, lineno):
    try:
        return Fraction(token)
    except ValueError:
        raise ParseError(f"expected a rational number, got {token!r}", lineno) from None


def _validate(scn, lines):
    if scn.name is None:
        raise ParseError("missing [scenario] name", 1)
    if not scn.checks:
        raise ParseError("scenario declares no checks", 1)
    if scn.ring is not None and ("variables" not in scn.ring or "poly" not in scn.ring):
        raise ParseError("[ring] needs both variables and poly",
                         lines["[ring]"])
    if scn.automorphism is not None:
        if "modulus" not in scn.automorphism or "exponents" not in scn.automorphism:
            raise ParseError("[automorphism] needs modulus and exponents",
                             lines["[automorphism]"])
        if scn.automorphism["modulus"] < 1:
            raise ParseError("bad [automorphism]: modulus must be a positive "
                             "integer", lines["automorphism", "modulus"])
        count = len(scn.automorphism["exponents"])
        if scn.ring is not None and count != len(scn.ring["variables"]):
            raise ParseError(
                f"[automorphism] has {count} exponents, [ring] has "
                f"{len(scn.ring['variables'])} variables",
                lines["automorphism", "exponents"])
    for curve in scn.curves.values():
        header = f"[curve {curve.label}]"
        if curve.plane is None or curve.poly is None:
            raise ParseError(f"{header} needs plane and poly", lines[header])
        if curve.variables is None:
            curve.variables = list(curve.plane)
        for label, coords in curve.points.items():
            if len(coords) != len(curve.plane):
                raise ParseError(
                    f"point {label!r} of curve {curve.label!r} has "
                    f"{len(coords)} coordinates, plane has {len(curve.plane)}",
                    lines[header, label])
