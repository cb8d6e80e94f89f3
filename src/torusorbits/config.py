"""JSON serialization for fields, matrices, forms, and torus paths.

Rationals travel as "p/q" strings (or bare integer strings) so coefficient
vectors roundtrip bit-exactly.  Matrix entries are coefficient vectors in
the field's power basis, row major.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from fractions import Fraction

from .decomp import MatrixK
from .dynamics import TorusPath
from .errors import ValidationError
from .forms import DecomposableForm, make_form
from .numfield import FieldElement, NumberField, create_field


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s) -> Fraction:
    if isinstance(s, (int, str)):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"expected a rational string, got {s!r}")


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, for every
    obj json.dumps accepts: the package's one JSON writer.  It walks dicts
    and lists itself (json.dumps with an indent runs the pure-Python
    encoder) and renders scalars and keys with json.dumps; json_at,
    json_block and json_chunks join its texts into larger ones."""
    def text(x, depth):
        if isinstance(x, (list, tuple)):
            return json_block("[", [text(v, depth + 1) for v in x], "]", depth)
        if isinstance(x, dict):
            items = [f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}"
                     f": {text(v, depth + 1)}" for k, v in sorted(x.items())]
            return json_block("{", items, "}", depth)
        return json.dumps(x)

    return text(obj, 0) + "\n"


def json_at(obj, depth: int) -> str:
    """json_text(obj) as it reads at the given indent depth, without the
    final newline.  JSON strings escape their newlines, so every newline of
    the text starts one of its lines."""
    return json_text(obj)[:-1].replace("\n", "\n" + "  " * depth)


def json_block(open_, items, close, depth: int) -> str:
    """The list ("[", "]") or object ("{", "}") of the item texts, each
    already rendered at depth + 1, as it reads at depth."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * depth
    return f"{open_}{pad}  " + f",{pad}  ".join(items) + f"{pad}{close}"


JSON_CHUNK = 1 << 16        # characters per chunk of json_chunks


def json_chunks(obj: dict):
    """json_text(obj) for a dict obj, in chunks of about JSON_CHUNK
    characters.  A value that is an iterator stands for a list whose item
    texts it yields, each rendered at depth 2 (json_at or json_block), so a
    long list is written without its text being held at once."""
    buf, size, sep = [], 0, "{\n  "
    for key, value in sorted(obj.items()):
        buf.append(f"{sep}{json_at(key, 1)}: ")
        sep = ",\n  "
        if not isinstance(value, Iterator):
            buf.append(json_at(value, 1))
            continue
        open_ = "[\n    "
        for item in value:
            buf += open_, item
            open_, size = ",\n    ", size + len(item)
            if size >= JSON_CHUNK:
                yield "".join(buf)
                buf, size = [], 0
        buf.append("[]" if open_ == "[\n    " else "\n  ]")
    buf.append("\n}\n" if obj else "{}\n")
    yield "".join(buf)


def _read(path, label, parse, *args):
    """parse(*args, data) on the JSON in the file at path; a missing key, a
    value of the wrong type or a malformed value is a ValidationError
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return parse(*args, data)
    except KeyError as exc:
        raise ValidationError(f"{label} {path} misses key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{label} {path} is malformed: {exc}") from None
    except ValidationError as exc:
        raise type(exc)(f"{label} {path}: {exc}") from None


def elem_to_list(x: FieldElement):
    """The coordinates of x as rat_to_str strings, read from its integer
    numerators and denominator."""
    out = []
    for c in x.num:
        g = math.gcd(c, x.den)
        out.append(str(c // g) if g == x.den else f"{c // g}/{x.den // g}")
    return out


def elem_from_list(field: NumberField, data) -> FieldElement:
    return field.element([rat_from_str(c) for c in data])


def field_to_dict(field: NumberField) -> dict:
    out = {
        "label": field.label,
        "min_poly": [rat_to_str(c) for c in field.min_poly],
        "units": [elem_to_list(u) for u in field.units],
    }
    if field.cm_structure is not None:
        cm = field.cm_structure
        out["cm"] = {
            "subfield_poly": [rat_to_str(c) for c in cm.subfield_poly],
            "subfield_gen": elem_to_list(cm.subfield_gen),
            "d": elem_to_list(cm.d),
            "relative_gen": elem_to_list(cm.relative_gen),
        }
    return out


def field_from_dict(data: dict) -> NumberField:
    min_poly = [rat_from_str(c) for c in data["min_poly"]]
    units = [[rat_from_str(c) for c in u] for u in data.get("units", [])]
    cm = None
    if "cm" in data and data["cm"] is not None:
        raw = data["cm"]
        cm = {
            "subfield_poly": [rat_from_str(c) for c in raw["subfield_poly"]],
            "subfield_gen": [rat_from_str(c) for c in raw["subfield_gen"]],
            "d": [rat_from_str(c) for c in raw["d"]],
            "relative_gen": [rat_from_str(c) for c in raw["relative_gen"]],
        }
    return create_field(min_poly, declared_units=units, cm_structure=cm,
                        label=data.get("label", ""))


def load_field(path) -> NumberField:
    return _read(path, "field config", field_from_dict)


def save_field(field: NumberField, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(field_to_dict(field)))


def matrix_to_dict(m: MatrixK) -> dict:
    out = {
        "n": m.n,
        "rows": [[elem_to_list(x) for x in row] for row in m.rows],
    }
    d = m.det()
    out["det"] = elem_to_list(d)
    return out


def matrix_from_dict(field: NumberField, data: dict) -> MatrixK:
    if isinstance(data, str) and data == "id":
        raise ValidationError("pass the size for the identity shorthand")
    rows = [[elem_from_list(field, x) for x in row] for row in data["rows"]]
    m = MatrixK(field, rows)
    if "det" in data:
        declared = elem_from_list(field, data["det"])
        if m.det() != declared:
            raise ValidationError("declared determinant does not match")
    return m


def load_matrix(field: NumberField, path) -> MatrixK:
    return _read(path, "matrix", matrix_from_dict, field)


def save_matrix(m: MatrixK, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(matrix_to_dict(m)))


def form_to_dict(form) -> dict:
    return {
        "n": form.n,
        "m": form.m,
        "factors": [[elem_to_list(c) for c in place_factors_flat(form, v)]
                    for v in range(len(form.factors))],
        "scalars": [elem_to_list(s) for s in form.scalars],
    }


def place_factors_flat(form, v):
    return [c for factor in form.factors[v] for c in factor]


def form_from_dict(field: NumberField, data: dict) -> DecomposableForm:
    n = data["n"]
    m = data["m"]
    factors = []
    for place_data in data["factors"]:
        flat = [elem_from_list(field, c) for c in place_data]
        if len(flat) != n * m:
            raise ValidationError("factor table has the wrong shape")
        factors.append([tuple(flat[i * n:(i + 1) * n]) for i in range(m)])
    scalars = None
    if data.get("scalars"):
        scalars = [elem_from_list(field, s) for s in data["scalars"]]
    return make_form(field, factors, scalars=scalars)


def load_form(field: NumberField, path):
    return _read(path, "form", form_from_dict, field)


def path_from_dict(data: dict) -> TorusPath:
    bases = [rat_from_str(b) for b in data["bases"]]
    schedules = data["schedules"]
    return TorusPath(n=data["n"], bases=tuple(bases),
                     schedules=tuple(tuple(tuple(int(e) for e in step)
                                           for step in place)
                                     for place in schedules))


def load_path(path):
    return _read(path, "torus path", path_from_dict)
