"""Complexes in JSON files, and the acyclic square the tests add to them.

`to_json_dict`, `from_json_dict`, `save_complex` and `load_complex` carry a
complex to and from JSON; loading refuses more than `MAX_PRODUCT_GENERATORS`
generators before it builds any, checks every field's kind and makes the
complex with the checked `KnotComplex` constructor, so the homological
conditions are left to `validate_complex`.  `add_box` direct-sums an
acyclic square, the stable-equivalence move of the tests and the bench.
Only the commands that read a complex file (`file(...)`, `--complex-file`)
load this module; `complexes` hands out its names on first use.
"""

from __future__ import annotations

import json

from .complexes import MAX_PRODUCT_GENERATORS, BaseGenerator, KnotComplex, _excerpt


def add_box(k: KnotComplex, corner: tuple[int, int], maslov: int) -> KnotComplex:
    """Direct-sum a four-generator acyclic square with north-east corner here.

    The square has generators a at the corner (grading `maslov`), b and c one
    step west/south (grading maslov-1), d at the south-west (maslov-2), with
    da = b + c and db = dc = d.  It is acyclic, so every invariant computed by
    this package is unchanged — the stable-equivalence move the tests exercise.
    """
    a_col, j_col = corner
    existing = {g.name for g in k.generators}
    n = 0
    while any(f"box{n}{s}" in existing for s in "abcd"):
        n += 1
    a = BaseGenerator(f"box{n}a", a_col, j_col, maslov)
    b = BaseGenerator(f"box{n}b", a_col - 1, j_col, maslov - 1)
    c = BaseGenerator(f"box{n}c", a_col, j_col - 1, maslov - 1)
    d = BaseGenerator(f"box{n}d", a_col - 1, j_col - 1, maslov - 2)
    arrows = k.arrows + (
        (a.name, b.name, 0),
        (a.name, c.name, 0),
        (b.name, d.name, 0),
        (c.name, d.name, 0),
    )
    return KnotComplex(k.generators + (a, b, c, d), arrows)


def to_json_dict(k: KnotComplex) -> dict:
    return {
        "generators": [
            {"id": g.name, "A": g.alexander, "j": g.algebraic, "M": g.maslov}
            for g in k.generators
        ],
        "arrows": [[src, dst, m] for src, dst, m in k.arrows],
    }


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _json_field(value, kind: type, field: str):
    """A field of complex JSON, of exactly this kind: nothing is coerced with
    int() or str(), and a boolean is not an integer."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"field {field!r} must be {_JSON_KINDS[kind]}, got {_excerpt(value)}")
    return value


def from_json_dict(data: dict) -> KnotComplex:
    if not isinstance(data, dict) or "generators" not in data:
        raise ValueError("complex JSON must be an object with a 'generators' list")
    entries = _json_field(data["generators"], list, "generators")
    if len(entries) > MAX_PRODUCT_GENERATORS:
        raise ValueError(f"the complex has {len(entries)} generators, over the limit of "
                         f"{MAX_PRODUCT_GENERATORS}")
    gens = []
    for entry in entries:
        try:
            gens.append(BaseGenerator(_json_field(entry["id"], str, "id"),
                                      *(_json_field(entry[f], int, f) for f in "AjM")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad generator entry {_excerpt(entry)}: {exc}") from None
    arrows = []
    for entry in _json_field(data.get("arrows", []), list, "arrows"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"bad arrow entry {_excerpt(entry)}: expected [src, dst, upower]")
        try:
            arrows.append((_json_field(entry[0], str, "src"), _json_field(entry[1], str, "dst"),
                           _json_field(entry[2], int, "upower")))
        except ValueError as exc:
            raise ValueError(f"bad arrow entry {_excerpt(entry)}: {exc}") from None
    return KnotComplex(tuple(gens), tuple(arrows))


def _file_path(path):
    """A str or os.PathLike path; `open` would take an int as a file
    descriptor (and close it), so one is refused before anything opens."""
    if isinstance(path, int):
        raise ValueError(f"a complex file path must be a str or os.PathLike, "
                         f"not {type(path).__name__}")
    return path


def save_complex(k: KnotComplex, path) -> None:
    with open(_file_path(path), "w") as fh:
        json.dump(to_json_dict(k), fh, indent=1)


def load_complex(path) -> KnotComplex:
    with open(_file_path(path)) as fh:
        try:
            return from_json_dict(json.load(fh))
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError("complex JSON nests too deeply to decode") from None
