"""Catalog of the 14 codimension-2 families, their hypersurface counterparts,
and the golden classification data (degrees, baskets, per-point link tags).

The catalog ships as a JSON file (see data/catalog.json); the same schema is
accepted from a user-supplied path so perturbed data can be fed to
`verify-tables`.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import TYPE_CHECKING

from .wps import MonomialSupport, WeightSystem, anticanonical_cube, rat, rat_str, record

if TYPE_CHECKING:
    from .links import LinkData
    from .singularities import CAxPoint, QuotientSingularity, StandardForm

FAMILY_IDS = (17, 19, 23, 29, 30, 41, 42, 49, 50, 55, 69, 74, 77, 82)

SUBFAMILIES = {
    "I'2": frozenset({19, 30, 42}),
    "I''2": frozenset({17, 29, 41, 55, 69, 77}),
    "I'4": frozenset({23, 50}),
    "I''4": frozenset({49, 74, 82}),
}

ENV_CATALOG = "FANO_WCI_CATALOG"


class CatalogError(ValueError):
    """Raised when the catalog file fails to parse or violates an invariant."""


def subfamily_of(family_id: int) -> str:
    for tag, ids in SUBFAMILIES.items():
        if family_id in ids:
            return tag
    raise LookupError(f"unknown family id {family_id}")


def is_double_cover_shape(subfamily: str) -> bool:
    """True for the I' equation shape (w^2 x0 (x0+f) + w g + h), False for I''."""
    return subfamily in ("I'2", "I'4")


def cax_modulus(subfamily: str) -> int:
    return 2 if subfamily in ("I'2", "I''2") else 4


@record
class BasketEntry:
    type: str  # "1/r(w1,w2,w3)" or "cAx/2" or "cAx/4"
    count: int
    locus: str  # vertex "p4" or edge "p2p4"


@record
class LinkEntry:
    point: str
    tag: str  # "none" | "QI" | "EI" | "II" | "link"
    condition: str  # machine-readable flag, "" when unconditional


@record
class FamilyRecord:
    id: int
    kind: str  # "G" | "Gprime"
    weights: WeightSystem
    degrees: tuple[int, ...]
    subfamily: str

    def a_cube(self) -> Fraction:
        return anticanonical_cube(self.weights, self.degrees, label=f"No.{self.id}/{self.kind}")


@record
class GoldenRow:
    id: int
    a_cube: Fraction  # stated for the Gprime record
    g_a_cube: Fraction  # stated for the G record
    basket: tuple[BasketEntry, ...]
    link_column: tuple[LinkEntry, ...]


@record
class FamilyPair:
    g: FamilyRecord
    gprime: FamilyRecord
    golden: GoldenRow


@record
class Member(FamilyPair):
    """A family pair with the algebra derived from it: the hypersurface
    member's (-K)^3, standard form, monomial support and singular locus, and
    the link data of the codimension-2 model.  Built once per family and
    catalog load by `Catalog.member`; every layer reads it instead of
    deriving the same data again."""

    a_cube: Fraction
    shape: StandardForm
    support: MonomialSupport
    quotients: tuple[QuotientSingularity, ...]
    cax: CAxPoint
    link_data: LinkData


def derive_member(pair: FamilyPair) -> Member:
    """Solve each record once and derive the rest from the Gprime record's
    form; a Gprime record that is not its G record's counterpart raises
    CatalogError."""
    # imported here because both modules import this one
    from . import links, singularities

    link_data = links.build_counterpart(pair.g, links.to_standard_form(pair.g))
    shape = singularities.equation_shape(pair.gprime)
    links.check_counterpart(pair.gprime, link_data)
    support = singularities.family_support(pair.gprime, shape)
    quotients, cax = singularities.singular_locus(pair.gprime, support)
    return Member(g=pair.g, gprime=pair.gprime, golden=pair.golden, a_cube=pair.gprime.a_cube(),
                  shape=shape, support=support, quotients=tuple(quotients), cax=cax,
                  link_data=link_data)


class Catalog:
    """All 14 family pairs, indexed by id; immutable after load apart from
    the Members it derives on demand."""

    def __init__(self, pairs: list[FamilyPair]):
        self.pairs = sorted(pairs, key=lambda p: p.g.id)
        self._by_id = {p.g.id: p for p in self.pairs}
        self._members: dict[int, Member] = {}

    def ids(self) -> tuple[int, ...]:
        return tuple(p.g.id for p in self.pairs)

    def pair(self, family_id: int) -> FamilyPair:
        if family_id not in self._by_id:
            raise LookupError(f"unknown family id {family_id}")
        return self._by_id[family_id]

    def g(self, family_id: int) -> FamilyRecord:
        return self.pair(family_id).g

    def gprime(self, family_id: int) -> FamilyRecord:
        return self.pair(family_id).gprime

    def golden(self, family_id: int) -> GoldenRow:
        return self.pair(family_id).golden

    def member(self, family_id: int) -> Member:
        """The family's Member, derived on first request and kept as long as
        this catalog, i.e. for one load.  A record that admits no derivation
        (no standard shape, a missing weight, wrong Fano index, a Gprime
        record that is not its G record's counterpart) raises CatalogError
        with the derivation's message."""
        member = self._members.get(family_id)
        if member is None:
            try:
                member = derive_member(self.pair(family_id))
            except ValueError as exc:
                raise CatalogError(str(exc)) from exc
            self._members[family_id] = member
        return member


def default_catalog_path() -> str:
    override = os.environ.get(ENV_CATALOG)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data", "catalog.json")


# the JSON type of each key of a basket or links entry
BASKET_KEYS = {"type": str, "count": int, "locus": str}
LINK_KEYS = {"point": str, "tag": str, "condition": str}


def _weights_and_degrees(obj: dict, where: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The record's weights and degrees, checked to be lists of positive
    integers (type() is exact: a JSON true is a bool, not an int)."""
    weights, degrees = obj["weights"], obj["degrees"]
    if type(weights) is list and type(degrees) is list:
        both = weights + degrees
        if {*map(type, both)} == {int} and min(both) >= 1:
            return tuple(weights), tuple(degrees)
    raise CatalogError(f"{where}: 'weights' and 'degrees' must be lists of positive integers, "
                       f"got {weights!r} and {degrees!r}")


def _entries(obj: dict, field: str, keys: dict[str, type], where: str) -> list[dict]:
    """The objects of a basket or links array, each checked to hold every key
    of `keys` with a value of that key's type."""
    value = obj[field]
    kinds = list(keys.values())
    try:
        ok = type(value) is list and [type(entry[key]) for entry in value for key in keys] == kinds * len(value)
    except (KeyError, TypeError):  # an entry without a key, or not an object
        ok = False
    if not ok:
        schema = ", ".join(f"{key} ({kind.__name__})" for key, kind in keys.items())
        raise CatalogError(f"{where}: '{field}' must be a list of objects with {schema}, got {value!r}")
    return value


def _parse_record(obj: dict, where: str) -> FamilyRecord:
    if type(obj) is not dict:
        raise CatalogError(f"{where}: must be a JSON object")
    for field in ("id", "kind", "weights", "degrees", "subfamily", "a_cube", "basket", "links"):
        if field not in obj:
            raise CatalogError(f"{where}: missing field '{field}'")
    fid = obj["id"]
    kind = obj["kind"]
    if kind not in ("G", "Gprime"):
        raise CatalogError(f"{where}: kind must be 'G' or 'Gprime', got {kind!r}")
    if type(fid) is not int or fid not in FAMILY_IDS:
        raise CatalogError(f"{where}: id {fid} is not one of the 14 catalog families")
    subfamily = obj["subfamily"]
    if type(subfamily) is not str or subfamily not in SUBFAMILIES:
        raise CatalogError(f"{where}: unknown subfamily {subfamily!r}")
    if fid not in SUBFAMILIES[subfamily]:
        raise CatalogError(f"{where}: id {fid} is not in subfamily {subfamily}")
    if type(obj["a_cube"]) is not str:
        raise CatalogError(f"{where}: 'a_cube' must be a string \"p/q\", got {obj['a_cube']!r}")
    weights, degrees = _weights_and_degrees(obj, where)
    if kind == "G" and (len(weights) != 6 or len(degrees) != 2):
        raise CatalogError(f"{where}: G records need 6 weights and 2 degrees")
    if kind == "Gprime" and (len(weights) != 5 or len(degrees) != 1):
        raise CatalogError(f"{where}: Gprime records need 5 weights and 1 degree")
    return FamilyRecord(id=fid, kind=kind, weights=WeightSystem(weights), degrees=degrees,
                        subfamily=subfamily)


def load_catalog(path: str | None = None, strict: bool = True) -> Catalog:
    """Load and validate the catalog; any failure aborts the whole load.

    With strict=True (the default for programmatic use) the weights of every
    record must be in the documented order (ascending for G, ascending
    x-weights for Gprime) and its stated a_cube must match its weights and
    degrees exactly.  verify-tables loads non-strictly so that an injected
    golden fault surfaces as a verification diff rather than a load error.
    """
    path = path or default_catalog_path()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogError(f"catalog {path}: top level must be a JSON array")

    g_records: dict[int, FamilyRecord] = {}
    gprime_records: dict[int, FamilyRecord] = {}
    stated_a_cube: dict[tuple[str, int], Fraction] = {}
    golden_columns: dict[int, tuple[tuple[BasketEntry, ...], tuple[LinkEntry, ...]]] = {}
    for k, obj in enumerate(raw):
        where = f"catalog entry #{k}"
        rec = _parse_record(obj, where)
        bucket = g_records if rec.kind == "G" else gprime_records
        if rec.id in bucket:
            raise CatalogError(f"{where}: duplicate {rec.kind} record for id {rec.id}")
        bucket[rec.id] = rec
        try:
            a_cube = rat(obj["a_cube"])
        except (ValueError, ZeroDivisionError) as exc:
            raise CatalogError(f"{where}: bad a_cube {obj['a_cube']!r}: {exc}") from exc
        if strict:
            ordered = rec.weights.weights if rec.kind == "G" else rec.weights.weights[:4]
            if list(ordered) != sorted(ordered):
                order = "ascending" if rec.kind == "G" else "ascending x-weights, then the distinguished weight"
                raise CatalogError(f"{where}: 'weights' of family {rec.id} ({rec.kind}) must be {order}, "
                                   f"got {list(rec.weights)}")
            try:
                computed = rec.a_cube()
            except ValueError as exc:  # weights and degrees of the wrong Fano index
                raise CatalogError(f"{where}: {exc}") from exc
            if a_cube != computed:
                raise CatalogError(
                    f"{where}: a_cube mismatch for family {rec.id} ({rec.kind}): "
                    f"file says {obj['a_cube']}, weights/degrees give {rat_str(computed)}"
                )
        stated_a_cube[rec.kind, rec.id] = a_cube
        if rec.kind == "Gprime":
            basket = tuple(
                BasketEntry(type=b["type"], count=b["count"], locus=b["locus"])
                for b in _entries(obj, "basket", BASKET_KEYS, where)
            )
            links = tuple(
                LinkEntry(point=l["point"], tag=l["tag"], condition=l["condition"])
                for l in _entries(obj, "links", LINK_KEYS, where)
            )
            for entry in basket:
                if entry.count < 1:
                    raise CatalogError(f"{where}: basket count must be >= 1 for family {rec.id}")
            for entry in links:
                if entry.tag not in ("none", "QI", "EI", "II", "link"):
                    raise CatalogError(f"{where}: bad link tag {entry.tag!r} for family {rec.id}")
                if entry.tag == "link" and entry.point != "p4":
                    raise CatalogError(f"{where}: link tag only at the cAx point p4 (family {rec.id})")
            golden_columns[rec.id] = basket, links

    missing_g = set(FAMILY_IDS) - set(g_records)
    missing_gp = set(FAMILY_IDS) - set(gprime_records)
    if missing_g or missing_gp:
        raise CatalogError(f"catalog incomplete: missing G records {sorted(missing_g)}, "
                           f"Gprime records {sorted(missing_gp)}")

    pairs = [
        FamilyPair(g=g_records[i], gprime=gprime_records[i],
                   golden=GoldenRow(id=i, a_cube=stated_a_cube["Gprime", i],
                                    g_a_cube=stated_a_cube["G", i],
                                    basket=golden_columns[i][0], link_column=golden_columns[i][1]))
        for i in FAMILY_IDS
    ]
    return Catalog(pairs)
