"""Catalog of the 14 codimension-2 families, their hypersurface counterparts,
the golden classification data (degrees, baskets, per-point link tags) and
the constants the paper cites (`CITED`).  It ships as data/catalog.json; a
file of the same schema may be given, so perturbed data can be verified.
"""

from __future__ import annotations

import io
import json
import os
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .wps import MonomialSupport, anticanonical_cube, rat, rat_str, record

FAMILY_IDS = (17, 19, 23, 29, 30, 41, 42, 49, 50, 55, 69, 74, 77, 82)
_DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "data", "catalog.json")


class CatalogError(ValueError):
    """Raised when the catalog file fails to parse or violates an invariant."""


@record
class FamilyRecord:
    """One record of the catalog file.  Its (-K)^3 is derived on the first
    `a_cube()` call and kept, not as a field; a record of the wrong Fano
    index keeps nothing and raises on every call."""

    id: int
    kind: str  # "G" | "Gprime"
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    cited: frozenset | None = None  # the record's `cited` constants (`CITED`), None where it states none

    def a_cube(self) -> Fraction:
        return self._a_cube

    @cached_property
    def _a_cube(self) -> Fraction:
        return anticanonical_cube(self.weights, self.degrees, label=f"No.{self.id}/{self.kind}")


LinkRow = namedtuple("LinkRow", "point tag condition method cited", defaults=(None,))
LinkRow.__doc__ = """A links entry, the paper's per-point table, which `exclusion.dispatch`
runs as a branch: at `point`, under `condition` ("" if none), `method` excludes or
untwists (link or involution `tag`) with the `cited` constants (None if none)."""


@record
class GoldenRow:
    subfamily: str  # stated alike for both records: "I'" or "I''", then b
    a_cube: Fraction  # stated for the Gprime record
    g_a_cube: Fraction  # stated for the G record
    # the Gprime record's rows in file order: basket (type, count, locus), as ("cAx/2",
    # 1, "p4"), and `LinkRow`s, at each point one with condition "" or two, P and not-P
    basket: tuple[tuple[str, int, str], ...]
    link_column: tuple[LinkRow, ...]


@record
class FamilyPair:
    g: FamilyRecord
    gprime: FamilyRecord
    golden: GoldenRow


@record
class Member(FamilyPair):
    """A family pair with the algebra derived from it: the hypersurface
    member's (-K)^3, standard form, monomial support and singular locus
    (quotient points, and the cAx point with its extractions); and its
    basket as golden rows (`basket`), center plan (`plan`), each quotient
    point's local model (`local`) and restriction curve's support (`gamma`),
    derived on first use and kept, not as fields, so equality and hashing
    read the fields alone (a derivation that raises keeps nothing).
    `Catalog.member` builds the general member once per family, text and
    strictness in a process; a stratum (some monomials struck) is built
    from `singular_locus` and this constructor, uncached."""

    # annotations that name classes of modules importing this one stay unevaluated strings
    a_cube: Fraction
    shape: StandardForm
    support: MonomialSupport
    quotients: tuple[QuotientSingularity, ...]
    cax: CAxPoint

    @cached_property
    def basket(self) -> tuple[tuple[str, int, str], ...]:
        """The computed basket as golden rows (type, count, locus): the
        singular locus in its own order, then the cAx point p4."""
        return (*((q.type_str(), q.count, q.locus) for q in self.quotients),
                (self.cax.type_str(), 1, "p4"))

    # the exclusion module is imported in each body because it imports this one
    @cached_property
    def plan(self) -> Plan:
        """Every center with its branches, the loci of link rows where the
        member has no point, and the curve and isolation choices (`exclusion.centers`)."""
        from . import exclusion
        return exclusion.centers(self)

    @cached_property
    def local(self) -> dict[str, LocalModel]:
        """Each quotient point's local model, by locus (`exclusion.local_models`)."""
        from . import exclusion
        return exclusion.local_models(self)

    @cached_property
    def gamma(self) -> MonomialSupport:
        """The restriction curve's support (`exclusion.gamma_polynomial`)."""
        from . import exclusion
        return exclusion.gamma_polynomial(self)


def derive_member(pair: FamilyPair) -> Member:
    """Solve each record once and derive the rest from the Gprime record's
    form (the G record's serves only the counterpart check); a form of
    another subfamily, or a Gprime record that is not its G record's
    counterpart, raises CatalogError."""
    # imported here because both modules import this one
    from . import links, singularities

    g_form = links.to_standard_form(pair.g, pair.golden.subfamily)
    shape = links.to_standard_form(pair.gprime, pair.golden.subfamily)
    links.check_counterpart(pair.gprime, g_form)
    support = singularities.family_support(pair.gprime, shape)
    quotients, cax = singularities.singular_locus(pair.gprime, shape, support)
    return Member(g=pair.g, gprime=pair.gprime, golden=pair.golden, a_cube=pair.gprime.a_cube(),
                  shape=shape, support=support, quotients=tuple(quotients), cax=cax)


class Catalog:
    """All 14 family pairs, indexed by id; immutable after load apart from
    the Members it derives on demand, which every load of one text and
    strictness shares (`load_catalog`)."""

    def __init__(self, pairs: list[FamilyPair]):
        self.pairs = tuple(sorted(pairs, key=lambda p: p.g.id))
        self._by_id = {p.g.id: p for p in self.pairs}
        self._ids = tuple(self._by_id)
        self._members: dict[int, Member] = {}

    def ids(self) -> tuple[int, ...]:
        return self._ids

    def pair(self, family_id: int) -> FamilyPair:
        if family_id not in self._by_id:
            raise LookupError(f"unknown family id {family_id}; catalog has {self._ids}")
        return self._by_id[family_id]

    def member(self, family_id: int) -> Member:
        """The family's Member, derived on first request and kept as long as
        this catalog, which every later load of the same text and strictness
        returns.  A failed derivation keeps nothing: a record that admits
        none (no standard shape or one of another subfamily, a missing
        weight, wrong Fano index, a Gprime record that is not its G record's
        counterpart) raises CatalogError with the derivation's message."""
        member = self._members.get(family_id)
        if member is None:
            try:
                member = derive_member(self.pair(family_id))
            except ValueError as exc:
                raise CatalogError(str(exc)) from exc
            self._members[family_id] = member
        return member


def default_catalog_path() -> str:
    return _DEFAULT_PATH


# the keys of a record and the JSON type of each key of a basket or links entry; a record or links entry may add `cited`
RECORD_KEYS = ("id", "kind", "weights", "degrees", "subfamily", "a_cube", "basket", "links")
BASKET_KEYS = {"type": str, "count": int, "locus": str}
LINK_KEYS = {"point": str, "tag": str, "condition": str, "method": str}
# the tags of a links entry: "none" where no link starts, else what starts it
LINK_TAGS = ("none", "QI", "EI", "II", "link")
# the methods of a links entry: the exclusions of a quotient point, and the untwist
LINK_METHODS = ("surface-pair", "nef-divisor", "negdef-matrix", "infinite-curves", "untwist")
# the head of the negation of each condition "head(argument)" that a point's pair of rows may state
NEGATED = {"exists-wci": "not-exists-wci", "not-exists-wci": "exists-wci",
           "monomial-present": "monomial-absent", "monomial-absent": "monomial-present"}


P_Q, INT, INDEX, INDICES, FLAG = '"p/q" in lowest terms', "an int", "an index 0-4", "2 or 3 distinct indices", "a flag"
# the keys of a `cited` object (its readers say what each is), by the kind of the record or the
# method of the links entry that states it, with the kind of value the file must state (`_read`)
CITED = {
    "G": {"tower": ((INT, INT), (INT, INT))},
    "Gprime": {"gamma_sq": P_Q, "cycle": (P_Q, P_Q), "isolation_vertex": INDEX, "gamma_normalized": FLAG},
    "negdef-matrix": {"sections": INDICES, "beta": P_Q, "floor": P_Q},
    "infinite-curves": {"T": (INT, P_Q), "residual": FLAG, "curve": (P_Q, P_Q)},
}
_ABSENT = object()  # the `cited` of an entry that states none


def _read(value, kind):
    """`value` read as `kind`: a list as a tuple, a fraction in lowest terms
    (so `rat_str` writes it back as stated) as a Fraction; else ValueError."""
    if kind == INDICES and type(value) is list and len(value) in (2, 3):
        read = tuple([_read(v, INDEX) for v in value])
        if len(set(read)) == len(read):
            return read
    elif type(kind) is tuple and type(value) is list and len(value) == len(kind):
        return tuple(map(_read, value, kind))
    elif kind == P_Q and type(value) is str:
        x = rat(value.removeprefix("-")) * (-1 if value.startswith("-") else 1)
        if rat_str(x) == value:
            return x
    elif type(value) is (bool if kind == FLAG else int) and (kind in (FLAG, INT) or kind == INDEX and 0 <= value <= 4):
        return value
    raise ValueError


def _cited(raw, keys: dict, where: str) -> frozenset | None:
    """`raw`, a `cited` object of keys among `keys`, as the frozenset (it keeps
    its hash) of its (key, value) pairs, each value `_read`; None for `_ABSENT`."""
    if raw is _ABSENT:
        return None
    if type(raw) is not dict:
        raise CatalogError(f"{where}: 'cited' must be an object, got {raw!r}")
    _known_keys(raw, keys, where, "cited key")
    pairs = []
    for key, value in raw.items():
        try:
            pairs.append((key, _read(value, keys[key])))
        except (ValueError, ZeroDivisionError):
            raise CatalogError(f"{where}: cited {key!r} must be {_kind_str(keys[key])}, got {value!r}") from None
    return frozenset(pairs)


def _kind_str(kind) -> str:
    return kind if type(kind) is str else f"[{', '.join(map(_kind_str, kind))}]"


def _known_keys(obj: dict, allowed, where: str, what: str = "key") -> None:
    """A key of `obj` outside `allowed` is an error that names it."""
    for key in obj:
        if key not in allowed:
            raise CatalogError(f"{where}: unknown {what} {key!r}")


# the largest weight or degree a record may state: far above the shipped
# families' (at most 26), and small enough that every product of them prints
MAX_WEIGHT = 10_000


def _weights_and_degrees(obj: dict, where: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The record's weights and degrees, checked to be lists of positive
    integers (type() is exact: a JSON true is a bool, not an int) of at most
    MAX_WEIGHT."""
    weights, degrees = obj["weights"], obj["degrees"]
    if type(weights) is list and type(degrees) is list:
        both = weights + degrees
        if {*map(type, both)} == {int} and min(both) >= 1:
            if max(both) > MAX_WEIGHT:
                raise CatalogError(f"{where}: 'weights' and 'degrees' must be at most {MAX_WEIGHT}")
            return tuple(weights), tuple(degrees)
    raise CatalogError(f"{where}: 'weights' and 'degrees' must be lists of positive integers, "
                       f"got {weights!r} and {degrees!r}")


def _entries(obj: dict, field: str, keys: dict[str, type], where: str) -> tuple[tuple, ...]:
    """The objects of a basket or links array as rows of their values in
    `keys` order, each holding every key of `keys` with a value of its type
    and no other key but a links object's `cited` (`_ABSENT` if none), last."""
    value = obj[field]
    kinds = [*keys.values()]
    if type(value) is list:
        out = []
        for k, entry in enumerate(value):
            fields = [*map(entry.get, keys)] if type(entry) is dict else None
            if fields is None or [*map(type, fields)] != kinds:
                break
            _known_keys(entry, (*keys, "cited") if field == "links" else keys, f"{where}: '{field}' entry #{k}")
            out.append((*fields, entry.get("cited", _ABSENT)) if field == "links" else tuple(fields))
        else:
            return tuple(out)
    schema = ", ".join(f"{key} ({kind.__name__})" for key, kind in keys.items())
    raise CatalogError(f"{where}: '{field}' must be a list of objects with {schema}, got {value!r}")


def _link_rows(entries: tuple[tuple, ...], fid: int, where: str) -> tuple[LinkRow, ...]:
    """The links entries as rows, each with a known tag and method meeting
    the two tag rules that read the row alone (the link tag exactly at the
    cAx point p4, a tag other than "none" exactly on an untwist) and the
    `cited` keys its method reads.  Each point has one unconditional row or
    two: a condition and its negation."""
    rows, conditions = [], {}
    for k, (point, tag, condition, method, cited) in enumerate(entries):
        if tag not in LINK_TAGS:
            raise CatalogError(f"{where}: bad link tag {tag!r} for family {fid}")
        if method not in LINK_METHODS:
            raise CatalogError(f"{where}: bad link method {method!r} for family {fid}")
        if (tag == "link") != (point == "p4"):
            raise CatalogError(f"{where}: the link tag belongs to the cAx point p4 and only to it, "
                               f"got tag {tag!r} at {point} for family {fid}")
        if (method == "untwist") != (tag != "none"):
            raise CatalogError(f"{where}: a row untwists exactly when its tag is not 'none', "
                               f"got method {method!r} with tag {tag!r} at {point} for family {fid}")
        cited = _cited(cited, CITED.get(method, {}), f"{where}: 'links' entry #{k} ({method})")
        rows.append(LinkRow(point, tag, condition, method, cited))
        conditions.setdefault(point, []).append(condition)
    for point, stated in conditions.items():
        head, _, argument = stated[0].partition("(")
        negation = head in NEGATED and f"{NEGATED[head]}({argument}"
        if stated != [""] and (len(stated) != 2 or stated[1] != negation):
            raise CatalogError(f"{where}: the link rows of family {fid} at {point} must be one unconditional "
                               f"row or a condition and its negation, got conditions {stated!r}")
    return tuple(rows)


def _parse_record(obj: dict, where: str) -> FamilyRecord:
    if type(obj) is not dict:
        raise CatalogError(f"{where}: must be a JSON object")
    for field in RECORD_KEYS:
        if field not in obj:
            raise CatalogError(f"{where}: missing field '{field}'")
    fid = obj["id"]
    kind = obj["kind"]
    if kind not in ("G", "Gprime"):
        raise CatalogError(f"{where}: kind must be 'G' or 'Gprime', got {kind!r}")
    _known_keys(obj, (*RECORD_KEYS, "cited"), where)
    if type(fid) is not int or fid not in FAMILY_IDS:
        raise CatalogError(f"{where}: id {fid} is not one of the 14 catalog families")
    if type(obj["subfamily"]) is not str:
        raise CatalogError(f"{where}: 'subfamily' must be a string, got {obj['subfamily']!r}")
    if type(obj["a_cube"]) is not str:
        raise CatalogError(f"{where}: 'a_cube' must be a string \"p/q\", got {obj['a_cube']!r}")
    weights, degrees = _weights_and_degrees(obj, where)
    if kind == "G" and (len(weights) != 6 or len(degrees) != 2):
        raise CatalogError(f"{where}: G records need 6 weights and 2 degrees")
    if kind == "Gprime" and (len(weights) != 5 or len(degrees) != 1):
        raise CatalogError(f"{where}: Gprime records need 5 weights and 1 degree")
    return FamilyRecord(fid, kind, weights, degrees)


# strict -> (bytes, catalog) of the last load of that strictness that passed
# every check: the commands alternate non-strict verify-tables with strict loads
_PARSED: dict[bool, tuple[bytes, Catalog]] = {}


def load_catalog(path: str | None = None, strict: bool = True) -> Catalog:
    """Load and validate the catalog; any failure, a key outside the schema
    (`CITED` among it) too, aborts the whole load.

    With strict=True (the default for programmatic use) the weights of every
    record must be in the documented order (ascending for G, ascending
    x-weights for Gprime) and its stated a_cube must match its weights and
    degrees exactly.  verify-tables loads non-strictly so that an injected
    golden fault surfaces as a verification diff rather than a load error.

    The file is read on every call, in one unbuffered read.  If its bytes
    equal those of the last load of the same strictness that passed every
    check, that load's `Catalog`, with the `Member`s derived so far, is
    returned again, nothing decoded or checked, since they depend on nothing
    but the bytes and `strict`; otherwise the bytes are decoded as a
    text-mode read decodes them, every check runs, and the bytes and a new
    `Catalog` are kept only once all pass, so a failing file raises the same
    error on every load.
    """
    path = path or _DEFAULT_PATH
    try:
        with io.FileIO(path) as fh:
            data = fh.readall()
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    parsed = _PARSED.get(strict)
    if parsed is not None and parsed[0] == data:
        return parsed[1]
    try:
        raw = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog {path} is not UTF-8 text: {exc}") from exc
    # a JSONDecodeError, an integer literal past the interpreter's digit
    # limit (ValueError) or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise CatalogError(f"catalog {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogError(f"catalog {path}: top level must be a JSON array")

    g_records: dict[int, FamilyRecord] = {}
    gprime_records: dict[int, FamilyRecord] = {}
    stated_a_cube: dict[tuple[str, int], Fraction] = {}
    stated_subfamily: dict[int, str] = {}
    golden_columns: dict[int, tuple[tuple[tuple, ...], tuple[LinkRow, ...]]] = {}
    for k, obj in enumerate(raw):
        where = f"catalog entry #{k}"
        rec = _parse_record(obj, where)
        bucket = g_records if rec.kind == "G" else gprime_records
        if rec.id in bucket:
            raise CatalogError(f"{where}: duplicate {rec.kind} record for id {rec.id}")
        subfamily = stated_subfamily.setdefault(rec.id, obj["subfamily"])
        if obj["subfamily"] != subfamily:
            raise CatalogError(f"{where}: subfamily {obj['subfamily']!r} of family {rec.id} ({rec.kind}) "
                               f"differs from {subfamily!r}, stated by its other record")
        try:
            a_cube = rat(obj["a_cube"])
        except (ValueError, ZeroDivisionError) as exc:
            raise CatalogError(f"{where}: bad a_cube {obj['a_cube']!r}: {exc}") from exc
        if strict:
            ordered = rec.weights if rec.kind == "G" else rec.weights[:4]
            if list(ordered) != sorted(ordered):
                order = "ascending" if rec.kind == "G" else "ascending x-weights, then the distinguished weight"
                raise CatalogError(f"{where}: 'weights' of family {rec.id} ({rec.kind}) must be {order}, "
                                   f"got {list(rec.weights)}")
            try:
                computed = rec.a_cube()
            except ValueError as exc:  # weights and degrees of the wrong Fano index
                raise CatalogError(f"{where}: {exc}") from exc
            if computed != a_cube:
                raise CatalogError(
                    f"{where}: a_cube mismatch for family {rec.id} ({rec.kind}): "
                    f"file says {obj['a_cube']}, weights/degrees give {rat_str(computed)}"
                )
        stated_a_cube[rec.kind, rec.id] = a_cube
        if rec.kind == "Gprime":
            basket = _entries(obj, "basket", BASKET_KEYS, where)
            links = _entries(obj, "links", LINK_KEYS, where)
            for _, count, _ in basket:
                if count < 1:
                    raise CatalogError(f"{where}: basket count must be >= 1 for family {rec.id}")
            golden_columns[rec.id] = basket, _link_rows(links, rec.id, where)
        else:  # the golden columns belong to the Gprime record
            for field in ("basket", "links"):
                if obj[field] != []:
                    raise CatalogError(f"{where}: '{field}' of a G record must be [], got {obj[field]!r}")
        cited = _cited(obj.get("cited", _ABSENT), CITED[rec.kind], where)
        bucket[rec.id] = FamilyRecord(rec.id, rec.kind, rec.weights, rec.degrees, cited)

    # every id is one of FAMILY_IDS and none repeats, so a full count is a full catalog
    if len(g_records) + len(gprime_records) != 2 * len(FAMILY_IDS):
        raise CatalogError(f"catalog incomplete: missing G records {sorted(set(FAMILY_IDS) - set(g_records))}, "
                           f"Gprime records {sorted(set(FAMILY_IDS) - set(gprime_records))}")

    pairs = [FamilyPair(g_records[i], gprime_records[i],
                        GoldenRow(stated_subfamily[i], stated_a_cube["Gprime", i], stated_a_cube["G", i],
                                  *golden_columns[i]))
             for i in FAMILY_IDS]
    catalog = Catalog(pairs)
    _PARSED[strict] = data, catalog
    return catalog
