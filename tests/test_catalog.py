import json

import pytest

from fano_wci import cli
from fano_wci.catalog import FAMILY_IDS, CatalogError, default_catalog_path, load_catalog
from fano_wci.report import verify_tables
from fano_wci.singularities import equation_shape
from test_call_counts import count_parses


def test_shipped_catalog_loads(catalog):
    assert catalog.ids() == FAMILY_IDS
    assert len(catalog.pairs) == 14


def test_record_17(catalog):
    g = catalog.pair(17).g
    assert g.weights == (1, 1, 1, 3, 4, 5)
    assert g.degrees == (6, 8)
    gp = catalog.pair(17).gprime
    assert gp.weights == (1, 1, 1, 4, 2)
    assert gp.degrees == (8,)


def test_record_74(catalog):
    g = catalog.pair(74).g
    assert g.weights == (1, 2, 3, 7, 9, 11)
    assert g.degrees == (14, 18)
    assert catalog.pair(74).golden.subfamily == "I''4"


def test_derived_subfamily_is_the_stated_tag(catalog):
    for fid in catalog.ids():
        stated = catalog.pair(fid).golden.subfamily
        assert catalog.member(fid).shape.subfamily == stated, f"family {fid}"
        assert equation_shape(catalog.pair(fid).g).subfamily == stated, f"family {fid}"


def test_derived_subfamilies_are_the_papers_split(catalog):
    split = {}
    for fid in catalog.ids():
        split.setdefault(catalog.member(fid).shape.subfamily, set()).add(fid)
    assert split == {"I'2": {19, 30, 42}, "I''2": {17, 29, 41, 55, 69, 77},
                     "I'4": {23, 50}, "I''4": {49, 74, 82}}


def test_golden_a_cube_matches_record(catalog):
    for fid in catalog.ids():
        pair = catalog.pair(fid)
        assert pair.golden.a_cube == pair.gprime.a_cube()


def test_golden_columns_are_the_files_rows(catalog):
    with open(default_catalog_path(), encoding="utf-8") as fh:
        entries = {obj["id"]: obj for obj in json.load(fh) if obj["kind"] == "Gprime"}
    for fid in catalog.ids():
        golden, entry = catalog.pair(fid).golden, entries[fid]
        assert golden.basket == tuple((b["type"], b["count"], b["locus"]) for b in entry["basket"])
        assert golden.link_column == tuple((l["point"], l["tag"], l["condition"], l["method"])
                                           for l in entry["links"])


@pytest.mark.parametrize("content", [
    b"",
    b"[\xff\xfe]",  # not UTF-8
    b"[" * 100_000,  # nested past the recursion limit
    b"[" + b"1" * 5000 + b"]",  # past the interpreter's integer digit limit, where it has one
], ids=["empty", "invalid-utf8", "deep-nesting", "long-integer"])
def test_empty_file_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    with pytest.raises(CatalogError):
        load_catalog(str(path))
    assert cli.main(["--catalog", str(path), "verify-tables"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_file(tmp_path):
    with pytest.raises(CatalogError):
        load_catalog(str(tmp_path / "nope.json"))


def shipped_bytes() -> bytes:
    with open(default_catalog_path(), "rb") as fh:
        return fh.read()


def test_a_crlf_syntax_error_counts_each_line_end_as_one_character(tmp_path):
    # the text is read with universal newlines, so "\r\n" is one character
    # of the JSON decoder's offset: counted as two bytes it would say char 21
    path = tmp_path / "crlf.json"
    path.write_bytes(shipped_bytes().replace(b"\n", b"\r\n").replace(b'"id": 17,', b'"id": 17,,', 1))
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(path))
    assert str(exc.value) == (f"catalog {path} is not valid JSON: Expecting property name enclosed in "
                              "double quotes: line 3 column 14 (char 19)")


def test_a_bad_byte_past_the_first_8_kb_is_named_at_its_file_position(tmp_path):
    # past one 8 KB read of a text stream: a decoder fed chunk by chunk
    # would name a position within the chunk
    data = shipped_bytes()
    assert len(data) > 9000
    path = tmp_path / "latin.json"
    path.write_bytes(data[:9000] + b"\xff" + data[9001:])
    with pytest.raises(CatalogError) as exc:
        load_catalog(str(path))
    assert str(exc.value) == (f"catalog {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                              "in position 9000: invalid start byte")


def test_a_crlf_copy_of_the_shipped_text_loads_the_shipped_catalog(empty_load_cache, tmp_path):
    # its own text, parsed once: the first load checks every record and
    # verifies clean, and the second returns the same catalog
    path = tmp_path / "crlf.json"
    path.write_bytes(shipped_bytes().replace(b"\n", b"\r\n"))
    parses, first = count_parses(lambda: load_catalog(str(path), strict=False))
    assert parses == 2 * len(FAMILY_IDS)
    assert verify_tables(first) == []
    parses, second = count_parses(lambda: load_catalog(str(path), strict=False))
    assert parses == 0 and second is first


def _tamper(tmp_path, mutate):
    from fano_wci.catalog import default_catalog_path
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    mutate(raw)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_strict_load_rejects_wrong_a_cube(tmp_path):
    def mutate(raw):
        for obj in raw:
            if obj["id"] == 19 and obj["kind"] == "Gprime":
                obj["a_cube"] = "1/2"
    path = _tamper(tmp_path, mutate)
    with pytest.raises(CatalogError, match="family 19"):
        load_catalog(path)
    # non-strict load defers the mismatch to verification
    cat = load_catalog(path, strict=False)
    assert cat.pair(19).golden.a_cube != cat.pair(19).gprime.a_cube()


def test_strict_load_rejects_a_record_of_the_wrong_fano_index(tmp_path):
    # X'_8 in P(1,1,2,4,2): the x-weights stay ascending, and the index is 2
    def mutate(raw):
        for obj in raw:
            if obj["id"] == 19 and obj["kind"] == "Gprime":
                obj["weights"][3] = 4
    with pytest.raises(CatalogError) as exc:
        load_catalog(_tamper(tmp_path, mutate))
    assert str(exc.value) == ("catalog entry #3: record No.19/Gprime: not anticanonically embedded "
                              "of index 1 (sum weights - sum degrees = 2)")


def test_load_rejects_unknown_id(tmp_path):
    def mutate(raw):
        raw[0]["id"] = 18
    path = _tamper(tmp_path, mutate)
    with pytest.raises(CatalogError, match="18"):
        load_catalog(path)


def test_load_rejects_bad_link_tag(tmp_path):
    def mutate(raw):
        for obj in raw:
            if obj["id"] == 19 and obj["kind"] == "Gprime":
                obj["links"][0]["tag"] = "WI"
    path = _tamper(tmp_path, mutate)
    with pytest.raises(CatalogError, match="WI"):
        load_catalog(path)


def test_load_rejects_a_method_that_no_point_builder_has(tmp_path):
    def mutate(raw):
        next(obj for obj in raw if obj["id"] == 29 and obj["kind"] == "Gprime")["links"][0]["method"] = "isolation"
    with pytest.raises(CatalogError, match="^catalog entry #7: bad link method 'isolation' for family 29$"):
        load_catalog(_tamper(tmp_path, mutate), strict=False)


@pytest.mark.parametrize("point, conditions", [
    ("p3", ["exists-wci(1,1,2)"]),  # one row under a condition
    ("p2p4", ["not-exists-wci(1,1,2)", ""]),  # a condition paired with no condition
    ("p2p4", ["not-exists-wci(1,1,2)", "exists-wci(1,1,4)"]),  # not the negation
    ("p2p4", ["monomial-absent(y^2 z)", "exists-wci(1,1,2)"]),
])
def test_load_rejects_rows_that_are_not_a_condition_and_its_negation(tmp_path, point, conditions):
    # each point has one unconditional row, or two: P and not-P
    def mutate(raw):
        rows = [row for row in next(obj for obj in raw if obj["id"] == 19 and obj["kind"] == "Gprime")["links"]
                if row["point"] == point]
        for row, condition in zip(rows, conditions):
            row["condition"] = condition
    with pytest.raises(CatalogError) as exc:
        load_catalog(_tamper(tmp_path, mutate), strict=False)
    assert str(exc.value) == (f"catalog entry #3: the link rows of family 19 at {point} must be one "
                              f"unconditional row or a condition and its negation, got conditions {conditions!r}")


LINK_RULE = "the link tag belongs to the cAx point p4 and only to it, got tag {tag!r} at {point} for family {fid}"
UNTWIST_RULE = ("a row untwists exactly when its tag is not 'none', "
                "got method {method!r} with tag {tag!r} at {point} for family {fid}")


# (catalog entry, family, point, the row's method, its edited tag, the rule that rejects it)
TAG_EDITS = [
    *[(1, 17, "p4", "untwist", tag, LINK_RULE) for tag in ("QI", "EI", "II", "none")],  # p4 takes the link alone
    (3, 19, "p3", "untwist", "link", LINK_RULE),  # the link at a quotient point
    *[(7, 29, "p2p4", "surface-pair", tag, UNTWIST_RULE) for tag in ("QI", "EI", "II")],  # an exclusion
    (7, 29, "p2p4", "surface-pair", "link", LINK_RULE),
    (3, 19, "p3", "untwist", "none", UNTWIST_RULE),  # an untwist without a tag
]


@pytest.mark.parametrize("entry, fid, point, method, tag, rule", TAG_EDITS,
                         ids=[f"{fid}-{point}-{method}-{tag}" for _, fid, point, method, tag, _ in TAG_EDITS])
def test_load_rejects_a_tag_that_its_point_or_method_rules_out(tmp_path, entry, fid, point, method, tag, rule):
    # the link tag exactly at p4, a tag other than "none" exactly on an
    # untwist: both rules read the row alone, so the load checks them
    def mutate(raw):
        (row,) = [row for row in raw[entry]["links"] if row["point"] == point]
        row["tag"] = tag
    with pytest.raises(CatalogError) as exc:
        load_catalog(_tamper(tmp_path, mutate), strict=False)
    assert str(exc.value) == f"catalog entry #{entry}: " + rule.format(tag=tag, point=point, method=method, fid=fid)


def test_load_rejects_missing_record(tmp_path):
    def mutate(raw):
        del raw[0]
    path = _tamper(tmp_path, mutate)
    with pytest.raises(CatalogError, match="missing"):
        load_catalog(path)


def test_load_rejects_disagreeing_subfamily_tags(tmp_path):
    def mutate(raw):
        next(obj for obj in raw if obj["id"] == 42 and obj["kind"] == "Gprime")["subfamily"] = "I'4"
    with pytest.raises(CatalogError, match="of family 42 \\(Gprime\\) differs from \"I'2\""):
        load_catalog(_tamper(tmp_path, mutate), strict=False)

    def mutate(raw):
        next(obj for obj in raw if obj["id"] == 42 and obj["kind"] == "G")["subfamily"] = 2
    with pytest.raises(CatalogError, match="'subfamily' must be a string"):
        load_catalog(_tamper(tmp_path, mutate), strict=False)
