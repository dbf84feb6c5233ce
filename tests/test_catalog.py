import json

import pytest

from fano_wci import cli
from fano_wci.catalog import FAMILY_IDS, CatalogError, default_catalog_path, load_catalog
from fano_wci.singularities import equation_shape


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
        assert golden.link_column == tuple((l["point"], l["tag"], l["condition"]) for l in entry["links"])


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
