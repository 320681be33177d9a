"""JSON round-trips and ingest validation."""

import json

import pytest

from hopfcheck.cyclotomic import Cyclotomic, root_of_unity
from hopfcheck.hopf import dual_hopf, group_algebra, taft
from hopfcheck.serialize import (
    IngestError,
    algebra_from_json,
    algebra_to_json,
    hopf_from_json,
    hopf_to_json,
    ingest_algebra,
)

c = Cyclotomic.coerce


def test_algebra_round_trip():
    for alg in (taft(2).algebra, taft(3).algebra, group_algebra(4).algebra):
        back = algebra_from_json(algebra_to_json(alg))
        assert back.same_structure(alg)
        assert list(back.unit) == list(alg.unit)


def test_hopf_round_trip_through_file(tmp_path):
    h = taft(2, c(-1))
    path = tmp_path / "taft2.json"
    path.write_text(json.dumps(hopf_to_json(h)))
    back = ingest_algebra(str(path))
    assert back.same_data(h)


def test_hopf_round_trip_all_small():
    for h in (taft(2), taft(3), group_algebra(3), dual_hopf(taft(2))):
        assert hopf_from_json(hopf_to_json(h)).same_data(h)


def test_json_is_plain_data():
    doc = hopf_to_json(taft(2))
    json.dumps(doc)  # nothing exotic inside
    assert doc["dim"] == 4
    assert doc["comult"]["rows"] == 16


def test_ingest_plain_algebra(tmp_path):
    alg = group_algebra(3).algebra
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(alg)))
    back = ingest_algebra(str(path))
    assert not hasattr(back, "comult_col")
    assert back.same_structure(alg)


def test_ingest_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(IngestError):
        ingest_algebra(str(path))
    with pytest.raises(IngestError):
        ingest_algebra(str(tmp_path / "missing.json"))


def test_ingest_rejects_shape_errors():
    doc = algebra_to_json(group_algebra(2).algebra)
    doc["unit"] = doc["unit"][:1]
    with pytest.raises(IngestError):
        algebra_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": "abc", "unit": [], "structure": []},
        {"dim": 1, "unit": [Cyclotomic.one().to_json()], "structure": [5]},
        {"dim": 1, "unit": 7, "structure": [[[Cyclotomic.one().to_json()]]]},
        {"dim": 1, "unit": [Cyclotomic.one().to_json()], "structure": [[5]]},
        {"dim": True, "unit": [Cyclotomic.one().to_json()], "structure": [[[]]]},
    ],
    ids=["dim-not-int", "plane-not-list", "unit-not-list", "vector-not-list", "dim-bool"],
)
def test_ingest_rejects_mistyped_fields(doc):
    with pytest.raises(IngestError):
        algebra_from_json(doc)


def test_ingest_rejects_nonassociative():
    # set x.x = g inside the taft(2) table; then (xx)x = gx but x(xx) = -gx
    doc = algebra_to_json(taft(2).algebra)
    doc["structure"][1][1] = [c(v).to_json() for v in (0, 0, 1, 0)]
    with pytest.raises(IngestError) as err:
        algebra_from_json(doc)
    assert "axiom" in str(err.value)


def test_ingest_rejects_broken_antipode():
    doc = hopf_to_json(taft(2))
    # replace the antipode by the identity, which fails the antipode axiom
    ident = [[c(1 if i == j else 0).to_json() for j in range(4)] for i in range(4)]
    doc["antipode"]["entries"] = ident
    with pytest.raises(IngestError) as err:
        hopf_from_json(doc)
    assert "antipode" in str(err.value)


def test_scalar_fractions_survive():
    xi = root_of_unity(3)
    v = (c(2) * xi - c(1)) / c(6)
    from hopfcheck.cyclotomic import cyc_from_json

    assert cyc_from_json(v.to_json()) == v
