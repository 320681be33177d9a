"""JSON round-trips and ingest validation."""

import gc
import json

import pytest

from hopfcheck import serialize
from hopfcheck.cyclotomic import Cyclotomic, phi_degree, root_of_unity
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


def _scalar_json(num: str, den: str, order=1) -> dict:
    return {"order": order, "coeffs": [[num, den]]}


def test_equal_values_spelled_differently_parse_alike():
    # k x k with unit 2 e_0 + 2 e_1, so e_i e_i = (1/2) e_i, spelled two ways
    half_a, half_b, zero = _scalar_json("2", "4"), _scalar_json("1", "2"), _scalar_json("0", "1")
    doc = {
        "dim": 2,
        "unit": [_scalar_json("2", "1")] * 2,
        "structure": [[[half_a, zero], [zero, zero]], [[zero, zero], [zero, half_b]]],
    }
    alg = algebra_from_json(doc)
    for i in range(2):
        got = alg.rows[i][i][i]
        assert (got.order, got.num, got.den) == (1, (1,), 2)


@pytest.mark.parametrize(
    "bad",
    [
        {"order": True, "coeffs": [["0", "1"]]},
        {"order": 1.0, "coeffs": [["0", "1"]]},
        {"order": 1, "coeffs": ["01"]},
        {"order": 1, "coeffs": [[0, 1]]},
        {"order": 1, "coeffs": {"01": 0}},
        {"order": 1, "coeffs": [["0", "0"]]},
        {"order": 1, "coeffs": [[["0"], "1"]]},
    ],
    ids=["order-bool", "order-float", "pair-string", "pair-ints", "coeffs-dict",
         "zero-den", "unhashable"],
)
def test_bad_scalar_after_valid_one_is_located(bad):
    # a 2-dim algebra k x k whose zero entries are first spelled validly as
    # ["0", "1"]; the last zero entry is replaced by a near-spelling
    zero, one = _scalar_json("0", "1"), _scalar_json("1", "1")
    structure = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    structure[1][1] = [bad, one]
    doc = {"dim": 2, "unit": [one, one], "structure": structure}
    with pytest.raises(IngestError, match=r"bad scalar in structure\[1\]\[1\]\[0\]"):
        algebra_from_json(doc)


def test_ingest_caps_the_lcm_of_scalar_orders():
    # each order is within MAX_ORDER, but arithmetic would lift both to their
    # lcm and build its field tables
    def zero(order):
        return {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}

    doc = {"dim": 2, "unit": [zero(997), zero(991)],
           "structure": [[[zero(1)] * 2] * 2] * 2}
    with pytest.raises(IngestError, match=r"unit\[1\]: order 991 takes the lcm 988027 "):
        algebra_from_json(doc)
    hopf = hopf_to_json(taft(2))  # order 2, so 499 alone keeps the lcm at 998
    hopf["counit"][1] = zero(499)
    hopf["antipode"]["entries"][0][1] = zero(991)
    with pytest.raises(IngestError, match=r"antipode\[0\]\[1\]: order 991 takes the lcm 989018 "):
        hopf_from_json(hopf)


@pytest.mark.parametrize("field,value", [("cols", 4.9), ("rows", "4"), ("cols", True)])
def test_ingest_rejects_mistyped_matrix_shape(field, value):
    doc = hopf_to_json(taft(2))
    doc["antipode"][field] = value
    with pytest.raises(IngestError, match="must be integers"):
        hopf_from_json(doc)


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_ingest_restores_gc_state(tmp_path, caller_enabled):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(algebra_to_json(taft(2).algebra)))
    bad = tmp_path / "bad.json"
    one, zero_den = _scalar_json("1", "1"), _scalar_json("1", "0")
    bad.write_text(json.dumps({"dim": 1, "unit": [one], "structure": [[[zero_den]]]}))
    was = gc.isenabled()
    try:
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        ingest_algebra(str(good))
        assert gc.isenabled() is caller_enabled
        with pytest.raises(IngestError):
            ingest_algebra(str(bad))
        assert gc.isenabled() is caller_enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_ingest_releases_the_decoded_document(tmp_path, monkeypatch):
    # the decoded tree is emptied before the algebra is built and certified
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(hopf_to_json(taft(3))))
    seen = []
    real_load = serialize.json.load

    def load(fh):
        seen.append(real_load(fh))
        return seen[-1]

    monkeypatch.setattr(serialize.json, "load", load)
    left = []
    real_algebra = serialize.StructureAlgebra

    def certify(*args, **kwargs):
        left.append(dict(seen[0]))
        return real_algebra(*args, **kwargs)

    monkeypatch.setattr(serialize, "StructureAlgebra", certify)
    assert ingest_algebra(str(path)).dim == 9
    assert left == [{}]
