"""JSON round-trips and ingest validation."""

import gc
import json
import tracemalloc

import pytest
from test_algebra import _corrupted_matrix_algebra

from hopfcheck import serialize
from hopfcheck.algebra import AssociativityError, StructureAlgebra
from hopfcheck.cyclotomic import ONE, ZERO, Cyclotomic, phi_degree, root_of_unity, scalar_hook
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


BAD_SCALARS = pytest.mark.parametrize(
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


def _doc_with_bad_scalar_after_valid_one(bad) -> dict:
    # a 2-dim algebra k x k whose zero entries are first spelled validly as
    # ["0", "1"]; the last zero entry is replaced by a near-spelling
    zero, one = _scalar_json("0", "1"), _scalar_json("1", "1")
    structure = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    structure[1][1] = [bad, one]
    return {"dim": 2, "unit": [one, one], "structure": structure}


def _ingest_written(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return ingest_algebra(str(path))


@BAD_SCALARS
def test_bad_scalar_after_valid_one_is_located(bad):
    with pytest.raises(IngestError, match=r"bad scalar in structure\[1\]\[1\]\[0\]"):
        algebra_from_json(_doc_with_bad_scalar_after_valid_one(bad))


@BAD_SCALARS
def test_bad_scalar_after_valid_one_is_located_on_ingest(tmp_path, bad):
    # the decode hook leaves the bad spelling as JSON, and reading locates it
    with pytest.raises(IngestError, match=r"bad scalar in structure\[1\]\[1\]\[0\]"):
        _ingest_written(tmp_path, _doc_with_bad_scalar_after_valid_one(bad))


def _zero_of_order(order):
    return {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}


def _lcm_over_cap_docs():
    # each order is within MAX_ORDER, but arithmetic would lift both to their
    # lcm and build its field tables
    doc = {"dim": 2, "unit": [_zero_of_order(997), _zero_of_order(991)],
           "structure": [[[_zero_of_order(1)] * 2] * 2] * 2}
    hopf = hopf_to_json(taft(2))  # order 2, so 499 alone keeps the lcm at 998
    hopf["counit"][1] = _zero_of_order(499)
    hopf["antipode"]["entries"][0][1] = _zero_of_order(991)
    return [
        (doc, r"unit\[1\]: order 991 takes the lcm 988027 "),
        (hopf, r"antipode\[0\]\[1\]: order 991 takes the lcm 989018 "),
    ]


def test_ingest_caps_the_lcm_of_scalar_orders():
    (doc, doc_error), (hopf, hopf_error) = _lcm_over_cap_docs()
    with pytest.raises(IngestError, match=doc_error):
        algebra_from_json(doc)
    with pytest.raises(IngestError, match=hopf_error):
        hopf_from_json(hopf)


def test_ingest_caps_the_lcm_of_scalar_orders_on_ingest(tmp_path):
    # the hook parses scalars while decoding; the cap, and where it is
    # reported, still come from reading
    for doc, error in _lcm_over_cap_docs():
        with pytest.raises(IngestError, match=error):
            _ingest_written(tmp_path, doc)


def test_equal_spellings_decode_to_one_value():
    half, other_half = _scalar_json("1", "2"), _scalar_json("2", "4")
    decoded = json.loads(json.dumps([half, other_half, half]),
                         object_hook=scalar_hook())
    assert decoded[0] is decoded[2]
    assert decoded[1] is not decoded[0] and decoded[1] == decoded[0]


def test_ingest_shares_equal_spellings(tmp_path):
    alg = _ingest_written(tmp_path, algebra_to_json(group_algebra(3).algebra))
    assert alg.rows[0][0][0] is alg.rows[1][2][0] is alg.rows[2][2][1]


def test_scalar_with_an_extra_key_is_read_as_before(tmp_path):
    # not exactly {order, coeffs}: the hook leaves it, and the reader accepts it
    noted = {**_scalar_json("1", "1"), "note": "unit"}
    assert json.loads(json.dumps(noted), object_hook=scalar_hook()) == noted
    doc = algebra_to_json(group_algebra(2).algebra)
    doc["unit"][0] = noted
    for alg in (algebra_from_json(json.loads(json.dumps(doc))), _ingest_written(tmp_path, doc)):
        assert alg.same_structure(group_algebra(2).algebra)
        assert list(alg.unit) == [ONE, ZERO]


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

    def load(fh, **kwargs):
        seen.append(real_load(fh, **kwargs))
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


def _dense_group_algebra_doc(n: int) -> dict:
    """k[Z/n] in the dense schema, with its rows (i + j mod n) built directly."""
    rows = [[{(i + j) % n: ONE} for j in range(n)] for i in range(n)]
    return algebra_to_json(StructureAlgebra(n, rows, [ONE] + [ZERO] * (n - 1), check="none"))


class _Decoded(Exception):
    pass


def test_ingest_decode_holds_a_fifth_of_the_plain_tree(tmp_path, monkeypatch):
    # dim 30: 27,030 scalars in two spellings.  Both peaks are taken after the
    # file's text is read, so they measure the decoded trees alone.
    path = tmp_path / "group30.json"
    path.write_text(json.dumps(_dense_group_algebra_doc(30)))
    peaks = {}

    def traced_peak(label, text, **kwargs):
        tracemalloc.start()
        try:
            json.loads(text, **kwargs)
            peaks[label] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def load(fh, **kwargs):
        text = fh.read()
        traced_peak("plain", text)
        traced_peak("ingest", text, **kwargs)
        raise _Decoded

    monkeypatch.setattr(serialize.json, "load", load)
    with pytest.raises(_Decoded):
        ingest_algebra(str(path))
    assert peaks["ingest"] * 5 <= peaks["plain"], peaks


def test_ingest_rejects_the_corrupted_matrix_algebra(tmp_path):
    # M_5 + Q with one changed cell: dim 26, so the modular certificate runs
    n, rows, unit = _corrupted_matrix_algebra(5)
    with pytest.raises(AssociativityError) as direct:
        StructureAlgebra(n, rows, unit)
    doc = algebra_to_json(StructureAlgebra(n, rows, unit, check="none"))
    with pytest.raises(IngestError) as ingested:
        _ingest_written(tmp_path, doc)
    assert f"at basis triple {direct.value.triple}" in str(ingested.value)
