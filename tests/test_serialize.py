"""JSON round-trips and ingest validation."""

import contextlib
import gc
import itertools
import json
import sys
import tracemalloc
from unittest import mock

import pytest
from test_algebra import _corrupted_matrix_algebra

from hopfcheck import serialize
from hopfcheck.algebra import AssociativityError, StructureAlgebra
from hopfcheck.cyclotomic import ONE, ZERO, Cyclotomic, cyc_from_json, phi_degree, root_of_unity, scalar_hook
from hopfcheck.hopf import HopfData, dual_hopf, group_algebra, taft
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
    back = ingest_each_way(path)
    assert hopf_to_json(back) == hopf_to_json(h)


def test_hopf_round_trip_all_small():
    for h in (taft(2), taft(3), group_algebra(3), dual_hopf(taft(2))):
        assert hopf_to_json(hopf_from_json(hopf_to_json(h))) == hopf_to_json(h)


def _scalars_of(doc: dict) -> list:
    """Every scalar object of an algebra or Hopf document."""
    lists = [doc["unit"], *itertools.chain(*doc["structure"])]
    if "comult" in doc:
        lists += [doc["counit"], *doc["comult"]["entries"], *doc["antipode"]["entries"]]
    return list(itertools.chain(*lists))


def test_equal_hopf_algebras_are_written_alike():
    # the double dual holds taft(2)'s constants at order 2, and the
    # documents still agree: each value is written at its lowest order
    for h in (taft(2), taft(3), group_algebra(4)):
        twice = dual_hopf(dual_hopf(h))
        assert hopf_to_json(twice) == hopf_to_json(h)
    for h in (taft(2), dual_hopf(dual_hopf(taft(2))), taft(3), dual_hopf(taft(3))):
        values = [*h.algebra.unit, *itertools.chain.from_iterable(
            cell.values() for row in h.algebra.rows for cell in row), *h.counit]
        assert all(cyc_from_json(v.to_json()) == v for v in values)
        doc = hopf_to_json(h)
        assert all(cyc_from_json(obj).to_json() == obj for obj in _scalars_of(doc))
        assert {json.dumps(obj) for obj in _scalars_of(doc) if not cyc_from_json(obj)} == {
            json.dumps({"order": 1, "coeffs": [["0", "1"]]})}


def test_json_is_plain_data():
    doc = hopf_to_json(taft(2))
    json.dumps(doc)  # nothing exotic inside
    assert doc["dim"] == 4
    assert doc["comult"]["rows"] == 16


def test_ingest_plain_algebra(tmp_path):
    alg = group_algebra(3).algebra
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(alg)))
    back = ingest_each_way(path)
    assert not hasattr(back, "comult_col")
    assert back.same_structure(alg)


def test_ingest_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(IngestError):
        ingest_each_way(path)
    with pytest.raises(IngestError):
        ingest_each_way(tmp_path / "missing.json")


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


def _k_times_k_doc() -> dict:
    # k x k: e_0 e_0 = e_0, e_1 e_1 = e_1 and the unit e_0 + e_1, so no zero
    # is read before structure[0][0][1]; zeros are spelled ["0", "1"]
    zero, one = _scalar_json("0", "1"), _scalar_json("1", "1")
    structure = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    return {"dim": 2, "unit": [one, one], "structure": structure}


def _doc_with_bad_scalar_after_valid_one(bad) -> dict:
    # k x k with its last zero entry replaced by a near-spelling
    doc = _k_times_k_doc()
    doc["structure"][1][1][0] = bad
    return doc


def decode_ways() -> list:
    """A context for each way ingest can decode a file: the window as
    shipped; a window of 40 characters, whose edges the values of every
    document the tests ingest straddle, with first members scanned over 8;
    and json.load of the whole file."""
    return [
        contextlib.nullcontext(),
        mock.patch.multiple(serialize, WINDOW=40, _FIRST=8),
        mock.patch.object(serialize, "_decode", lambda path: serialize._REFUSED),
    ]


def _described(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    if isinstance(outcome, HopfData):
        return hopf_to_json(outcome)
    return algebra_to_json(outcome)


def ingest_each_way(path):
    """ingest_algebra(path), once every decode way gives the same algebra or
    raises the same error."""
    outcomes = []
    for way in decode_ways():
        with way:
            try:
                outcomes.append(ingest_algebra(str(path)))
            except Exception as exc:
                outcomes.append(exc)
    described = [_described(outcome) for outcome in outcomes]
    assert described[1:] == described[:1] * 2, described
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _ingest_written(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return ingest_each_way(path)


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
    # taft(2) is written at order 1, the lowest at which its constants live;
    # its counit's 1 spelled at order 2 and a zero of order 499 keep the lcm
    # at 998
    hopf = hopf_to_json(taft(2))
    hopf["counit"][0] = {"order": 2, "coeffs": [["1", "1"]]}
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
    assert decoded[1] is decoded[0] and decoded[1] == decoded[0]


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


def test_list_mixing_decoded_values_and_json_is_read_as_before(tmp_path):
    # structure[1][1] holds a value the hook made and a scalar it left as
    # JSON (an extra key): the list is read entry by entry, as before
    noted = {**_scalar_json("1", "1"), "note": "g g = 1"}
    doc = algebra_to_json(group_algebra(2).algebra)
    doc["structure"][1][1][0] = noted
    for alg in (algebra_from_json(json.loads(json.dumps(doc))), _ingest_written(tmp_path, doc)):
        assert alg.same_structure(group_algebra(2).algebra)
        assert alg.rows[1][1] == {0: ONE}


def _twisted_group_doc_of_order_3() -> dict:
    # k[Z/3] twisted by the bicharacter xi^(ij): e_i e_j = xi^(ij) e_(i+j),
    # with every constant spelled at order 3 (to_json writes the rational
    # ones at order 1)
    xi, one, zero = root_of_unity(3), Cyclotomic.one(3), Cyclotomic.zero(3)
    rows = [[{(i + j) % 3: xi ** (i * j) if i * j else one} for j in range(3)] for i in range(3)]
    doc = algebra_to_json(StructureAlgebra(3, rows, [one, zero, zero], check="none"))
    at_order_3 = lambda v: {"order": 3, "coeffs": v["coeffs"] + [["0", "1"]]} if v["order"] == 1 else v
    doc["unit"] = [at_order_3(v) for v in doc["unit"]]
    doc["structure"] = [[[at_order_3(v) for v in vec] for vec in plane] for plane in doc["structure"]]
    return doc


def test_ingest_shares_equal_spellings_of_order_3(tmp_path):
    alg = _ingest_written(tmp_path, _twisted_group_doc_of_order_3())
    assert alg.rows[0][0][0] is alg.rows[0][1][1] is alg.rows[2][0][2]  # 1
    assert alg.rows[1][1][2] is alg.rows[2][2][1]  # xi = xi^4
    assert alg.rows[1][2][0] is alg.rows[2][1][0]  # xi^2
    assert alg.rows[1][1][2] == root_of_unity(3)


def test_zeros_spelled_differently_are_all_dropped(tmp_path):
    # zeros spelled ["0","1"] and ["0","7"], both met many times
    other_zero = _scalar_json("0", "7")
    doc = algebra_to_json(group_algebra(3).algebra)
    for i in range(3):
        for j in range(3):
            vec = doc["structure"][i][j]
            doc["structure"][i][j] = [other_zero if (i + k) % 2 and v["coeffs"][0][0] == "0"
                                      else v for k, v in enumerate(vec)]
    doc["unit"][2] = other_zero
    text = json.dumps(doc)
    for decoded in (json.loads(text), json.loads(text, object_hook=scalar_hook())):
        _, rows, _ = serialize._read_algebra(decoded, serialize._Reading())
        assert all(len(cell) == 1 for row in rows for cell in row)
    for alg in (algebra_from_json(json.loads(text)), _ingest_written(tmp_path, doc)):
        assert alg.same_structure(group_algebra(3).algebra)


def test_lcm_cap_is_located_when_structure_precedes_unit(tmp_path):
    # the text spells structure before unit, so the hook parses the order-997
    # zero and leaves the order-991 one as JSON; reading takes unit first and
    # reports the 997 where structure holds it, as the plain reader does
    one = _scalar_json("1", "1")
    structure = [[[one, _zero_of_order(1)], [_zero_of_order(1), one]],
                 [[_zero_of_order(1), _zero_of_order(997)], [_zero_of_order(1)] * 2]]
    doc = {"dim": 2, "structure": structure, "unit": [one, _zero_of_order(991)]}
    assert list(json.loads(json.dumps(doc))) == ["dim", "structure", "unit"]
    error = r"^bad scalar in structure\[1\]\[0\]\[1\]: order 997 takes the lcm 988027 "
    with pytest.raises(IngestError, match=error) as plain:
        algebra_from_json(json.loads(json.dumps(doc)))
    with pytest.raises(IngestError, match=error) as ingested:
        _ingest_written(tmp_path, doc)
    assert str(ingested.value) == str(plain.value)


def _unpacked(value):
    """value with every packed list that the window made replaced by the list."""
    if type(value) is serialize._Packed:
        return value.unpacked()
    if type(value) is dict:
        return {key: _unpacked(member) for key, member in value.items()}
    if type(value) is list:
        return [_unpacked(member) for member in value]
    return value


@pytest.mark.parametrize("window", [40, serialize.WINDOW])
def test_window_packs_the_coordinate_lists_losslessly(tmp_path, monkeypatch, window):
    # the coordinate lists of structure and the rows of comult and antipode
    # are packed, and nothing else is; unpacked, they give json.load's value
    path = tmp_path / "taft2.json"
    path.write_text(json.dumps(hopf_to_json(taft(2))))
    monkeypatch.setattr(serialize, "WINDOW", window)
    decoded = serialize._decode(str(path))
    packed = [vec for plane in decoded["structure"] for vec in plane]
    packed += decoded["comult"]["entries"] + decoded["antipode"]["entries"]
    assert {type(vec) for vec in packed} == {serialize._Packed}
    assert all(type(v) is Cyclotomic for v in decoded["unit"] + decoded["counit"])
    assert repr(_unpacked(decoded)) == _loaded(path)


def _lcm_across_fields_doc(fault) -> dict:
    # k[Z/4], with unit written after structure: the hook parses the order-997
    # zero in structure[3][2] and leaves unit's order-991 one as JSON, so the
    # lcm passes MAX_ORDER only when reading meets structure[3][2]; a fault
    # put in plane 1 is met before that.  With every zero of structure at
    # order 997, the zero that each packed list repeats passes it.
    doc = _dense_group_algebra_doc(4)
    doc = {"dim": 4, "structure": doc["structure"], "unit": doc["unit"]}
    doc["structure"][3][2][1] = _zero_of_order(997)
    doc["unit"][1] = _zero_of_order(991)
    if fault == "zeros-of-order-997":
        for vec in itertools.chain(*doc["structure"]):
            vec[:] = [_zero_of_order(997) if v == _scalar_json("0", "1") else v for v in vec]
    elif fault == "short":
        del doc["structure"][1][2][-1]
    elif fault == "not-a-list":
        doc["structure"][1][2] = 7
    return doc


@pytest.mark.parametrize(
    "fault,error",
    [
        (None, r"^bad scalar in structure\[3\]\[2\]\[1\]: order 997 takes the lcm 988027 "),
        ("zeros-of-order-997", r"^bad scalar in structure\[0\]\[0\]\[1\]: order 997 takes the lcm 988027 "),
        ("short", r"^structure\[1\]\[2\] must have length dim$"),
        ("not-a-list", r"^structure\[1\]\[2\] must be a list, got int$"),
    ],
)
def test_packed_planes_report_what_their_lists_report(tmp_path, fault, error):
    doc = _lcm_across_fields_doc(fault)
    with pytest.raises(IngestError, match=error) as plain:
        algebra_from_json(json.loads(json.dumps(doc)))
    with pytest.raises(IngestError, match=error) as ingested:
        _ingest_written(tmp_path, doc)
    assert str(ingested.value) == str(plain.value)


def test_packed_rows_report_a_ragged_matrix(tmp_path):
    # the error names the field, the shape it must have and the first row
    # whose length differs from the first row's
    for field, row, shape in (("antipode", 2, "4 x 4"), ("comult", 5, "16 x 4")):
        doc = hopf_to_json(taft(2))
        del doc[field]["entries"][row][-1]
        error = (rf"^{field} must be a {shape} matrix, got ragged rows: {field}\[{row}\] has 3 entries, "
                 rf"{field}\[0\] has 4$")
        with pytest.raises(IngestError, match=error):
            _ingest_written(tmp_path, doc)
        with pytest.raises(IngestError, match=error):
            hopf_from_json(json.loads(json.dumps(doc)))


def _null_unit(doc):
    doc["unit"][0] = None


def _null_cell_entry(doc):
    doc["structure"][0][0][1] = None


@pytest.mark.parametrize(
    "put,where",
    [(_null_unit, r"unit\[0\]"), (_null_cell_entry, r"structure\[0\]\[0\]\[1\]")],
    ids=["first-in-unit", "in-a-cell-before-any-zero"],
)
def test_null_met_before_any_zero_is_located(tmp_path, put, where):
    # a null is neither a scalar nor the document's zero, even before a zero
    # has been read
    doc = _k_times_k_doc()
    put(doc)
    error = rf"^bad scalar in {where}: 'NoneType' object is not subscriptable$"
    with pytest.raises(IngestError, match=error):
        algebra_from_json(json.loads(json.dumps(doc)))
    with pytest.raises(IngestError, match=error):
        _ingest_written(tmp_path, doc)


def test_vetted_values_stop_at_the_memo_limit(monkeypatch):
    # past the limit, lists holding a value not yet vetted are read entry by
    # entry, with the same result
    doc = algebra_to_json(group_algebra(3).algebra)
    for i in range(3):
        doc["structure"][i][i] = [_scalar_json(str(k), str(k + 1)) for k in range(3)]
    text = json.dumps(doc)
    plain = serialize._read_algebra(json.loads(text), serialize._Reading())
    monkeypatch.setattr(serialize, "MEMO_LIMIT", 2)
    reading = serialize._Reading()
    capped = serialize._read_algebra(json.loads(text, object_hook=scalar_hook()), reading)
    assert len(reading.fit) == 2
    assert capped == plain


@pytest.mark.parametrize("order", [1, 3])
def test_hook_rejects_near_spellings_on_a_memo_hit(order):
    # each near-spelling follows the valid one it resembles, so its key is
    # looked up in a memo that holds the valid spelling; a string or an object
    # where a pair belongs, a non-string part, a float or bool order and pairs
    # of other lengths are all left as JSON, for reading to reject
    valid = {"order": order, "coeffs": [["0", "1"]] * phi_degree(order)}
    near = [
        {"order": order, "coeffs": ["01"] * phi_degree(order)},
        {"order": order, "coeffs": [{"0": 0, "1": 1}] * phi_degree(order)},
        {"order": order, "coeffs": [["0", 1]] * phi_degree(order)},
        {"order": float(order), "coeffs": valid["coeffs"]},
        {"order": order, "coeffs": [["0", "1", "0"], ["1"]] if order == 3 else [["0"]]},
    ]
    if order == 1:
        near.append({"order": True, "coeffs": valid["coeffs"]})
    decoded = json.loads(json.dumps([valid, *near, valid]), object_hook=scalar_hook())
    assert type(decoded[0]) is Cyclotomic and decoded[-1] is decoded[0]
    assert decoded[1:-1] == near and all(type(v) is dict for v in decoded[1:-1])


@pytest.mark.parametrize("order", [1, 3])
def test_hook_rejects_near_spellings_met_first(order):
    # on a memo miss the hook vets the key it built: the near-spellings, and
    # coeffs that is not a list or is empty, are left as JSON
    pairs = [["0", "1"]] * phi_degree(order)
    near = [
        {"order": order, "coeffs": ["01"] * len(pairs)},
        {"order": order, "coeffs": [{"0": 0, "1": 1}] * len(pairs)},
        {"order": order, "coeffs": [["0", 1]] * len(pairs)},
        {"order": order, "coeffs": [[0, "1"]] * len(pairs)},
        {"order": float(order), "coeffs": pairs},
        {"order": True, "coeffs": pairs},
        {"order": str(order), "coeffs": pairs},
        {"order": order, "coeffs": [["0", "1", "0"], ["1"]] if order == 3 else [["0", "1", "0"]]},
        {"order": order, "coeffs": {"0": "1"}},
        {"order": order, "coeffs": "01"},
        {"order": order, "coeffs": []},
    ]
    valid = {"order": order, "coeffs": pairs}
    for one in near:
        decoded = json.loads(json.dumps([one, valid]), object_hook=scalar_hook())
        assert decoded[0] == one and type(decoded[0]) is dict
        assert decoded[1] == Cyclotomic.zero(order)


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
        ingest_each_way(good)
        assert gc.isenabled() is caller_enabled
        with pytest.raises(IngestError):
            ingest_each_way(bad)
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
    real_decode = serialize._decode

    def decode(path):
        seen.append(real_decode(path))
        return seen[-1]

    monkeypatch.setattr(serialize, "_decode", decode)
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


def _traced_peak(decode, arg) -> tuple:
    """decode(arg) and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return decode(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_decode_holds_a_fifth_of_the_plain_tree(tmp_path, monkeypatch):
    # dim 30: 27,030 scalars in two spellings.  The plain tree's peak is
    # taken after the file's text is read, and ingest's decode holds a window
    # of 64 Ki characters of the 1 MB text, so both peaks measure the decoded
    # trees.
    path = tmp_path / "group30.json"
    path.write_text(json.dumps(_dense_group_algebra_doc(30)))
    monkeypatch.setattr(serialize, "WINDOW", 1 << 16)
    peaks = {}
    real_decode = serialize._decode

    def decode(path):
        with open(path, encoding="utf-8") as fh:
            _, peaks["plain"] = _traced_peak(json.loads, fh.read())
        decoded, peaks["ingest"] = _traced_peak(real_decode, path)
        assert type(decoded) is dict
        raise _Decoded

    monkeypatch.setattr(serialize, "_decode", decode)
    with pytest.raises(_Decoded):
        ingest_algebra(str(path))
    assert peaks["ingest"] * 5 <= peaks["plain"], peaks


def _write_dense_group_doc(path, n: int) -> None:
    """k[Z/n] in the dense schema, written as text: n^3 + n scalars."""
    one = '{"order": 1, "coeffs": [["1", "1"]]}'
    zero = '{"order": 1, "coeffs": [["0", "1"]]}'
    vec = lambda k: "[" + ", ".join(one if m == k else zero for m in range(n)) + "]"
    planes = ("[" + ", ".join(vec((i + j) % n) for j in range(n)) + "]" for i in range(n))
    path.write_text('{"dim": %d, "unit": %s, "structure": [%s]}' % (n, vec(0), ", ".join(planes)))


def test_ingest_holds_less_than_the_file_while_decoding(tmp_path, monkeypatch):
    # dim 48: 4.2 MB of text, four windows.  json.load held the whole text and
    # its bytes; ingest holds a window of it and the decoded tree.
    path = tmp_path / "group48.json"
    _write_dense_group_doc(path, 48)

    def decoded(obj, **kwargs):
        raise _Decoded

    monkeypatch.setattr(serialize, "algebra_from_json", decoded)
    _, peak = _traced_peak(lambda p: pytest.raises(_Decoded, ingest_algebra, p), str(path))
    assert peak < path.stat().st_size, peak


def test_reading_memory_grows_with_the_cells_not_the_tree(tmp_path, monkeypatch):
    # k[Z/n] has n^2 nonzero cells and n^3 entries.  From n = 24 to n = 48
    # the cells grow 4x and the tree of decoded lists 8x.  Traced up to the
    # algebra's construction, a reader holding that tree peaks 5.9x higher
    # (the cells it builds beside the tree grow 4x), one holding packed
    # lists 3.5x higher.  Each document is ingested once untraced first, so
    # that no memo or cache that outlives it fills inside the trace.
    monkeypatch.setattr(serialize, "WINDOW", 1 << 12)
    peaks = {}

    def read(path):
        with monkeypatch.context() as m:
            m.setattr(serialize, "_build_algebra", stop)
            pytest.raises(_Decoded, ingest_algebra, path)

    def stop(*args):
        raise _Decoded

    for n in (24, 48):
        path = tmp_path / f"group{n}.json"
        _write_dense_group_doc(path, n)
        assert ingest_algebra(str(path)).dim == n
        _, peaks[n] = _traced_peak(read, str(path))
    assert peaks[48] < 4.5 * peaks[24], peaks


# Documents whose values straddle a window edge at some window size, and
# whose members outgrow the scan of a walked container's first member or
# twice their longest sibling.  Each scalar is at most 14 characters long,
# so every window of 32 characters or more decodes the valid ones itself.
STRADDLING = {
    "integers": b'{"a": [12345, 678, -90], "b": 12345678, "c": [0, 1, 22, 333, 4444]}',
    "floats": b'[1.5e+10, 2.25, -0.5e-3, 7E2, 0.125, 1e5, -3.75, 6.5E-1, 8.0, 9e9]',
    "strings": b'{"s": ["abc", "d\\"e\\u00e9f", "", "ghij"], "t": "klmno", "u": ["p"]}',
    "literals": b'[true, false, null, true, [true, [false]], {"t": true}, null, false]',
    "multibyte": '{"é": ["ü€", "𝄞", "a"], "k": "ßß", "l": ["€", "ü"], "m": "𝄞"}'.encode(),
    "invalid-utf8": b'{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9], "b": ["x", "y", "\xff"], "c": 0}',
    "crlf": b'{\r\n  "a": [1,\r\n  2, 3],\r\n  "b": "x",\r\n  "c": [[4], [5, 6]]\r\n}\r\n',
    "bom": b'\xef\xbb\xbf{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9], "b": [10, 11, 12, 13]}',
    "trailing-data": b'{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9], "b": [10, 11, 12]} [13]',
    "duplicate-keys": b'{"a": [1, 2, 3], "b": {"c": 4, "c": [5, 6]}, "a": [7, 8, 9, 10]}',
    "empty-containers": b'{"a": {}, "b": [], "c": [{}, [], { }, [ ], {"d": []}], "e": {}}',
    "scalar-spelling": b'{"order": 3, "coeffs": [["1", "2"], ["-3", "4"]]}   ',
    "trailing-comma": b'{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9], "b": [10, 11, 12,]}',
    "missing-colon": b'{"a": [1, 2, 3, 4, 5, 6, 7, 8, 9], "b" [10, 11, 12]}',
    "outgrown": b'{"a": [{"x": 1}, [{"y": 2}, {"y": 3}, {"y": 4}], {"z": [5, 6, 7, 8, 9]}]}',
}


def _loaded(path):
    """The repr of json.load's value of path with a scalar_hook, which shows
    key order and numeric types; None when json.load refuses the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return repr(json.load(fh, object_hook=serialize.scalar_hook()))
    except (ValueError, RecursionError):
        return None


def _windowed(path):
    """The repr of the window's value of path, or None when it refuses it."""
    got = serialize._decode(str(path))
    return None if got is serialize._REFUSED else repr(got)


def _windows_that_differ(path, text: bytes, monkeypatch) -> list:
    """The (window, first member's scan) sizes at which the window decodes
    path to another value than json.load's, or refuses a valid document
    whose scalars are all in view at once.  It may refuse the others, which
    json.load then decodes."""
    want = _loaded(path)
    differ = []
    for window, first in itertools.product(range(2, len(text) + 3), (2, 8, 64)):
        monkeypatch.setattr(serialize, "WINDOW", window)
        monkeypatch.setattr(serialize, "_FIRST", first)
        got = _windowed(path)
        if got != want and (got is not None or window >= 32):
            differ.append((window, first))
    return differ


@pytest.mark.parametrize("name", sorted(STRADDLING))
def test_window_decodes_as_the_whole_file_at_every_size(tmp_path, monkeypatch, name):
    path = tmp_path / "doc.json"
    path.write_bytes(STRADDLING[name])
    assert _windows_that_differ(path, STRADDLING[name], monkeypatch) == []


def test_nesting_at_the_recursion_limit_decodes_each_way(tmp_path):
    # json's scanner and the window's frames share Python's recursion limit
    # (up to Python 3.11; later versions give the scanner a limit of its
    # own): the window must refuse whatever json.load refuses, at every
    # depth around the one where json.load starts to refuse
    path = tmp_path / "deep.json"
    passed = []
    for depth in range(sys.getrecursionlimit() - 250, sys.getrecursionlimit()):
        path.write_text('{"dim": 0, "unit": [], "structure": [], "x": %s%s}'
                        % ("[" * depth, "]" * depth))
        try:
            ingest_each_way(path)
            passed.append(True)
        except IngestError as exc:
            assert "maximum recursion depth" in str(exc)
            passed.append(False)
    assert passed[0] and (not passed[-1] or sys.version_info >= (3, 12))


def test_straddling_cases_catch_a_hook_that_is_not_idempotent(tmp_path, monkeypatch):
    # a hook that numbers the objects it sees: a scan that a member outgrows
    # has numbered some objects that the walk numbers again
    def numbering():
        count = itertools.count()
        return lambda obj: {**obj, "n": next(count)}

    text = STRADDLING["outgrown"]
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    assert _windows_that_differ(path, text, monkeypatch) == []
    monkeypatch.setattr(serialize, "scalar_hook", numbering)
    assert _windows_that_differ(path, text, monkeypatch) != []


def test_ingest_rejects_the_corrupted_matrix_algebra(tmp_path):
    # M_5 + Q with one changed cell: dim 26, so the modular certificate runs
    n, rows, unit = _corrupted_matrix_algebra(5)
    with pytest.raises(AssociativityError) as direct:
        StructureAlgebra(n, rows, unit)
    doc = algebra_to_json(StructureAlgebra(n, rows, unit, check="none"))
    with pytest.raises(IngestError) as ingested:
        _ingest_written(tmp_path, doc)
    assert f"at basis triple {direct.value.triple}" in str(ingested.value)


# The zero's usual spellings, which the window reads as null once it has
# met the zero: json.dumps's text of an order-1 zero, with the default and
# with the compact separators.
COMPACT = {"separators": (",", ":")}
ZERO_TEXT = json.dumps({"order": 1, "coeffs": [["0", "1"]]})
ZERO_COMPACT = json.dumps({"order": 1, "coeffs": [["0", "1"]]}, **COMPACT)
_MARK = {"order": 1, "coeffs": [["MARK", "1"]]}


def _group_doc_with(n: int, text: str, where: tuple, **dumps) -> str:
    """The dense k[Z/n] as json.dumps writes it, with the value at where (a
    plane, a coordinate list or an entry of structure) replaced by text."""
    doc = _dense_group_algebra_doc(n)
    parent = doc["structure"]
    for k in where[:-1]:
        parent = parent[k]
    parent[where[-1]] = _MARK
    return json.dumps(doc, **dumps).replace(json.dumps(_MARK, **dumps), text)


# Documents whose text holds the zero's spelling where it is not a zero
# entry of a coordinate list, or holds what the null reading must not meet,
# each put after the window has met the zero.  An entry is structure[9][7][3]
# of the dense k[Z/16], whose planes are walked at windows of 4 Ki
# characters and scanned whole at 64 Ki.  The "compact-" documents are
# written with compact separators, and so hold the compact spelling.
_ENTRY = (9, 7, 3)
NULLED_CASES = {
    # a string opened before Z ends at Z's first quote, so the text is not
    # JSON; read as null, Z would sit inside the string of an overwritten key
    "z-opening-a-string": (
        '{"coeffs": "a' + ZERO_TEXT + '", "order": 1, "coeffs": [["0", "1"]]}', _ENTRY),
    # with escaped quotes on both sides, the quotes of the text read as null
    # pair up in order again after it, but not as json pairs them
    "z-between-escaped-quotes": (
        '{"coeffs": "\\"' + ZERO_TEXT + '\\"", "order": 1, "coeffs": [["0", "1"]]}', _ENTRY),
    "z-as-an-overwritten-duplicate-key": (
        '{"order": ' + ZERO_TEXT + ', "order": 1, "coeffs": [["0", "1"]]}', _ENTRY),
    "z-as-an-order": ('{"order": ' + ZERO_TEXT + ', "coeffs": [["0", "1"]]}', _ENTRY),
    "z-in-a-list-as-an-entry": ("[" + ZERO_TEXT + "]", _ENTRY),
    "z-as-a-plane-member": (ZERO_TEXT, _ENTRY[:2]),
    "z-as-a-plane": (ZERO_TEXT, _ENTRY[:1]),
    "late-null": ("null", _ENTRY),
    "null-string": ('"null"', _ENTRY),
    "escaped-digit": ('{"order": 1, "coeffs": [["\\u0030", "1"]]}', _ENTRY),
    "zero-of-another-spelling": ('{"order": 1, "coeffs": [["0", "7"]]}', _ENTRY),
    "zero-of-order-2": ('{"order": 2, "coeffs": [["0", "1"]]}', _ENTRY),
    "missing-comma": (ZERO_TEXT + " " + ZERO_TEXT, _ENTRY),
    "compact-z-opening-a-string": (
        '{"coeffs":"a' + ZERO_COMPACT + '","order":1,"coeffs":[["0","1"]]}', _ENTRY, COMPACT),
    "compact-z-as-an-order": ('{"order":' + ZERO_COMPACT + ',"coeffs":[["0","1"]]}', _ENTRY, COMPACT),
    "compact-z-in-a-list-as-an-entry": ("[" + ZERO_COMPACT + "]", _ENTRY, COMPACT),
    "compact-z-as-a-plane-member": (ZERO_COMPACT, _ENTRY[:2], COMPACT),
    "compact-z-as-a-plane": (ZERO_COMPACT, _ENTRY[:1], COMPACT),
    "compact-late-null": ("null", _ENTRY, COMPACT),
    "compact-missing-comma": (ZERO_COMPACT + ZERO_COMPACT, _ENTRY, COMPACT),
    "compact-default-spelling": (ZERO_TEXT, _ENTRY, COMPACT),
}
NULLED_WINDOWS = [1 << 12, 1 << 14, 1 << 16]


def _nulled_case_text(name: str) -> str:
    if name == "truncated":
        text = _group_doc_with(16, ZERO_TEXT, _ENTRY)
        return text[: len(text) * 7 // 10]
    text, where, *dumps = NULLED_CASES[name]
    return _group_doc_with(16, text, where, **(dumps[0] if dumps else {}))


def _read_at_window(path, window):
    """(the window's decoded value with its packed lists unpacked, or None
    when it refuses the file; what ingest_algebra returns or raises), at a
    window of the given size."""
    with mock.patch.object(serialize, "WINDOW", window):
        got = serialize._decode(str(path))
        try:
            outcome = ingest_algebra(str(path))
        except Exception as exc:
            outcome = exc
    return None if got is serialize._REFUSED else repr(_unpacked(got)), _described(outcome)


def _read_whole(path):
    with mock.patch.object(serialize, "_decode", lambda path: serialize._REFUSED):
        try:
            outcome = ingest_algebra(str(path))
        except Exception as exc:
            outcome = exc
    return _loaded(path), _described(outcome)


@pytest.mark.parametrize("window", NULLED_WINDOWS)
@pytest.mark.parametrize("name", sorted(NULLED_CASES) + ["truncated"])
def test_zeros_read_as_null_give_json_loads_value(tmp_path, name, window):
    path = tmp_path / "doc.json"
    path.write_text(_nulled_case_text(name))
    assert _read_at_window(path, window) == _read_whole(path)


def _separated_docs() -> dict:
    return {
        "taft3": hopf_to_json(taft(3)),
        "group24": _dense_group_algebra_doc(24),
    }


@pytest.mark.parametrize("name", ["taft3", "group24"])
def test_zeros_read_alike_whatever_the_separators(tmp_path, name):
    # the default and the compact texts are read with nulls, each with its
    # own spelling of the zero; the indented one never holds either, and is
    # read with a hook call per scalar.  All three read alike at each window
    doc = _separated_docs()[name]
    texts = [json.dumps(doc), json.dumps(doc, **COMPACT), json.dumps(doc, indent=1)]
    assert ZERO_TEXT in texts[0] and ZERO_COMPACT in texts[1]
    assert all(z not in texts[2] for z in (ZERO_TEXT, ZERO_COMPACT))
    reads = []
    for k, text in enumerate(texts):
        path = tmp_path / f"doc{k}.json"
        path.write_text(text)
        whole = _read_whole(path)
        for window in NULLED_WINDOWS:
            assert _read_at_window(path, window) == whole
        reads.append(whole)
    assert reads[1:] == reads[:1] * 2
    assert type(reads[0][1]) is dict and reads[0][1]["dim"] == doc["dim"]


def _group_text_compact_first(doc: dict, planes: int) -> str:
    """json.dumps's text of doc with its first planes written compactly."""
    head = json.dumps({"dim": doc["dim"], "unit": doc["unit"], "structure": []})[:-2]
    planes = [json.dumps(plane, separators=(",", ":")) for plane in doc["structure"][:planes]] + [
        json.dumps(plane) for plane in doc["structure"][planes:]]
    return head + ", ".join(planes) + "]}"


@pytest.mark.parametrize("compact_planes", [0, 24, 48])
def test_zeros_read_as_null_skip_the_scalar_hook(tmp_path, monkeypatch, compact_planes):
    # k[Z/48] as json.dumps writes it: 110,640 scalars, 2,305 of them
    # nonzero, 4.2 MB of text over several windows.  Once the window has met
    # the zero, json reads each zero as null and calls the hook only on the
    # nonzero scalars; read as the first windows were, it would call it on
    # every scalar.  The window learns the spelling that its text ahead
    # holds when it meets the zero: with all planes written compactly, the
    # compact one.  With only the first 24 written so, the compact one too,
    # and the zeros of the other 24, spelled otherwise, each take a hook
    # call.
    n = 48
    path = tmp_path / "group48.json"
    doc = _dense_group_algebra_doc(n)
    path.write_text(_group_text_compact_first(doc, compact_planes))
    assert json.loads(path.read_text()) == doc
    calls = itertools.count()

    def counting():
        hook = scalar_hook()
        return lambda obj: (next(calls), hook(obj))[1]

    monkeypatch.setattr(serialize, "scalar_hook", counting)
    assert ingest_algebra(str(path)).same_structure(algebra_from_json(doc))
    nonzero = n * n + 1
    spelled_otherwise = 0 if compact_planes in (0, n) else n - compact_planes
    assert next(calls) < spelled_otherwise * n * n + 2 * nonzero


def _replaced_in_pieces(monkeypatch, text: str, start: int, end: int, pieces) -> None:
    """Check that _nulled_text replaces each spelling of the zero in
    text[start:end] as one str.replace does, at each piece length."""
    for piece in pieces:
        monkeypatch.setattr(serialize, "_REPLACED", piece)
        for z in (ZERO_TEXT, ZERO_COMPACT):
            assert serialize._nulled_text(text, start, end, z) == text[start:end].replace(z, "null")


@pytest.mark.parametrize("name", sorted(NULLED_CASES) + ["truncated"])
def test_pieces_replace_the_zero_as_one_replace_does(monkeypatch, name):
    text = _nulled_case_text(name)
    pieces = [1, 37, 1000, serialize._REPLACED]
    _replaced_in_pieces(monkeypatch, text, 0, len(text), pieces)
    _replaced_in_pieces(monkeypatch, text, len(text) // 3, len(text) * 2 // 3, pieces)


def test_pieces_are_cut_before_a_zero_at_every_offset_around_a_cut(monkeypatch):
    # a piece starts at a zero and is cut before the first zero that starts
    # 50 characters or more after it: the second zero starts at each offset
    # around that point, whole or cut by the end of the text; a third lies
    # one piece further, and after the last no zero is found
    for z in (ZERO_TEXT, ZERO_COMPACT):
        for offset in range(len(z), 50 + 2 * len(z)):
            text = z + "," * (offset - len(z)) + z + "," * 50 + z + "," * 80
            for end in range(offset, len(text) + 1, 7):
                _replaced_in_pieces(monkeypatch, text, 0, end, [50])
            _replaced_in_pieces(monkeypatch, text, 1, len(text), [50])


@pytest.mark.parametrize("dumps", [{}, COMPACT], ids=["default", "compact"])
def test_members_longer_than_a_piece_read_as_json_loads_them(tmp_path, monkeypatch, dumps):
    # the planes of k[Z/32] are longer than _REPLACED characters, so each is
    # replaced in several pieces; the document is longer than a window
    path = tmp_path / "group32.json"
    path.write_text(json.dumps(_dense_group_algebra_doc(32), **dumps))
    assert path.stat().st_size > serialize.WINDOW
    lengths = []
    nulled_text = serialize._nulled_text

    def spy(buf, start, end, z):
        lengths.append(end - start)
        return nulled_text(buf, start, end, z)

    monkeypatch.setattr(serialize, "_nulled_text", spy)
    assert _read_at_window(path, serialize.WINDOW) == _read_whole(path)
    assert max(lengths) > serialize._REPLACED
