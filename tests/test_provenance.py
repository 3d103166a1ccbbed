import collections.abc
import dataclasses
import enum
import hashlib
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareval import datamodel, design, report, scle, synth
from rareval.errors import InputError
from rareval.provenance import (MOST_ARRAY_VALUES, canonical_json, derive_seed, read_record, replicate_rng, show,
                                strict_json, write_record)

MASK63 = (1 << 63) - 1


def tag(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def test_most_array_values_is_numpys_bound():
    # provenance spells the bound without numpy, so that importing the CLI loads no numpy
    assert MOST_ARRAY_VALUES == np.iinfo(np.intp).max // 8


class TestDeriveSeed:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, MASK63), st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    def test_nested_derivation_does_not_commute(self, seed, a, b):
        if a == b:
            return
        assert derive_seed(derive_seed(seed, a), b) != derive_seed(derive_seed(seed, b), a)

    def test_pairs_whose_xor_matches_the_tags_do_not_collide(self):
        a, b = "subset:north", "bootstrap:recall"
        s1 = 12345
        s2 = s1 ^ ((tag(a) ^ tag(b)) & MASK63)
        assert s1 != s2
        assert derive_seed(s1, a) != derive_seed(s2, b)

    def test_deterministic_and_63_bit(self):
        for seed in (0, 1, 2**62):
            value = derive_seed(seed, "heterogeneity")
            assert value == derive_seed(seed, "heterogeneity")
            assert 0 <= value <= MASK63

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_a_seed_outside_63_bits_is_an_input_error(self, seed):
        message = f"seed must be an integer in [0, {MASK63}], got {seed}"
        for draw in (lambda: derive_seed(seed, "scle"), lambda: replicate_rng(seed, 0)):
            with pytest.raises(InputError) as exc:
                draw()
            assert str(exc.value) == message
        assert derive_seed(MASK63, "scle") != derive_seed(0, "scle")


# --- the record reader and writer -------------------------------------------------------
#
# Every record class the reader serves, built by hypothesis from its own
# annotations, must come back equal from the JSON text that the program's
# writer makes of it. ``_values`` knows the annotations the reader knows; a
# field added later with an annotation neither knows fails here at once. Numbers are drawn where the records' own range
# checks accept them, and the few fields with narrower ranges are named.

_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
_NARROW = {
    "cell": st.sampled_from(scle.CELLS),
    "benchmark_cell": st.none() | st.sampled_from(scle.BENCHMARK_CELLS),
    "boundary_bins": st.none() | st.integers(2, 20),
    "disagreement_oversample_factor": st.floats(1.0, 10.0),
    "select": st.sampled_from(["positive", "negative"]),
}
_RECORDS = [scle.ScleConfig, scle.ScleSample, scle._Annotations, design.PrecisionStudyAssumptions,
            synth.PopulationSpec, datamodel._Sidecar, report.EvaluationOutputs]
_DOCUMENTS = {  # the kind and derived keys of each record written as a document of its own
    scle.ScleSample: ("scle_sample", ("config_hash",)),
    scle._Annotations: ("scle_annotations", ()),
    datamodel._Sidecar: ("dataset_design", ()),
    report.EvaluationOutputs: ("evaluation_outputs", ()),
}


def _values(tp):
    """A strategy for the values of annotation ``tp``."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    simple = {int: st.integers(1, 10**6), float: st.floats(0.01, 0.99), str: st.text(), bool: st.booleans()}
    if tp in simple:
        return simple[tp]
    if isinstance(tp, enum.EnumMeta):
        return st.sampled_from(tp)
    if origin is types.UnionType:
        return st.one_of([st.none() if arg is type(None) else _values(arg) for arg in args])
    if origin is tuple:
        return st.lists(_values(args[0]), max_size=3).map(tuple) if args[-1] is ... else st.tuples(*map(_values, args))
    if origin is list:
        return st.lists(_values(args[0]), max_size=3)
    if origin in (dict, collections.abc.Mapping):
        return st.dictionaries(st.text(max_size=5), _values(args[1]) if args else _JSON_SCALARS, max_size=3)
    hints = typing.get_type_hints(tp)
    if typing.is_typeddict(tp):
        return st.fixed_dictionaries({}, optional={key: _values(hint) for key, hint in hints.items()})
    assert dataclasses.is_dataclass(tp), f"no strategy for {tp!r}"
    return st.builds(tp, **{key: _NARROW[key] if key in _NARROW else _values(hint) for key, hint in hints.items()})


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_record_survives_its_json_text(cls, data):
    record = data.draw(_values(cls))
    kind, derived = _DOCUMENTS.get(cls, (None, ()))
    text = canonical_json(write_record(record, kind, derived))
    assert read_record(cls, strict_json(text), kind, derived) == record


@pytest.mark.parametrize("tp, value, message", [
    (int, True, "expected an integer, got true"),
    (int, 2.5, "expected an integer, got 2.5"),
    (float, True, "expected a number, got true"),
    (float, 10**400, "expected a number, got 1" + "0" * 400),
    (str, None, "expected a string, got null"),
    (bool, "no", "expected a boolean, got 'no'"),
    (datamodel.ReferenceLabel, "maybe", "expected one of 'positive', 'negative', 'ambiguous', 'excluded', got 'maybe'"),
    (tuple[int, int], [1], "expected an array of 2 items, got [1]"),
    (dict, [], "expected an object, got []"),
])
def test_a_value_of_the_wrong_json_type_names_its_field(tp, value, message):
    @dataclasses.dataclass
    class Record:
        field: tp

    with pytest.raises(InputError) as exc:
        read_record(Record, {"field": value})
    assert str(exc.value) == f"field 'field': {message}"


def test_reader_rules():
    spec = read_record(synth.PopulationSpec, {"n": 10, "prevalence": 0.5, "separation": 3})
    assert type(spec.separation) is float and spec.enrichment == ()  # a real written as an integer; a default
    annotation = read_record(scle.ScleAnnotation, {"case_id": "c", "verdict": "Negative"})  # no reviewer: ""
    assert annotation.verdict is datamodel.ReferenceLabel.NEGATIVE and annotation.reviewer == ""
    for data, message in [
        ({"n": 10}, "field 'prevalence': missing"),
        ({"n": 10, "prevalence": 0.5, "seperation": 9}, "field 'seperation': unknown; the fields are n, prevalence,"),
        ({"n": 10, "prevalence": 0.5, "enrichment": [{"select": "x", "inclusion_probability": 1}]},
         "field 'enrichment': item 0: enrichment selector must be 'positive' or 'negative', got 'x'"),
        ({"n": 10, "prevalence": 0.5, "enrichment": [{"select": "positive", "inclusion_probability": "1"}]},
         "field 'enrichment[0].inclusion_probability': expected a number, got '1'"),
    ]:
        with pytest.raises(InputError) as exc:
            read_record(synth.PopulationSpec, data)
        assert str(exc.value).startswith(message), exc.value
    with pytest.raises(InputError, match="^field 'kind': expected 'scle_sample', got 'scle_annotations'$"):
        read_record(scle.ScleSample, {"kind": "scle_annotations"}, kind="scle_sample")


def test_writer_rules():
    annotation = scle.ScleAnnotation("c", categories=(scle.TagCategory.NEVER_EVENT,),
                                     verdict=datamodel.ReferenceLabel.NEGATIVE)
    written = {"case_id": "c", "reviewer": "", "categories": ["never_event"], "triviality": None, "note": "",
               "verdict": "negative"}
    document = write_record(scle._Annotations((annotation,)), "scle_annotations")
    assert document == {"kind": "scle_annotations", "annotations": [written]}
    study = design.PrecisionStudyAssumptions(100, 0.1, 0.1, 0.5, 0.8, 0.9)
    assert write_record(study, derived=("shared_flag_rate",))["shared_flag_rate"] == 0.05
    with pytest.raises(ValueError):  # a NaN is passed on as it is, and strict JSON rejects it
        canonical_json(write_record(scle.TagProjection(1, float("nan"), 0.0, 1.0)))


def test_show_writes_json_values_as_json_text():
    assert [show(v) for v in ("a", None, True, {"x": 1}, [1.5])] == ["'a'", "null", "true", '{"x": 1}', "[1.5]"]
