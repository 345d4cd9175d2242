"""Result records and SetSystem: immutable values, built without code generation at import."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import traceschemes
from traceschemes import (
    BoundReport,
    BoundValue,
    CffCover,
    ConfigCheck,
    CrossCheck,
    ExtensionCertificate,
    IppsAmbiguity,
    OwnSubsetReport,
    ParamsInvalid,
    ProofTraceIpps,
    ProofTraceTs,
    SchemeParams,
    SearchResult,
    SetSystem,
    TraceBlocked,
    TsEvasion,
    VerifyOutcome,
    new_set_system,
)

SRC = Path(__file__).resolve().parent.parent / "src"
RECORDS = [CffCover, TsEvasion, IppsAmbiguity, VerifyOutcome, BoundValue, BoundReport,
           ExtensionCertificate, OwnSubsetReport, SearchResult, TraceBlocked, ProofTraceTs,
           ProofTraceIpps, ConfigCheck, CrossCheck]


def test_import_generates_no_dataclass_code():
    code = ("import sys, traceschemes.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_exported_record_is_listed():
    exported = {obj for obj in vars(traceschemes).values()
                if isinstance(obj, type) and hasattr(obj, "_fields")}
    assert exported == {*RECORDS, SchemeParams}


def _pair(cls):
    """Two equal, separately built instances: one positional, one by keyword."""
    if cls is SetSystem:
        return SetSystem(5, 2, ((0, 1), (2, 3))), new_set_system(5, [[2, 3], [0, 1]])
    if cls is SchemeParams:
        return SchemeParams(2, 3, 5), SchemeParams(t=2, w=3, v=5)
    values = [(i, str(i)) for i in range(len(cls._fields))]
    return cls(*values), cls(**dict(zip(cls._fields, values)))


@pytest.mark.parametrize("cls", [*RECORDS, SchemeParams, SetSystem], ids=lambda c: c.__name__)
def test_records_are_immutable_values(cls):
    obj, twin = _pair(cls)
    assert obj is not twin and obj == twin and hash(obj) == hash(twin)
    assert repr(obj) == repr(twin)
    field = "v" if cls is SetSystem else cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, 1)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert obj == twin


def test_set_system_is_no_tuple_and_keeps_its_masks():
    s = new_set_system(5, [[0, 1], [2, 3]])
    assert not isinstance(s, tuple)
    assert s != (5, 2, ((0, 1), (2, 3)))
    assert s != SetSystem(5, 2, ((0, 1), (2, 4)))
    assert repr(s) == "SetSystem(v=5, w=2, blocks=((0, 1), (2, 3)))"
    assert hash(s) == hash((5, 2, ((0, 1), (2, 3))))
    assert s.masks == (0b11, 0b1100)
    with pytest.raises(AttributeError):
        s.masks = ()
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert twin == s and twin.masks == s.masks


def test_scheme_params_still_validates():
    with pytest.raises(ParamsInvalid):
        SchemeParams(2, 1, 5)
    with pytest.raises(ParamsInvalid):
        SchemeParams(t=2, w=1, v=5)
    with pytest.raises(ParamsInvalid):
        SchemeParams(2, 3, 5)._replace(w=1)
    with pytest.raises(ParamsInvalid):
        SchemeParams._make((2, 1, 5))
    assert SchemeParams(2, 3, 5)._replace(v=7) == SchemeParams(2, 3, 7)


def test_own_subset_count_is_the_field():
    assert OwnSubsetReport(0, 2, ((0, 1),), 7).count == 7
