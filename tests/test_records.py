"""Result records and SetSystem: immutable values, built without code generation at import."""

import copy
import os
import pickle
import subprocess
import sys
import types
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

# Each submodule's public names, as the package exports them.  The package's
# gf is the field constructor; the other five submodules are exported too.
PUBLIC = {
    "bounds": """BoundReport BoundValue InconsistentBounds binom bound_report cff_upper_eff
        cff_upper_new cff_upper_special ipps_upper_collins ipps_upper_new
        minimal_config_size_bound own_subset_min_count render_bound_report ts_exact_small
        ts_lower_packing ts_lower_trivial ts_upper_collins ts_upper_general ts_upper_special
        ts_upper_sw""",
    "construct": """CongruenceViolated ExtensionCertificate NotADesign ag_lines
        design_max_strength extend_design greedy_packing_ts hermitian_unital inversive_plane
        pg_lines trivial_ts""",
    "core": """BudgetExceeded DuplicateBlock FormatError NonUniformBlocks OwnSubsetReport
        ParamsInvalid PointOutOfRange SchemeError SchemeParams SetSystem TauOutOfRange
        enumerate_own_subsets new_set_system parse_set_system render_set_system""",
    "gf": "GF SUPPORTED_ORDERS UnsupportedFieldOrder gf",
    "oracle": """ConfigCheck CrossCheck MinimalConfigTooLarge ProofTraceIpps ProofTraceTs
        SearchResult TraceBlocked check_configuration cross_check_bounds exhaustive_optimal
        ipps_violation_from_missing_own_subsets ts_violation_from_cff_failure""",
    "verify": """CERTIFIED EXHAUSTIVE HOLDS INCONCLUSIVE VIOLATED CffCover IppsAmbiguity
        TsEvasion VerifyOutcome check_witness parse_witness render_witness verify_cff
        verify_design verify_ipps verify_ipps_star verify_packing verify_ts""",
}


def test_import_generates_no_dataclass_code():
    code = ("import sys, traceschemes.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_exported_record_is_listed():
    exported = {obj for obj in (getattr(traceschemes, n) for n in traceschemes.__all__)
                if isinstance(obj, type) and hasattr(obj, "_fields")}
    assert exported == {*RECORDS, SchemeParams}


def test_public_namespace_is_pinned(monkeypatch):
    owner = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert len(owner) == 80
    assert sorted(traceschemes.__all__) == sorted([*owner, *(m for m in PUBLIC if m != "gf")])
    for name, module in owner.items():
        assert getattr(traceschemes, name) is getattr(sys.modules[f"traceschemes.{module}"], name)
    assert isinstance(traceschemes.verify, types.ModuleType)
    assert traceschemes.verify is sys.modules["traceschemes.verify"]
    assert not isinstance(traceschemes.gf, types.ModuleType)
    assert traceschemes.gf is sys.modules["traceschemes.gf"].gf
    star = {}
    exec("from traceschemes import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(traceschemes.__all__)
    assert set(traceschemes.__all__) <= set(dir(traceschemes))
    # names resolve through their module on every read, as perfbench's tracer
    # needs: a wrapper set on the module shows, and is gone once removed
    wrapper = object()
    with monkeypatch.context() as patch:
        patch.setattr(traceschemes.verify, "verify_ts", wrapper)
        assert traceschemes.verify_ts is wrapper
    assert traceschemes.verify_ts is traceschemes.verify.verify_ts is not wrapper
    assert "verify_ts" not in vars(traceschemes)


def test_records_pickle_into_a_fresh_process():
    objs = [cls(*range(len(cls._fields))) for cls in RECORDS]
    code = "import pickle, sys; print(repr(pickle.load(sys.stdin.buffer)))"
    done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(objs),
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == repr(objs) + "\n"
    assert pickle.loads(pickle.dumps(objs)) == objs


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
