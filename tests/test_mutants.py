"""The mutation check's list cannot rot: each mutant's text occurs once in its file."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "bench" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_text_occurs_exactly_once():
    assert len(mutants.MUTANTS) == 19
    for name, (file, old, new) in mutants.MUTANTS.items():
        text = (ROOT / "src" / "traceschemes" / file).read_text()
        assert text.count(old) == 1, name
        assert new != old, name
